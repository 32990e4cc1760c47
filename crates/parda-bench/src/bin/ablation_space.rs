//! Ablation **D2**: the space impact of Algorithm 4 (space-optimized local
//! infinity processing).
//!
//! The paper proves that with the optimization the final aggregate state is
//! O(M) while the plain algorithm grows to O(np·M). This binary measures
//! the aggregate number of live tree nodes across all ranks after the
//! cascade ([`parda_bench::d2_cascade`]), with the optimization on and off,
//! across rank counts. The plain arm runs each absorbed stream through the
//! rank's reference path, as plain Algorithm 3 does.
//!
//! Run with: `cargo run --release -p parda-bench --bin ablation_space -- [--refs N] [--json]`

use parda_bench::{d2_cascade, BenchArgs, Report};
use parda_trace::gen::{ReuseProfile, StackDistGen};
use parda_trace::AddressStream;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ranks: usize,
    live_optimized: usize,
    live_plain: usize,
    m: usize,
}

/// Live tree nodes summed over every rank after the cascade.
fn aggregate_live(trace: &[u64], np: usize, optimized: bool) -> usize {
    d2_cascade(trace, np, optimized)
        .iter()
        .map(|e| e.live())
        .sum()
}

fn main() {
    let args = BenchArgs::parse(200_000, 8);
    // A workload with heavy cross-chunk sharing maximizes replica blowup:
    // uniform reuse over a footprint much smaller than the chunk size.
    let m = 10_000u64;
    let trace = StackDistGen::new(args.refs, m, ReuseProfile::geometric(2_000.0), args.seed)
        .take_trace(args.refs as usize);

    println!(
        "Ablation D2 (Algorithm 4 space optimization): N={} M={m}",
        trace.len()
    );
    let report = Report::new(&["ranks", "live_opt", "live_plain", "plain/opt"], args.json);
    let mut out = std::io::stdout();
    report.print_header(&mut out);

    for np in [2usize, 4, 8, 16, 32] {
        let live_optimized = aggregate_live(trace.as_slice(), np, true);
        let live_plain = aggregate_live(trace.as_slice(), np, false);
        let row = Row {
            ranks: np,
            live_optimized,
            live_plain,
            m: m as usize,
        };
        report.print_row(
            &mut out,
            &[
                np.to_string(),
                live_optimized.to_string(),
                live_plain.to_string(),
                format!("{:.2}", live_plain as f64 / live_optimized as f64),
            ],
            &row,
        );
    }
    println!(
        "\nexpected shape (paper §IV-C): optimized stays ≈ M = {m} regardless of ranks; \
         plain grows toward np·M as every rank retains replicas of shared elements."
    );
}
