//! The full online-analysis framework of the paper's Figure 3:
//!
//! ```text
//!   instrumented program --trace--> pipe --> rank 0 --chunks--> ranks 1..np
//!                                                 \--- merge ---/
//! ```
//!
//! A pinsim kernel (standing in for a Pin-instrumented benchmark) streams
//! its references through a bounded pipe; the windowed Parda streamer
//! (Algorithm 5) consumes the stream in windows, so analysis runs
//! concurrently with trace generation and memory stays bounded even for
//! endless traces.
//!
//! Run with: `cargo run --release --example streaming_online`

use parda::pinsim::{collect_trace, run_through_pipe, MergeSortScan};
use parda::prelude::*;

fn main() {
    let program = MergeSortScan::new(50_000, 11);
    let expected_refs = {
        // For the wrap-up comparison, also materialize the trace offline.
        collect_trace(program.clone())
    };
    println!(
        "program: mergesort over 50k keys ({} references)",
        expected_refs.len()
    );

    // Pin → pipe: 64 Kw pipe, like the paper's 64 Mw scaled down.
    let reader = run_through_pipe(program, 64 * 1024);

    // Pipe → windowed Parda: 4 ranks, 8k references per rank per window.
    let config = PardaConfig::with_ranks(4);
    let start = std::time::Instant::now();
    let hist = parda_phased::<SplayTree, _>(reader, 8_192, &config);
    let elapsed = start.elapsed();

    println!(
        "online analysis: {} references in {:.1} ms ({:.1} Mrefs/s)",
        hist.total(),
        elapsed.as_secs_f64() * 1e3,
        hist.total() as f64 / elapsed.as_secs_f64() / 1e6
    );
    print!("{}", hist.to_binned().render());

    // The streaming result is exactly the offline result.
    let offline = analyze_sequential::<SplayTree>(expected_refs.as_slice(), None);
    assert_eq!(hist, offline, "streaming must equal offline analysis");
    println!("validated: streaming histogram equals offline analysis");
}
