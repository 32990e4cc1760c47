//! Hot-path throughput benchmark: the perf-trajectory anchor.
//!
//! Measures single-thread and parallel engine throughput (refs/s) on a
//! zipf workload for every tree structure and emits machine-readable JSON
//! (`BENCH_hotpath.json` at the repo root) so future PRs can diff perf
//! against the numbers recorded here.
//!
//!   cargo run --release -p parda-bench --bin hotpath -- \
//!       --refs 10000000 --out BENCH_hotpath.json

use parda_bench::{time, Host};
use parda_core::{Analysis, Engine, MissSink, Mode, PardaConfig};
use parda_trace::gen::ZipfGen;
use parda_trace::{AddressStream, Trace};
use parda_tree::{AvlTree, ReuseTree, SplayTree, Treap, TreeKind, VectorTree};
use serde::Serialize;
use std::hint::black_box;

/// One measured configuration.
#[derive(Serialize)]
struct Row {
    tree: &'static str,
    mode: &'static str,
    refs_per_sec: u64,
    secs: f64,
}

/// Parallel speedup over the sequential batched engine for one tree.
#[derive(Serialize)]
struct Speedup {
    tree: &'static str,
    threads8_over_seq: f64,
}

/// The whole report (`BENCH_hotpath.json`).
#[derive(Serialize)]
struct HotpathReport {
    bench: &'static str,
    host: Host,
    refs: u64,
    footprint: u64,
    theta: f64,
    seed: u64,
    runs_per_config: u32,
    results: Vec<Row>,
    speedups: Vec<Speedup>,
}

fn best_of<R>(runs: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (r, secs) = time(&mut f);
        black_box(r);
        best = best.min(secs);
    }
    best
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let refs: u64 = get("--refs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);
    let footprint: u64 = get("--footprint")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let theta: f64 = get("--theta").and_then(|v| v.parse().ok()).unwrap_or(0.99);
    let seed: u64 = get("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let runs: u32 = get("--runs").and_then(|v| v.parse().ok()).unwrap_or(3);
    let out = get("--out").unwrap_or_else(|| "BENCH_hotpath.json".into());
    // Optional comma-separated tree filter (e.g. --trees splay,avl) and
    // work-stealing grain override (--subchunk N), for tuning runs.
    let tree_filter: Option<Vec<String>> =
        get("--trees").map(|v| v.split(',').map(str::to_string).collect());
    let subchunk: Option<usize> = get("--subchunk").and_then(|v| v.parse().ok());

    eprintln!("hotpath: generating {refs} zipf({theta}) refs over {footprint} addresses");
    let trace: Trace = ZipfGen::new(footprint as usize, theta, 0, seed).take_trace(refs as usize);

    let mut results = Vec::new();
    let mut speedups = Vec::new();
    for kind in TreeKind::ALL {
        if let Some(filter) = &tree_filter {
            if !filter.iter().any(|t| t == kind.name()) {
                continue;
            }
        }
        // Single-thread sequential throughput: the prefetch-batched hot loop.
        let seq_secs = best_of(runs, || {
            Analysis::new()
                .tree(kind)
                .mode(Mode::Seq)
                .run(trace.as_slice())
                .0
        });
        push_row(&mut results, kind, "seq", refs, seq_secs);

        // The scalar reference loop — the batched-vs-scalar ablation.
        let secs = best_of(runs, || match kind {
            TreeKind::Splay => seq_scalar::<SplayTree>(trace.as_slice()),
            TreeKind::Avl => seq_scalar::<AvlTree>(trace.as_slice()),
            TreeKind::Treap => seq_scalar::<Treap>(trace.as_slice()),
            TreeKind::Vector => seq_scalar::<VectorTree>(trace.as_slice()),
        });
        push_row(&mut results, kind, "seq-scalar", refs, secs);

        // Pipelined shared-memory driver at 8 ranks (work-stealing
        // sub-chunks + merge-based cascade).
        let mut config = PardaConfig::with_ranks(8);
        if let Some(grain) = subchunk {
            config = config.subchunk_refs(grain);
        }
        let secs = best_of(runs, || {
            parda_core::parda_kind(trace.as_slice(), kind, &config)
        });
        push_row(&mut results, kind, "threads8", refs, secs);
        let ratio = seq_secs / secs;
        eprintln!("  {:<6} threads8/seq speedup: {ratio:.2}x", kind.name());
        speedups.push(Speedup {
            tree: kind.name(),
            threads8_over_seq: (ratio * 100.0).round() / 100.0,
        });
    }

    let report = HotpathReport {
        bench: "hotpath",
        host: Host::probe(),
        refs,
        footprint,
        theta,
        seed,
        runs_per_config: runs,
        results,
        speedups,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write BENCH json");
    eprintln!("hotpath: wrote {out}");
    println!("{json}");
}

/// Drive [`Engine::process_chunk_scalar`] directly: the pre-batching
/// per-reference loop, kept measurable as the ablation baseline.
fn seq_scalar<T: ReuseTree + Default>(trace: &[u64]) -> parda_hist::ReuseHistogram {
    let mut engine: Engine<T> = Engine::new(None, trace.len());
    engine.process_chunk_scalar(trace, 0, MissSink::Infinite);
    engine.into_histogram()
}

fn push_row(results: &mut Vec<Row>, kind: TreeKind, mode: &'static str, refs: u64, secs: f64) {
    let rps = (refs as f64 / secs) as u64;
    eprintln!(
        "  {:<6} {:<12} {:>12} refs/s ({secs:.3}s)",
        kind.name(),
        mode,
        rps
    );
    results.push(Row {
        tree: kind.name(),
        mode,
        refs_per_sec: rps,
        secs,
    });
}
