//! Shared-cache analysis benchmark: the concurrent-analyzer perf anchor.
//!
//! Measures the throughput (refs/s) of the thread-aware concurrent
//! analyzer — one exact shared-stream reuse-distance pass with per-thread
//! attribution plus a solo pass per thread — over the multi-threaded
//! pinsim kernels (true- and false-sharing stencil, parallel matmul) and
//! a modeled interleaving of per-thread zipf streams. Every row also
//! cross-checks the shared histogram against `parda-cachesim` LRU
//! simulation of the same interleaved trace at three capacities
//! (`cachesim_exact`), and records the partition the solo MRCs recommend,
//! so the numbers stay tied to a verified analysis.
//!
//! Emits machine-readable JSON (`BENCH_shared.json` at the repo root) so
//! future PRs can diff the analyzer against the numbers recorded here;
//! `BENCH_shared_floor.json` holds the floors ci.sh enforces.
//!
//!   cargo run --release -p parda-bench --bin shared_cache -- \
//!       --refs 2000000 --out BENCH_shared.json

use parda_bench::{time, Host};
use parda_cachesim::LruCache;
use parda_core::{
    analyze_concurrent, default_granularity, interleave_threads, recommend_partition,
    ConcurrentAnalysis, InterleaveModel,
};
use parda_pinsim::{collect_mt_trace, MtMatMul, MtStencil2D};
use parda_trace::gen::ZipfGen;
use parda_trace::{AddressStream, ThreadedTrace};
use parda_tree::SplayTree;
use serde::Serialize;
use std::hint::black_box;

/// One measured configuration.
#[derive(Serialize)]
struct Row {
    workload: String,
    threads: usize,
    refs: u64,
    refs_per_sec: u64,
    secs: f64,
    sharing_ratio: f64,
    /// Shared histogram == cachesim LRU at every checked capacity.
    cachesim_exact: bool,
    /// Recommended allocation for `capacity` lines (sorted-TID order).
    capacity: u64,
    allocation: Vec<u64>,
    predicted_misses: u64,
}

/// The whole report (`BENCH_shared.json`).
#[derive(Serialize)]
struct SharedReport {
    bench: &'static str,
    host: Host,
    refs: u64,
    capacity: u64,
    seed: u64,
    runs_per_config: u32,
    results: Vec<Row>,
}

fn best_of(runs: u32, mut f: impl FnMut() -> ConcurrentAnalysis) -> (ConcurrentAnalysis, f64) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..runs {
        let (r, secs) = time(&mut f);
        best = best.min(secs);
        kept = Some(black_box(r));
    }
    (kept.expect("at least one run"), best)
}

/// The shared histogram must predict the LRU simulation exactly — a wrong
/// analyzer benchmarked fast is worse than useless.
fn matches_cachesim(analysis: &ConcurrentAnalysis, trace: &ThreadedTrace) -> bool {
    [64u64, 512, 2048].iter().all(|&c| {
        analysis.shared.hit_count(c) == LruCache::new(c as usize).run_trace(trace.addrs()).hits
    })
}

fn measure(
    results: &mut Vec<Row>,
    workload: String,
    trace: &ThreadedTrace,
    capacity: u64,
    runs: u32,
) {
    let (analysis, secs) = best_of(runs, || analyze_concurrent::<SplayTree>(trace));
    let plan = recommend_partition(
        &analysis.per_thread_solo,
        capacity,
        default_granularity(capacity),
    );
    let refs = trace.len() as u64;
    results.push(Row {
        workload,
        threads: analysis.thread_ids.len(),
        refs,
        refs_per_sec: (refs as f64 / secs) as u64,
        secs,
        sharing_ratio: analysis.sharing_ratio(),
        cachesim_exact: matches_cachesim(&analysis, trace),
        capacity,
        allocation: plan.allocation,
        predicted_misses: plan.predicted_misses,
    });
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
        .unwrap_or(2_000_000);
    let capacity: u64 = get("--capacity")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_096);
    let seed: u64 = get("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let runs: u32 = get("--runs").and_then(|v| v.parse().ok()).unwrap_or(3);
    let out = get("--out").unwrap_or_else(|| "BENCH_shared.json".into());

    let mut results = Vec::new();

    // Kernel sizes scale with --refs so the smoke run stays cheap: the
    // stencil issues ~6·n²·iters refs, the matmul 3·n³ + counters.
    let stencil_n = ((refs as f64 / (6.0 * 8.0)).sqrt() as usize).max(16);
    let matmul_n = ((refs as f64 / 3.0).cbrt() as usize).max(8);
    for (name, false_sharing) in [("mt-stencil", false), ("mt-stencil-false-sharing", true)] {
        let mt = collect_mt_trace(MtStencil2D::new(stencil_n, 8, 4, false_sharing));
        eprintln!(
            "shared_cache: {name} n={stencil_n} refs={}",
            mt.interleaved.len()
        );
        measure(
            &mut results,
            name.to_string(),
            &mt.interleaved,
            capacity,
            runs,
        );
    }
    let mt = collect_mt_trace(MtMatMul::new(matmul_n, 4, false));
    eprintln!(
        "shared_cache: mt-matmul n={matmul_n} refs={}",
        mt.interleaved.len()
    );
    measure(
        &mut results,
        "mt-matmul".to_string(),
        &mt.interleaved,
        capacity,
        runs,
    );

    // Modeled interleaving of independent zipf threads: the co-run shape
    // (low true sharing, contended capacity) at full --refs scale.
    let per_thread = refs as usize / 4;
    let threads: Vec<_> = (0..4u64)
        .map(|t| ZipfGen::new(100_000, 0.99, t << 40, seed + t).take_trace(per_thread))
        .collect();
    let slices: Vec<&[parda_trace::Addr]> = threads.iter().map(|t| t.as_slice()).collect();
    for (name, model) in [
        ("zipf4-rr", InterleaveModel::round_robin()),
        (
            "zipf4-prob",
            InterleaveModel::Probabilistic {
                weights: vec![4, 2, 1, 1],
                seed,
            },
        ),
    ] {
        let interleaved = interleave_threads(&slices, &model);
        eprintln!("shared_cache: {name} refs={}", interleaved.len());
        measure(&mut results, name.to_string(), &interleaved, capacity, runs);
    }

    let report = SharedReport {
        bench: "shared_cache",
        host: Host::probe(),
        refs,
        capacity,
        seed,
        runs_per_config: runs,
        results,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, json).expect("write report");
    eprintln!("shared_cache: wrote {out}");
    for row in &report.results {
        println!(
            "{:<26} threads={} refs={} {:>10} refs/s sharing={:.4} cachesim_exact={} predicted_misses={}",
            row.workload,
            row.threads,
            row.refs,
            row.refs_per_sec,
            row.sharing_ratio,
            row.cachesim_exact,
            row.predicted_misses
        );
    }
}
