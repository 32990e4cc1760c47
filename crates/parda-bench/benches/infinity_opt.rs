//! Ablation **D2** (time axis): Algorithm 4's space-optimized infinity
//! processing vs plain Algorithm 3 re-insertion.
//!
//! The optimization avoids inserting stream elements into the tree/table,
//! trading insertions for a running counter. On workloads with heavy
//! cross-chunk sharing the plain variant pays O(stream) extra tree
//! insertions per rank. Both rows time the same serial cascade through
//! [`parda_core::Engine`] ([`parda_bench::d2_cascade`]), not the parallel
//! driver, which runs only the optimized cascade. (The space axis is
//! measured by the `ablation_space` binary.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parda_bench::d2_cascade;
use parda_trace::gen::{ReuseProfile, StackDistGen};
use parda_trace::{AddressStream, Trace};
use std::hint::black_box;

/// Heavy cross-chunk sharing: a modest footprint reused at distances well
/// beyond the chunk size, so most distinct elements travel the cascade.
fn shared_trace(n: u64) -> Trace {
    StackDistGen::new(n, n / 25, ReuseProfile::geometric(5_000.0), 9).take_trace(n as usize)
}

fn bench_infinity_processing(c: &mut Criterion) {
    let n = 200_000u64;
    let trace = shared_trace(n);
    let mut group = c.benchmark_group("infinity_opt");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);
    for ranks in [4usize, 16] {
        for (name, optimized) in [("optimized", true), ("plain", false)] {
            group.bench_with_input(BenchmarkId::new(name, ranks), &ranks, |b, &np| {
                b.iter(|| black_box(d2_cascade(trace.as_slice(), np, optimized)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_infinity_processing);
criterion_main!(benches);
