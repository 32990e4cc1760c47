//! Ablation **D5**: the last-access table's hash map.
//!
//! The original PARDA leaned on GLib's hash table; we built a Robin Hood
//! open-addressing map that places a key by the high bits of one multiply
//! (the `robin-hood-fx` rows keep their name). This bench compares it
//! against `std::HashMap` with SipHash (the safe default) and with the Fx
//! hasher, on the exact access mix the analyzer produces: lookup + insert
//! per reference, plus deletions in bounded mode.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use parda_hash::{FxHashMap, RobinHoodMap};
use parda_trace::gen::{ReuseProfile, StackDistGen};
use parda_trace::AddressStream;
use std::collections::HashMap;
use std::hint::black_box;

fn workload(n: u64) -> Vec<u64> {
    StackDistGen::new(n, n / 20, ReuseProfile::geometric(64.0), 5)
        .take_trace(n as usize)
        .into_vec()
}

fn bench_upsert(c: &mut Criterion) {
    let n = 200_000u64;
    let addrs = workload(n);
    let mut group = c.benchmark_group("hashing/upsert");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);

    group.bench_function("robin-hood-fx", |b| {
        b.iter(|| {
            let mut map: RobinHoodMap<u64, u64> = RobinHoodMap::new();
            for (ts, &a) in addrs.iter().enumerate() {
                let _ = black_box(map.get(a));
                map.insert(a, ts as u64);
            }
            black_box(map.len())
        })
    });
    group.bench_function("std-siphash", |b| {
        b.iter(|| {
            let mut map: HashMap<u64, u64> = HashMap::new();
            for (ts, &a) in addrs.iter().enumerate() {
                let _ = black_box(map.get(&a));
                map.insert(a, ts as u64);
            }
            black_box(map.len())
        })
    });
    group.bench_function("std-fx", |b| {
        b.iter(|| {
            let mut map: FxHashMap<u64, u64> = FxHashMap::default();
            for (ts, &a) in addrs.iter().enumerate() {
                let _ = black_box(map.get(&a));
                map.insert(a, ts as u64);
            }
            black_box(map.len())
        })
    });
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    // Bounded-mode pattern: insert + evict keeps the table at a fixed size.
    let n = 200_000u64;
    let addrs = workload(n);
    let cap = 4_096usize;
    let mut group = c.benchmark_group("hashing/churn");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);

    group.bench_function("robin-hood-fx", |b| {
        b.iter(|| {
            let mut map: RobinHoodMap<u64, u64> = RobinHoodMap::with_capacity(cap);
            let mut fifo: std::collections::VecDeque<u64> = Default::default();
            for (ts, &a) in addrs.iter().enumerate() {
                if map.insert(a, ts as u64).is_none() {
                    fifo.push_back(a);
                    if fifo.len() > cap {
                        let victim = fifo.pop_front().unwrap();
                        map.remove(victim);
                    }
                }
            }
            black_box(map.len())
        })
    });
    group.bench_function("std-siphash", |b| {
        b.iter(|| {
            let mut map: HashMap<u64, u64> = HashMap::with_capacity(cap);
            let mut fifo: std::collections::VecDeque<u64> = Default::default();
            for (ts, &a) in addrs.iter().enumerate() {
                if map.insert(a, ts as u64).is_none() {
                    fifo.push_back(a);
                    if fifo.len() > cap {
                        let victim = fifo.pop_front().unwrap();
                        map.remove(&victim);
                    }
                }
            }
            black_box(map.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_upsert, bench_churn);
criterion_main!(benches);
