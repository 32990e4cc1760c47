//! Cross-crate validation: every analysis engine, every tree, and the cache
//! simulator must tell one consistent story on realistic workloads.

use parda::prelude::*;

fn spec_trace(name: &str, n: u64, seed: u64) -> Trace {
    SpecBenchmark::by_name(name)
        .unwrap()
        .generator(n, seed)
        .take_trace(n as usize)
}

#[test]
fn all_engines_agree_on_spec_workloads() {
    for name in ["mcf", "gcc", "povray"] {
        let trace = spec_trace(name, 20_000, 5);
        let reference = analyze_naive(trace.as_slice());
        assert_eq!(
            analyze_sequential::<SplayTree>(trace.as_slice(), None),
            reference,
            "{name}: splay"
        );
        assert_eq!(
            analyze_sequential::<AvlTree>(trace.as_slice(), None),
            reference,
            "{name}: avl"
        );
        assert_eq!(
            analyze_sequential::<Treap>(trace.as_slice(), None),
            reference,
            "{name}: treap"
        );
        assert_eq!(
            analyze_sequential::<VectorTree>(trace.as_slice(), None),
            reference,
            "{name}: vector"
        );
        for ranks in [2, 5, 8] {
            let cfg = PardaConfig::with_ranks(ranks);
            assert_eq!(
                parda_threads::<SplayTree>(trace.as_slice(), &cfg),
                reference,
                "{name}: parda p={ranks}"
            );
            assert_eq!(
                parda_threads::<AvlTree>(trace.as_slice(), &cfg),
                reference,
                "{name}: parda avl p={ranks}"
            );
        }
        assert_eq!(
            parda_phased::<Treap, _>(
                SliceStream::new(trace.as_slice()),
                1_234,
                &PardaConfig::with_ranks(3)
            ),
            reference,
            "{name}: phased"
        );
    }
}

#[test]
fn histogram_predicts_lru_simulation_on_every_locality_class() {
    for name in ["milc", "mcf", "namd", "gcc", "libquantum"] {
        let trace = spec_trace(name, 30_000, 9);
        let hist = parda_threads::<SplayTree>(trace.as_slice(), &PardaConfig::with_ranks(4));
        for capacity in [16usize, 256, 4_096] {
            let mut cache = LruCache::new(capacity);
            let stats = cache.run_trace(trace.as_slice());
            assert_eq!(
                hist.hit_count(capacity as u64),
                stats.hits,
                "{name} at {capacity} lines"
            );
        }
    }
}

#[test]
fn bounded_analysis_contract_on_spec_workloads() {
    for name in ["mcf", "sphinx3"] {
        let trace = spec_trace(name, 25_000, 2);
        let full = analyze_sequential::<SplayTree>(trace.as_slice(), None);
        for bound in [32u64, 256] {
            let mut cfg = PardaConfig::with_ranks(4);
            cfg.bound = Some(bound);
            let bounded = parda_threads::<SplayTree>(trace.as_slice(), &cfg);
            assert_eq!(bounded.total(), full.total(), "{name} B={bound}");
            for d in 0..bound {
                assert_eq!(bounded.count(d), full.count(d), "{name} B={bound} d={d}");
            }
            // The derived MRC agrees for every cache the bound covers.
            for cap in [1u64, bound / 2, bound] {
                assert!(
                    (bounded.miss_ratio(cap) - full.miss_ratio(cap)).abs() < 1e-12,
                    "{name} B={bound} cap={cap}"
                );
            }
        }
    }
}

#[test]
fn trace_io_round_trips_through_analysis() {
    use parda::trace::io::{read_trace, write_trace, Encoding};
    let trace = spec_trace("bzip2", 10_000, 1);
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace, Encoding::DeltaVarint).unwrap();
    let back = read_trace(buf.as_slice()).unwrap();
    assert_eq!(
        analyze_sequential::<SplayTree>(trace.as_slice(), None),
        analyze_sequential::<SplayTree>(back.as_slice(), None)
    );
}

#[test]
fn mrc_from_histogram_is_monotone_and_anchored() {
    let trace = spec_trace("astar", 30_000, 4);
    let hist = analyze_sequential::<SplayTree>(trace.as_slice(), None);
    let curve = hist.miss_ratio_curve_pow2();
    assert!(
        curve.windows(2).all(|w| w[1].1 <= w[0].1),
        "MRC must not increase"
    );
    let cold = hist.infinite() as f64 / hist.total() as f64;
    let last = curve.last().unwrap().1;
    assert!(
        (last - cold).abs() < 1e-12,
        "MRC asymptote must equal the cold-miss ratio"
    );
}

/// Relabelling addresses cannot change a distance. A strided copy of a
/// trace (`base + a · 2^s`, whose low bits are all alike) gives the dense
/// trace's histogram on the windowed streamer, the sequential engine, the
/// one-window parallel pass and a pushed session.
#[test]
fn strided_copies_keep_the_dense_histogram() {
    let dense = spec_trace("gcc", 60_000, 11);
    let expected = analyze_sequential::<SplayTree>(dense.as_slice(), None);
    let windowed = Analysis::new()
        .tree(TreeKind::Vector)
        .ranks(4)
        .mode(Mode::Phased {
            chunk: 4_096,
            reduction: Reduction::ShipToRankZero,
        });
    for shift in [0u32, 3, 12, 16, 20] {
        let strided: Vec<Addr> = dense
            .as_slice()
            .iter()
            .map(|&a| 0x5500_0000_0000u64.wrapping_add(a << shift))
            .collect();
        let (streamed, _) = windowed.run_stream(SliceStream::new(&strided));
        assert_eq!(streamed, expected, "stride 2^{shift}: windowed stream");
        let seq = Analysis::new().mode(Mode::Seq).tree(TreeKind::Vector);
        assert_eq!(seq.run(&strided).0, expected, "stride 2^{shift}: seq");
        let parda = Analysis::new()
            .tree(TreeKind::Vector)
            .ranks(4)
            .mode(Mode::Threads);
        assert_eq!(parda.run(&strided).0, expected, "stride 2^{shift}: parda");
        let mut session = windowed.session();
        for frame in strided.chunks(3_000) {
            session.feed(frame);
        }
        let (pushed, _) = session.finish().unwrap();
        assert_eq!(pushed, expected, "stride 2^{shift}: session");
    }
}
