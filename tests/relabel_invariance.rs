//! Relabelling invariance: an oracle that shares no code with the engines.
//!
//! A reuse distance counts distinct addresses, so any injective relabelling
//! of the addresses leaves every histogram unchanged. Random traces go
//! through every exact surface twice — as generated and relabelled by a
//! stride `2^s`, an xor mask or a random permutation of their distinct
//! addresses — and each surface must give the plain trace's sequential
//! histogram both times. The relabelled addresses land in other table
//! homes and arrive in the same order, so a surface whose table, tree keys
//! or history compaction depended on the address values would diverge.

use parda::prelude::*;
use parda::trace::io::{write_trace_v2_framed, Encoding};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;

/// An injective map of addresses.
#[derive(Clone, Debug)]
enum Relabel {
    /// `base + a · 2^s`.
    Stride(u32),
    /// `a ^ mask`.
    Xor(u64),
    /// A random permutation of the trace's distinct addresses.
    Permute(u64),
}

fn relabel_strategy() -> impl Strategy<Value = Relabel> {
    prop_oneof![
        (0u32..40).prop_map(Relabel::Stride),
        any::<u64>().prop_map(Relabel::Xor),
        any::<u64>().prop_map(Relabel::Permute),
    ]
}

fn relabelled(trace: &[Addr], relabel: &Relabel) -> Vec<Addr> {
    match *relabel {
        Relabel::Stride(s) => trace
            .iter()
            .map(|&a| 0x5500_0000_0000u64.wrapping_add(a << s))
            .collect(),
        Relabel::Xor(mask) => trace.iter().map(|&a| a ^ mask).collect(),
        Relabel::Permute(seed) => {
            let mut distinct: Vec<Addr> = trace.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let mut image = distinct.clone();
            image.shuffle(&mut StdRng::seed_from_u64(seed));
            let map: HashMap<Addr, Addr> = distinct.into_iter().zip(image).collect();
            trace.iter().map(|a| map[a]).collect()
        }
    }
}

/// A v2 file of `trace` with 64-reference frames.
fn framed_file(name: &str, trace: &[Addr]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parda-relabel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let f = std::fs::File::create(&path).unwrap();
    write_trace_v2_framed(f, &Trace::from_vec(trace.to_vec()), Encoding::Raw, 64).unwrap();
    path
}

/// Every exact surface's histogram of `trace`, by name. Small windows
/// make the windowed surfaces append to their history window after window,
/// so its time axis compacts and its table is relabelled many times.
fn surfaces(trace: &[Addr], file: &str) -> Vec<(&'static str, ReuseHistogram)> {
    let windowed = Analysis::new()
        .tree(TreeKind::Vector)
        .ranks(3)
        .mode(Mode::Phased {
            chunk: 16,
            reduction: Reduction::ShipToRankZero,
        });
    let path = framed_file(file, trace);
    let (from_file, _) = windowed.run_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_dir(path.parent().expect("a directory"));
    let mut session = windowed.session();
    for frame in trace.chunks(37) {
        session.feed(frame);
    }
    let (pushed, _) = session.finish().unwrap();
    let run = |mode: Mode| {
        Analysis::new()
            .tree(TreeKind::Vector)
            .ranks(3)
            .mode(mode)
            .run(trace)
            .0
    };
    vec![
        ("seq", run(Mode::Seq)),
        ("threads", run(Mode::Threads)),
        ("phased", windowed.run(trace).0),
        ("run_file", from_file),
        ("session", pushed),
    ]
}

proptest! {
    #[test]
    fn relabelling_leaves_every_histogram_unchanged(
        trace in proptest::collection::vec(0u64..200, 0..1_500),
        relabel in relabel_strategy(),
    ) {
        let expected = Analysis::new().mode(Mode::Seq).run(&trace).0;
        let image = relabelled(&trace, &relabel);
        for (plain, moved) in surfaces(&trace, "plain.trc")
            .into_iter()
            .zip(surfaces(&image, "moved.trc"))
        {
            prop_assert_eq!(&plain.1, &expected, "{} on the plain trace", plain.0);
            prop_assert_eq!(&moved.1, &expected, "{} under {:?}", moved.0, relabel);
        }
    }
}
