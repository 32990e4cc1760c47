//! The paper's worked examples (Tables I–III, Figures 1–2) executed
//! through the public facade API.

use parda::prelude::*;

const TABLE1: &str = "dacbccgefa";
const TABLE3: &str = "dacbccgefafbcmtmacfbdcac";

#[test]
fn table1_reuse_distances() {
    // Time:      0 1 2 3 4 5 6 7 8 9
    // Data Ref.: d a c b c c g e f a
    // Distance:  ∞ ∞ ∞ ∞ 1 0 ∞ ∞ ∞ 5
    let trace = Trace::from_labels(TABLE1);
    let expected: Vec<Distance> = vec![
        Distance::Infinite,
        Distance::Infinite,
        Distance::Infinite,
        Distance::Infinite,
        Distance::Finite(1),
        Distance::Finite(0),
        Distance::Infinite,
        Distance::Infinite,
        Distance::Infinite,
        Distance::Finite(5),
    ];
    // Per-reference check with the naive stack (which exposes distances).
    let mut stack = NaiveStack::new();
    for (i, (&addr, &want)) in trace.as_slice().iter().zip(&expected).enumerate() {
        assert_eq!(Distance::from(stack.access(addr)), want, "reference {i}");
    }
    // Aggregate check through the tree engine.
    let hist = analyze_sequential::<SplayTree>(trace.as_slice(), None);
    let expected_hist: ReuseHistogram = expected.into_iter().collect();
    assert_eq!(hist, expected_hist);
}

#[test]
fn figure1_distance_computation_at_time_9() {
    // Figure 1: processing the second 'a' at time 9 computes d = 5 via the
    // tree walk 1 + weight(right subtrees) and leaves the tree holding
    // {0:d, 3:b, 5:c, 6:g, 7:e, 8:f, 9:a}.
    let trace = Trace::from_labels(TABLE1);
    let mut engine: parda::core::Engine<SplayTree> = parda::core::Engine::new(None, 0);
    engine.process_chunk(&trace.as_slice()[..9], 0, parda::core::MissSink::Infinite);

    // The tree's keys are the timestamps; each node's address is the
    // trace's reference at its timestamp.
    let state = |engine: &parda::core::Engine<SplayTree>| -> Vec<(u64, u64)> {
        let trace = trace.as_slice();
        engine
            .export_state()
            .into_iter()
            .map(|ts| (ts, trace[ts as usize]))
            .collect()
    };
    let before: Vec<(u64, u64)> = state(&engine);
    assert_eq!(
        before,
        vec![
            (0, b'd' as u64),
            (1, b'a' as u64),
            (3, b'b' as u64),
            (5, b'c' as u64),
            (6, b'g' as u64),
            (7, b'e' as u64),
            (8, b'f' as u64),
        ],
        "Figure 1(a) tree contents"
    );

    engine.process_chunk(&trace.as_slice()[9..], 9, parda::core::MissSink::Infinite);
    assert_eq!(engine.histogram().count(5), 1, "d(a@9) = 5");
    let after: Vec<(u64, u64)> = state(&engine);
    assert_eq!(
        after,
        vec![
            (0, b'd' as u64),
            (3, b'b' as u64),
            (5, b'c' as u64),
            (6, b'g' as u64),
            (7, b'e' as u64),
            (8, b'f' as u64),
            (9, b'a' as u64),
        ],
        "Figure 1(b) tree contents"
    );
}

#[test]
fn table2_two_processor_local_vs_global() {
    // Table II: trace d a c b c c | g e f a f b c over two processors.
    // Global distances: ∞ ∞ ∞ ∞ 1 0 ∞ ∞ ∞ 5 1 5 5.
    let trace = Trace::from_labels("dacbccgefafbc");
    let seq = analyze_sequential::<SplayTree>(trace.as_slice(), None);
    assert_eq!(seq.infinite(), 7);
    assert_eq!(seq.count(0), 1);
    assert_eq!(seq.count(1), 2);
    assert_eq!(seq.count(5), 3);

    // The parallel algorithm must resolve the right chunk's local
    // infinities (a, b, c) to their global distance 5.
    let hist = parda_threads::<SplayTree>(trace.as_slice(), &PardaConfig::with_ranks(2));
    assert_eq!(hist, seq);
}

#[test]
fn table3_three_processor_analysis() {
    // Table III trace, 24 references, analyzed with 3 processors (the
    // Figure 2 walkthrough) and cross-checked against all engines.
    let trace = Trace::from_labels(TABLE3);
    assert_eq!(trace.len(), 24);
    assert_eq!(trace.distinct(), 9); // d a c b g e f m t

    let reference = analyze_naive(trace.as_slice());
    assert_eq!(reference.infinite(), 9);
    let parallel = parda_threads::<SplayTree>(trace.as_slice(), &PardaConfig::with_ranks(3));
    assert_eq!(parallel, reference);
}
