//! Fault injection through the `failpoints` feature: deterministic panics,
//! stalls, and decode failures at named sites, driven through the faulted
//! parallel driver, the windowed streamer and its history stage, and the
//! recovering trace decoders. Compiled (and run by
//! `ci.sh`) only with `--features failpoints`; the sites cost nothing in
//! normal builds.
#![cfg(feature = "failpoints")]

use parda::prelude::*;
use parda::trace::io::{write_trace_v2_framed, Encoding};
use parda::trace::load_trace_recovering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The failpoint registry is process-global; every test serializes on this
/// and starts from a clean slate.
static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parda_failpoint::clear();
    g
}

fn sample_trace(n: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 7919) % 1024).collect()
}

#[test]
fn worker_panic_is_rescued_bit_identically() {
    let _g = exclusive();
    let trace = sample_trace(6000);
    let config = PardaConfig::with_ranks(4);
    let expected = parda_threads::<SplayTree>(&trace, &config);

    parda_failpoint::configure("parallel::worker", "1*panic").unwrap();
    let policy = FaultPolicy::default().backoff(Duration::ZERO);
    let (hist, _, recovery) = parda_threads_faulted::<SplayTree>(&trace, &config, &policy).unwrap();
    assert_eq!(hist, expected, "rescued histogram must be bit-identical");
    assert_eq!(recovery.rank_retries, 1);
    assert_eq!(recovery.rank_rescues, 1);
    parda_failpoint::clear();
}

#[test]
fn worker_panic_in_a_windowed_file_run_is_rescued_and_reported() {
    let _g = exclusive();
    let trace = sample_trace(6000);
    let dir = std::env::temp_dir().join("parda-failpoint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("windowed-rescue.trc");
    let f = std::fs::File::create(&path).unwrap();
    write_trace_v2_framed(f, &Trace::from_vec(trace.clone()), Encoding::Raw, 64).unwrap();

    // Three windows of 4 × 500 references, streamed from the v2 file.
    let analysis = Analysis::new()
        .mode(Mode::Phased {
            chunk: 500,
            reduction: Reduction::ShipToRankZero,
        })
        .ranks(4)
        .stats(true);
    let expected = analyze_sequential::<SplayTree>(&trace, None);

    parda_failpoint::configure("parallel::worker", "1*panic").unwrap();
    let (hist, report) = analysis.run_file(&path).unwrap();
    parda_failpoint::clear();
    assert_eq!(hist, expected, "rescued histogram must be bit-identical");
    let report = report.expect("stats requested");
    assert_eq!(report.mode, "phased-stream");
    let recovery = report.recovery.expect("recovery attached");
    assert_eq!(recovery.rank_rescues, 1);
    assert_eq!(recovery.rank_retries, 1);
    assert_eq!(recovery.frames_skipped, 0, "no frame was lost");
    std::fs::remove_file(&path).unwrap();
}

/// A v2 file of `trace` with 64-reference frames.
fn framed_file(name: &str, trace: &[u64]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("parda-failpoint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let f = std::fs::File::create(&path).unwrap();
    write_trace_v2_framed(f, &Trace::from_vec(trace.to_vec()), Encoding::Raw, 64).unwrap();
    path
}

#[test]
fn windowed_file_item_past_its_retries_is_a_worker_panic_error() {
    let _g = exclusive();
    let path = framed_file("windowed-panic.trc", &sample_trace(6000));
    // An item of window 2 panics on its worker and in every rescue.
    parda_failpoint::configure("parallel::worker", "every(6)*panic").unwrap();
    parda_failpoint::configure("engine::process_chunk_scalar", "panic").unwrap();
    let policy = FaultPolicy::default().backoff(Duration::ZERO);
    let err = windowed(TreeKind::Vector)
        .fault_policy(policy)
        .run_file(&path)
        .unwrap_err();
    parda_failpoint::clear();
    match err {
        PardaError::WorkerPanic { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected WorkerPanic, got {other}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn windowed_file_run_honours_the_watchdog() {
    let _g = exclusive();
    let path = framed_file("windowed-stall.trc", &sample_trace(6000));
    parda_failpoint::configure("parallel::worker_stall", "sleep(400)").unwrap();
    let policy = FaultPolicy::default().watchdog(Duration::from_millis(50));
    let start = Instant::now();
    let err = windowed(TreeKind::Vector)
        .fault_policy(policy)
        .run_file(&path)
        .unwrap_err();
    parda_failpoint::clear();
    assert!(
        matches!(err, PardaError::Stall { .. }),
        "expected Stall, got {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stall must be detected promptly, not waited out"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_lone_window_does_no_history_work() {
    let _g = exclusive();
    let trace = sample_trace(6000);
    // Any history absorb or append would panic the run.
    parda_failpoint::configure("phased::history", "panic").unwrap();
    let (hist, report) = Analysis::new()
        .mode(Mode::Threads)
        .ranks(4)
        .subchunk_refs(500)
        .tree(TreeKind::Vector)
        .stats(true)
        .run_faulted(&trace)
        .unwrap();
    parda_failpoint::clear();
    assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
    let report = report.unwrap();
    assert!(report.phased.is_none());
    // Per-rank cascade figures of the in-memory Algorithm 3 driver the
    // single window replaced, on this trace.
    let pinned: [(u64, u64, &[u64], u64); 4] = [
        (1500, 3, &[1024, 1024, 1024], 2048),
        (1500, 3, &[1024, 1024, 1024], 3072),
        (1500, 3, &[1024, 1024, 1024], 3072),
        (1500, 2, &[500, 1000], 2524),
    ];
    assert_eq!(report.per_rank.len(), pinned.len());
    for (rm, (refs, rounds, lens, forwarded)) in report.per_rank.iter().zip(pinned) {
        assert_eq!(rm.refs, refs, "rank {}", rm.rank);
        assert_eq!(rm.cascade_rounds, rounds, "rank {}", rm.rank);
        assert_eq!(rm.round_infinity_lens, lens, "rank {}", rm.rank);
        assert_eq!(rm.infinities_forwarded, forwarded, "rank {}", rm.rank);
    }
    assert_eq!(report.per_rank[0].engine.cold_misses, hist.infinite());
}

/// The in-memory windowed streamer, three windows of 4 × 500 references.
fn windowed(tree: TreeKind) -> Analysis {
    Analysis::new()
        .mode(Mode::Phased {
            chunk: 500,
            reduction: Reduction::ShipToRankZero,
        })
        .ranks(4)
        .tree(tree)
        .stats(true)
}

/// Run `f` on a thread of its own and return its panic message, failing
/// instead of hanging if it has neither returned nor panicked in 10 s.
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    let run = std::thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !run.is_finished() {
        assert!(Instant::now() < deadline, "the run hung");
        std::thread::sleep(Duration::from_millis(5));
    }
    let payload = run.join().expect_err("the run must panic");
    *payload
        .downcast::<String>()
        .expect("a formatted panic message")
}

#[test]
fn windowed_in_memory_runs_report_their_rescue() {
    let _g = exclusive();
    let trace = sample_trace(6000);
    let expected = analyze_sequential::<SplayTree>(&trace, None);
    let analysis = windowed(TreeKind::Splay);

    // Four items per window: the sixth worker hit is an item of window 2.
    parda_failpoint::configure("parallel::worker", "1*every(6)*panic").unwrap();
    let (hist, report) = analysis.run(&trace);
    assert_eq!(hist, expected, "rescued histogram must be bit-identical");
    let recovery = report.unwrap().recovery.expect("recovery attached");
    assert_eq!(recovery.rank_rescues, 1);

    parda_failpoint::configure("parallel::worker", "1*every(6)*panic").unwrap();
    let (hist, report) = analysis.run_faulted(&trace).unwrap();
    parda_failpoint::clear();
    assert_eq!(hist, expected);
    assert_eq!(report.unwrap().recovery.unwrap().rank_rescues, 1);
}

#[test]
fn rescue_in_a_middle_window_keeps_the_history_accounting() {
    let _g = exclusive();
    let trace = sample_trace(6000);
    let expected = analyze_sequential::<SplayTree>(&trace, None);
    for tree in [TreeKind::Splay, TreeKind::Vector] {
        parda_failpoint::configure("parallel::worker", "1*every(6)*panic").unwrap();
        let (hist, report) = windowed(tree).run_stream(SliceStream::new(&trace));
        parda_failpoint::clear();
        assert_eq!(
            hist, expected,
            "{tree:?}: rescued histogram must be bit-identical"
        );
        let report = report.expect("stats requested");
        assert_eq!(report.recovery.unwrap().rank_rescues, 1, "{tree:?}");
        let phased = report.phased.expect("windowed stats");
        assert_eq!(phased.phases, 3, "{tree:?}");
        assert_eq!(phased.phase_reduction_ns.len() as u64, phased.phases);
        assert_eq!(
            report.per_rank[0].reduction_ns,
            phased.phase_reduction_ns.iter().sum::<u64>(),
            "{tree:?}: rank 0 carries the history appends"
        );
    }
}

#[test]
fn windowed_item_past_its_retries_ends_the_run_with_its_error() {
    let _g = exclusive();
    // An item of window 2 panics on its worker and in every rescue.
    parda_failpoint::configure("parallel::worker", "every(6)*panic").unwrap();
    parda_failpoint::configure("engine::process_chunk_scalar", "panic").unwrap();
    let message = panic_message(|| {
        let trace = sample_trace(6000);
        windowed(TreeKind::Vector).run_stream(SliceStream::new(&trace));
    });
    parda_failpoint::clear();
    assert!(message.contains("worker panicked"), "got {message:?}");
}

#[test]
fn history_stage_panic_is_re_raised() {
    let _g = exclusive();
    parda_failpoint::configure("phased::history", "1*panic").unwrap();
    let message = panic_message(|| {
        let trace = sample_trace(6000);
        windowed(TreeKind::Vector).run_stream(SliceStream::new(&trace));
    });
    parda_failpoint::clear();
    assert_eq!(message, "failpoint phased::history panic");
}

#[test]
fn exhausted_retries_surface_as_worker_panic() {
    let _g = exclusive();
    let trace = sample_trace(2000);
    let config = PardaConfig::with_ranks(3);

    // Every worker attempt and every scalar rescue attempt panics.
    parda_failpoint::configure("parallel::worker", "panic").unwrap();
    parda_failpoint::configure("engine::process_chunk_scalar", "panic").unwrap();
    let policy = FaultPolicy::default().retries(1).backoff(Duration::ZERO);
    let err = parda_threads_faulted::<SplayTree>(&trace, &config, &policy).unwrap_err();
    match err {
        PardaError::WorkerPanic { rank, attempts } => {
            assert!(rank < 3);
            assert_eq!(attempts, 2, "one worker attempt + one rescue retry");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
    assert_eq!(err.class(), "worker-panic");
    parda_failpoint::clear();
}

#[test]
fn watchdog_converts_a_stall_into_a_structured_error() {
    let _g = exclusive();
    let trace = sample_trace(2000);
    let config = PardaConfig::with_ranks(2);

    // Workers sleep well past the deadline (finite, so the thread scope
    // still joins); the cascade must give up at the watchdog instead.
    parda_failpoint::configure("parallel::worker_stall", "sleep(400)").unwrap();
    let policy = FaultPolicy::default().watchdog(Duration::from_millis(50));
    let start = std::time::Instant::now();
    let err = parda_threads_faulted::<SplayTree>(&trace, &config, &policy).unwrap_err();
    assert!(
        matches!(err, PardaError::Stall { .. }),
        "expected Stall, got {err}"
    );
    assert_eq!(err.class(), "stall");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stall must be detected promptly, not waited out"
    );
    parda_failpoint::clear();
}

#[test]
fn poisoned_slot_lock_does_not_lose_the_published_result() {
    let _g = exclusive();
    let trace = sample_trace(6000);
    let config = PardaConfig::with_ranks(4);
    let expected = parda_threads::<SplayTree>(&trace, &config);

    // One worker panics *after* writing its slot, poisoning the slot lock;
    // the cascade must read through the poison and need no rescue.
    parda_failpoint::configure("parallel::slot_publish", "1*panic").unwrap();
    let (hist, _, recovery) =
        parda_threads_faulted::<SplayTree>(&trace, &config, &FaultPolicy::default()).unwrap();
    assert_eq!(hist, expected);
    assert_eq!(recovery.rank_retries, 0, "the value was already published");
    parda_failpoint::clear();
}

#[test]
fn frame_decode_failure_honors_the_degradation_policy() {
    let _g = exclusive();
    let trace = sample_trace(640);
    let dir = std::env::temp_dir().join("parda-failpoint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inject.trc");
    let f = std::fs::File::create(&path).unwrap();
    write_trace_v2_framed(f, &Trace::from_vec(trace.clone()), Encoding::Raw, 64).unwrap();

    // Strict: one injected frame-decode failure fails the whole load.
    parda_failpoint::configure("trace::decode_frame", "1*error").unwrap();
    assert!(load_trace_recovering(&path, Degradation::Strict).is_err());

    // Repair: the same failure quarantines exactly one frame. The CRC was
    // fine — the *decode* failed — so crc_failures stays zero.
    parda_failpoint::configure("trace::decode_frame", "1*error").unwrap();
    let (got, m) = load_trace_recovering(&path, Degradation::Repair).unwrap();
    assert_eq!(got.len(), trace.len() - 64);
    assert_eq!(m.frames_skipped, 1);
    assert_eq!(m.refs_dropped, 64);
    assert_eq!(m.crc_failures, 0);

    // Disarmed again: the file is perfectly healthy.
    let (clean, m) = load_trace_recovering(&path, Degradation::Strict).unwrap();
    assert_eq!(clean.as_slice(), trace.as_slice());
    assert!(m.is_clean());
    std::fs::remove_file(&path).unwrap();
    parda_failpoint::clear();
}

#[test]
fn stream_decode_failure_fails_strict_and_degrades_lossy() {
    let _g = exclusive();
    use parda::trace::stream::FramedStream;
    let trace = sample_trace(640);
    let dir = std::env::temp_dir().join("parda-failpoint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream-inject.trc");
    let f = std::fs::File::create(&path).unwrap();
    write_trace_v2_framed(f, &Trace::from_vec(trace.clone()), Encoding::Raw, 64).unwrap();

    let analysis = Analysis::new()
        .mode(Mode::Phased {
            chunk: 100,
            reduction: Reduction::ShipToRankZero,
        })
        .ranks(2)
        .stats(true);

    // Strict: the injected decode failure aborts the streamed analysis.
    parda_failpoint::configure("stream::decode", "1*error").unwrap();
    let err = analysis.run_file(&path).unwrap_err();
    assert_eq!(err.class(), "corrupt", "got {err}");

    // Repair: the failing frame is skipped mid-stream and tallied. A single
    // decoder keeps the injection deterministic (exactly one frame lost).
    parda_failpoint::configure("stream::decode", "1*error").unwrap();
    let stream = FramedStream::open_with_policy(&path, 1, Degradation::Repair).unwrap();
    let errors = stream.error_handle();
    let recovery = stream.recovery_handle();
    let (hist, _) = analysis
        .clone()
        .degradation(Degradation::Repair)
        .run_stream(stream);
    assert!(errors.take().is_none(), "repair absorbs the failure");
    let rec = recovery.lock().unwrap_or_else(|e| e.into_inner()).clone();
    assert_eq!(rec.frames_skipped, 1);
    assert_eq!(rec.refs_dropped, 64);
    assert_eq!(hist.total(), trace.len() as u64 - 64);
    std::fs::remove_file(&path).unwrap();
    parda_failpoint::clear();
}

/// Every exact surface gives up on a stuck item at the watchdog deadline,
/// without waiting it out: the in-memory trace, a windowed file run and a
/// pushed session. The stuck items sleep on the process-wide item pool
/// meanwhile; nothing joins them.
#[test]
fn a_stuck_item_is_a_stall_at_the_deadline_on_every_surface() {
    let _g = exclusive();
    let trace = sample_trace(6000);
    let path = framed_file("stuck-item.trc", &trace);
    parda_failpoint::configure("parallel::worker_stall", "sleep(2000)").unwrap();
    let policy = FaultPolicy::default().watchdog(Duration::from_millis(50));
    let prompt = Duration::from_millis(1000);

    let start = Instant::now();
    let config = PardaConfig::with_ranks(4);
    let err = parda_threads_faulted::<VectorTree>(&trace, &config, &policy).unwrap_err();
    assert!(matches!(err, PardaError::Stall { .. }), "in memory: {err}");
    assert!(
        start.elapsed() < prompt,
        "in memory took {:?}",
        start.elapsed()
    );

    let start = Instant::now();
    let err = windowed(TreeKind::Vector)
        .fault_policy(policy.clone())
        .run_file(&path)
        .unwrap_err();
    assert!(matches!(err, PardaError::Stall { .. }), "file: {err}");
    assert!(start.elapsed() < prompt, "file took {:?}", start.elapsed());

    let start = Instant::now();
    let mut session = windowed(TreeKind::Vector).fault_policy(policy).session();
    for frame in trace.chunks(700) {
        session.feed(frame);
    }
    let err = session.finish().unwrap_err();
    assert!(matches!(err, PardaError::Stall { .. }), "session: {err}");
    assert!(
        start.elapsed() < prompt,
        "session took {:?}",
        start.elapsed()
    );

    parda_failpoint::clear();
    std::fs::remove_file(&path).unwrap();
}

/// An item stuck inside its analysis, its chunk in hand, is a `Stall` at
/// the deadline on every surface: a window's jobs share its buffer, so
/// dropping the window waits for none of them. Each surface returns within
/// 1 s while its stuck jobs sleep on.
#[test]
fn an_item_stuck_in_its_analysis_is_a_stall_at_the_deadline_on_every_surface() {
    let _g = exclusive();
    // An earlier test's items may still sleep in a failpoint (at most 2 s,
    // armed before `exclusive` disarmed it) and hold every worker; wait
    // them out, so that this test's own items run and get stuck.
    std::thread::sleep(Duration::from_millis(2_100));
    let trace = sample_trace(6000);
    let path = framed_file("stuck-analysis.trc", &trace);
    let policy = FaultPolicy::default().watchdog(Duration::from_millis(50));
    let config = PardaConfig::with_ranks(4);
    let threads = Analysis::new()
        .mode(Mode::Threads)
        .ranks(4)
        .tree(TreeKind::Vector)
        .fault_policy(policy.clone());
    let windowed = windowed(TreeKind::Vector).fault_policy(policy.clone());
    type Surface<'a> = Box<dyn Fn() -> PardaError + 'a>;
    let surfaces: [(&str, Surface); 5] = [
        (
            "parda_threads_faulted",
            Box::new(|| parda_threads_faulted::<VectorTree>(&trace, &config, &policy).unwrap_err()),
        ),
        (
            "one-window file run",
            Box::new(|| threads.run_file(&path).unwrap_err()),
        ),
        (
            "in-memory windowed run",
            Box::new(|| windowed.run_faulted(&trace).unwrap_err()),
        ),
        (
            "streamed file run",
            Box::new(|| windowed.run_file(&path).unwrap_err()),
        ),
        (
            "pushed session",
            Box::new(|| {
                let mut session = windowed.session();
                for frame in trace.chunks(700) {
                    session.feed(frame);
                }
                session.finish().unwrap_err()
            }),
        ),
    ];
    parda_failpoint::configure("engine::process_chunk", "sleep(2000)").unwrap();
    for (surface, run) in surfaces {
        let start = Instant::now();
        let err = run();
        let took = start.elapsed();
        assert!(matches!(err, PardaError::Stall { .. }), "{surface}: {err}");
        assert!(took < Duration::from_secs(1), "{surface} took {took:?}");
    }
    // Every stuck job entered its sleep before the disarm: wait them out,
    // so later tests do not queue behind them.
    parda_failpoint::clear();
    std::thread::sleep(Duration::from_millis(2_100));
    std::fs::remove_file(&path).unwrap();
}

/// Sessions dropped while their windows still wait on the pool: the
/// queued items hold the window they read, never a freed one, and skip
/// their analysis; the next session completes bit-identically.
#[test]
fn a_session_dropped_with_items_queued_frees_nothing_under_them() {
    let _g = exclusive();
    let trace = sample_trace(20_000);
    let expected = analyze_sequential::<SplayTree>(&trace, None);
    // Slow items, so every dropped session leaves some queued.
    parda_failpoint::configure("parallel::worker_stall", "sleep(5)").unwrap();
    for _ in 0..4 {
        let mut session = windowed(TreeKind::Vector).session();
        for frame in trace[..9_000].chunks(1_000) {
            session.feed(frame);
        }
        drop(session);
    }
    parda_failpoint::clear();
    let mut session = windowed(TreeKind::Vector).session();
    for frame in trace.chunks(1_000) {
        session.feed(frame);
    }
    let (hist, report) = session.finish().unwrap();
    assert_eq!(hist, expected);
    assert_eq!(report.unwrap().phased.unwrap().phases, 10);
}
