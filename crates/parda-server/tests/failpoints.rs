//! Fault-injection suite for the daemon (`--features failpoints`).
//!
//! Exercises the server-specific sites (`server::accept`,
//! `server::session`, `server::decode`) plus the engine site
//! (`parallel::worker`) as hit *through* a live session, proving the
//! PR 4 isolation machinery composes with the network layer: a panicking
//! analysis rank is rescued bit-identically, a panicking session thread
//! is reported to its client without touching the daemon, and an
//! injected decode failure rides the same quarantine path as real wire
//! corruption.

#![cfg(feature = "failpoints")]

use parda_core::Analysis;
use parda_hist::ReuseHistogram;
use parda_server::proto::{
    encode_data_frame, hello_payload, read_msg, write_msg, ErrorClass, ErrorFrame, MsgKind,
    STATS_FORMAT_BINARY,
};
use parda_server::{submit, ReplyFormat, Server, ServerConfig, SubmitOptions};
use parda_trace::io::Encoding;
use parda_trace::Addr;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The failpoint registry is process-global; serialise every test.
static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parda_failpoint::clear();
    g
}

fn start_server() -> (
    String,
    parda_server::ShutdownHandle,
    std::thread::JoinHandle<parda_obs::ServerMetrics>,
) {
    let server = Server::bind(ServerConfig {
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    })
    .expect("bind failpoint test server");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn sample_trace(n: u64) -> Vec<Addr> {
    (0..n).map(|i| (i * 7919) % 1024).collect()
}

fn offline(trace: &[Addr]) -> ReuseHistogram {
    Analysis::new().ranks(4).run(trace).0
}

#[test]
fn worker_panic_inside_a_session_is_rescued_bit_identically() {
    let _g = exclusive();
    let (addr, stop, join) = start_server();
    let trace = sample_trace(6000);

    // One window at FIN, and three 4 × 500-reference windows pushed
    // through the session's streamer as the frames arrive.
    let engines: [&[(&str, &str)]; 2] = [
        &[("engine", "threads"), ("ranks", "4")],
        &[("engine", "phased"), ("chunk", "500"), ("ranks", "4")],
    ];
    for config in engines {
        parda_failpoint::configure("parallel::worker", "1*panic").unwrap();
        let reply = submit(
            &addr,
            &trace,
            &SubmitOptions {
                config: config
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                reply: ReplyFormat::Json,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
        parda_failpoint::clear();

        assert_eq!(
            reply.histogram,
            offline(&trace),
            "{config:?}: rescue must be exact"
        );
        let doc: serde::Value = serde_json::from_str(reply.stats_json.as_deref().unwrap()).unwrap();
        let recovery = doc.field("stats").unwrap().field("recovery").unwrap();
        let rescues =
            <u64 as serde::Deserialize>::from_value(recovery.field("rank_rescues").unwrap())
                .unwrap();
        assert_eq!(
            rescues, 1,
            "{config:?}: one item rescued by the scalar engine"
        );
    }

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_completed, 2);
    assert_eq!(metrics.sessions_failed, 0);
}

#[test]
fn session_thread_panic_is_reported_to_the_client_and_contained() {
    let _g = exclusive();
    let (addr, stop, join) = start_server();

    parda_failpoint::configure("server::session", "1*panic").unwrap();
    let err = submit(&addr, &sample_trace(100), &SubmitOptions::default()).unwrap_err();
    assert_eq!(err.class(), "worker-panic", "got: {err}");
    parda_failpoint::clear();

    // The daemon survived the panicking session and keeps serving.
    let trace = sample_trace(2000);
    let reply = submit(&addr, &trace, &SubmitOptions::default()).unwrap();
    assert_eq!(reply.histogram, offline(&trace));

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_failed, 1);
    assert_eq!(metrics.sessions_completed, 1);
}

#[test]
fn injected_accept_failure_drops_one_connection_not_the_daemon() {
    let _g = exclusive();
    let (addr, stop, join) = start_server();

    parda_failpoint::configure("server::accept", "1*error").unwrap();
    let dropped = submit(&addr, &sample_trace(50), &SubmitOptions::default());
    assert!(dropped.is_err(), "refused connection must surface an error");
    parda_failpoint::clear();

    let trace = sample_trace(1500);
    let reply = submit(&addr, &trace, &SubmitOptions::default()).unwrap();
    assert_eq!(reply.histogram, offline(&trace));

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_rejected, 1);
    assert_eq!(metrics.sessions_completed, 1);
}

#[test]
fn injected_decode_failure_rides_the_quarantine_path() {
    let _g = exclusive();
    let (addr, stop, join) = start_server();
    let first = sample_trace(500);
    let second: Vec<Addr> = sample_trace(500).iter().map(|a| a + 4096).collect();

    // Best-effort session: the injected decode failure on the first DATA
    // frame is quarantined exactly like wire corruption would be.
    parda_failpoint::configure("server::decode", "1*error").unwrap();
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_msg(&mut stream, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(
        &mut stream,
        MsgKind::Config,
        b"degradation=best-effort\nreply=binary\nencoding=raw\n",
    )
    .unwrap();
    let accept = read_msg(&mut stream).unwrap();
    assert_eq!(accept.kind, MsgKind::Accept);
    write_msg(
        &mut stream,
        MsgKind::Data,
        &encode_data_frame(&first, Encoding::Raw),
    )
    .unwrap();
    write_msg(
        &mut stream,
        MsgKind::Data,
        &encode_data_frame(&second, Encoding::Raw),
    )
    .unwrap();
    write_msg(&mut stream, MsgKind::Fin, &[]).unwrap();
    let stats = read_msg(&mut stream).unwrap();
    parda_failpoint::clear();

    assert_eq!(stats.kind, MsgKind::Stats);
    assert_eq!(stats.payload[0], STATS_FORMAT_BINARY);
    let hist = parda_server::proto::decode_histogram_binary(&stats.payload[1..]).unwrap();
    assert_eq!(
        hist,
        offline(&second),
        "only the surviving frame is analyzed"
    );

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.frames_quarantined, 1);
    assert_eq!(metrics.sessions_completed, 1);
}

/// A daemon with resumption enabled, for the chaos-site tests.
fn start_resilient_server(
    ack_every: u32,
) -> (
    String,
    parda_server::ShutdownHandle,
    std::thread::JoinHandle<parda_obs::ServerMetrics>,
) {
    let server = Server::bind(ServerConfig {
        idle_timeout: Some(Duration::from_secs(10)),
        orphan_retention: Duration::from_secs(30),
        ack_every,
        ..ServerConfig::default()
    })
    .expect("bind resilient failpoint test server");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn eager_retry() -> parda_server::RetryPolicy {
    parda_server::RetryPolicy {
        max_attempts: 10,
        backoff: Duration::from_millis(10),
        backoff_max: Duration::from_millis(200),
        ..parda_server::RetryPolicy::default()
    }
}

#[test]
fn injected_connection_resets_are_resumed_bit_identically() {
    let _g = exclusive();
    let (addr, stop, join) = start_resilient_server(4);
    let trace = sample_trace(2000);

    // Sever the connection just before the 5th and 10th DATA dispatch.
    // The dropped frame is never ingested, so the resume-ACCEPT watermark
    // forces the client to retransmit it — correctness here proves the
    // watermark protocol, not just reconnection.
    parda_failpoint::configure("server::conn_reset", "2*every(5)*error").unwrap();
    let reply = submit(
        &addr,
        &trace,
        &SubmitOptions {
            frame_refs: 100, // 20 frames: both resets land mid-stream
            retry: eager_retry(),
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    parda_failpoint::clear();

    assert_eq!(reply.histogram, offline(&trace));
    assert_eq!(reply.retry.resumes, 2);
    assert!(reply.retry.retransmitted_frames >= 2, "severed frames owed");

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_completed, 1);
    assert_eq!(metrics.sessions_failed, 0);
    assert_eq!(metrics.sessions_orphaned, 2);
    assert_eq!(metrics.sessions_resumed, 2);
    assert_eq!(metrics.orphans_expired, 0);
}

#[test]
fn torn_reply_write_is_redelivered_to_the_resuming_client() {
    let _g = exclusive();
    let (addr, stop, join) = start_resilient_server(0);
    let trace = sample_trace(1200);
    let frames: Vec<Vec<u8>> = trace
        .chunks(300)
        .map(|c| encode_data_frame(c, Encoding::Raw))
        .collect();

    // Flush hit 1 is the ACCEPT (waited out below, so it drains alone);
    // hit 2 is the STATS reply, which tears after ≤3 bytes. The session
    // is then *complete* but undelivered — the orphan pool must retain
    // its final reply for the resume.
    parda_failpoint::configure("server::partial_write", "1*every(2)*error").unwrap();
    let mut s = TcpStream::connect(&addr).unwrap();
    write_msg(&mut s, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(&mut s, MsgKind::Config, b"reply=binary\nencoding=raw\n").unwrap();
    let accept =
        parda_server::proto::AcceptPayload::from_bytes(&read_msg(&mut s).unwrap().payload).unwrap();
    for frame in &frames {
        write_msg(&mut s, MsgKind::Data, frame).unwrap();
    }
    write_msg(&mut s, MsgKind::Fin, &[]).unwrap();
    let torn = read_msg(&mut s);
    assert!(torn.is_err(), "reply must be truncated, got {torn:?}");
    drop(s);
    std::thread::sleep(Duration::from_millis(100));
    parda_failpoint::clear();

    // RESUME redelivers the buffered reply without re-running anything.
    let mut s = TcpStream::connect(&addr).unwrap();
    write_msg(&mut s, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(
        &mut s,
        MsgKind::Resume,
        &parda_server::proto::encode_resume(&accept.token, 0),
    )
    .unwrap();
    let resumed =
        parda_server::proto::AcceptPayload::from_bytes(&read_msg(&mut s).unwrap().payload).unwrap();
    assert_eq!(resumed.session, accept.session);
    assert_eq!(
        resumed.watermark,
        frames.len() as u64,
        "all frames ingested"
    );
    let stats = read_msg(&mut s).unwrap();
    assert_eq!(stats.kind, MsgKind::Stats);
    assert_eq!(stats.payload[0], STATS_FORMAT_BINARY);
    let hist = parda_server::proto::decode_histogram_binary(&stats.payload[1..]).unwrap();
    assert_eq!(hist, offline(&trace));

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_completed, 1);
    assert_eq!(metrics.sessions_failed, 0);
    assert_eq!(metrics.sessions_orphaned, 1);
    assert_eq!(metrics.sessions_resumed, 1);
}

#[test]
fn dropped_acks_cost_retransmission_volume_never_correctness() {
    let _g = exclusive();
    let (addr, stop, join) = start_resilient_server(1);
    let trace = sample_trace(3000);

    // Every second ACK vanishes before it is written. The client's view
    // of the watermark lags, but the resume-ACCEPT watermark is
    // authoritative, so a lost ACK can only cost retransmitted frames.
    parda_failpoint::configure("server::ack_drop", "every(2)*error").unwrap();
    let reply = submit(
        &addr,
        &trace,
        &SubmitOptions {
            frame_refs: 100, // 30 frames
            retry: eager_retry(),
            chaos_drop_points: vec![10],
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    parda_failpoint::clear();

    assert_eq!(reply.histogram, offline(&trace));
    assert_eq!(reply.retry.resumes, 1);

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_completed, 1);
    assert_eq!(metrics.sessions_failed, 0);
    let frames = 30;
    assert!(
        metrics.acks_sent < frames,
        "some ACKs were dropped: sent {} of {frames}",
        metrics.acks_sent
    );
}

#[test]
fn dispatch_panic_fails_the_session_without_orphaning_or_killing_the_daemon() {
    let _g = exclusive();
    let (addr, stop, join) = start_resilient_server(0);

    // A panic out of message dispatch is a bug, not a network fault: it
    // must fail the session (even with orphaning enabled), and the shard
    // survives to serve the next session.
    parda_failpoint::configure("server::dispatch", "1*panic").unwrap();
    let err = submit(&addr, &sample_trace(100), &SubmitOptions::default()).unwrap_err();
    assert_eq!(err.class(), "worker-panic", "got: {err}");
    parda_failpoint::clear();

    let trace = sample_trace(1500);
    let reply = submit(&addr, &trace, &SubmitOptions::default()).unwrap();
    assert_eq!(reply.histogram, offline(&trace));

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_failed, 1);
    assert_eq!(metrics.sessions_completed, 1);
    assert_eq!(metrics.sessions_orphaned, 0, "a panic is never resumable");
    assert_eq!(metrics.orphans_expired, 0);
}

#[test]
fn injected_decode_failure_under_strict_is_a_corrupt_error() {
    let _g = exclusive();
    let (addr, stop, join) = start_server();

    parda_failpoint::configure("server::decode", "1*error").unwrap();
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_msg(&mut stream, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(
        &mut stream,
        MsgKind::Config,
        b"reply=binary\nencoding=raw\n",
    )
    .unwrap();
    let accept = read_msg(&mut stream).unwrap();
    assert_eq!(accept.kind, MsgKind::Accept);
    write_msg(
        &mut stream,
        MsgKind::Data,
        &encode_data_frame(&sample_trace(100), Encoding::Raw),
    )
    .unwrap();
    let msg = read_msg(&mut stream).unwrap();
    parda_failpoint::clear();

    assert_eq!(msg.kind, MsgKind::Error);
    let frame = ErrorFrame::from_payload(&msg.payload).unwrap();
    assert_eq!(frame.class, ErrorClass::Corrupt);

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_failed, 1);
}
