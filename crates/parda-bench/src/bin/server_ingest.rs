//! Server ingest-throughput benchmark: the daemon's perf anchor.
//!
//! Measures aggregate loopback refs/s for concurrent client sessions
//! submitting zipf traces to an in-process daemon, next to the offline
//! streaming baseline (the identical analysis with no sockets or
//! framing). Exact-mode configs run 1/4/8 sessions over the full trace
//! and 16 sessions over a quarter trace; sketch-mode configs
//! (`approx=shards-smax:8192`) push 64 and 256 concurrent sessions to
//! exercise the constant-space session claim. Each row reports aggregate
//! refs/s, the server's p99 session latency (admission to reply), and the
//! per-session resident-memory high-water mark from the shard metrics.
//!
//! Emits machine-readable JSON (`BENCH_server.json` at the repo root) so
//! future PRs can diff the daemon against the numbers recorded here;
//! `BENCH_server_floor.json` holds the minimums ci.sh enforces.
//!
//!   cargo run --release -p parda-bench --bin server_ingest -- \
//!       --refs 2000000 --out BENCH_server.json

use parda_bench::{time, Host};
use parda_comm::pipe;
use parda_core::Analysis;
use parda_obs::ServerMetrics;
use parda_server::{submit, RetryPolicy, Server, ServerConfig, SubmitOptions};
use parda_trace::gen::ZipfGen;
use parda_trace::{AddressStream, Trace};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// One measured configuration.
#[derive(Serialize)]
struct Row {
    mode: String,
    sessions: usize,
    /// References each session streamed.
    refs_per_session: u64,
    /// Aggregate across all concurrent sessions.
    refs_per_sec: u64,
    secs: f64,
    /// p99 session wall time (admission to reply) from the server's
    /// merged shard histograms; 0 for the offline baseline.
    p99_session_ms: f64,
    /// Largest per-session analysis-state estimate any shard observed —
    /// the "resident memory per session" readout.
    mem_per_session_bytes: u64,
    /// Largest sketch among approx sessions (0 for exact configs).
    sketch_bytes_hwm: u64,
    /// Successful RESUMEs across all clients (0 unless the row injects
    /// connection failures).
    resumes: u64,
    /// Slowest first-resume latency any client paid (drop detected to
    /// resume-ACCEPT); 0 when no connection was lost.
    resume_latency_ms: f64,
}

/// The whole report (`BENCH_server.json`).
#[derive(Serialize)]
struct ServerReport {
    bench: &'static str,
    host: Host,
    refs: u64,
    footprint: u64,
    theta: f64,
    seed: u64,
    runs_per_config: u32,
    results: Vec<Row>,
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
    let footprint: u64 = get("--footprint")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let theta: f64 = get("--theta").and_then(|v| v.parse().ok()).unwrap_or(0.99);
    let seed: u64 = get("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let runs: u32 = get("--runs").and_then(|v| v.parse().ok()).unwrap_or(3);
    let out = get("--out").unwrap_or_else(|| "BENCH_server.json".into());

    eprintln!("server_ingest: generating {refs} zipf({theta}) refs over {footprint} addresses");
    let trace: Trace = ZipfGen::new(footprint as usize, theta, 0, seed).take_trace(refs as usize);
    let trace = Arc::new(trace);

    let mut results = Vec::new();

    // Offline streaming baseline: one session's trace through the
    // streaming analyzer with no sockets, framing, or protocol.
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (hist, secs) = time(|| {
            let (mut tx, rx) = pipe(1 << 16, pipe::DEFAULT_BATCH);
            let t = Arc::clone(&trace);
            let feeder = std::thread::spawn(move || {
                tx.write_all(t.as_slice());
            });
            let (hist, _) = Analysis::new().run_stream(rx);
            feeder.join().unwrap();
            hist
        });
        black_box(hist);
        best = best.min(secs);
    }
    push_row(
        &mut results,
        "offline-stream",
        1,
        refs,
        best,
        &ServerMetrics::default(),
        0,
        0,
    );

    // Exact sessions: the full trace at 1/4/8 (the historical surface),
    // a quarter trace at 16.
    let exact = SubmitOptions::default();
    for (sessions, per_session) in [(1usize, refs), (4, refs), (8, refs), (16, refs / 4)] {
        let (secs, metrics) = best_config(runs, &trace, sessions, per_session, &exact);
        push_row(
            &mut results,
            "loopback",
            sessions,
            per_session,
            secs,
            &metrics,
            0,
            0,
        );
    }

    // Sketch sessions: constant-space per session, so the daemon can hold
    // hundreds of them — the SHARDS-at-daemon-scale claim.
    let mut sketch = SubmitOptions::default();
    sketch
        .config
        .push(("approx".into(), "shards-smax:8192".into()));
    for (sessions, per_session) in [(64usize, refs / 8), (256, refs / 32)] {
        let (secs, metrics) = best_config(runs, &trace, sessions, per_session, &sketch);
        push_row(
            &mut results,
            "loopback-sketch",
            sessions,
            per_session,
            secs,
            &metrics,
            0,
            0,
        );
    }

    // Flaky network: every client's connection is severed at three fixed
    // sent-frame marks (deterministic, seed-independent chaos), forcing a
    // reconnect + RESUME each time. Reports goodput — unique trace refs
    // delivered per wall second, with retransmission and reconnect
    // overhead inside the clock — and the slowest first-resume latency.
    {
        let (sessions, per_session) = (4usize, refs / 2);
        let (secs, metrics, resumes, latency_ns) =
            flaky_config(runs, &trace, sessions, per_session);
        push_row(
            &mut results,
            "loopback-flaky",
            sessions,
            per_session,
            secs,
            &metrics,
            resumes,
            latency_ns,
        );
    }

    let report = ServerReport {
        bench: "server_ingest",
        host: Host::probe(),
        refs,
        footprint,
        theta,
        seed,
        runs_per_config: runs,
        results,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write BENCH json");
    eprintln!("server_ingest: wrote {out}");
    println!("{json}");
}

/// Run one (sessions × refs) config `runs` times against a fresh daemon
/// each time; returns the fastest wall time and that run's server metrics.
fn best_config(
    runs: u32,
    trace: &Arc<Trace>,
    sessions: usize,
    per_session: u64,
    opts: &SubmitOptions,
) -> (f64, ServerMetrics) {
    let mut best = f64::INFINITY;
    let mut best_metrics = ServerMetrics::default();
    for _ in 0..runs {
        let server = Server::bind(ServerConfig {
            max_sessions: sessions,
            accept_limit: Some(sessions as u64),
            ..ServerConfig::default()
        })
        .expect("bind benchmark server");
        let addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let ((), secs) = time(|| {
            let clients: Vec<_> = (0..sessions)
                .map(|_| {
                    let t = Arc::clone(trace);
                    let addr = addr.clone();
                    let opts = opts.clone();
                    std::thread::spawn(move || {
                        let slice = &t.as_slice()[..per_session as usize];
                        submit(&addr, slice, &opts).expect("benchmark submission")
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().unwrap())
                .for_each(|reply| {
                    black_box(reply.histogram);
                })
        });
        let metrics = daemon.join().unwrap();
        assert_eq!(
            metrics.sessions_completed, sessions as u64,
            "every benchmark session must complete"
        );
        if secs < best {
            best = secs;
            best_metrics = metrics;
        }
    }
    (best, best_metrics)
}

/// The flaky-network config: like `best_config`, but every client severs
/// its own connection at three fixed sent-frame marks and recovers via
/// the retrying RESUME path. The server keeps orphans parked long enough
/// that no retention expiry can race the reconnect, and ACKs every 8th
/// frame so resumed clients retransmit bounded tails. Returns the fastest
/// run's wall time, metrics, total successful resumes, and the slowest
/// first-resume latency any client saw in that run.
fn flaky_config(
    runs: u32,
    trace: &Arc<Trace>,
    sessions: usize,
    per_session: u64,
) -> (f64, ServerMetrics, u64, u64) {
    // Smaller frames than the default so even the ci.sh smoke scale
    // (--refs 400000) leaves room for three staggered cuts per client.
    let frame_refs: usize = 16 * 1024;
    let frames = per_session.div_ceil(frame_refs as u64);
    let mut best = f64::INFINITY;
    let mut best_metrics = ServerMetrics::default();
    let mut best_resumes = 0u64;
    let mut best_latency_ns = 0u64;
    for _ in 0..runs {
        let server = Server::bind(ServerConfig {
            // Headroom over `sessions`: a reconnecting client's RESUME
            // shell is admitted before it adopts the parked session.
            max_sessions: sessions * 2,
            orphan_retention: Duration::from_secs(60),
            ack_every: 8,
            ..ServerConfig::default()
        })
        .expect("bind benchmark server");
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        // Three cuts per client at quarter marks, staggered by client
        // index so the drops don't land in lockstep across sessions.
        // Marks are cumulative sent-frame counts, so later ones stay
        // valid after the earlier retransmissions.
        let plans: Vec<Vec<u64>> = (0..sessions)
            .map(|i| {
                let mut drops: Vec<u64> = [frames / 4, frames / 2, 3 * frames / 4]
                    .into_iter()
                    .map(|p| p + i as u64)
                    .filter(|&p| p >= 1 && p < frames)
                    .collect();
                drops.dedup();
                drops
            })
            .collect();
        let expected_resumes: u64 = plans.iter().map(|p| p.len() as u64).sum();

        let ((resumes, latency_ns), secs) = time(|| {
            let clients: Vec<_> = plans
                .iter()
                .map(|drops| {
                    let t = Arc::clone(trace);
                    let addr = addr.clone();
                    let mut opts = SubmitOptions {
                        retry: RetryPolicy::with_attempts(10),
                        chaos_drop_points: drops.clone(),
                        frame_refs,
                        ..SubmitOptions::default()
                    };
                    opts.retry.backoff = Duration::from_millis(5);
                    opts.retry.backoff_max = Duration::from_millis(100);
                    std::thread::spawn(move || {
                        let slice = &t.as_slice()[..per_session as usize];
                        submit(&addr, slice, &opts).expect("benchmark submission")
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).fold(
                (0u64, 0u64),
                |(resumes, latency), reply| {
                    black_box(&reply.histogram);
                    (
                        resumes + u64::from(reply.retry.resumes),
                        latency.max(reply.retry.resume_latency_ns),
                    )
                },
            )
        });
        handle.shutdown();
        let metrics = daemon.join().unwrap();
        assert_eq!(
            metrics.sessions_completed, sessions as u64,
            "every flaky-network session must complete"
        );
        assert_eq!(metrics.sessions_failed, 0, "no session may fail");
        assert_eq!(
            resumes, expected_resumes,
            "every injected drop must recover through RESUME"
        );
        if secs < best {
            best = secs;
            best_metrics = metrics;
            best_resumes = resumes;
            best_latency_ns = latency_ns;
        }
    }
    (best, best_metrics, best_resumes, best_latency_ns)
}

#[allow(clippy::too_many_arguments)]
fn push_row(
    results: &mut Vec<Row>,
    mode: &str,
    sessions: usize,
    per_session: u64,
    secs: f64,
    metrics: &ServerMetrics,
    resumes: u64,
    resume_latency_ns: u64,
) {
    let total_refs = per_session * sessions as u64;
    let rps = (total_refs as f64 / secs) as u64;
    let mem = metrics
        .per_shard
        .iter()
        .map(|s| s.state_bytes_hwm)
        .max()
        .unwrap_or(0);
    let p99_ms = metrics.p99_session_ns as f64 / 1e6;
    let resume_latency_ms = resume_latency_ns as f64 / 1e6;
    let resume_note = if resumes > 0 {
        format!("  resumes={resumes} resume_latency={resume_latency_ms:.1}ms")
    } else {
        String::new()
    };
    eprintln!(
        "  {mode:<16} sessions={sessions:<4} {rps:>12} refs/s ({secs:.3}s)  \
         p99={p99_ms:.1}ms  mem/session={mem}B{resume_note}"
    );
    results.push(Row {
        mode: mode.to_string(),
        sessions,
        refs_per_session: per_session,
        refs_per_sec: rps,
        secs,
        p99_session_ms: p99_ms,
        mem_per_session_bytes: mem,
        sketch_bytes_hwm: metrics.sketch_bytes_hwm,
        resumes,
        resume_latency_ms,
    });
}
