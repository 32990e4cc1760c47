//! The user-facing ops the benchmark times: offline `analyze` through
//! `parda_cli::run` with the real argv, and daemon sessions through
//! `parda_server::submit` against an in-process `Server` on loopback.

use crate::spans::Tracer;
use crate::workload::{mae_capacities, Inputs, SESSION_SKETCH};
use parda_hist::ReuseHistogram;
use parda_obs::ServerMetrics;
use parda_server::{submit, Server, ServerConfig, SubmitOptions};
use parda_trace::stream::FramedStream;
use parda_trace::Degradation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Failures counted against attempts, over every timed op of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one op; a failed op is reported on stderr with its reason.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The offline ops, each one `parda analyze` invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfflineOp {
    /// `analyze <f> --json`: the default path (phased stream for v2).
    Analyze,
    /// `analyze <f> --engine parda --json`: in-memory parallel Parda.
    AnalyzeParda,
    /// `analyze <f> --approx=shards:0.01 --json`.
    Approx,
}

pub const OFFLINE_OPS: [OfflineOp; 3] = [
    OfflineOp::Analyze,
    OfflineOp::AnalyzeParda,
    OfflineOp::Approx,
];

/// The approx spec the offline approx op runs.
pub const OFFLINE_SKETCH: &str = "shards:0.01";

impl OfflineOp {
    /// Prefix of this op's metric names (`<name>_s`, `<name>.…`).
    pub fn name(self) -> &'static str {
        match self {
            OfflineOp::Analyze => "analyze",
            OfflineOp::AnalyzeParda => "analyze_parda",
            OfflineOp::Approx => "approx",
        }
    }

    /// Runs per round: the shorter ops run several times, so that their
    /// medians rest on more samples.
    pub fn repeats(self) -> usize {
        match self {
            OfflineOp::Analyze => 1,
            OfflineOp::AnalyzeParda => 3,
            OfflineOp::Approx => 5,
        }
    }

    pub fn argv(self, file: &str) -> Vec<String> {
        let mut argv = vec!["analyze".to_string(), file.to_string()];
        match self {
            OfflineOp::Analyze => {}
            OfflineOp::AnalyzeParda => argv.extend(["--engine".into(), "parda".into()]),
            OfflineOp::Approx => argv.push(format!("--approx={OFFLINE_SKETCH}")),
        }
        argv.push("--json".into());
        argv
    }
}

/// One in-process CLI call: exit code, captured stdout, wall seconds.
pub struct CliRun {
    pub code: i32,
    pub out: Vec<u8>,
    pub secs: f64,
}

pub fn cli(argv: &[String]) -> CliRun {
    let mut out = Vec::with_capacity(1 << 20);
    let t = Instant::now();
    let code = parda_cli::run(argv, &mut out);
    let secs = t.elapsed().as_secs_f64();
    CliRun { code, out, secs }
}

/// Check an op's output: exact ops must print the reference histogram
/// bit for bit; the approx op must print a histogram of the same trace,
/// whose MRC error against the reference it returns.
pub fn check_offline(op: OfflineOp, run: &CliRun, inputs: &Inputs) -> Result<Option<f64>, String> {
    if run.code != 0 {
        let msg = String::from_utf8_lossy(&run.out);
        return Err(format!("exit {}: {}", run.code, msg.trim()));
    }
    let text = std::str::from_utf8(&run.out).map_err(|e| e.to_string())?;
    let json = text.strip_suffix('\n').unwrap_or(text);
    match op {
        OfflineOp::Approx => {
            let hist: ReuseHistogram = serde_json::from_str(json).map_err(|e| e.to_string())?;
            if hist.total() != inputs.file_refs {
                return Err(format!(
                    "approx histogram totals {} of {} refs",
                    hist.total(),
                    inputs.file_refs
                ));
            }
            let caps = mae_capacities(&inputs.reference);
            Ok(Some(hist.mrc_mean_absolute_error(&inputs.reference, &caps)))
        }
        _ if json == inputs.reference_json => Ok(None),
        _ => Err("histogram differs from the sequential reference".into()),
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap memory to the kernel, then reset the process's peak
/// resident set to its current size, so the next peak reading is the
/// op's own and not memory earlier ops freed but the allocator kept.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim takes no pointers and only releases free pages;
    // glibc makes it safe to call from any thread at any time.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    // Best effort: where the kernel refuses, the peak since start is read.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The hidden subcommand that runs one `analyze` in a fresh process.
pub const RSS_PROBE: &str = "rss-probe";

/// Child side of [`probe_peak_rss`]: run the default `analyze <file>
/// --json`, then print its output and the peak resident set in MiB as the
/// last line. Exits with the op's exit code.
pub fn rss_probe_child(argv: &[String]) -> i32 {
    let Some(file) = argv.first() else {
        eprintln!("usage: perfbench {RSS_PROBE} <trace file>");
        return 2;
    };
    reset_peak_rss();
    let run = cli(&OfflineOp::Analyze.argv(file));
    print!("{}", String::from_utf8_lossy(&run.out));
    println!("{}", peak_rss_mib().unwrap_or(0.0));
    run.code
}

/// Peak memory of the default `analyze` as a user sees it: one run in a
/// fresh process, whose output is checked like any other op.
pub fn probe_peak_rss(inputs: &Inputs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = std::process::Command::new(exe)
        .arg(RSS_PROBE)
        .arg(&inputs.file)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&child.stdout);
    let (out, mib) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    let run = CliRun {
        code: child.status.code().unwrap_or(-1),
        out: format!("{out}\n").into_bytes(),
        secs: 0.0,
    };
    check_offline(OfflineOp::Analyze, &run, inputs)?;
    mib.trim()
        .parse::<f64>()
        .ok()
        .filter(|&m| m > 0.0)
        .ok_or_else(|| format!("no peak memory reading in `{mib}`"))
}

/// Decoder threads for a stream open: what `parda analyze` uses.
pub fn stream_decoders() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 8)
}

/// Time before the first op of either surface can run: opening the trace
/// file for streaming, plus `Server::bind` until the daemon has accepted
/// its first session.
pub fn setup_once(inputs: &Inputs) -> Result<f64, String> {
    let t = Instant::now();
    let stream =
        FramedStream::open_with_policy(&inputs.file, stream_decoders(), Degradation::Strict)
            .map_err(|e| format!("open: {e}"))?;
    let open = t.elapsed();
    drop(stream);

    let t = Instant::now();
    let server = Server::bind(ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let counters = server.counters();
    let handle = server.shutdown_handle();
    let tiny = &inputs.pool[0].trace.as_slice()[..1024];
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let client = scope.spawn(|| submit(&addr, tiny, &SubmitOptions::default()));
        let give_up = Instant::now() + Duration::from_secs(30);
        while counters.sessions_opened.get() == 0 && Instant::now() < give_up {
            std::thread::yield_now();
        }
        let accept = t.elapsed();
        let reply = client.join().expect("setup client panicked");
        handle.shutdown();
        let metrics = daemon.join().expect("daemon panicked");
        reply.map_err(|e| format!("setup session: {e}"))?;
        metrics.map_err(|e| format!("daemon: {e}"))?;
        Ok((open + accept).as_secs_f64())
    })
}

/// One daemon session: sketch or exact, client-side milliseconds, refs
/// sent, and whether the reply matched.
type SessionOutcome = (bool, f64, u64, Result<(), String>);

/// What one daemon loop measured.
pub struct DaemonRun {
    /// Client-side session times (connect to reply), by kind.
    pub exact_ms: Vec<f64>,
    pub sketch_ms: Vec<f64>,
    pub refs: u64,
    pub wall_s: f64,
    pub metrics: ServerMetrics,
    pub peak_rss_mib: Option<f64>,
}

/// Closed loop against an in-process daemon with the default config: one
/// client thread per core submits sessions back to back, alternating exact
/// (the server's default engine) and sketch sessions over the pool, until
/// `deadline` has passed and at least `min_sessions` have been sent. Each
/// reply is checked against the pool's expected histogram.
pub fn daemon_loop(
    inputs: &Inputs,
    min_sessions: usize,
    deadline: Instant,
    tally: &mut Tally,
    tracer: Option<&Arc<Tracer>>,
) -> Result<DaemonRun, String> {
    let server = Server::bind(ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let handle = server.shutdown_handle();
    let exact = SubmitOptions::default();
    let mut sketch = SubmitOptions::default();
    sketch.config.push(("approx".into(), SESSION_SKETCH.into()));
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<SessionOutcome>> = Mutex::new(Vec::new());

    reset_peak_rss();
    let (wall, metrics) = std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let t = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= min_sessions && Instant::now() >= deadline {
                        break;
                    }
                    let pool = &inputs.pool[(i / 2) % inputs.pool.len()];
                    let is_sketch = i % 2 == 1;
                    let (opts, expected) = if is_sketch {
                        (&sketch, &pool.sketch)
                    } else {
                        (&exact, &pool.exact)
                    };
                    let send = || submit(&addr, pool.trace.as_slice(), opts);
                    let started = Instant::now();
                    let reply = match tracer {
                        Some(tr) => {
                            let op = tr.new_op();
                            tr.span("parda_server.submit", None, op, |_| send())
                        }
                        None => send(),
                    };
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    let outcome = match reply {
                        Ok(r) if &r.histogram == expected => Ok(()),
                        Ok(_) => Err("session histogram differs from the reference".into()),
                        Err(e) => Err(e.to_string()),
                    };
                    let refs = pool.trace.len() as u64;
                    results
                        .lock()
                        .expect("results poisoned")
                        .push((is_sketch, ms, refs, outcome));
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread panicked");
        }
        let wall = t.elapsed().as_secs_f64();
        handle.shutdown();
        (wall, daemon.join().expect("daemon panicked"))
    });
    let peak_rss_mib = peak_rss_mib();
    let metrics = metrics.map_err(|e| format!("daemon: {e}"))?;

    let (mut exact_ms, mut sketch_ms) = (Vec::new(), Vec::new());
    let mut refs = 0;
    for (is_sketch, ms, n, outcome) in results.into_inner().expect("results poisoned") {
        if tally.record("daemon session", outcome).is_some() {
            if is_sketch {
                &mut sketch_ms
            } else {
                &mut exact_ms
            }
            .push(ms);
            refs += n;
        }
    }
    Ok(DaemonRun {
        exact_ms,
        sketch_ms,
        refs,
        wall_s: wall,
        metrics,
        peak_rss_mib,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert_eq!(t.record("a", Ok::<_, String>(3)), Some(3));
        assert_eq!(t.record::<()>("b", Err("exit 2".into())), None);
        t.record("c", Ok::<_, String>(()));
        t.record::<()>("d", Err("mismatch".into()));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_frac(), 0.5);
    }

    #[test]
    fn offline_argv_is_the_cli_surface() {
        assert_eq!(
            OfflineOp::Analyze.argv("f.trc"),
            ["analyze", "f.trc", "--json"]
        );
        assert_eq!(
            OfflineOp::AnalyzeParda.argv("f.trc"),
            ["analyze", "f.trc", "--engine", "parda", "--json"]
        );
        assert!(OfflineOp::Approx
            .argv("f.trc")
            .contains(&format!("--approx={OFFLINE_SKETCH}")));
    }
}
