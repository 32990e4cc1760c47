//! The daemon: listener, sharded-core supervisor, shutdown.
//!
//! The server is plain std — no async runtime. A nonblocking acceptor
//! thread (the caller of [`Server::run`]) waits on `poll(2)` readiness
//! over the listener and a shutdown waker, and pins each accepted
//! connection to the least-loaded of N shard event loops
//! (the `shard` module). Shards own all session I/O, frame decoding, and
//! analysis; the per-session state machine lives in [`crate::session`]
//! and analysis resumes frame by frame via `parda_core::SessionAnalysis`
//! — no per-session pipes, and no per-session thread but the history
//! stage of a session that has run a window before FIN.
//!
//! Shutdown (programmatic via [`ShutdownHandle`], or SIGINT/SIGTERM once
//! [`install_signal_shutdown`] ran) stops the acceptor and *drains*: every
//! in-flight session runs to completion and delivers its reply before
//! [`Server::run`] returns the final [`ServerMetrics`], now including the
//! per-shard breakdown and the cross-shard p99 session latency.
//!
//! Supervision mirrors PR 4's worker isolation: session stepping runs
//! under `catch_unwind` inside the shard, so a panicking session (a
//! `server::session` failpoint in tests, a bug in production) is converted
//! into a `sessions_failed` tick and a best-effort WORKER-PANIC error
//! frame to that client — the daemon itself never dies with a session.

use crate::orphan::OrphanPool;
use crate::poll::{self, Poller, Waker};
use crate::shard::{run_shard, Inbox};
use parda_core::FaultPolicy;
use parda_obs::{LatencyHist, ServerCounters, ServerMetrics, ShardMetrics};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on one acceptor poll wait — also how fast the process-wide
/// signal latch is noticed when the poll syscall is not interrupted.
const ACCEPT_WAIT: Duration = Duration::from_millis(50);

/// Ceiling for the automatic shard count (`shards: 0`).
const AUTO_SHARDS_MAX: usize = 8;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Admission cap: concurrent *admitted* sessions.
    pub max_sessions: usize,
    /// Per-session cap on received DATA payload bytes (`None`: unlimited).
    pub max_session_bytes: Option<u64>,
    /// Fault policy for the per-session analyses; its `degradation` is
    /// also the default wire-corruption policy for sessions that do not
    /// pick their own.
    pub fault: FaultPolicy,
    /// Socket read deadline; an idle client trips a STALL error rather
    /// than pinning a session slot forever. `None` waits forever.
    pub idle_timeout: Option<Duration>,
    /// Stop after accepting this many connections (`None`: serve until
    /// shutdown). For tests and benchmarks.
    pub accept_limit: Option<u64>,
    /// Default approximation mode for sessions whose CONFIG carries no
    /// `approx=` key (`Exact` preserves the historical behavior; a session
    /// can always force `approx=exact` explicitly).
    pub default_approx: parda_core::ApproxMode,
    /// Ingest/analysis shard threads. `0` scales with the hardware
    /// (`available_parallelism`, capped at 8).
    pub shards: usize,
    /// How long a session whose transport died is kept resumable in the
    /// orphan pool. `Duration::ZERO` (the default) disables resumption:
    /// a lost connection fails its session immediately, the historical
    /// behavior.
    pub orphan_retention: Duration,
    /// Global byte budget for parked orphan state (analysis state plus
    /// undelivered replies). Inserting past the budget evicts the oldest
    /// orphans first.
    pub orphan_budget: u64,
    /// Queue a cumulative ingest ACK every this many DATA frames so a
    /// reconnecting client knows where to resume from. `0` (the default)
    /// sends no ACKs — the pre-resumption wire behavior; the watermark in
    /// a resume-ACCEPT is authoritative either way, so ACK cadence only
    /// trades overhead against retransmission volume.
    pub ack_every: u32,
    /// Force the portable bounded-sleep poller instead of `poll(2)` —
    /// lets Linux CI exercise the fallback paths (readiness, wakers, the
    /// stall sweep's reduced probe) that otherwise only run on platforms
    /// without the FFI binding.
    pub fallback_poller: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_sessions: 8,
            max_session_bytes: None,
            fault: FaultPolicy::default(),
            idle_timeout: Some(Duration::from_secs(30)),
            accept_limit: None,
            default_approx: parda_core::ApproxMode::Exact,
            shards: 0,
            orphan_retention: Duration::ZERO,
            orphan_budget: 64 * 1024 * 1024,
            ack_every: 0,
            fallback_poller: false,
        }
    }
}

impl ServerConfig {
    /// The shard count `run` will use.
    pub fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, AUTO_SHARDS_MAX)
    }
}

/// Flips the server's shutdown flag from another thread (or a signal
/// handler's polling loop) and unparks the acceptor immediately.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl ShutdownHandle {
    /// Request a graceful shutdown: stop accepting, drain sessions.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
    wake: Arc<Waker>,
    counters: Arc<ServerCounters>,
    active: Arc<AtomicUsize>,
}

impl Server {
    /// Bind the listener (the returned server is not accepting yet).
    pub fn bind(cfg: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Self {
            listener,
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake: Arc::new(Waker::new()?),
            counters: Arc::new(ServerCounters::default()),
            active: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address — the actual port when the config asked for 0.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from anywhere.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            waker: Arc::clone(&self.wake),
        }
    }

    /// Live counters (shared with every shard).
    pub fn counters(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Accept and serve until shutdown, then drain the shards and return
    /// the final metrics snapshot.
    pub fn run(self) -> io::Result<ServerMetrics> {
        self.listener.set_nonblocking(true)?;
        let scfg = Arc::new(self.cfg.clone());
        let nshards = scfg.effective_shards();
        // One orphan pool shared by every shard: entries are inert (no fd,
        // no thread affinity), so a RESUME landing on any shard can adopt
        // a session another shard parked.
        let pool = Arc::new(OrphanPool::new(scfg.orphan_retention, scfg.orphan_budget));
        let mut inboxes: Vec<Arc<Inbox>> = Vec::with_capacity(nshards);
        let mut joins: Vec<JoinHandle<(ShardMetrics, LatencyHist)>> = Vec::with_capacity(nshards);
        for index in 0..nshards {
            let inbox = Arc::new(Inbox::new()?);
            let handle = {
                let inbox = Arc::clone(&inbox);
                let scfg = Arc::clone(&scfg);
                let counters = Arc::clone(&self.counters);
                let active = Arc::clone(&self.active);
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("parda-shard-{index}"))
                    .spawn(move || run_shard(index, inbox, scfg, counters, active, pool))?
            };
            inboxes.push(inbox);
            joins.push(handle);
        }

        let mut poller = Poller::new(self.cfg.fallback_poller);
        let mut next_id: u64 = 0;
        let mut accepted: u64 = 0;
        let accept_error = 'accepting: loop {
            if self.should_stop(accepted) {
                break None;
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        accepted += 1;
                        let id = next_id;
                        next_id += 1;
                        if accept_failpoint() {
                            // Injected accept failure: the connection is
                            // dropped on the floor, as if the OS ran out
                            // of descriptors mid-accept.
                            self.counters.sessions_rejected.incr();
                        } else {
                            least_loaded(&inboxes).push(stream, id);
                        }
                        if self.should_stop(accepted) {
                            break 'accepting None;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => break 'accepting Some(e),
                }
            }
            poller.clear();
            poller.register(listener_fd(&self.listener), true, false);
            poller.register(self.wake.fd(), true, false);
            let _ = poller.wait(ACCEPT_WAIT);
            self.wake.drain();
        };

        // Drain: no new connections, but every in-flight session finishes
        // and delivers its reply before the shards exit.
        for inbox in &inboxes {
            inbox.stop();
        }
        let mut merged = LatencyHist::default();
        let mut per_shard = Vec::new();
        for join in joins {
            if let Ok((shard_metrics, shard_hist)) = join.join() {
                merged.merge(&shard_hist);
                if shard_metrics.sessions > 0 {
                    per_shard.push(shard_metrics);
                }
            }
        }
        // The shards are gone, so no RESUME can arrive: expire whatever is
        // still parked. This releases the orphans' admission slots and
        // memory and makes the final metrics reconcile —
        // `sessions_resumed + orphans_expired == sessions_orphaned`.
        pool.drain(&self.counters);
        if let Some(e) = accept_error {
            return Err(e);
        }
        let mut metrics = self.counters.snapshot();
        metrics.p99_session_ns = merged.quantile(0.99);
        metrics.per_shard = per_shard;
        Ok(metrics)
    }

    fn should_stop(&self, accepted: u64) -> bool {
        if self.shutdown.load(Ordering::SeqCst) || signal::requested() {
            return true;
        }
        self.cfg.accept_limit.is_some_and(|limit| accepted >= limit)
    }
}

#[cfg(unix)]
fn listener_fd(listener: &TcpListener) -> poll::RawFd {
    use std::os::fd::AsRawFd;
    listener.as_raw_fd()
}

#[cfg(not(unix))]
fn listener_fd(_listener: &TcpListener) -> poll::RawFd {
    -1
}

/// The shard with the fewest pinned connections; `push` bumps the gauge
/// immediately, so a burst of accepts spreads evenly.
fn least_loaded(inboxes: &[Arc<Inbox>]) -> &Inbox {
    inboxes
        .iter()
        .min_by_key(|inbox| inbox.load())
        .expect("at least one shard")
}

/// The `server::accept` fault-injection site, shaped so the disabled
/// build carries no dead flag.
fn accept_failpoint() -> bool {
    parda_failpoint::failpoint!("server::accept", return true);
    false
}

/// Process-wide SIGINT/SIGTERM latch, polled by the accept loop.
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static REQUESTED: AtomicBool = AtomicBool::new(false);

    pub(super) fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    pub(super) mod unix {
        use super::REQUESTED;
        use std::sync::atomic::Ordering;

        // Raw libc signal(2) binding: the container has no signal crate
        // and the need — latch one flag — does not justify one. The
        // handler only performs the async-signal-safe atomic store.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        extern "C" fn on_signal(_signum: i32) {
            REQUESTED.store(true, Ordering::SeqCst);
        }

        pub fn install() {
            unsafe {
                signal(SIGINT, on_signal as *const () as usize);
                signal(SIGTERM, on_signal as *const () as usize);
            }
        }
    }
}

/// Route SIGINT and SIGTERM into a graceful drain of every running
/// [`Server`] in this process (they all poll the same latch). No-op on
/// non-unix targets.
pub fn install_signal_shutdown() {
    #[cfg(unix)]
    signal::unix::install();
}

/// Set the shutdown latch programmatically, exactly as a signal would —
/// lets tests exercise the drain path without raising a real signal.
pub fn request_shutdown() {
    signal::REQUESTED.store(true, Ordering::SeqCst);
}

/// Clear the process-wide latch (tests that start several servers).
pub fn reset_shutdown_latch() {
    signal::REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_reports_the_ephemeral_port() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
    }

    #[test]
    fn shutdown_handle_stops_an_idle_server() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.run().unwrap());
        std::thread::sleep(Duration::from_millis(30));
        handle.shutdown();
        let metrics = t.join().unwrap();
        assert_eq!(metrics, ServerMetrics::default());
    }

    #[test]
    fn accept_limit_bounds_the_run() {
        let server = Server::bind(ServerConfig {
            accept_limit: Some(0),
            ..ServerConfig::default()
        })
        .unwrap();
        let metrics = server.run().unwrap();
        assert_eq!(metrics.sessions_opened, 0);
    }

    #[test]
    fn effective_shards_is_positive_and_overridable() {
        let auto = ServerConfig::default().effective_shards();
        assert!((1..=AUTO_SHARDS_MAX).contains(&auto));
        let cfg = ServerConfig {
            shards: 3,
            ..ServerConfig::default()
        };
        assert_eq!(cfg.effective_shards(), 3);
    }
}
