//! One client session as a nonblocking state machine, driven by a shard.
//!
//! The session protocol is strict — HELLO, CONFIG, then DATA frames until
//! FIN — and every departure from it, every integrity violation, and every
//! analysis fault is converted into one typed ERROR frame before the
//! connection closes, so the client always learns *why* (and maps it onto
//! the CLI's exit-code classes).
//!
//! Unlike the original two-threads-per-session design, a `Session` owns
//! no thread and performs no I/O: the shard event loop reads bytes off the
//! socket, splits them into wire messages, and hands each one to
//! `Session::on_message`; replies are queued into the shard-owned outbox
//! and flushed under `poll(2)` write readiness. Analysis runs inline via
//! the resumable [`parda_core::SessionAnalysis`] driver: every exact
//! session pushes its frames into one windowed streamer as they arrive,
//! under the server's [`parda_core::FaultPolicy`] (an item past its
//! retries, or a watchdog stall, fails the session at FIN).
//!
//! Engines offered per session:
//!
//! * engine key absent (`Auto`): windows of 2,097,152 references with a
//!   length-scaled rank count — one in-memory pass at FIN up to that
//!   length, O(M + window) state past it.
//! * `engine=phased`: windows of `ranks × chunk` references, run as the
//!   frames arrive — bounded memory regardless of trace length.
//! * `engine=threads`: one window over the whole trace at FIN, as
//!   [`parda_core::Analysis::run_faulted`] runs it.
//!
//! Every exact engine runs on the Fenwick `vector` tree unless the client
//! names another (`tree=`) — the fastest exact structure, bit-identical to
//! every other.
//!
//! Approximate sessions (`approx=` other than `exact`) stream through the
//! constant-space sketch regardless of engine, so per-session memory is
//! O(sketch) — the shard records the high-water mark as proof.

use crate::proto::{
    data_frame_message, decode_resume, encode_histogram_binary, write_msg, AcceptPayload,
    ErrorClass, ErrorFrame, MsgKind, STATS_FORMAT_BINARY, STATS_FORMAT_JSON, TOKEN_LEN,
};
use crate::server::ServerConfig;
use parda_core::phased::Reduction;
use parda_core::{Analysis, ApproxMode, Mode, PardaError, SessionAnalysis};
use parda_hist::ReuseHistogram;
use parda_obs::{RecoveryMetrics, Report, ServerCounters};
use parda_trace::io::{decode_inline_frame, Encoding, FrameError};
use parda_trace::{Addr, Degradation, ThreadedTrace, Tid};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Messages a failed session keeps absorbing (so the client reaches our
/// buffered ERROR frame instead of a TCP reset) before the socket closes.
const DRAIN_MSG_CAP: u32 = 4096;

/// Which analyzer a session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEngine {
    /// No `engine=`/`chunk=` key: windows of 2,097,152 references with a
    /// length-scaled rank count (fastest exact path).
    Auto,
    /// Windows of `ranks × chunk` references, run as frames arrive.
    Phased {
        /// References per rank per window (`C`).
        chunk: usize,
    },
    /// One window over the whole trace, run at FIN.
    Threads,
}

/// How the STATS reply is encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyFormat {
    /// One JSON document `{"histogram":…,"stats":…}` — byte-identical to
    /// the CLI's `--stats=json` output for the same analysis.
    Json,
    /// Compact binary histogram (no stats report).
    Binary,
}

/// Per-session settings parsed from the CONFIG message.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Tree substrate for the analysis (`None`: the Fenwick `vector`, for
    /// every engine).
    pub tree: Option<parda_tree::TreeKind>,
    /// Rank count (`None`: hardware parallelism, or trace-scaled under
    /// [`SessionEngine::Auto`]).
    pub ranks: Option<usize>,
    /// Cache bound `B`.
    pub bound: Option<u64>,
    /// The analyzer to run.
    pub engine: SessionEngine,
    /// Frame payload encoding the client will send.
    pub encoding: Encoding,
    /// Corruption policy for DATA frames (defaults to the server's).
    pub degradation: Degradation,
    /// Reply encoding.
    pub reply: ReplyFormat,
    /// Approximation mode requested via `approx=<spec>`. `None` (the key
    /// absent — every pre-approx client) inherits the server's default;
    /// an explicit `approx=exact` forces exact analysis regardless.
    pub approx: Option<ApproxMode>,
    /// Thread-tagged session (`tagged=1`): DATA frames carry the v2.2
    /// tagged frame layout and FIN runs the concurrent shared-cache
    /// analyzer instead of a [`SessionAnalysis`] driver.
    pub tagged: bool,
    /// Partition recommendation request, `partition=<capacity>[/<gran>]`
    /// (granularity defaults through
    /// [`parda_core::concurrent::default_granularity`]). Requires
    /// `tagged=1` — the per-thread solo MRCs come from the tags.
    pub partition: Option<(u64, u64)>,
}

impl SessionConfig {
    /// Parse `key=value` lines, starting from the server's default
    /// degradation. Unknown keys are configuration errors — a client
    /// asking for something this server cannot honour must hear about it.
    pub fn parse(text: &str, default_degradation: Degradation) -> Result<Self, String> {
        let mut cfg = Self {
            tree: None,
            ranks: None,
            bound: None,
            engine: SessionEngine::Auto,
            encoding: Encoding::DeltaVarint,
            degradation: default_degradation,
            reply: ReplyFormat::Binary,
            approx: None,
            tagged: false,
            partition: None,
        };
        let mut chunk: Option<usize> = None;
        let mut engine_name: Option<String> = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("config line `{line}` is not key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("config {key}={value}: {e}");
            match key {
                "tree" => cfg.tree = Some(value.parse().map_err(|e: String| bad(&e))?),
                "ranks" => cfg.ranks = Some(value.parse().map_err(|e| bad(&e))?),
                "bound" => cfg.bound = Some(value.parse().map_err(|e| bad(&e))?),
                "chunk" => chunk = Some(value.parse().map_err(|e| bad(&e))?),
                "engine" => engine_name = Some(value.to_string()),
                "degradation" => {
                    cfg.degradation = value.parse().map_err(|e: String| bad(&e))?;
                }
                "approx" => cfg.approx = Some(ApproxMode::parse(value).map_err(|e| bad(&e))?),
                "tagged" => {
                    cfg.tagged = match value {
                        "1" | "true" => true,
                        "0" | "false" => false,
                        other => return Err(format!("config tagged={other}: expected 0|1")),
                    }
                }
                "partition" => {
                    let (cap, gran) = match value.split_once('/') {
                        Some((c, g)) => (
                            c.parse::<u64>().map_err(|e| bad(&e))?,
                            g.parse::<u64>().map_err(|e| bad(&e))?,
                        ),
                        None => {
                            let cap = value.parse::<u64>().map_err(|e| bad(&e))?;
                            (cap, parda_core::concurrent::default_granularity(cap.max(1)))
                        }
                    };
                    if cap == 0 || gran == 0 {
                        return Err(format!(
                            "config partition={value}: capacity and granularity must be positive"
                        ));
                    }
                    cfg.partition = Some((cap, gran));
                }
                "encoding" => {
                    cfg.encoding = match value {
                        "raw" => Encoding::Raw,
                        "delta" => Encoding::DeltaVarint,
                        other => return Err(format!("unknown encoding `{other}` (raw|delta)")),
                    }
                }
                "reply" => {
                    cfg.reply = match value {
                        "json" => ReplyFormat::Json,
                        "binary" => ReplyFormat::Binary,
                        other => {
                            return Err(format!("unknown reply format `{other}` (json|binary)"))
                        }
                    }
                }
                other => return Err(format!("unknown config key `{other}`")),
            }
        }
        parda_core::check_limits(cfg.ranks.unwrap_or(1), chunk, cfg.bound, 0)
            .map_err(|e| e.to_string())?;
        cfg.engine = match (engine_name.as_deref(), chunk) {
            // A bare `chunk=` keeps its historical meaning: phased with
            // that chunk. Only a CONFIG naming neither engine nor chunk
            // gets the auto cascade.
            (None, None) => SessionEngine::Auto,
            (None, Some(chunk)) | (Some("phased"), Some(chunk)) => SessionEngine::Phased { chunk },
            (Some("phased"), None) => SessionEngine::Phased { chunk: 65_536 },
            (Some("threads"), _) => SessionEngine::Threads,
            (Some(other), _) => return Err(format!("unknown engine `{other}` (phased|threads)")),
        };
        if cfg.partition.is_some() && !cfg.tagged {
            return Err("partition requires tagged=1 (per-thread MRCs come from the tags)".into());
        }
        if cfg.tagged {
            // The concurrent analyzer is its own engine: exact, unbounded,
            // single-rank. Refusing the incompatible keys beats silently
            // ignoring what the client asked for.
            if cfg.engine != SessionEngine::Auto {
                return Err("tagged sessions run the concurrent analyzer (no engine/chunk)".into());
            }
            if cfg.approx.is_some() {
                return Err("tagged sessions are exact (no approx)".into());
            }
            if cfg.bound.is_some() {
                return Err("tagged sessions are unbounded (no bound)".into());
            }
            if cfg.ranks.is_some() {
                return Err("tagged sessions are single-rank (no ranks)".into());
            }
        }
        Ok(cfg)
    }

    /// The analysis builder for this session plus whether the session
    /// should rank its windows by their length.
    fn builder(
        &self,
        policy: parda_core::FaultPolicy,
        default_approx: ApproxMode,
    ) -> (Analysis, bool) {
        let (mode, auto_ranks) = match self.engine {
            SessionEngine::Auto => (Mode::Threads, true),
            SessionEngine::Threads => (Mode::Threads, false),
            SessionEngine::Phased { chunk } => (
                Mode::Phased {
                    chunk,
                    reduction: Reduction::ShipToRankZero,
                },
                false,
            ),
        };
        let mut b = Analysis::new()
            .tree(self.tree.unwrap_or(parda_tree::TreeKind::Vector))
            .mode(mode)
            .bound(self.bound)
            .stats(true)
            .fault_policy(policy)
            .approx(self.approx.unwrap_or(default_approx));
        if let Some(ranks) = self.ranks {
            b = b.ranks(ranks);
        }
        (b, auto_ranks)
    }
}

/// A classified session failure plus the wire frame describing it.
struct SessionError(ErrorFrame);

impl SessionError {
    fn new(class: ErrorClass, message: impl Into<String>) -> Self {
        Self(ErrorFrame::new(class, message))
    }

    fn from_parda(e: &PardaError) -> Self {
        Self(ErrorFrame::from_parda(e))
    }

    /// The session watchdog firing: the peer sent nothing for the whole
    /// idle window.
    fn stall(idle: Option<std::time::Duration>) -> Self {
        Self(ErrorFrame {
            class: ErrorClass::Stall,
            a: 0,
            b: idle
                .map(|d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX))
                .unwrap_or(0),
            message: "session idle past the read deadline".into(),
        })
    }
}

/// Decrements the active-session count when the session ends (normally or
/// by unwind — the shard drops the slot either way).
struct AdmissionGuard {
    active: Arc<AtomicUsize>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn try_admit(active: &Arc<AtomicUsize>, max: usize) -> Option<AdmissionGuard> {
    let mut cur = active.load(Ordering::SeqCst);
    loop {
        if cur >= max {
            return None;
        }
        match active.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                return Some(AdmissionGuard {
                    active: Arc::clone(active),
                })
            }
            Err(now) => cur = now,
        }
    }
}

/// Everything a [`Session`] borrows from its shard for one step: server
/// config, shared counters, the admission gauge, the slot's reply outbox,
/// and the shard's reusable frame-decode arena.
pub(crate) struct SessionHost<'a> {
    pub scfg: &'a ServerConfig,
    pub counters: &'a ServerCounters,
    pub active: &'a Arc<AtomicUsize>,
    pub outbox: &'a mut Vec<u8>,
    pub arena: &'a mut Vec<Addr>,
}

/// Where a session is in its protocol lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    AwaitConfig,
    Streaming,
    /// A terminal reply is queued; keep absorbing the client's in-flight
    /// messages (bounded) so it can read the reply before we close.
    Draining,
    /// Flush the outbox, then close the socket.
    Closing,
}

/// The per-connection protocol state machine (see the module docs). All
/// counter updates and reply bytes happen in here; the shard only moves
/// bytes and readiness.
pub(crate) struct Session {
    id: u64,
    phase: Phase,
    cfg: Option<SessionConfig>,
    driver: Option<SessionAnalysis>,
    /// Accumulated thread-tagged stream for `tagged=1` sessions, which
    /// buffer and run the concurrent analyzer at FIN (no driver).
    tagged_trace: Option<ThreadedTrace>,
    /// Scratch TID arena for tagged frame decoding (pairs `host.arena`).
    tid_arena: Vec<Tid>,
    guard: Option<AdmissionGuard>,
    budget: Option<u64>,
    bytes_in: u64,
    frame_seq: u64,
    recovery: RecoveryMetrics,
    drained_msgs: u32,
    state_bytes_hwm: u64,
    sketch_bytes_hwm: u64,
    outcome_recorded: bool,
    completed: bool,
    /// Resume token issued in ACCEPT (id prefix + random nonce).
    token: [u8; TOKEN_LEN],
    /// Copy of the queued STATS message, kept until the slot is reaped so
    /// a session orphaned *after* completion can redeliver its reply.
    final_reply: Option<Vec<u8>>,
    /// A decoded RESUME token awaiting adoption by the shard (which owns
    /// the orphan pool handle; the session itself cannot reach it).
    pending_resume: Option<[u8; TOKEN_LEN]>,
}

impl Session {
    pub(crate) fn new(id: u64) -> Self {
        Session {
            id,
            phase: Phase::AwaitHello,
            cfg: None,
            driver: None,
            tagged_trace: None,
            tid_arena: Vec::new(),
            guard: None,
            budget: None,
            bytes_in: 0,
            frame_seq: 0,
            recovery: RecoveryMetrics::default(),
            drained_msgs: 0,
            state_bytes_hwm: 0,
            sketch_bytes_hwm: 0,
            outcome_recorded: false,
            completed: false,
            token: [0; TOKEN_LEN],
            final_reply: None,
            pending_resume: None,
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// A fresh session with its resume token already minted, as the
    /// orphan-pool tests need (production mints the token at admission).
    #[cfg(test)]
    pub(crate) fn tokened(id: u64) -> (Session, [u8; TOKEN_LEN]) {
        let mut s = Session::new(id);
        s.token = make_token(id);
        let token = s.token;
        (s, token)
    }

    /// Constant shape (not constant time — the token guards against
    /// stale handles, not adversaries; see the module docs in `orphan`).
    pub(crate) fn token_matches(&self, token: &[u8; TOKEN_LEN]) -> bool {
        self.token == *token
    }

    /// Whether the shard should keep reading (and parsing) this socket.
    pub(crate) fn wants_read(&self) -> bool {
        self.phase != Phase::Closing
    }

    /// Whether the slot can be reaped once its outbox is flushed.
    pub(crate) fn is_closing(&self) -> bool {
        self.phase == Phase::Closing
    }

    /// STATS was queued — the shard records the session latency.
    pub(crate) fn completed(&self) -> bool {
        self.completed
    }

    /// Largest per-session analysis state seen (any mode).
    pub(crate) fn state_bytes_hwm(&self) -> u64 {
        self.state_bytes_hwm
    }

    /// Largest sketch seen, for approx sessions only (0 otherwise).
    pub(crate) fn sketch_bytes_hwm(&self) -> u64 {
        self.sketch_bytes_hwm
    }

    /// One complete wire message from the shard's parser.
    pub(crate) fn on_message(&mut self, kind: MsgKind, payload: &[u8], host: &mut SessionHost) {
        match self.phase {
            Phase::AwaitHello => self.handle_hello(kind, payload, host),
            Phase::AwaitConfig => self.handle_config(kind, payload, host),
            Phase::Streaming => self.handle_streaming(kind, payload, host),
            Phase::Draining => {
                self.drained_msgs += 1;
                if kind == MsgKind::Fin || self.drained_msgs >= DRAIN_MSG_CAP {
                    self.phase = Phase::Closing;
                }
            }
            Phase::Closing => {}
        }
    }

    /// The byte stream stopped being parseable (bad kind byte, lying
    /// length prefix): reply if we still can, then close — resync is
    /// impossible once framing is lost.
    pub(crate) fn on_desync(&mut self, detail: String, host: &mut SessionHost) {
        match self.phase {
            Phase::Draining | Phase::Closing => {}
            _ => self.abort(SessionError::new(ErrorClass::Protocol, detail), host),
        }
        self.phase = Phase::Closing;
    }

    /// The peer closed its write side.
    pub(crate) fn on_eof(&mut self, host: &mut SessionHost) {
        match self.phase {
            Phase::AwaitHello | Phase::AwaitConfig | Phase::Streaming => self.abort(
                SessionError::new(ErrorClass::Protocol, "connection closed mid-session"),
                host,
            ),
            Phase::Draining | Phase::Closing => {}
        }
        self.phase = Phase::Closing;
    }

    /// A hard socket read error.
    pub(crate) fn on_read_error(&mut self, e: std::io::Error, host: &mut SessionHost) {
        match self.phase {
            Phase::Draining | Phase::Closing => {}
            _ => self.abort(SessionError::new(ErrorClass::Io, e.to_string()), host),
        }
        self.phase = Phase::Closing;
    }

    /// The idle deadline passed with no bytes pending on the socket.
    pub(crate) fn on_stall(&mut self, host: &mut SessionHost) {
        match self.phase {
            Phase::Draining | Phase::Closing => {}
            _ => self.abort(SessionError::stall(host.scfg.idle_timeout), host),
        }
        self.phase = Phase::Closing;
    }

    /// Flushing this session's reply failed: the peer is gone; make sure
    /// the connection is still accounted exactly once.
    pub(crate) fn on_transport_error(&mut self, host: &mut SessionHost) {
        if !self.outcome_recorded {
            self.outcome_recorded = true;
            if self.guard.is_some() {
                host.counters.sessions_failed.incr();
            } else {
                host.counters.sessions_rejected.incr();
            }
        }
        self.phase = Phase::Closing;
    }

    /// A panic unwound out of message processing (the `server::session`
    /// failpoint in tests, a bug in production): the session dies with a
    /// typed error frame, the daemon and its shard do not.
    pub(crate) fn on_panic(&mut self, host: &mut SessionHost) {
        if !self.outcome_recorded {
            self.outcome_recorded = true;
            host.counters.sessions_failed.incr();
        }
        let frame = ErrorFrame::new(ErrorClass::WorkerPanic, "session thread panicked");
        let _ = write_msg(host.outbox, MsgKind::Error, &frame.to_payload());
        // Keep absorbing whatever the client was still sending so it can
        // reach the error frame (closing with unread data would RST the
        // buffered reply away).
        self.phase = Phase::Draining;
    }

    /// Whether a lost transport should orphan this session instead of
    /// failing it: it must hold an admission slot and either still be
    /// streaming or have a completed-but-undelivered reply. Handshake
    /// phases and already-failed (draining/closing without a reply)
    /// sessions keep the legacy fail-fast path.
    pub(crate) fn is_orphanable(&self) -> bool {
        self.guard.is_some()
            && (self.phase == Phase::Streaming || (self.completed && self.final_reply.is_some()))
    }

    /// Whether the session is mid-stream (admitted, before FIN).
    pub(crate) fn is_streaming(&self) -> bool {
        self.phase == Phase::Streaming
    }

    /// Detach from a dead transport before parking in the orphan pool:
    /// stops the analysis wall clock and clears any half-processed
    /// resume request.
    pub(crate) fn detach(&mut self) {
        if let Some(driver) = self.driver.as_mut() {
            driver.detach();
        }
        self.pending_resume = None;
    }

    /// Reattach a parked session to a fresh connection. Queues the
    /// resume-ACCEPT carrying the authoritative ingest watermark; a
    /// completed session also requeues its undelivered STATS reply and
    /// drains (absorbing the client's re-sent FIN), while an in-flight
    /// one goes back to streaming so the client can retransmit frames
    /// past the watermark.
    pub(crate) fn resume_onto(&mut self, outbox: &mut Vec<u8>) {
        if let Some(driver) = self.driver.as_mut() {
            driver.reattach();
        }
        let accept = AcceptPayload {
            session: self.id,
            token: self.token,
            watermark: self.frame_seq,
        };
        let _ = write_msg(outbox, MsgKind::Accept, &accept.to_bytes());
        if self.completed {
            let reply = self.final_reply.clone().expect("orphanable completed");
            outbox.extend_from_slice(&reply);
            self.drained_msgs = 0;
            self.phase = Phase::Draining;
        } else {
            self.phase = Phase::Streaming;
        }
    }

    /// The token decoded from a RESUME message, if one is waiting for the
    /// shard to adopt.
    pub(crate) fn take_pending_resume(&mut self) -> Option<[u8; TOKEN_LEN]> {
        self.pending_resume.take()
    }

    /// A RESUME named a token that is not parked (expired, evicted,
    /// already resumed, or never ours): structured refusal, counted as a
    /// rejected connection like any other failed handshake.
    pub(crate) fn on_resume_missing(&mut self, host: &mut SessionHost) {
        self.refuse(
            SessionError::new(ErrorClass::Protocol, "unknown or expired session token"),
            host,
        );
    }

    /// Terminal accounting for an orphan that will never be resumed.
    /// Dropping the session afterwards releases its admission slot.
    pub(crate) fn expire(&mut self, counters: &ServerCounters) {
        if !self.outcome_recorded {
            self.outcome_recorded = true;
            counters.sessions_failed.incr();
        }
    }

    /// Bytes this session pins while parked: retained analysis state
    /// plus any undelivered reply (floored at 1 so even an empty session
    /// counts against the pool budget).
    pub(crate) fn orphan_bytes(&self) -> u64 {
        let state = self.driver.as_ref().map_or(0, |d| d.state_bytes())
            + self
                .tagged_trace
                .as_ref()
                .map_or(0, |t| t.len() as u64 * 12);
        let reply = self.final_reply.as_ref().map_or(0, |r| r.len() as u64);
        (state + reply).max(1)
    }

    fn handle_hello(&mut self, kind: MsgKind, payload: &[u8], host: &mut SessionHost) {
        if kind != MsgKind::Hello {
            return self.refuse(
                SessionError::new(
                    ErrorClass::Protocol,
                    format!("expected HELLO, got {kind:?}"),
                ),
                host,
            );
        }
        if let Err(e) = crate::proto::check_hello(payload) {
            return self.refuse(SessionError::new(ErrorClass::Protocol, e), host);
        }
        self.phase = Phase::AwaitConfig;
    }

    fn handle_config(&mut self, kind: MsgKind, payload: &[u8], host: &mut SessionHost) {
        if kind == MsgKind::Resume {
            // A reconnecting client instead of a fresh CONFIG. Decode the
            // token and leave it for the shard, which owns the orphan
            // pool and swaps the parked session into this slot.
            match decode_resume(payload) {
                Ok((token, _last_acked)) => self.pending_resume = Some(token),
                Err(e) => self.refuse(SessionError::new(ErrorClass::Protocol, e.to_string()), host),
            }
            return;
        }
        if kind != MsgKind::Config {
            return self.refuse(
                SessionError::new(
                    ErrorClass::Protocol,
                    format!("expected CONFIG, got {kind:?}"),
                ),
                host,
            );
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return self.refuse(
                SessionError::new(ErrorClass::Protocol, "CONFIG is not UTF-8"),
                host,
            );
        };
        let cfg = match SessionConfig::parse(text, host.scfg.fault.degradation) {
            Ok(cfg) => cfg,
            Err(e) => return self.refuse(SessionError::new(ErrorClass::Config, e), host),
        };

        // Admission control: the session cap is enforced after a valid
        // handshake so the refusal is a structured protocol error, not a
        // dropped connection.
        let Some(guard) = try_admit(host.active, host.scfg.max_sessions) else {
            return self.refuse(
                SessionError::new(
                    ErrorClass::Admission,
                    format!(
                        "admission rejected: {} sessions active (max {})",
                        host.scfg.max_sessions, host.scfg.max_sessions
                    ),
                ),
                host,
            );
        };
        self.guard = Some(guard);
        host.counters.sessions_opened.incr();
        self.token = make_token(self.id);
        let accept = AcceptPayload {
            session: self.id,
            token: self.token,
            watermark: 0,
        };
        let _ = write_msg(host.outbox, MsgKind::Accept, &accept.to_bytes());
        parda_failpoint::failpoint!("server::session");

        if cfg.tagged {
            self.tagged_trace = Some(ThreadedTrace::new());
        } else {
            let policy = parda_core::FaultPolicy {
                degradation: cfg.degradation,
                ..host.scfg.fault.clone()
            };
            let (builder, auto_ranks) = cfg.builder(policy, host.scfg.default_approx);
            self.driver = Some(builder.session().auto_ranks(auto_ranks));
        }
        self.budget = host.scfg.max_session_bytes;
        self.cfg = Some(cfg);
        self.phase = Phase::Streaming;
    }

    fn handle_streaming(&mut self, kind: MsgKind, payload: &[u8], host: &mut SessionHost) {
        match kind {
            MsgKind::Data => {
                if let Err(e) = self.ingest_frame(payload, host) {
                    self.abort(e, host);
                    self.phase = Phase::Draining;
                } else {
                    self.maybe_ack(host);
                }
            }
            MsgKind::Fin => self.finish(host),
            other => {
                self.abort(
                    SessionError::new(
                        ErrorClass::Protocol,
                        format!("expected DATA or FIN, got {other:?}"),
                    ),
                    host,
                );
                self.phase = Phase::Draining;
            }
        }
    }

    /// Decode one DATA payload under the session's degradation policy and
    /// feed it to the analysis driver. A lossy policy may quarantine the
    /// frame, which feeds nothing.
    fn ingest_frame(&mut self, payload: &[u8], host: &mut SessionHost) -> Result<(), SessionError> {
        self.frame_seq += 1;
        self.bytes_in += payload.len() as u64;
        if let Some(budget) = self.budget {
            if self.bytes_in > budget {
                return Err(SessionError::new(
                    ErrorClass::Budget,
                    format!("session exceeded its {budget}-byte budget"),
                ));
            }
        }
        host.counters.frames_in.incr();
        host.counters.bytes_in.add(payload.len() as u64);
        let cfg = self.cfg.as_ref().expect("streaming implies config");
        let (encoding, tagged) = (cfg.encoding, cfg.tagged);
        let tids = tagged.then_some(&mut self.tid_arena);
        let decoded = decode_inline_frame(payload, encoding, host.arena, tids);
        parda_failpoint::failpoint!("server::decode", {
            return self.quarantine(
                FrameError::Decode {
                    count: 0,
                    detail: "injected server decode failure".into(),
                },
                host,
            );
        });
        match decoded {
            Ok(()) if tagged => {
                host.counters.refs_in.add(host.arena.len() as u64);
                let trace = self.tagged_trace.as_mut().expect("tagged implies trace");
                for (&tid, &addr) in self.tid_arena.iter().zip(host.arena.iter()) {
                    trace.push(tid, addr);
                }
                // The buffered stream is the session's analysis state:
                // 8 address bytes + 4 TID bytes per reference.
                self.state_bytes_hwm = self.state_bytes_hwm.max(trace.len() as u64 * 12);
                Ok(())
            }
            Ok(()) => {
                host.counters.refs_in.add(host.arena.len() as u64);
                let driver = self.driver.as_mut().expect("streaming implies driver");
                driver.feed(host.arena);
                self.state_bytes_hwm = self.state_bytes_hwm.max(driver.state_bytes());
                if driver.is_sketch() {
                    self.sketch_bytes_hwm = self.sketch_bytes_hwm.max(driver.state_bytes());
                }
                Ok(())
            }
            Err(e) => self.quarantine(e, host),
        }
    }

    /// Strict: fail the session. Lossy: tally the quarantined frame
    /// (mirroring `FramedStream`'s per-frame recovery) and carry on.
    fn quarantine(&mut self, e: FrameError, host: &mut SessionHost) -> Result<(), SessionError> {
        let cfg = self.cfg.as_ref().expect("streaming implies config");
        if !cfg.degradation.is_lossy() {
            return Err(SessionError::from_parda(&PardaError::Corrupt(
                data_frame_message(&e),
            )));
        }
        if matches!(e, FrameError::Crc { .. }) {
            self.recovery.crc_failures += 1;
        }
        self.recovery.skip_frame(self.frame_seq - 1, e.count());
        host.counters.frames_quarantined.incr();
        Ok(())
    }

    /// FIN: run the last window, queue the STATS reply.
    fn finish(&mut self, host: &mut SessionHost) {
        if self.cfg.as_ref().is_some_and(|c| c.tagged) {
            return self.finish_tagged(host);
        }
        let driver = self.driver.take().expect("streaming implies driver");
        let (hist, report) = match driver.finish() {
            Ok(done) => done,
            Err(e) => {
                self.abort(SessionError::from_parda(&e), host);
                self.phase = Phase::Draining;
                return;
            }
        };
        let mut report = report.expect("stats were requested");
        attach_recovery(&mut report, std::mem::take(&mut self.recovery));
        if let Some(a) = report.approx.as_ref() {
            host.counters.approx_sessions.incr();
            host.counters.sketch_bytes_hwm.record_max(a.sketch_bytes);
            self.sketch_bytes_hwm = self.sketch_bytes_hwm.max(a.sketch_bytes);
        }
        let cfg = self.cfg.as_ref().expect("streaming implies config");
        // Build the STATS message off to the side so a copy survives in
        // `final_reply`: if the transport dies before the outbox drains,
        // the orphaned session can requeue the reply verbatim on resume.
        let mut reply = Vec::new();
        match send_stats(&mut reply, cfg, &hist, &report) {
            Ok(()) => {
                host.outbox.extend_from_slice(&reply);
                self.final_reply = Some(reply);
                self.outcome_recorded = true;
                self.completed = true;
                host.counters.sessions_completed.incr();
                self.phase = Phase::Closing;
            }
            Err(e) => {
                self.abort(e, host);
                self.phase = Phase::Draining;
            }
        }
    }

    /// FIN on a tagged session: run the concurrent shared-cache analyzer
    /// over the as-received interleaving (model label `as-recorded`),
    /// fold a partition recommendation in when one was requested, and
    /// queue the STATS reply. The shared histogram plays the role the
    /// exact histogram plays for plain sessions — binary replies carry
    /// it; JSON replies add the full report with `stats.shared`.
    fn finish_tagged(&mut self, host: &mut SessionHost) {
        let trace = self.tagged_trace.take().expect("tagged implies trace");
        let cfg = self.cfg.as_ref().expect("streaming implies config");
        let tree = cfg.tree.unwrap_or(parda_tree::TreeKind::Vector);
        let partition = cfg.partition;
        let started = std::time::Instant::now();
        let analysis = parda_core::concurrent::analyze_concurrent_kind(&trace, tree);
        let plan = match partition {
            Some((capacity, granularity)) => {
                let threads = analysis.thread_ids.len() as u64;
                if threads == 0 {
                    self.abort(
                        SessionError::new(
                            ErrorClass::Config,
                            "partition requested but no references were ingested",
                        ),
                        host,
                    );
                    self.phase = Phase::Draining;
                    return;
                }
                if capacity < granularity.saturating_mul(threads) {
                    self.abort(
                        SessionError::new(
                            ErrorClass::Config,
                            format!(
                                "partition capacity {capacity} cannot give {threads} \
                                 threads {granularity} lines each"
                            ),
                        ),
                        host,
                    );
                    self.phase = Phase::Draining;
                    return;
                }
                Some(parda_core::concurrent::recommend_partition(
                    &analysis.per_thread_solo,
                    capacity,
                    granularity,
                ))
            }
            None => None,
        };
        let mut report = Report {
            mode: "concurrent".into(),
            tree: tree.name().into(),
            ranks: 1,
            trace_refs: trace.len() as u64,
            total_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            shared: Some(parda_core::concurrent::shared_metrics(
                &analysis,
                "as-recorded",
                plan.as_ref(),
            )),
            ..Report::default()
        };
        attach_recovery(&mut report, std::mem::take(&mut self.recovery));
        let cfg = self.cfg.as_ref().expect("streaming implies config");
        let mut reply = Vec::new();
        match send_stats(&mut reply, cfg, &analysis.shared, &report) {
            Ok(()) => {
                host.outbox.extend_from_slice(&reply);
                self.final_reply = Some(reply);
                self.outcome_recorded = true;
                self.completed = true;
                host.counters.sessions_completed.incr();
                self.phase = Phase::Closing;
            }
            Err(e) => {
                self.abort(e, host);
                self.phase = Phase::Draining;
            }
        }
    }

    /// Queue a cumulative `ACK(frame_seq)` every `ack_every` ingested
    /// frames (0 disables, the legacy wire behaviour). ACKs are advisory:
    /// losing one only costs the client extra retransmission volume,
    /// because the watermark in a resume-ACCEPT is authoritative.
    fn maybe_ack(&mut self, host: &mut SessionHost) {
        let every = u64::from(host.scfg.ack_every);
        if every == 0 || !self.frame_seq.is_multiple_of(every) {
            return;
        }
        parda_failpoint::failpoint!("server::ack_drop", return);
        let _ = write_msg(host.outbox, MsgKind::Ack, &self.frame_seq.to_le_bytes());
        host.counters.acks_sent.incr();
    }

    /// Refuse an un-admitted connection (bad handshake or admission cap):
    /// `sessions_rejected`, an error frame, then a bounded drain.
    fn refuse(&mut self, err: SessionError, host: &mut SessionHost) {
        if !self.outcome_recorded {
            self.outcome_recorded = true;
            host.counters.sessions_rejected.incr();
        }
        let _ = write_msg(host.outbox, MsgKind::Error, &err.0.to_payload());
        self.phase = Phase::Draining;
    }

    /// Fail the session with a typed error frame, accounting it exactly
    /// once: `sessions_failed` when admitted, `sessions_rejected` during
    /// the handshake. The caller picks the follow-up phase.
    fn abort(&mut self, err: SessionError, host: &mut SessionHost) {
        if !self.outcome_recorded {
            self.outcome_recorded = true;
            if self.guard.is_some() {
                host.counters.sessions_failed.incr();
            } else {
                host.counters.sessions_rejected.incr();
            }
        }
        let _ = write_msg(host.outbox, MsgKind::Error, &err.0.to_payload());
    }
}

/// Build a resume token: the session id (little-endian) followed by a
/// splitmix64 nonce seeded from the wall clock and the id. The prefix
/// lets the orphan pool index by id; the nonce makes stale tokens from
/// recycled ids fail to match. Uniqueness, not cryptography — the daemon
/// trusts its transport exactly as much as it did before resumption.
fn make_token(id: u64) -> [u8; TOKEN_LEN] {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut x = now ^ id.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let mut token = [0u8; TOKEN_LEN];
    token[..8].copy_from_slice(&id.to_le_bytes());
    token[8..].copy_from_slice(&x.to_le_bytes());
    token
}

/// Fold the wire-level recovery tally into the analysis report.
fn attach_recovery(report: &mut Report, wire: RecoveryMetrics) {
    if wire.is_clean() && report.recovery.is_some() {
        return;
    }
    match report.recovery.as_mut() {
        Some(existing) => existing.merge(&wire),
        None => report.recovery = Some(wire),
    }
}

fn send_stats(
    outbox: &mut Vec<u8>,
    cfg: &SessionConfig,
    hist: &ReuseHistogram,
    report: &Report,
) -> Result<(), SessionError> {
    let io_fail = |e: &dyn std::fmt::Display| SessionError::new(ErrorClass::Io, e.to_string());
    let mut payload;
    match cfg.reply {
        ReplyFormat::Json => {
            let hist_json = serde_json::to_string(hist).map_err(|e| io_fail(&e))?;
            let report_json = serde_json::to_string(report).map_err(|e| io_fail(&e))?;
            payload = vec![STATS_FORMAT_JSON];
            payload.extend_from_slice(
                format!("{{\"histogram\":{hist_json},\"stats\":{report_json}}}").as_bytes(),
            );
        }
        ReplyFormat::Binary => {
            payload = vec![STATS_FORMAT_BINARY];
            payload.extend_from_slice(&encode_histogram_binary(hist));
        }
    }
    write_msg(outbox, MsgKind::Stats, &payload).map_err(|e| io_fail(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_config_defaults_and_overrides() {
        let cfg = SessionConfig::parse("", Degradation::Strict).unwrap();
        assert_eq!(cfg.engine, SessionEngine::Auto);
        assert_eq!(cfg.tree, None, "no tree named: the session runs vector");
        assert_eq!(cfg.encoding, Encoding::DeltaVarint);
        assert_eq!(cfg.degradation, Degradation::Strict);
        assert_eq!(cfg.reply, ReplyFormat::Binary);
        assert_eq!(cfg.ranks, None);
        assert_eq!(cfg.approx, None, "pre-approx CONFIG inherits the server");

        let cfg = SessionConfig::parse(
            "tree=avl\nranks=3\nbound=512\nengine=threads\nencoding=raw\n\
             degradation=best-effort\nreply=json\napprox=shards-smax:4096\n",
            Degradation::Strict,
        )
        .unwrap();
        assert_eq!(cfg.tree, Some(parda_tree::TreeKind::Avl));
        assert_eq!(cfg.ranks, Some(3));
        assert_eq!(cfg.bound, Some(512));
        assert_eq!(cfg.engine, SessionEngine::Threads);
        assert_eq!(cfg.encoding, Encoding::Raw);
        assert_eq!(cfg.degradation, Degradation::BestEffort);
        assert_eq!(cfg.reply, ReplyFormat::Json);
        assert_eq!(
            cfg.approx,
            Some(ApproxMode::ShardsFixedSize { s_max: 4096 })
        );

        let cfg = SessionConfig::parse("approx=exact", Degradation::Strict).unwrap();
        assert_eq!(cfg.approx, Some(ApproxMode::Exact), "explicit exact wins");
    }

    #[test]
    fn session_config_engine_selection_is_backward_compatible() {
        // engine=phased keeps its default chunk.
        let cfg = SessionConfig::parse("engine=phased", Degradation::Strict).unwrap();
        assert_eq!(cfg.engine, SessionEngine::Phased { chunk: 65_536 });
        // A bare chunk= still means phased, as it always has.
        let cfg = SessionConfig::parse("chunk=1000", Degradation::Strict).unwrap();
        assert_eq!(cfg.engine, SessionEngine::Phased { chunk: 1000 });
    }

    #[test]
    fn every_engine_runs_vector_unless_the_client_names_a_tree() {
        let trace: Vec<Addr> = (0..2_000).map(|i| (i * 7) % 97).collect();
        let tree_of = |config: &str| {
            let cfg = SessionConfig::parse(config, Degradation::Strict).unwrap();
            let (builder, _) = cfg.builder(parda_core::FaultPolicy::default(), ApproxMode::Exact);
            let mut session = builder.session();
            session.feed(&trace);
            session
                .finish()
                .unwrap()
                .1
                .expect("sessions keep stats")
                .tree
        };
        for engine in ["", "engine=threads", "engine=phased"] {
            assert_eq!(tree_of(engine), "vector", "{engine:?}");
        }
        assert_eq!(tree_of("engine=threads\ntree=splay"), "splay");
    }

    #[test]
    fn session_config_inherits_server_degradation() {
        let cfg =
            SessionConfig::parse("engine=phased\nchunk=1000", Degradation::BestEffort).unwrap();
        assert_eq!(cfg.degradation, Degradation::BestEffort);
        assert_eq!(cfg.engine, SessionEngine::Phased { chunk: 1000 });
    }

    #[test]
    fn session_config_parses_tagged_and_partition() {
        let cfg = SessionConfig::parse("tagged=1", Degradation::Strict).unwrap();
        assert!(cfg.tagged);
        assert_eq!(cfg.partition, None);

        let cfg = SessionConfig::parse("tagged=1\npartition=4096/64", Degradation::Strict).unwrap();
        assert_eq!(cfg.partition, Some((4096, 64)));

        // Omitted granularity resolves through the shared default.
        let cfg = SessionConfig::parse("tagged=1\npartition=4096", Degradation::Strict).unwrap();
        assert_eq!(
            cfg.partition,
            Some((4096, parda_core::concurrent::default_granularity(4096)))
        );

        // Tagged sessions may still pick a tree and wire settings.
        let cfg = SessionConfig::parse(
            "tagged=1\npartition=1024/8\ntree=splay\nencoding=raw\nreply=json",
            Degradation::Strict,
        )
        .unwrap();
        assert_eq!(cfg.tree, Some(parda_tree::TreeKind::Splay));
        assert_eq!(cfg.reply, ReplyFormat::Json);

        for bad in [
            "tagged=maybe",
            "partition=0",
            "partition=4096/0",
            "partition=4096",           // partition without tagged
            "tagged=1\nengine=threads", // the concurrent analyzer is the engine
            "tagged=1\nchunk=100",
            "tagged=1\napprox=shards:256",
            "tagged=1\nbound=64",
            "tagged=1\nranks=4",
        ] {
            assert!(
                SessionConfig::parse(bad, Degradation::Strict).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn session_config_rejects_unknown_keys_and_values() {
        for bad in [
            "warp=9",
            "engine=warp",
            "tree=oak",
            "ranks=minus-two",
            "reply=yaml",
            "encoding=utf8",
            "degradation=yolo",
            "approx=warp",
            "approx=shards:0",
            "approx=shards:1.5",
            "not-a-pair",
        ] {
            assert!(
                SessionConfig::parse(bad, Degradation::Strict).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn resume_tokens_embed_the_id_and_differ_per_session() {
        let a = make_token(7);
        let b = make_token(7);
        assert_eq!(u64::from_le_bytes(a[..8].try_into().unwrap()), 7);
        assert_ne!(a[8..], b[8..], "nonces differ even for a recycled id");
        let mut s = Session::new(7);
        s.token = a;
        assert!(s.token_matches(&a));
        assert!(!s.token_matches(&b), "id match alone is not enough");
    }

    #[test]
    fn fresh_session_is_not_orphanable_until_admitted_and_streaming() {
        let s = Session::new(1);
        assert!(!s.is_orphanable(), "handshake phases fail fast");
    }

    #[test]
    fn admission_cas_caps_and_guard_releases() {
        let active = Arc::new(AtomicUsize::new(0));
        let a = try_admit(&active, 2).expect("first");
        let _b = try_admit(&active, 2).expect("second");
        assert!(try_admit(&active, 2).is_none(), "cap reached");
        drop(a);
        assert!(try_admit(&active, 2).is_some(), "slot released");
    }
}
