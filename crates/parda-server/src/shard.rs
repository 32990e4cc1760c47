//! Shard event loops: N threads, each owning a set of pinned sessions.
//!
//! The acceptor pins every connection to the least-loaded shard at accept
//! time; from then on all of that session's I/O, frame decoding, and
//! analysis happen on the shard thread. One `poll(2)` set per shard covers
//! its admission-inbox waker plus every pinned socket, so an idle shard
//! burns no CPU and a busy one wakes exactly for the sockets with work.
//!
//! Backpressure is explicit at two levels:
//!
//! * A session with an unflushed reply is not read — its poll registration
//!   flips from `POLLIN` to `POLLOUT` until the outbox drains, so a slow
//!   reader cannot make the shard buffer unboundedly.
//! * The shard reads at most [`READ_BURST`] bytes from one socket per
//!   event-loop turn, so one firehose session cannot starve its
//!   shard-mates (fairness is asserted by the e2e suite).
//!
//! Frame payloads are decoded into one reusable per-shard arena
//! ([`parda_trace::io::decode_inline_frame`]) — steady-state ingest does
//! no per-frame allocation. Session stepping runs under `catch_unwind`, so
//! a panicking session (failpoint or bug) costs one error frame, never the
//! shard.

use crate::orphan::OrphanPool;
use crate::poll::{self, Poller, Waker};
use crate::server::ServerConfig;
use crate::session::{Session, SessionHost};
use parda_obs::{LatencyHist, ServerCounters, ShardMetrics};
use parda_trace::Addr;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared read buffer size: one socket drains in large chunks without a
/// per-slot buffer of that size.
const READ_CHUNK: usize = 128 * 1024;

/// Per-slot, per-turn ingest cap — the fairness quantum.
const READ_BURST: usize = 1 << 20;

/// Upper bound on one poll wait; also the latency bound for noticing the
/// process-wide signal latch on platforms where `poll` does not EINTR.
const MAX_POLL_WAIT: Duration = Duration::from_millis(100);

/// Compact the consumed prefix of a slot's input buffer once it exceeds
/// this many bytes.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// A shard's admission inbox: connections pinned by the acceptor, a load
/// gauge the acceptor balances on, and the waker that unparks the shard.
pub(crate) struct Inbox {
    queue: Mutex<VecDeque<(TcpStream, u64, Instant)>>,
    /// Pinned connections not yet closed (queued + live slots).
    load: AtomicUsize,
    stop: AtomicBool,
    waker: Waker,
}

impl Inbox {
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Inbox {
            queue: Mutex::new(VecDeque::new()),
            load: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            waker: Waker::new()?,
        })
    }

    /// Pin one accepted connection to this shard.
    pub(crate) fn push(&self, stream: TcpStream, id: u64) {
        self.load.fetch_add(1, Ordering::SeqCst);
        self.queue
            .lock()
            .unwrap()
            .push_back((stream, id, Instant::now()));
        self.waker.wake();
    }

    /// Current pinned-connection count, for least-loaded placement.
    pub(crate) fn load(&self) -> usize {
        self.load.load(Ordering::SeqCst)
    }

    /// Ask the shard to drain its sessions and exit.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// One pinned connection: socket, parser buffer, reply outbox, and the
/// protocol state machine.
struct Slot {
    stream: TcpStream,
    fd: poll::RawFd,
    session: Session,
    inbuf: Vec<u8>,
    consumed: usize,
    outbox: Vec<u8>,
    sent: usize,
    last_activity: Instant,
    accepted_at: Instant,
    dead: bool,
    /// The transport died but the session is resumable: park it in the
    /// orphan pool at reap instead of dropping it.
    orphan: bool,
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> poll::RawFd {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> poll::RawFd {
    -1
}

/// Run one shard to completion; returns its lifetime metrics and the
/// session-latency histogram for the server-wide p99.
pub(crate) fn run_shard(
    index: usize,
    inbox: Arc<Inbox>,
    scfg: Arc<ServerConfig>,
    counters: Arc<ServerCounters>,
    active: Arc<AtomicUsize>,
    pool: Arc<OrphanPool>,
) -> (ShardMetrics, LatencyHist) {
    let mut metrics = ShardMetrics {
        shard: index,
        ..ShardMetrics::default()
    };
    let mut hist = LatencyHist::default();
    let mut slots: Vec<Slot> = Vec::new();
    let mut poller = Poller::new(scfg.fallback_poller);
    let mut readbuf = vec![0u8; READ_CHUNK];
    let mut arena: Vec<Addr> = Vec::new();

    loop {
        if inbox.stop.load(Ordering::SeqCst)
            && slots.is_empty()
            && inbox.queue.lock().unwrap().is_empty()
        {
            break;
        }

        // Register interests for the sockets we currently hold. A session
        // with a pending reply is write-only until the outbox drains —
        // that is the backpressure edge.
        poller.clear();
        poller.register(inbox.waker.fd(), true, false);
        for slot in &slots {
            let pending = slot.sent < slot.outbox.len();
            let read = slot.session.wants_read() && !pending;
            poller.register(slot.fd, read, pending);
        }
        let polled = slots.len();
        let _ = poller.wait(poll_timeout(&slots, scfg.idle_timeout));
        inbox.waker.drain();
        let now = Instant::now();

        // Admit newly pinned connections (they join the poll set next
        // turn, which is immediate when they already have bytes waiting).
        {
            let mut queue = inbox.queue.lock().unwrap();
            metrics.queue_depth_hwm = metrics.queue_depth_hwm.max(queue.len() as u64);
            while let Some((stream, id, accepted_at)) = queue.pop_front() {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                let fd = raw_fd(&stream);
                slots.push(Slot {
                    stream,
                    fd,
                    session: Session::new(id),
                    inbuf: Vec::new(),
                    consumed: 0,
                    outbox: Vec::new(),
                    sent: 0,
                    last_activity: now,
                    accepted_at,
                    dead: false,
                    orphan: false,
                });
                metrics.sessions += 1;
                metrics.sessions_peak = metrics.sessions_peak.max(slots.len() as u64);
            }
        }

        // Serve readiness for the slots that were in this turn's poll set.
        for (i, slot) in slots.iter_mut().enumerate().take(polled) {
            let ev = poller.events(i + 1);
            if ev.writable {
                flush_slot(slot, &pool, &scfg, &counters, &active, &mut arena);
            }
            if ev.readable && !slot.dead {
                pump_slot(
                    slot,
                    &mut readbuf,
                    &pool,
                    &scfg,
                    &counters,
                    &active,
                    &mut arena,
                    now,
                );
                // Replies are usually small; try to hand them to the
                // kernel right away instead of waiting one poll turn.
                flush_slot(slot, &pool, &scfg, &counters, &active, &mut arena);
            }
        }

        // Stall sweep: a session whose idle deadline passed *and* whose
        // socket holds no unread bytes gets the watchdog error. The
        // readability probe keeps a session that merely waited out a busy
        // shard from being misclassified as idle.
        if let Some(idle) = scfg.idle_timeout {
            for slot in slots.iter_mut() {
                if slot.dead || !slot.session.wants_read() {
                    continue;
                }
                if now.duration_since(slot.last_activity) >= idle
                    && !poll::readable_now(slot.fd, scfg.fallback_poller)
                    && slot.consumed == slot.inbuf.len()
                {
                    let mut host = SessionHost {
                        scfg: &scfg,
                        counters: &counters,
                        active: &active,
                        outbox: &mut slot.outbox,
                        arena: &mut arena,
                    };
                    slot.session.on_stall(&mut host);
                    flush_slot(slot, &pool, &scfg, &counters, &active, &mut arena);
                }
            }
        }

        // Expire orphans past their retention deadline. Runs on every
        // shard at poll cadence; a no-op when the pool is empty.
        pool.sweep(&counters);

        // Reap finished slots: dead transports, and closing sessions whose
        // outbox reached the kernel. A dead slot flagged `orphan` parks
        // its session in the pool for a reconnecting client instead of
        // dropping it.
        let mut i = 0;
        while i < slots.len() {
            let done = slots[i].dead
                || (slots[i].session.is_closing() && slots[i].sent == slots[i].outbox.len());
            if !done {
                i += 1;
                continue;
            }
            let slot = slots.swap_remove(i);
            metrics.state_bytes_hwm = metrics.state_bytes_hwm.max(slot.session.state_bytes_hwm());
            metrics.sketch_bytes_hwm = metrics
                .sketch_bytes_hwm
                .max(slot.session.sketch_bytes_hwm());
            if slot.orphan {
                let mut session = slot.session;
                session.detach();
                counters.sessions_orphaned.incr();
                pool.park(session, &counters);
            } else if slot.session.completed() {
                let ns = u64::try_from(slot.accepted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                hist.record(ns);
            }
            inbox.load.fetch_sub(1, Ordering::SeqCst);
        }
    }

    metrics.p99_session_ns = if hist.count() > 0 {
        hist.quantile(0.99)
    } else {
        0
    };
    (metrics, hist)
}

/// The next poll wait: the nearest idle deadline among live sessions,
/// capped at [`MAX_POLL_WAIT`].
fn poll_timeout(slots: &[Slot], idle: Option<Duration>) -> Duration {
    let mut wait = MAX_POLL_WAIT;
    if let Some(idle) = idle {
        let now = Instant::now();
        for slot in slots {
            if slot.dead || !slot.session.wants_read() {
                continue;
            }
            let deadline = slot.last_activity + idle;
            let remaining = deadline.saturating_duration_since(now);
            wait = wait.min(remaining.max(Duration::from_millis(1)));
        }
    }
    wait
}

/// How a transport was lost, for the orphan-or-fail funnel.
enum Loss {
    /// Peer closed its write side (legacy path: protocol error, but the
    /// reply flush is still attempted on the intact write side).
    Eof,
    /// Hard socket read error.
    Read(std::io::Error),
    /// Write failure or injected reset: the fd is unusable both ways.
    Gone,
}

/// The transport under a session died. If disconnect-resumption is on and
/// the session is worth keeping, flag the slot for orphaning at reap;
/// otherwise take the legacy path (typed error frame, failure counters).
fn transport_lost(
    slot: &mut Slot,
    loss: Loss,
    pool: &OrphanPool,
    scfg: &ServerConfig,
    counters: &ServerCounters,
    active: &Arc<AtomicUsize>,
    arena: &mut Vec<Addr>,
) {
    // EOF is special: after FIN it is a routine half-close with the write
    // side intact (the reply still flushes), so only a *mid-stream* EOF
    // counts as a disconnect. Read/write errors kill the fd both ways.
    let resumable = pool.enabled()
        && slot.session.is_orphanable()
        && (!matches!(loss, Loss::Eof) || slot.session.is_streaming());
    if resumable {
        // Half-parsed input and unflushed replies die with the fd: the
        // session's frame watermark only counts fully-ingested frames,
        // and the resume path requeues the reply from `final_reply`.
        slot.dead = true;
        slot.orphan = true;
        return;
    }
    let mut host = SessionHost {
        scfg,
        counters,
        active,
        outbox: &mut slot.outbox,
        arena,
    };
    match loss {
        Loss::Eof => slot.session.on_eof(&mut host),
        Loss::Read(e) => slot.session.on_read_error(e, &mut host),
        Loss::Gone => {
            slot.session.on_transport_error(&mut host);
            slot.dead = true;
        }
    }
}

/// Chaos site: sever a connection just before a DATA frame is dispatched.
/// The frame is *not* ingested, so a resuming client must retransmit it —
/// the e2e chaos suite leans on this to prove the watermark protocol.
fn conn_reset_failpoint() -> bool {
    parda_failpoint::failpoint!("server::conn_reset", return true);
    false
}

/// Chaos site: tear a reply mid-message (a few bytes reach the kernel,
/// then the transport dies), leaving the client a truncated header.
fn partial_write_failpoint() -> bool {
    parda_failpoint::failpoint!("server::partial_write", return true);
    false
}

/// Chaos site: panic out of message dispatch, proving the shard's
/// `catch_unwind` containment holds on the resumption paths too.
fn dispatch_failpoint() {
    parda_failpoint::failpoint!("server::dispatch");
}

/// Read a burst off one socket and run the protocol over whatever complete
/// messages arrived. Panics unwinding out of session code are converted to
/// a failure outcome on the session, never surfaced to the shard loop.
#[allow(clippy::too_many_arguments)]
fn pump_slot(
    slot: &mut Slot,
    readbuf: &mut [u8],
    pool: &OrphanPool,
    scfg: &ServerConfig,
    counters: &ServerCounters,
    active: &Arc<AtomicUsize>,
    arena: &mut Vec<Addr>,
    now: Instant,
) {
    let mut eof = false;
    let mut read_err: Option<std::io::Error> = None;
    let mut total = 0usize;
    while total < READ_BURST {
        match slot.stream.read(readbuf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                slot.inbuf.extend_from_slice(&readbuf[..n]);
                total += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                read_err = Some(e);
                break;
            }
        }
    }
    if total > 0 {
        slot.last_activity = now;
    }

    let stepped = catch_unwind(AssertUnwindSafe(|| {
        parse_messages(slot, pool, scfg, counters, active, arena);
        if slot.dead {
            return;
        }
        if let Some(e) = read_err.take() {
            transport_lost(slot, Loss::Read(e), pool, scfg, counters, active, arena);
        } else if eof {
            transport_lost(slot, Loss::Eof, pool, scfg, counters, active, arena);
        }
    }));
    if stepped.is_err() {
        let mut host = SessionHost {
            scfg,
            counters,
            active,
            outbox: &mut slot.outbox,
            arena,
        };
        slot.session.on_panic(&mut host);
    }
}

/// Split the slot's buffered bytes into wire messages and feed them to the
/// session state machine. Framing violations (unknown kind, lying length)
/// are unrecoverable desyncs.
fn parse_messages(
    slot: &mut Slot,
    pool: &OrphanPool,
    scfg: &ServerConfig,
    counters: &ServerCounters,
    active: &Arc<AtomicUsize>,
    arena: &mut Vec<Addr>,
) {
    use crate::proto::{MsgKind, MAX_PAYLOAD};
    loop {
        if slot.dead || !slot.session.wants_read() {
            break;
        }
        let avail = slot.inbuf.len() - slot.consumed;
        if avail < 5 {
            break;
        }
        let head = &slot.inbuf[slot.consumed..slot.consumed + 5];
        let len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
        let kind = match MsgKind::from_u8(head[0]) {
            Ok(kind) => kind,
            Err(e) => {
                let mut host = SessionHost {
                    scfg,
                    counters,
                    active,
                    outbox: &mut slot.outbox,
                    arena,
                };
                slot.session.on_desync(e.to_string(), &mut host);
                break;
            }
        };
        if len > MAX_PAYLOAD {
            let mut host = SessionHost {
                scfg,
                counters,
                active,
                outbox: &mut slot.outbox,
                arena,
            };
            slot.session.on_desync(
                format!("message payload of {len} bytes exceeds cap"),
                &mut host,
            );
            break;
        }
        if avail < 5 + len {
            slot.inbuf.reserve(5 + len - avail);
            break;
        }
        if kind == MsgKind::Data && conn_reset_failpoint() {
            // Injected reset: the frame is dropped unconsumed and the
            // socket is torn down both ways, as a mid-datacenter network
            // failure would.
            let _ = slot.stream.shutdown(std::net::Shutdown::Both);
            transport_lost(slot, Loss::Gone, pool, scfg, counters, active, arena);
            break;
        }
        dispatch_failpoint();
        let start = slot.consumed + 5;
        slot.consumed += 5 + len;
        {
            let Slot {
                session,
                inbuf,
                outbox,
                ..
            } = slot;
            let mut host = SessionHost {
                scfg,
                counters,
                active,
                outbox,
                arena,
            };
            session.on_message(kind, &inbuf[start..start + len], &mut host);
        }
        // A RESUME handshake: swap the parked session into this slot.
        // The fresh shell recorded nothing (no admission, no counters),
        // so discarding it leaks nothing; the adopted session kept its
        // admission guard the whole time it was parked.
        if let Some(token) = slot.session.take_pending_resume() {
            match pool.take(&token) {
                Some(mut adopted) => {
                    counters.sessions_resumed.incr();
                    adopted.resume_onto(&mut slot.outbox);
                    slot.session = adopted;
                }
                None => {
                    let mut host = SessionHost {
                        scfg,
                        counters,
                        active,
                        outbox: &mut slot.outbox,
                        arena,
                    };
                    slot.session.on_resume_missing(&mut host);
                }
            }
        }
    }

    // Drop the consumed prefix once it is worth the memmove.
    if slot.consumed == slot.inbuf.len() {
        slot.inbuf.clear();
        slot.consumed = 0;
    } else if slot.consumed > COMPACT_THRESHOLD {
        slot.inbuf.drain(..slot.consumed);
        slot.consumed = 0;
    }
}

/// Push outbox bytes to the kernel until done or `WouldBlock`. A hard
/// write error marks the slot dead (the peer is gone) after either
/// parking the session for resumption or making sure it is accounted.
fn flush_slot(
    slot: &mut Slot,
    pool: &OrphanPool,
    scfg: &ServerConfig,
    counters: &ServerCounters,
    active: &Arc<AtomicUsize>,
    arena: &mut Vec<Addr>,
) {
    if slot.dead {
        return;
    }
    if slot.sent < slot.outbox.len() && partial_write_failpoint() {
        // Injected torn write: a few bytes of the pending reply reach the
        // wire, then the transport dies — the client is left holding a
        // truncated message header.
        let n = (slot.outbox.len() - slot.sent).min(3);
        let _ = slot.stream.write(&slot.outbox[slot.sent..slot.sent + n]);
        let _ = slot.stream.shutdown(std::net::Shutdown::Both);
        transport_lost(slot, Loss::Gone, pool, scfg, counters, active, arena);
        return;
    }
    while slot.sent < slot.outbox.len() {
        match slot.stream.write(&slot.outbox[slot.sent..]) {
            Ok(0) => {
                transport_lost(slot, Loss::Gone, pool, scfg, counters, active, arena);
                return;
            }
            Ok(n) => slot.sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                transport_lost(slot, Loss::Gone, pool, scfg, counters, active, arena);
                return;
            }
        }
    }
    if slot.sent > 0 && slot.sent == slot.outbox.len() {
        slot.outbox.clear();
        slot.sent = 0;
    }
}
