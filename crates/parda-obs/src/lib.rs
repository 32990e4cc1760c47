//! Observability layer for the PARDA engines (`parda-obs`).
//!
//! The paper's entire evaluation is a *timing breakdown*: per-rank chunk
//! analysis vs. infinity-cascade time (Fig. 4) and end-to-end scaling
//! (Tables II–IV). This crate supplies the always-compiled metrics substrate
//! the engines record into:
//!
//! * [`Stopwatch`] — a monotonic timer for driver-side phase timing; the
//!   hot path never reads the clock per reference, only per chunk/round;
//! * [`Counter`] — a relaxed atomic counter for cross-thread pipelines
//!   (the framed-decode pipeline in `parda-trace`);
//! * [`EngineMetrics`] — per-engine operation counts (tree ops, live-set
//!   high-water mark, cascade hit/forward counts), plain `u64` fields
//!   incremented by the owning thread;
//! * [`RankMetrics`] — one rank's view of a parallel run: chunk-analysis
//!   time, cascade time, per-round infinity-list lengths — the raw data
//!   behind the paper's Figure 4 breakdown;
//! * [`StreamCounters`]/[`StreamMetrics`] — decode-pipeline backpressure:
//!   frames decoded, decoder idle time, channel-full stalls;
//! * [`Report`] — the aggregate tree, serializable to JSON (`--stats=json`)
//!   or renderable as an aligned text table (`--stats`).
//!
//! Everything here is dependency-free on the hot path; serialization uses
//! the workspace `serde` value-tree.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic stopwatch. Started on creation, read with [`Stopwatch::ns`].
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds elapsed since start (saturating at `u64::MAX`).
    pub fn ns(&self) -> u64 {
        let n = self.0.elapsed().as_nanos();
        u64::try_from(n).unwrap_or(u64::MAX)
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// A relaxed atomic counter for metrics shared across threads.
///
/// Relaxed ordering is deliberate: metrics are monotone tallies read after
/// the pipeline has quiesced (post-join), so no inter-thread ordering is
/// required and the increment compiles to a plain atomic add.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the counter to `n` if `n` is larger (high-water-mark tracking).
    #[inline]
    pub fn record_max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }
}

/// Per-engine operation counts (one [`Engine`](../parda_core/engine) =
/// one rank, or the whole trace when sequential).
///
/// All fields are plain `u64`s incremented by the owning thread on branches
/// the engine already takes — no extra hashing, no clock reads.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct EngineMetrics {
    /// Chunk references processed (paper `N` share of this rank).
    pub refs: u64,
    /// Intra-chunk reuses resolved (finite distances from `process_chunk`).
    pub finite_hits: u64,
    /// Infinite distances recorded into the histogram (rank 0's global
    /// infinities, plus capacity misses in bounded mode).
    pub cold_misses: u64,
    /// Incoming cascade infinities examined (`process_infinities` stream).
    pub stream_refs: u64,
    /// Cascade infinities resolved at this rank (finite via Algorithm 4).
    pub stream_hits: u64,
    /// First touches forwarded leftward (pushes into a `MissSink::Forward`
    /// queue or a survivors list), cumulative across phases.
    pub forwarded: u64,
    /// Tree operations performed (inserts + distance queries + removals).
    pub tree_ops: u64,
    /// High-water mark of the live set `|H| = |T|`.
    pub live_hwm: u64,
    /// Prefetch-batched hot-path rounds executed by `process_chunk` (each
    /// covers up to the engine's batch width of references; 0 when the
    /// scalar path ran, i.e. bounded mode or tiny chunks).
    pub batches: u64,
    /// Tree compactions that moved keys, each a sweep of the last-access
    /// table. An engine that starts its chunk empty makes room for the
    /// whole chunk at once and never relabels; the windowed streamer's
    /// history does as its axis fills.
    pub relabels: u64,
}

impl EngineMetrics {
    /// Fold another engine's counters into this one (aggregation).
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.refs += other.refs;
        self.finite_hits += other.finite_hits;
        self.cold_misses += other.cold_misses;
        self.stream_refs += other.stream_refs;
        self.stream_hits += other.stream_hits;
        self.forwarded += other.forwarded;
        self.tree_ops += other.tree_ops;
        self.live_hwm = self.live_hwm.max(other.live_hwm);
        self.batches += other.batches;
        self.relabels += other.relabels;
    }
}

/// One absorb round's breakdown inside the batched cascade: how many
/// incoming infinities resolved at this rank, and where the round's time
/// went (the table probes and partition vs. the tree's resolution of the
/// hits). Returned by the engine so the driver can fold it into
/// [`RankMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CascadeRoundStats {
    /// Infinities resolved to finite distances this round (the batched
    /// path's hits, or scalar hits on the fallback path).
    pub resolved: u64,
    /// Wall time spent probing the table and partitioning the stream into
    /// hits and survivors before the tree resolves the hits.
    pub merge_ns: u64,
    /// Wall time the tree spent resolving the round's hits — in stream
    /// order on the vector, by a sorted sweep on a search tree — plus
    /// recording their distances; zero when the scalar path ran.
    pub batch_ns: u64,
}

/// One rank's timing/counter breakdown of a parallel run — the live
/// counterpart of the paper's Figure 4 bars.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RankMetrics {
    /// Rank id (`p` in the paper).
    pub rank: usize,
    /// References in this rank's chunk(s).
    pub refs: u64,
    /// Wall time spent analyzing own chunk(s) (`T_chunk`, Fig. 4 bottom).
    pub chunk_ns: u64,
    /// Wall time spent absorbing neighbours' infinity streams (`T_cascade`,
    /// Fig. 4 top).
    pub cascade_ns: u64,
    /// Pipeline bubble: wall time the cascade spent *waiting* for this
    /// rank's chunk analysis to finish before its fold could start. Zero
    /// when the pipelined schedule fully overlapped cascade with upstream
    /// chunk work (the Figure-4 serial tail eliminated).
    pub cascade_wait_ns: u64,
    /// Cascade rounds this rank participated in as a receiver.
    pub cascade_rounds: u64,
    /// Incoming infinity-list length per receive round, in order.
    pub round_infinity_lens: Vec<u64>,
    /// Infinities resolved per receive round (the batched path's hits;
    /// scalar hits on the fallback path). Same length and order as
    /// `round_infinity_lens`.
    pub round_batch_deletes: Vec<u64>,
    /// Wall time spent probing and partitioning incoming infinity slabs
    /// before the tree resolves their hits, summed over rounds (subset of
    /// `cascade_ns`).
    pub merge_ns: u64,
    /// Wall time the tree spent resolving the rounds' hits, summed over
    /// rounds (subset of `cascade_ns`).
    pub batch_ns: u64,
    /// Total infinities this rank sent leftward (local first touches plus
    /// unresolved survivors).
    pub infinities_forwarded: u64,
    /// Wall time spent in phase state reductions (streaming engine only).
    pub reduction_ns: u64,
    /// The rank's engine operation counters.
    pub engine: EngineMetrics,
}

impl RankMetrics {
    /// Fold one absorb round's stats into this rank's tallies. Callers push
    /// the round's incoming length themselves (they know it before the
    /// engine runs); this records the resolution count and timing split.
    pub fn record_round(&mut self, stats: &CascadeRoundStats) {
        self.round_batch_deletes.push(stats.resolved);
        self.merge_ns += stats.merge_ns;
        self.batch_ns += stats.batch_ns;
    }
}

/// Window-level aggregates of the windowed streaming (Algorithm 5) engine.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct PhasedMetrics {
    /// Number of windows analyzed.
    pub phases: u64,
    /// Per-window wall time of appending the items' live state to the
    /// persistent history.
    pub phase_reduction_ns: Vec<u64>,
    /// Time the streamer spent blocked handing windows to its history
    /// stage: large when the history, not the items, is the bottleneck.
    pub history_wait_ns: u64,
    /// The persistent history engine's counters: its stream absorbs, the
    /// global infinities it records, and its live-set high-water mark
    /// (at most the number of distinct addresses).
    pub history: EngineMetrics,
}

/// Snapshot of the framed-decode pipeline counters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StreamMetrics {
    /// Frames decoded by the pool.
    pub frames_decoded: u64,
    /// References decoded.
    pub refs_decoded: u64,
    /// Wall time spent inside frame decoding, summed over decoders.
    pub decode_ns: u64,
    /// Time decoders spent idle waiting for the reader to hand them work.
    pub decoder_idle_ns: u64,
    /// Sends of decoded frames that found the consumer channel full
    /// (analysis is the bottleneck — backpressure is working).
    pub backpressure_stalls: u64,
    /// Time decoders spent blocked in those full-channel sends.
    pub backpressure_ns: u64,
    /// Time the consumer spent blocked waiting for the next in-order frame
    /// (decode is the bottleneck).
    pub consumer_wait_ns: u64,
}

/// Shared atomic counters backing [`StreamMetrics`]; lives in an `Arc`
/// spanning the reader, the decoder pool, and the consumer.
#[derive(Debug, Default)]
pub struct StreamCounters {
    /// See [`StreamMetrics::frames_decoded`].
    pub frames_decoded: Counter,
    /// See [`StreamMetrics::refs_decoded`].
    pub refs_decoded: Counter,
    /// See [`StreamMetrics::decode_ns`].
    pub decode_ns: Counter,
    /// See [`StreamMetrics::decoder_idle_ns`].
    pub decoder_idle_ns: Counter,
    /// See [`StreamMetrics::backpressure_stalls`].
    pub backpressure_stalls: Counter,
    /// See [`StreamMetrics::backpressure_ns`].
    pub backpressure_ns: Counter,
    /// See [`StreamMetrics::consumer_wait_ns`].
    pub consumer_wait_ns: Counter,
}

impl StreamCounters {
    /// Read every counter into a serializable snapshot.
    pub fn snapshot(&self) -> StreamMetrics {
        StreamMetrics {
            frames_decoded: self.frames_decoded.get(),
            refs_decoded: self.refs_decoded.get(),
            decode_ns: self.decode_ns.get(),
            decoder_idle_ns: self.decoder_idle_ns.get(),
            backpressure_stalls: self.backpressure_stalls.get(),
            backpressure_ns: self.backpressure_ns.get(),
            consumer_wait_ns: self.consumer_wait_ns.get(),
        }
    }
}

/// Configuration and accuracy summary of one approximate (sketch-mode)
/// analysis run: which engine ran, at what sampling rate, and how much
/// state it kept. Attached to [`Report::approx`] and serialized by
/// `--stats=json` so callers can see the memory/error trade-off that was
/// actually realized.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ApproxMetrics {
    /// Engine label: `shards`, `shards-smax`, or `aet`.
    pub mode: String,
    /// Configured initial sampling rate `R` in (0, 1].
    pub rate: f64,
    /// Final effective sampling rate — equals `rate` for fixed-rate
    /// engines; lower when fixed-size eviction tightened the threshold.
    pub effective_rate: f64,
    /// Sketch cardinality cap for fixed-size SHARDS; `None` otherwise.
    pub s_max: Option<u64>,
    /// References that passed the spatial-hash filter.
    pub sampled_refs: u64,
    /// Distinct monitored addresses still tracked at the end of the run.
    pub sampled_addrs: u64,
    /// Entries evicted by the fixed-size threshold-lowering policy.
    pub evictions: u64,
    /// Approximate resident size of the sketch (table + tree + heap).
    pub sketch_bytes: u64,
    /// A-priori mean-absolute-error envelope for the miss-ratio curve,
    /// `~1/sqrt(sampled_addrs)` per the MRC survey; 0 when exact.
    pub expected_mae: f64,
}

/// Summary of one thread-aware shared-cache analysis: how the threads
/// shared the address space, under which interleave model the shared
/// stream was built, and the recommended static partition. Attached to
/// [`Report::shared`] and serialized by `--stats=json` for the `partition`
/// verb (offline and server).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SharedMetrics {
    /// Threads analyzed.
    pub threads: usize,
    /// References issued per thread, in sorted-TID order.
    pub per_thread_refs: Vec<u64>,
    /// Distinct addresses touched by two or more threads.
    pub shared_addrs: u64,
    /// Fraction of distinct addresses touched by more than one thread.
    pub sharing_ratio: f64,
    /// Interleave model label (`rr:1`, `prob:3,1@42`, or `as-recorded`).
    pub model: String,
    /// Shared-cache capacity partitioned (lines).
    pub capacity: u64,
    /// Partition granularity (lines).
    pub granularity: u64,
    /// Recommended allocation per thread, in sorted-TID order.
    pub allocation: Vec<u64>,
    /// Total predicted misses under the recommended partition.
    pub predicted_misses: u64,
}

/// Fixed-bucket (powers of two, nanoseconds) latency histogram: constant
/// space, mergeable across shards, good enough for a p99 readout without
/// keeping every sample. Bucket `i` covers `[2^i, 2^(i+1))` ns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; 64],
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self { buckets: [0; 64] }
    }
}

impl LatencyHist {
    /// Record one duration in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile sample
    /// (`q` in [0, 1]); 0 when empty. Accuracy is the 2× bucket width —
    /// plenty for an order-of-magnitude p99.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// Lifetime summary of one ingest/analysis shard of the daemon: how many
/// sessions were pinned to it, how concurrent it got, and the per-session
/// resource high-water marks. Serialized inside [`ServerMetrics`] so shard
/// balance is observable from the shutdown summary and the bench harness.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Connections pinned to this shard over its lifetime.
    pub sessions: u64,
    /// High-water mark of concurrently resident sessions.
    pub sessions_peak: u64,
    /// High-water mark of the shard's pending-connection inbox.
    pub queue_depth_hwm: u64,
    /// Largest sketch resident size observed on this shard (approx
    /// sessions only).
    pub sketch_bytes_hwm: u64,
    /// Largest per-session analysis-state estimate observed on this shard
    /// (any mode; see `SessionAnalysis::state_bytes`).
    pub state_bytes_hwm: u64,
    /// p99 session wall time (admission to reply), nanoseconds.
    pub p99_session_ns: u64,
}

impl ShardMetrics {
    /// Fold another shard summary into this one: lifetime tallies add,
    /// high-water marks take the max. Sum and max are both associative
    /// and commutative, so shard summaries can be combined in any order
    /// (the property the obs test suite pins down).
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.sessions += other.sessions;
        self.sessions_peak = self.sessions_peak.max(other.sessions_peak);
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.sketch_bytes_hwm = self.sketch_bytes_hwm.max(other.sketch_bytes_hwm);
        self.state_bytes_hwm = self.state_bytes_hwm.max(other.state_bytes_hwm);
        self.p99_session_ns = self.p99_session_ns.max(other.p99_session_ns);
    }
}

/// Snapshot of a `parda-server` daemon's lifetime counters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ServerMetrics {
    /// Sessions admitted (HELLO + CONFIG accepted under the session cap).
    pub sessions_opened: u64,
    /// Sessions refused by admission control (cap reached, bad handshake).
    pub sessions_rejected: u64,
    /// Admitted sessions that ended in an error or a panic.
    pub sessions_failed: u64,
    /// Admitted sessions that returned a STATS reply.
    pub sessions_completed: u64,
    /// DATA payload bytes received across all sessions.
    pub bytes_in: u64,
    /// Trace references decoded from DATA frames across all sessions.
    pub refs_in: u64,
    /// DATA frames received across all sessions.
    pub frames_in: u64,
    /// DATA frames quarantined by a lossy degradation policy.
    pub frames_quarantined: u64,
    /// Admitted sessions that ran in an approximate (sketch) mode.
    pub approx_sessions: u64,
    /// Largest sketch resident size observed across approx sessions.
    pub sketch_bytes_hwm: u64,
    /// p99 session wall time (admission to reply) across all shards,
    /// nanoseconds; 0 when no session completed.
    pub p99_session_ns: u64,
    /// Admitted sessions whose transport died mid-stream and that were
    /// parked in the orphan pool instead of being discarded.
    pub sessions_orphaned: u64,
    /// Orphaned sessions reattached by a RESUME on a new connection.
    pub sessions_resumed: u64,
    /// Orphaned sessions evicted by the retention deadline or the pool
    /// byte budget (or drained at shutdown) before any RESUME arrived.
    /// Invariant: `sessions_resumed + orphans_expired == sessions_orphaned`
    /// once the daemon has drained.
    pub orphans_expired: u64,
    /// ACK messages queued to clients across all sessions.
    pub acks_sent: u64,
    /// Per-shard breakdown; only shards that saw at least one session are
    /// listed, so an idle server snapshot stays `== Default::default()`.
    pub per_shard: Vec<ShardMetrics>,
}

impl ServerMetrics {
    /// Ingest rate over the given wall time, for the shutdown summary.
    pub fn refs_per_sec(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs > 0.0 {
            self.refs_in as f64 / elapsed_secs
        } else {
            0.0
        }
    }

    /// One-line summary printed by `parda serve` on shutdown.
    pub fn render_pretty(&self, elapsed_secs: f64) -> String {
        let mut line = format!(
            "server: sessions opened={} rejected={} failed={} completed={} \
             bytes_in={} refs_in={} frames_in={} quarantined={} \
             approx_sessions={} sketch_hwm={} refs/s={:.0}\n",
            self.sessions_opened,
            self.sessions_rejected,
            self.sessions_failed,
            self.sessions_completed,
            self.bytes_in,
            self.refs_in,
            self.frames_in,
            self.frames_quarantined,
            self.approx_sessions,
            self.sketch_bytes_hwm,
            self.refs_per_sec(elapsed_secs),
        );
        if self.p99_session_ns > 0 {
            line.push_str(&format!(
                "server: p99_session_ms={:.3}\n",
                self.p99_session_ns as f64 / 1e6
            ));
        }
        // Kept off the headline line (scripts grep its field sequence) and
        // omitted entirely for daemons that never orphaned a session.
        if self.sessions_orphaned > 0 {
            line.push_str(&format!(
                "server: resume orphaned={} resumed={} expired={} acks_sent={}\n",
                self.sessions_orphaned, self.sessions_resumed, self.orphans_expired, self.acks_sent,
            ));
        }
        for s in &self.per_shard {
            line.push_str(&format!(
                "shard {}: sessions={} peak={} queue_hwm={} sketch_hwm={} \
                 state_hwm={} p99_ms={:.3}\n",
                s.shard,
                s.sessions,
                s.sessions_peak,
                s.queue_depth_hwm,
                s.sketch_bytes_hwm,
                s.state_bytes_hwm,
                s.p99_session_ns as f64 / 1e6,
            ));
        }
        line
    }
}

/// Shared atomic counters backing [`ServerMetrics`]; lives in an `Arc`
/// spanning the accept loop and every session thread.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// See [`ServerMetrics::sessions_opened`].
    pub sessions_opened: Counter,
    /// See [`ServerMetrics::sessions_rejected`].
    pub sessions_rejected: Counter,
    /// See [`ServerMetrics::sessions_failed`].
    pub sessions_failed: Counter,
    /// See [`ServerMetrics::sessions_completed`].
    pub sessions_completed: Counter,
    /// See [`ServerMetrics::bytes_in`].
    pub bytes_in: Counter,
    /// See [`ServerMetrics::refs_in`].
    pub refs_in: Counter,
    /// See [`ServerMetrics::frames_in`].
    pub frames_in: Counter,
    /// See [`ServerMetrics::frames_quarantined`].
    pub frames_quarantined: Counter,
    /// See [`ServerMetrics::approx_sessions`].
    pub approx_sessions: Counter,
    /// See [`ServerMetrics::sketch_bytes_hwm`] (updated via
    /// [`Counter::record_max`]).
    pub sketch_bytes_hwm: Counter,
    /// See [`ServerMetrics::sessions_orphaned`].
    pub sessions_orphaned: Counter,
    /// See [`ServerMetrics::sessions_resumed`].
    pub sessions_resumed: Counter,
    /// See [`ServerMetrics::orphans_expired`].
    pub orphans_expired: Counter,
    /// See [`ServerMetrics::acks_sent`].
    pub acks_sent: Counter,
}

impl ServerCounters {
    /// Read every counter into a serializable snapshot.
    pub fn snapshot(&self) -> ServerMetrics {
        ServerMetrics {
            sessions_opened: self.sessions_opened.get(),
            sessions_rejected: self.sessions_rejected.get(),
            sessions_failed: self.sessions_failed.get(),
            sessions_completed: self.sessions_completed.get(),
            bytes_in: self.bytes_in.get(),
            refs_in: self.refs_in.get(),
            frames_in: self.frames_in.get(),
            frames_quarantined: self.frames_quarantined.get(),
            approx_sessions: self.approx_sessions.get(),
            sketch_bytes_hwm: self.sketch_bytes_hwm.get(),
            p99_session_ns: 0,
            sessions_orphaned: self.sessions_orphaned.get(),
            sessions_resumed: self.sessions_resumed.get(),
            orphans_expired: self.orphans_expired.get(),
            acks_sent: self.acks_sent.get(),
            per_shard: Vec::new(),
        }
    }
}

/// What one retrying `submit` went through to deliver its reply: how many
/// connections it burned, how many of those reattached an existing server
/// session, and the retransmission volume the disconnects cost. All-zero
/// `resumes`/`retransmitted_frames` with `attempts == 1` means the happy
/// path. Returned alongside the reply so callers (and the chaos harness)
/// can assert resilience happened rather than infer it.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ClientRetryMetrics {
    /// Connections attempted (1 = no retry was needed).
    pub attempts: u32,
    /// Successful RESUME handshakes (reconnects that reattached state).
    pub resumes: u32,
    /// DATA frames sent again because they were past the server's
    /// acknowledged watermark when the transport died.
    pub retransmitted_frames: u64,
    /// ACK messages observed while streaming.
    pub acks_seen: u64,
    /// Wall time from the first failed I/O operation to the first
    /// successful RESUME accept, nanoseconds; 0 when no resume happened.
    pub resume_latency_ns: u64,
}

/// Fault-recovery tally for one analysis run: what the degradation
/// machinery skipped, repaired, or retried on the way to a result.
///
/// Populated by the recovering decoders in `parda-trace` and the
/// panic-isolated cascade in `parda-core`; all-zero means the run was clean.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryMetrics {
    /// Frames the source claimed to contain (0 when unknown, e.g. after a
    /// destroyed footer forced a resync scan).
    pub frames_total: u64,
    /// Frames quarantined: CRC mismatch, undecodable payload, or truncation.
    pub frames_skipped: u64,
    /// References lost with those frames.
    pub refs_dropped: u64,
    /// Frames whose CRC32C did not match (subset of `frames_skipped` for
    /// checksummed files; zero for pre-checksum v2.0 files).
    pub crc_failures: u64,
    /// Byte-level resync scans performed after losing frame alignment
    /// (BestEffort only).
    pub resyncs: u64,
    /// Work-item analyses re-run after a worker panic. An item is a
    /// rank's chunk or a sub-chunk of one; the name predates sub-chunks.
    pub rank_retries: u64,
    /// Work items whose result came from a successful re-run on the scalar
    /// reference engine rather than the original worker.
    pub rank_rescues: u64,
    /// Indices of the first quarantined frames (capped — see
    /// [`RecoveryMetrics::SKIPPED_FRAMES_CAP`]).
    pub skipped_frames: Vec<u64>,
}

impl RecoveryMetrics {
    /// Cap on the `skipped_frames` detail list; the counters stay exact.
    pub const SKIPPED_FRAMES_CAP: usize = 64;

    /// Record frame `index` (carrying `refs` references) as quarantined.
    pub fn skip_frame(&mut self, index: u64, refs: u64) {
        self.frames_skipped += 1;
        self.refs_dropped += refs;
        if self.skipped_frames.len() < Self::SKIPPED_FRAMES_CAP {
            self.skipped_frames.push(index);
        }
    }

    /// `true` when nothing was skipped, retried, or rescued.
    pub fn is_clean(&self) -> bool {
        self.frames_skipped == 0
            && self.refs_dropped == 0
            && self.crc_failures == 0
            && self.resyncs == 0
            && self.rank_retries == 0
            && self.rank_rescues == 0
    }

    /// Fold another recovery tally into this one.
    pub fn merge(&mut self, other: &RecoveryMetrics) {
        self.frames_total += other.frames_total;
        self.frames_skipped += other.frames_skipped;
        self.refs_dropped += other.refs_dropped;
        self.crc_failures += other.crc_failures;
        self.resyncs += other.resyncs;
        self.rank_retries += other.rank_retries;
        self.rank_rescues += other.rank_rescues;
        for &f in &other.skipped_frames {
            if self.skipped_frames.len() >= Self::SKIPPED_FRAMES_CAP {
                break;
            }
            self.skipped_frames.push(f);
        }
    }
}

/// Aggregate observability report for one analysis run.
///
/// Produced by `parda_core::Analysis` when stats are requested; serialized
/// verbatim by `--stats=json` and rendered by [`Report::render_pretty`].
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Report {
    /// Engine mode label (`seq`, `parda-threads`, `phased`,
    /// `phased-stream`, `naive`, or an approximate sketch's name).
    pub mode: String,
    /// Tree structure used (`splay`, `avl`, `treap`, `vector`).
    pub tree: String,
    /// Configured rank count.
    pub ranks: usize,
    /// Cache bound `B`, when bounded (Algorithm 7).
    pub bound: Option<u64>,
    /// Total references analyzed.
    pub trace_refs: u64,
    /// End-to-end wall time of the run.
    pub total_ns: u64,
    /// Per-rank breakdown (one entry for sequential engines).
    pub per_rank: Vec<RankMetrics>,
    /// Streaming-decode pipeline counters, when the source was a framed
    /// trace stream.
    pub stream: Option<StreamMetrics>,
    /// Phase-level aggregates, for the streaming multi-phase engine.
    pub phased: Option<PhasedMetrics>,
    /// Fault-recovery events (frames skipped, rank retries), for the runs
    /// that decode with a degradation policy or rescue panicked work
    /// items. `None` for engines without either.
    pub recovery: Option<RecoveryMetrics>,
    /// Sampling configuration and realized accuracy/memory, when the run
    /// used an approximate (sketch) engine. `None` for exact runs.
    pub approx: Option<ApproxMetrics>,
    /// Thread-aware shared-cache summary and partition recommendation,
    /// when the run analyzed a thread-tagged trace. `None` otherwise.
    pub shared: Option<SharedMetrics>,
}

impl Report {
    /// Sum of per-rank chunk-analysis time.
    pub fn total_chunk_ns(&self) -> u64 {
        self.per_rank.iter().map(|r| r.chunk_ns).sum()
    }

    /// Sum of per-rank cascade time.
    pub fn total_cascade_ns(&self) -> u64 {
        self.per_rank.iter().map(|r| r.cascade_ns).sum()
    }

    /// Sum of per-rank chunk references (equals the trace length for the
    /// offline engines — asserted in tests).
    pub fn total_rank_refs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.refs).sum()
    }

    /// Sum of infinities forwarded across ranks (total cascade traffic).
    pub fn total_infinities_forwarded(&self) -> u64 {
        self.per_rank.iter().map(|r| r.infinities_forwarded).sum()
    }

    /// Fold `rec` into the report's recovery tally, attaching it when the
    /// report has none yet.
    pub fn merge_recovery(&mut self, rec: &RecoveryMetrics) {
        match self.recovery.as_mut() {
            Some(existing) => existing.merge(rec),
            None => self.recovery = Some(rec.clone()),
        }
    }

    /// Render an aligned per-rank table plus pipeline/phase summaries —
    /// the `--stats` (pretty) output.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "stats: mode={} tree={} ranks={} bound={} refs={} total={}\n",
            self.mode,
            self.tree,
            self.ranks,
            self.bound.map_or("none".into(), |b| b.to_string()),
            self.trace_refs,
            fmt_ns(self.total_ns),
        ));
        out.push_str(&format!(
            "{:>5} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            "rank",
            "refs",
            "chunk",
            "cascade",
            "wait",
            "merge",
            "batch",
            "rounds",
            "fwd",
            "hits",
            "stream_hit",
            "live_hwm"
        ));
        for r in &self.per_rank {
            out.push_str(&format!(
                "{:>5} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
                r.rank,
                r.refs,
                fmt_ns(r.chunk_ns),
                fmt_ns(r.cascade_ns),
                fmt_ns(r.cascade_wait_ns),
                fmt_ns(r.merge_ns),
                fmt_ns(r.batch_ns),
                r.cascade_rounds,
                r.infinities_forwarded,
                r.engine.finite_hits,
                r.engine.stream_hits,
                r.engine.live_hwm,
            ));
        }
        if let Some(p) = &self.phased {
            let reduction_total: u64 = p.phase_reduction_ns.iter().sum();
            out.push_str(&format!(
                "phases={} reduction_total={} (history appends) history_wait={} \
                 history_live_hwm={}\n",
                p.phases,
                fmt_ns(reduction_total),
                fmt_ns(p.history_wait_ns),
                p.history.live_hwm,
            ));
        }
        if let Some(a) = &self.approx {
            out.push_str(&format!(
                "approx: mode={} rate={} effective_rate={:.6} s_max={} \
                 sampled_refs={} sampled_addrs={} evictions={} \
                 sketch_bytes={} expected_mae={:.4}\n",
                a.mode,
                a.rate,
                a.effective_rate,
                a.s_max.map_or("none".into(), |s| s.to_string()),
                a.sampled_refs,
                a.sampled_addrs,
                a.evictions,
                a.sketch_bytes,
                a.expected_mae,
            ));
        }
        if let Some(s) = &self.shared {
            let alloc: Vec<String> = s.allocation.iter().map(|a| a.to_string()).collect();
            out.push_str(&format!(
                "shared: threads={} model={} shared_addrs={} sharing_ratio={:.4} \
                 capacity={} granularity={} alloc=[{}] predicted_misses={}\n",
                s.threads,
                s.model,
                s.shared_addrs,
                s.sharing_ratio,
                s.capacity,
                s.granularity,
                alloc.join(","),
                s.predicted_misses,
            ));
        }
        if let Some(r) = &self.recovery {
            out.push_str(&format!(
                "recovery: frames_skipped={}/{} refs_dropped={} crc_failures={} \
                 resyncs={} rank_retries={} rank_rescues={}\n",
                r.frames_skipped,
                r.frames_total,
                r.refs_dropped,
                r.crc_failures,
                r.resyncs,
                r.rank_retries,
                r.rank_rescues,
            ));
        }
        if let Some(s) = &self.stream {
            out.push_str(&format!(
                "stream: frames={} refs={} decode={} idle={} stalls={} \
                 backpressure={} consumer_wait={}\n",
                s.frames_decoded,
                s.refs_decoded,
                fmt_ns(s.decode_ns),
                fmt_ns(s.decoder_idle_ns),
                s.backpressure_stalls,
                fmt_ns(s.backpressure_ns),
                fmt_ns(s.consumer_wait_ns),
            ));
        }
        out
    }
}

/// Human-friendly duration: ns with unit scaling (`1.23ms`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.2}us", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.ns();
        let b = sw.ns();
        assert!(b >= a);
    }

    #[test]
    fn counter_adds_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn engine_metrics_merge_sums_and_maxes() {
        let mut a = EngineMetrics {
            refs: 10,
            live_hwm: 5,
            relabels: 1,
            ..Default::default()
        };
        let b = EngineMetrics {
            refs: 7,
            live_hwm: 9,
            finite_hits: 3,
            relabels: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.refs, 17);
        assert_eq!(a.live_hwm, 9);
        assert_eq!(a.finite_hits, 3);
        assert_eq!(a.relabels, 3);
    }

    #[test]
    fn report_totals_sum_per_rank() {
        let report = Report {
            per_rank: vec![
                RankMetrics {
                    rank: 0,
                    refs: 50,
                    chunk_ns: 100,
                    cascade_ns: 20,
                    ..Default::default()
                },
                RankMetrics {
                    rank: 1,
                    refs: 50,
                    chunk_ns: 200,
                    cascade_ns: 30,
                    infinities_forwarded: 7,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(report.total_rank_refs(), 100);
        assert_eq!(report.total_chunk_ns(), 300);
        assert_eq!(report.total_cascade_ns(), 50);
        assert_eq!(report.total_infinities_forwarded(), 7);
    }

    #[test]
    fn report_serializes_to_json_with_rank_array() {
        let report = Report {
            mode: "parda-threads".into(),
            tree: "splay".into(),
            ranks: 2,
            bound: None,
            trace_refs: 13,
            total_ns: 1,
            per_rank: vec![RankMetrics::default()],
            stream: None,
            phased: None,
            recovery: None,
            approx: None,
            shared: None,
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"mode\":\"parda-threads\""), "{json}");
        assert!(json.contains("\"per_rank\":[{"), "{json}");
        assert!(json.contains("\"chunk_ns\":0"), "{json}");
        // Round-trips through the JSON parser as a value tree.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.field("trace_refs").unwrap(), &serde_json::Value::U64(13));
    }

    #[test]
    fn stream_counters_snapshot() {
        let c = StreamCounters::default();
        c.frames_decoded.add(3);
        c.backpressure_stalls.incr();
        let snap = c.snapshot();
        assert_eq!(snap.frames_decoded, 3);
        assert_eq!(snap.backpressure_stalls, 1);
        assert_eq!(snap.decode_ns, 0);
    }

    #[test]
    fn render_pretty_lists_every_rank() {
        let report = Report {
            mode: "parda-msg".into(),
            tree: "avl".into(),
            ranks: 2,
            trace_refs: 100,
            per_rank: vec![
                RankMetrics {
                    rank: 0,
                    refs: 50,
                    ..Default::default()
                },
                RankMetrics {
                    rank: 1,
                    refs: 50,
                    ..Default::default()
                },
            ],
            stream: Some(StreamMetrics::default()),
            phased: Some(PhasedMetrics {
                phases: 2,
                phase_reduction_ns: vec![5, 10],
                history_wait_ns: 7,
                ..Default::default()
            }),
            ..Default::default()
        };
        let text = report.render_pretty();
        assert!(text.contains("mode=parda-msg"));
        assert!(text.contains("rank"));
        assert!(text.contains("phases=2"));
        assert!(text.contains("history_wait=7ns"), "{text}");
        assert!(text.contains("stream: frames=0"));
        assert_eq!(text.lines().count(), 6, "{text}");
    }

    #[test]
    fn record_round_accumulates_timing_and_deletes() {
        let mut rm = RankMetrics::default();
        rm.record_round(&CascadeRoundStats {
            resolved: 5,
            merge_ns: 10,
            batch_ns: 20,
        });
        rm.record_round(&CascadeRoundStats {
            resolved: 0,
            merge_ns: 3,
            batch_ns: 0,
        });
        assert_eq!(rm.round_batch_deletes, vec![5, 0]);
        assert_eq!(rm.merge_ns, 13);
        assert_eq!(rm.batch_ns, 20);
    }

    #[test]
    fn rank_metrics_serialize_cascade_fields() {
        let mut rm = RankMetrics {
            rank: 1,
            round_infinity_lens: vec![7],
            ..Default::default()
        };
        rm.record_round(&CascadeRoundStats {
            resolved: 4,
            merge_ns: 11,
            batch_ns: 22,
        });
        let json = serde_json::to_string(&rm).unwrap();
        assert!(json.contains("\"round_batch_deletes\":[4]"), "{json}");
        assert!(json.contains("\"merge_ns\":11"), "{json}");
        assert!(json.contains("\"batch_ns\":22"), "{json}");
    }

    #[test]
    fn render_pretty_has_merge_and_batch_columns() {
        let report = Report {
            per_rank: vec![RankMetrics {
                merge_ns: 1_000,
                batch_ns: 2_000,
                ..Default::default()
            }],
            ..Default::default()
        };
        let text = report.render_pretty();
        assert!(text.contains("merge"), "{text}");
        assert!(text.contains("batch"), "{text}");
    }

    #[test]
    fn server_counters_snapshot_and_rate() {
        let c = ServerCounters::default();
        c.sessions_opened.add(3);
        c.sessions_completed.add(2);
        c.sessions_failed.incr();
        c.refs_in.add(1_000_000);
        c.bytes_in.add(8_000_000);
        let snap = c.snapshot();
        assert_eq!(snap.sessions_opened, 3);
        assert_eq!(snap.sessions_completed, 2);
        assert_eq!(snap.sessions_failed, 1);
        assert_eq!(snap.sessions_rejected, 0);
        assert_eq!(snap.refs_per_sec(2.0) as u64, 500_000);
        assert_eq!(snap.refs_per_sec(0.0), 0.0);
        let line = snap.render_pretty(1.0);
        assert!(line.contains("opened=3"), "{line}");
        assert!(line.contains("refs/s=1000000"), "{line}");
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"refs_in\":1000000"), "{json}");
    }

    #[test]
    fn recovery_metrics_skip_and_merge() {
        let mut a = RecoveryMetrics {
            frames_total: 10,
            ..Default::default()
        };
        assert!(a.is_clean());
        a.skip_frame(3, 100);
        a.skip_frame(7, 50);
        assert!(!a.is_clean());
        assert_eq!(a.frames_skipped, 2);
        assert_eq!(a.refs_dropped, 150);
        assert_eq!(a.skipped_frames, vec![3, 7]);
        let b = RecoveryMetrics {
            rank_retries: 2,
            rank_rescues: 1,
            crc_failures: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rank_retries, 2);
        assert_eq!(a.crc_failures, 1);
    }

    #[test]
    fn recovery_skipped_frames_detail_is_capped() {
        let mut r = RecoveryMetrics::default();
        for i in 0..200 {
            r.skip_frame(i, 1);
        }
        assert_eq!(r.frames_skipped, 200);
        assert_eq!(r.refs_dropped, 200);
        assert_eq!(r.skipped_frames.len(), RecoveryMetrics::SKIPPED_FRAMES_CAP);
    }

    #[test]
    fn render_pretty_includes_recovery_line_when_present() {
        let mut rec = RecoveryMetrics {
            frames_total: 4,
            ..Default::default()
        };
        rec.skip_frame(1, 16);
        let report = Report {
            recovery: Some(rec),
            ..Default::default()
        };
        let text = report.render_pretty();
        assert!(text.contains("recovery: frames_skipped=1/4"), "{text}");
    }

    #[test]
    fn counter_record_max_keeps_high_water() {
        let c = Counter::new();
        c.record_max(5);
        c.record_max(3);
        assert_eq!(c.get(), 5);
        c.record_max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn approx_metrics_serialize_and_render() {
        let report = Report {
            mode: "shards".into(),
            approx: Some(ApproxMetrics {
                mode: "shards".into(),
                rate: 0.01,
                effective_rate: 0.01,
                s_max: None,
                sampled_refs: 1_000,
                sampled_addrs: 120,
                evictions: 0,
                sketch_bytes: 4_096,
                expected_mae: 0.09,
            }),
            ..Default::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"approx\":{"), "{json}");
        assert!(json.contains("\"sampled_addrs\":120"), "{json}");
        let text = report.render_pretty();
        assert!(text.contains("approx: mode=shards rate=0.01"), "{text}");
        assert!(text.contains("s_max=none"), "{text}");
    }

    #[test]
    fn server_counters_track_approx_sessions() {
        let c = ServerCounters::default();
        c.approx_sessions.incr();
        c.sketch_bytes_hwm.record_max(1_024);
        c.sketch_bytes_hwm.record_max(512);
        let snap = c.snapshot();
        assert_eq!(snap.approx_sessions, 1);
        assert_eq!(snap.sketch_bytes_hwm, 1_024);
        let line = snap.render_pretty(1.0);
        assert!(line.contains("approx_sessions=1"), "{line}");
        assert!(line.contains("sketch_hwm=1024"), "{line}");
    }

    #[test]
    fn shared_metrics_serialize_and_render() {
        let report = Report {
            mode: "concurrent".into(),
            shared: Some(SharedMetrics {
                threads: 2,
                per_thread_refs: vec![600, 400],
                shared_addrs: 64,
                sharing_ratio: 0.25,
                model: "rr:1".into(),
                capacity: 1024,
                granularity: 64,
                allocation: vec![256, 768],
                predicted_misses: 900,
            }),
            ..Default::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"shared\":{"), "{json}");
        assert!(json.contains("\"allocation\":[256,768]"), "{json}");
        assert!(json.contains("\"model\":\"rr:1\""), "{json}");
        let text = report.render_pretty();
        assert!(text.contains("shared: threads=2 model=rr:1"), "{text}");
        assert!(text.contains("alloc=[256,768]"), "{text}");
        assert!(text.contains("predicted_misses=900"), "{text}");
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500_000), "1500.00us");
        assert_eq!(fmt_ns(25_000_000), "25.00ms");
        assert_eq!(fmt_ns(12_000_000_000), "12.00s");
    }
}
