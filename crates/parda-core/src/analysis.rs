//! The unified analysis entry point: [`Analysis`].
//!
//! Every engine in this crate — sequential (Algorithm 1), naïve stack
//! (§III-A), parallel (Algorithm 3), windowed streaming (Algorithm 5),
//! and the approximate sketches (§VII) — is reachable through one builder,
//! with runtime tree selection and an optional observability [`Report`]:
//!
//! ```
//! use parda_core::{Analysis, Mode};
//! use parda_tree::TreeKind;
//!
//! let trace: Vec<u64> = (0..1000u64).map(|i| i % 50).collect();
//! let (hist, report) = Analysis::new()
//!     .tree(TreeKind::Splay)
//!     .ranks(4)
//!     .mode(Mode::Threads)
//!     .stats(true)
//!     .run(&trace);
//! assert_eq!(hist.total(), 1000);
//! let report = report.unwrap();
//! assert_eq!(report.total_rank_refs(), 1000);
//! assert_eq!(report.per_rank.len(), 4);
//! ```
//!
//! The legacy free functions ([`crate::seq::analyze_sequential`],
//! [`crate::parallel::parda_threads`], …) remain the low-level API; this
//! builder is a front door that picks the engine, threads the configuration
//! through, and aggregates the per-rank metrics into a [`Report`]. The
//! histograms are bit-identical to the direct calls (property-tested).

use crate::approx::{ApproxMode, ApproxSketch};
use crate::error::{FaultPolicy, PardaError};
use crate::parallel::PardaConfig;
use crate::phased::{Reduction, Streamer};
use parda_hist::ReuseHistogram;
use parda_obs::{EngineMetrics, PhasedMetrics, RankMetrics, RecoveryMetrics, Report, Stopwatch};
use parda_trace::stream::FramedStream;
use parda_trace::{Addr, AddressStream, Degradation};
use parda_tree::TreeKind;
use std::path::Path;

/// Which engine [`Analysis::run`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Algorithm 1: sequential tree-based analysis.
    Seq,
    /// §III-A: the O(N·M) naïve stack baseline (ignores tree/ranks/bound).
    Naive,
    /// Algorithm 3 ([`crate::parallel::parda_threads`]): the windowed
    /// streamer ([`crate::phased`]) over one window holding the whole
    /// trace.
    Threads,
    /// Algorithm 5: windowed streaming analysis over a persistent history
    /// ([`crate::phased`]), in windows of `ranks × chunk` references.
    Phased {
        /// References per rank per window (`C`).
        chunk: usize,
        /// Ignored: the windowed streamer has no Algorithm 6 state
        /// reduction to choose.
        reduction: Reduction,
    },
}

impl Mode {
    /// Stable label used in reports and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Seq => "seq",
            Mode::Naive => "naive",
            Mode::Threads => "parda-threads",
            Mode::Phased { .. } => "phased",
        }
    }

    /// Streaming chunk size with the [`Mode::Phased`] default for other
    /// modes.
    pub(crate) fn phase_chunk(&self) -> usize {
        match self {
            Mode::Phased { chunk, .. } => *chunk,
            _ => 65_536,
        }
    }
}

impl Default for Mode {
    /// The paper's headline configuration: parallel Parda over threads.
    fn default() -> Self {
        Mode::Threads
    }
}

/// Builder for a reuse-distance analysis run.
///
/// Construct with [`Analysis::new`], chain configuration, finish with
/// [`Analysis::run`] (an in-memory trace) or [`Analysis::run_stream`] (an
/// [`AddressStream`], driven by the streaming engine). Both return the
/// histogram plus `Some(Report)` when [`Analysis::stats`] was enabled.
#[derive(Clone, Debug)]
pub struct Analysis {
    pub(crate) tree: TreeKind,
    pub(crate) mode: Mode,
    pub(crate) approx: ApproxMode,
    pub(crate) ranks: Option<usize>,
    bound: Option<u64>,
    space_optimized: bool,
    subchunk_refs: Option<usize>,
    stats: bool,
    pub(crate) fault: FaultPolicy,
}

impl Default for Analysis {
    fn default() -> Self {
        Self::new()
    }
}

impl Analysis {
    /// A default analysis: splay tree, [`Mode::Threads`], hardware rank
    /// count, unbounded, space-optimized, no stats.
    pub fn new() -> Self {
        Self {
            tree: TreeKind::Splay,
            mode: Mode::default(),
            approx: ApproxMode::Exact,
            ranks: None,
            bound: None,
            space_optimized: true,
            subchunk_refs: None,
            stats: false,
            fault: FaultPolicy::default(),
        }
    }

    /// Select the balanced-tree implementation (Algorithm 2 substrate).
    pub fn tree(mut self, tree: TreeKind) -> Self {
        self.tree = tree;
        self
    }

    /// Select the engine.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Select an approximate (constant-space sketch) engine instead of the
    /// exact trees: SHARDS fixed-rate/fixed-size or AET (see
    /// [`crate::approx`]). [`ApproxMode::Exact`] (the default) routes to
    /// the engine chosen by [`Analysis::mode`]; any other value supersedes
    /// it, runs single-rank, and attaches
    /// [`ApproxMetrics`](parda_obs::ApproxMetrics) to the [`Report`].
    ///
    /// # Panics
    ///
    /// On a degenerate configuration (rate outside (0, 1], zero `s_max`).
    pub fn approx(mut self, approx: ApproxMode) -> Self {
        approx.validate();
        self.approx = approx;
        self
    }

    /// Number of ranks `np` for the parallel/streaming engines. Defaults to
    /// the hardware parallelism.
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.ranks = Some(ranks);
        self
    }

    /// Cache bound `B` (Algorithm 7). Accepts `u64` or `Option<u64>`.
    pub fn bound(mut self, bound: impl Into<Option<u64>>) -> Self {
        self.bound = bound.into();
        self
    }

    /// Toggle the Algorithm 4 space optimization (on by default; turning it
    /// off reproduces plain Algorithm 3 for the ablation).
    pub fn space_optimized(mut self, on: bool) -> Self {
        self.space_optimized = on;
        self
    }

    /// Override the [`Mode::Threads`] work-stealing sub-chunk grain
    /// ([`PardaConfig::subchunk_refs`]); `None` keeps the default.
    pub fn subchunk_refs(mut self, refs: impl Into<Option<usize>>) -> Self {
        self.subchunk_refs = refs.into();
        self
    }

    /// Collect an observability [`Report`] (per-rank timing breakdown,
    /// cascade/stream counters).
    pub fn stats(mut self, on: bool) -> Self {
        self.stats = on;
        self
    }

    /// How [`Analysis::run_file`] treats corrupt trace input (default
    /// [`Degradation::Strict`]): fail, repair, or salvage best-effort.
    pub fn degradation(mut self, policy: Degradation) -> Self {
        self.fault.degradation = policy;
        self
    }

    /// Full fault policy for [`Analysis::run_file`] /
    /// [`Analysis::run_faulted`]: degradation ladder plus worker-panic
    /// retry budget and watchdog deadline.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault = policy;
        self
    }

    /// The [`PardaConfig`] this builder resolves to.
    pub fn config(&self) -> PardaConfig {
        let mut config = PardaConfig::default();
        if let Some(ranks) = self.ranks {
            config.ranks = ranks;
        }
        config.bound = self.bound;
        config.space_optimized = self.space_optimized;
        config.subchunk_refs = self.subchunk_refs;
        config
    }

    /// Analyze an in-memory trace.
    ///
    /// # Panics
    ///
    /// With the [`PardaError`] message, where [`Analysis::run_faulted`]
    /// returns one.
    pub fn run(&self, trace: &[Addr]) -> (ReuseHistogram, Option<Report>) {
        self.run_faulted(trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Analyze an address stream with the windowed streaming engine (the
    /// only exact engine that does not need the whole trace in memory).
    ///
    /// [`Mode::Phased`] supplies the window chunk size; any other mode
    /// streams with the default `C = 65536`. Reported as `phased-stream`,
    /// with the items the scalar engine rescued in the report's
    /// `recovery`.
    ///
    /// # Panics
    ///
    /// With the [`PardaError`] message if an item fails past the builder's
    /// [`FaultPolicy`]; [`Analysis::run_file`] returns that error instead.
    pub fn run_stream<S>(&self, source: S) -> (ReuseHistogram, Option<Report>)
    where
        S: AddressStream + Send,
    {
        self.stream(source).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Analysis::run_stream`], returning the streamer's errors.
    fn stream<S: AddressStream>(
        &self,
        source: S,
    ) -> Result<(ReuseHistogram, Option<Report>), PardaError> {
        if !self.approx.is_exact() {
            return Ok(self.run_approx_stream(source));
        }
        let config = self.config();
        let sw = Stopwatch::start();
        let (hist, per_rank, phased, recovery) = dispatch_tree!(self.tree, T, {
            Streamer::<T>::phased(&config, &self.fault, self.mode.phase_chunk()).pull(source)
        })?;
        let refs = per_rank.iter().map(|r| r.refs).sum();
        Ok(self.finish(
            "phased-stream",
            hist,
            per_rank,
            Some(phased),
            Some(recovery),
            refs,
            sw.ns(),
        ))
    }

    /// Drain an address stream through the sketch in fixed-size gulps —
    /// the approximate engines never need the whole trace in memory.
    fn run_approx_stream<S: AddressStream>(
        &self,
        mut source: S,
    ) -> (ReuseHistogram, Option<Report>) {
        const GULP: usize = 65_536;
        let sw = Stopwatch::start();
        let mut sketch = ApproxSketch::new(self.approx);
        let mut buf = Vec::with_capacity(GULP);
        let mut refs = 0u64;
        loop {
            buf.clear();
            let n = source.fill(&mut buf, GULP);
            if n == 0 {
                break;
            }
            refs += n as u64;
            sketch.update(&buf);
        }
        self.finish_approx(&sketch, refs, sw.ns())
    }

    pub(crate) fn finish_approx(
        &self,
        sketch: &ApproxSketch,
        trace_refs: u64,
        total_ns: u64,
    ) -> (ReuseHistogram, Option<Report>) {
        let hist = sketch.finalize();
        let per_rank = vec![untimed_rank_metrics(trace_refs, &hist, total_ns)];
        let mode = self.approx.name();
        let (hist, mut report) =
            self.finish(mode, hist, per_rank, None, None, trace_refs, total_ns);
        if let Some(r) = report.as_mut() {
            r.approx = Some(sketch.metrics());
        }
        (hist, report)
    }

    /// Analyze an in-memory trace with fault isolation: the run of
    /// [`Analysis::run`], returning its errors.
    ///
    /// [`Mode::Threads`] and [`Mode::Phased`] run the windowed streamer
    /// ([`crate::phased`]) over the trace, one window for `Threads`:
    /// panicking workers are caught and their items rescued with the
    /// scalar reference engine under the builder's [`FaultPolicy`]
    /// (bit-identical histogram on success), exhausted retries return
    /// [`PardaError::WorkerPanic`], and a configured watchdog converts a
    /// stalled cascade wait into [`PardaError::Stall`]. The rescues are
    /// counted in the report's `recovery`. The sequential engines are
    /// single-threaded, so a panic there is a programming error that
    /// surfaces as one.
    pub fn run_faulted(
        &self,
        trace: &[Addr],
    ) -> Result<(ReuseHistogram, Option<Report>), PardaError> {
        if !self.approx.is_exact() {
            let sw = Stopwatch::start();
            let mut sketch = ApproxSketch::new(self.approx);
            sketch.update(trace);
            return Ok(self.finish_approx(&sketch, trace.len() as u64, sw.ns()));
        }
        dispatch_tree!(self.tree, T, { self.run_typed::<T>(trace) })
    }

    /// Analyze a trace file end to end under the builder's fault policy.
    ///
    /// This is the fault-tolerant front door: it decodes (or streams) the
    /// file honouring [`Analysis::degradation`], runs the selected engine
    /// with panic isolation, retries and the watchdog, and attaches the
    /// combined [`parda_obs::RecoveryMetrics`] — corrupt frames skipped,
    /// references dropped, CRC failures, rank rescues — to the [`Report`]
    /// when stats are enabled.
    ///
    /// * [`Mode::Phased`] and the approximate modes on a v2 file stream
    ///   frames through [`FramedStream`] with the degradation policy
    ///   applied per frame, and the report carries the decoder's counters
    ///   as `stream`; if the file's footer/index is too damaged to open
    ///   and the policy is [`Degradation::BestEffort`], it falls back to
    ///   an in-memory resync-scan salvage.
    /// * Every other mode (and every v1 file) decodes in memory via
    ///   [`parda_trace::decode_trace_recovering`] and runs as
    ///   [`Analysis::run_faulted`].
    ///
    /// Under [`Degradation::Strict`] any integrity violation aborts with
    /// [`PardaError::Corrupt`]; the lossy policies return the exact
    /// analysis of the surviving frames.
    pub fn run_file<P: AsRef<Path>>(
        &self,
        path: P,
    ) -> Result<(ReuseHistogram, Option<Report>), PardaError> {
        let path = path.as_ref();
        let degradation = self.fault.degradation;

        // Major format version 2 is the framed, seekable, streamable one.
        // Sketch modes always stream it: constant-space analysis should
        // not buffer the whole trace either.
        if (matches!(self.mode, Mode::Phased { .. }) || !self.approx.is_exact())
            && parda_trace::io::peek_version(path)? == 2
        {
            match FramedStream::open_with_policy(
                path,
                FramedStream::default_decoders(),
                degradation,
            ) {
                Ok(stream) => {
                    let errors = stream.error_handle();
                    let counters = stream.stats_handle();
                    let recovery = stream.recovery_handle();
                    let done = self.stream(stream);
                    // A strict-mode decode failure terminates the stream
                    // early; surface it instead of a silently short
                    // histogram.
                    if let Some(e) = errors.take() {
                        return Err(e.into());
                    }
                    let (hist, mut report) = done?;
                    if let Some(r) = report.as_mut() {
                        r.stream = Some(counters.snapshot());
                        r.merge_recovery(&recovery.lock().unwrap_or_else(|e| e.into_inner()));
                    }
                    return Ok((hist, report));
                }
                // Destroyed footer/index: only the bottom of the ladder
                // may salvage without it.
                Err(_) if degradation == Degradation::BestEffort => {}
                Err(e) => return Err(e.into()),
            }
        }

        let (trace, rec) = parda_trace::load_trace_recovering(path, degradation)?;
        let (hist, mut report) = self.run_faulted(trace.as_slice())?;
        if let Some(r) = report.as_mut() {
            r.merge_recovery(&rec);
        }
        Ok((hist, report))
    }

    /// [`Analysis::run_faulted`]'s exact engines with a concrete tree type.
    fn run_typed<T: parda_tree::ReuseTree + Default + Send>(
        &self,
        trace: &[Addr],
    ) -> Result<(ReuseHistogram, Option<Report>), PardaError> {
        let config = self.config();
        let sw = Stopwatch::start();
        let (hist, per_rank, phased, recovery) = match self.mode {
            Mode::Seq => {
                let (hist, rm) = crate::seq::analyze_sequential_with_stats::<T>(trace, self.bound);
                (hist, vec![rm], None, None)
            }
            Mode::Naive => {
                let hist = crate::seq::analyze_naive(trace);
                let rm = untimed_rank_metrics(trace.len() as u64, &hist, sw.ns());
                (hist, vec![rm], None, None)
            }
            Mode::Threads => {
                let streamer = Streamer::<T>::new(&config, &self.fault, usize::MAX);
                let (hist, ranks, _, recovery) = streamer.run_slice(trace)?;
                (hist, ranks, None, Some(recovery))
            }
            Mode::Phased { chunk, .. } => {
                let streamer = Streamer::<T>::phased(&config, &self.fault, chunk);
                let (hist, ranks, phased, recovery) = streamer.run_slice(trace)?;
                (hist, ranks, Some(phased), Some(recovery))
            }
        };
        Ok(self.finish(
            self.mode.name(),
            hist,
            per_rank,
            phased,
            recovery,
            trace.len() as u64,
            sw.ns(),
        ))
    }

    /// The exact report for a finished run, labelled `mode`, or `None`
    /// without stats.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        &self,
        mode: &str,
        hist: ReuseHistogram,
        per_rank: Vec<RankMetrics>,
        phased: Option<PhasedMetrics>,
        recovery: Option<RecoveryMetrics>,
        trace_refs: u64,
        total_ns: u64,
    ) -> (ReuseHistogram, Option<Report>) {
        if !self.stats {
            return (hist, None);
        }
        let report = Report {
            mode: mode.into(),
            tree: self.tree.name().into(),
            ranks: per_rank.len(),
            bound: self.bound,
            trace_refs,
            total_ns,
            per_rank,
            stream: None,
            phased,
            recovery,
            approx: None,
            shared: None,
        };
        (hist, Some(report))
    }
}

/// Rank metrics for the engines without internal instrumentation (naïve
/// stack, approximate sketches): the whole run is one rank-0 "chunk", and
/// the operation counts are reconstructed from the histogram.
fn untimed_rank_metrics(refs: u64, hist: &ReuseHistogram, ns: u64) -> RankMetrics {
    RankMetrics {
        rank: 0,
        refs,
        chunk_ns: ns,
        engine: EngineMetrics {
            refs,
            finite_hits: hist.finite_total(),
            cold_misses: hist.infinite(),
            ..Default::default()
        },
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{analyze_naive, analyze_sequential};
    use parda_trace::SliceStream;
    use parda_tree::SplayTree;
    use proptest::prelude::*;

    #[test]
    fn builder_defaults_run() {
        let trace: Vec<Addr> = (0..500).map(|i| (i * 7) % 61).collect();
        let (hist, report) = Analysis::new().run(&trace);
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
        assert!(report.is_none(), "stats are opt-in");
    }

    #[test]
    fn report_refs_partition_the_trace() {
        let trace: Vec<Addr> = (0..1000).map(|i| (i * 13) % 97).collect();
        let (hist, report) = Analysis::new()
            .ranks(8)
            .mode(Mode::Threads)
            .stats(true)
            .run(&trace);
        let report = report.unwrap();
        assert_eq!(report.per_rank.len(), 8);
        assert_eq!(report.total_rank_refs(), 1000);
        assert_eq!(report.mode, "parda-threads");
        // Rank 0 owns every global infinity: its cold misses are exactly
        // the histogram's ∞ count.
        assert_eq!(report.per_rank[0].engine.cold_misses, hist.infinite());
        for rm in &report.per_rank[1..] {
            assert_eq!(
                rm.engine.cold_misses, 0,
                "rank {} forwards, never records",
                rm.rank
            );
        }
    }

    #[test]
    fn phased_mode_reports_phase_metrics() {
        // 620 refs with np·C = 150: four full windows plus a ragged fifth,
        // each followed by one history append.
        let trace: Vec<Addr> = (0..620).map(|i| i % 40).collect();
        let (hist, report) = Analysis::new()
            .ranks(3)
            .mode(Mode::Phased {
                chunk: 50,
                reduction: Reduction::ShipToRankZero,
            })
            .stats(true)
            .run(&trace);
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
        let report = report.unwrap();
        assert_eq!(report.total_rank_refs(), 620);
        let phased = report.phased.expect("phased mode sets phase metrics");
        assert_eq!(phased.phases, 5, "ceil(620 / 150) = 5 windows");
        assert_eq!(phased.phase_reduction_ns.len(), 5);
        // Rank 0's own first touches all reach the history: its global
        // infinities are the histogram's.
        assert_eq!(phased.history.cold_misses, hist.infinite());
        assert_eq!(phased.history.live_hwm, 40);
    }

    #[test]
    fn run_stream_matches_run() {
        let trace: Vec<Addr> = (0..1500).map(|i| (i * 11) % 113).collect();
        let builder = Analysis::new().ranks(4).stats(true);
        let (h1, _) = builder.run(&trace);
        let (h2, report) = builder.run_stream(SliceStream::new(&trace));
        assert_eq!(h1, h2);
        let report = report.unwrap();
        assert_eq!(report.mode, "phased-stream");
        assert_eq!(report.trace_refs, 1500);
    }

    #[test]
    fn naive_reports_single_rank() {
        let trace: Vec<Addr> = (0..300).map(|i| i % 20).collect();
        let (hist, report) = Analysis::new().mode(Mode::Naive).stats(true).run(&trace);
        assert_eq!(hist, analyze_naive(&trace));
        let report = report.unwrap();
        assert_eq!(report.ranks, 1);
        assert_eq!(report.per_rank.len(), 1);
        assert_eq!(report.per_rank[0].engine.finite_hits, hist.finite_total());
    }

    #[test]
    fn approx_mode_supersedes_engine_choice() {
        let trace: Vec<Addr> = (0..5_000).map(|i| (i * 13) % 700).collect();
        let builder = Analysis::new()
            .ranks(4)
            .mode(Mode::Threads)
            .approx(ApproxMode::ShardsFixedRate { rate: 1.0 })
            .stats(true);
        let (hist, report) = builder.run(&trace);
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
        let report = report.unwrap();
        assert_eq!(report.mode, "shards");
        assert_eq!(report.ranks, 1);
        let approx = report.approx.expect("approx metrics attached");
        assert_eq!(approx.mode, "shards");
        assert_eq!(approx.sampled_refs, 5_000);

        // The streaming entry point drives the same sketch.
        let (streamed, report) = builder.run_stream(SliceStream::new(&trace));
        assert_eq!(streamed, hist);
        let report = report.unwrap();
        assert_eq!(report.mode, "shards");
        assert_eq!(report.trace_refs, 5_000);
        assert!(report.approx.is_some());

        // And matches the one-shot helper for every mode.
        for mode in [
            ApproxMode::ShardsFixedRate { rate: 0.25 },
            ApproxMode::ShardsFixedSize { s_max: 256 },
            ApproxMode::Aet { rate: 0.5 },
        ] {
            let (h1, _) = Analysis::new().approx(mode).run(&trace);
            let (h2, _) = crate::approx::analyze_approx(&trace, mode);
            assert_eq!(h1, h2, "{mode}");
            let (h3, _) = Analysis::new()
                .approx(mode)
                .run_stream(SliceStream::new(&trace));
            assert_eq!(h1, h3, "{mode} streamed");
        }
    }

    #[test]
    fn approx_run_file_streams_v2() {
        use parda_trace::io::{write_trace_v2_framed, Encoding};
        let trace: Vec<Addr> = (0..4_096).map(|i| (i * 7) % 311).collect();
        let path = tmp("approx-v21.bin");
        let f = std::fs::File::create(&path).unwrap();
        write_trace_v2_framed(
            f,
            &parda_trace::Trace::from_vec(trace.clone()),
            Encoding::Raw,
            64,
        )
        .unwrap();
        let mode = ApproxMode::ShardsFixedRate { rate: 0.5 };
        let (expect, _) = Analysis::new().approx(mode).run(&trace);
        let (hist, report) = Analysis::new()
            .approx(mode)
            .stats(true)
            .run_file(&path)
            .unwrap();
        assert_eq!(hist, expect, "streamed file analysis matches in-memory");
        assert!(report.unwrap().approx.is_some());
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("parda-core-analysis-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// v2.1 Raw layout: 24-byte header, then per frame a 12-byte inline
    /// header followed by `refs × 8` payload bytes.
    fn raw_v21_payload_offset(frame: usize, frame_refs: usize) -> usize {
        24 + frame * (12 + frame_refs * 8) + 12
    }

    #[test]
    fn run_faulted_matches_run_for_threads() {
        let trace: Vec<Addr> = (0..1_200).map(|i| (i * 17) % 101).collect();
        let builder = Analysis::new().ranks(4).stats(true);
        let (h1, _) = builder.run(&trace);
        let (h2, report) = builder.run_faulted(&trace).unwrap();
        assert_eq!(h1, h2);
        let recovery = report
            .unwrap()
            .recovery
            .expect("faulted run attaches recovery");
        assert_eq!(recovery.rank_retries, 0);
        assert!(recovery.is_clean());
    }

    #[test]
    fn run_file_strict_matches_in_memory_run() {
        use parda_trace::io::{write_trace_v2_framed, Encoding};
        let trace: Vec<Addr> = (0..640).map(|i| (i * 7) % 73).collect();
        let path = tmp("clean-v21.bin");
        let f = std::fs::File::create(&path).unwrap();
        write_trace_v2_framed(
            f,
            &parda_trace::Trace::from_vec(trace.clone()),
            Encoding::Raw,
            64,
        )
        .unwrap();

        let (expect, _) = Analysis::new().ranks(3).run(&trace);
        let (hist, _) = Analysis::new().ranks(3).run_file(&path).unwrap();
        assert_eq!(hist, expect);

        // The streaming (phased) path reads the same bytes the same way.
        let phased = Analysis::new().ranks(3).mode(Mode::Phased {
            chunk: 50,
            reduction: Reduction::ShipToRankZero,
        });
        let (hist, _) = phased.run_file(&path).unwrap();
        assert_eq!(hist, expect);
    }

    #[test]
    fn run_file_degradation_ladder_on_a_corrupt_frame() {
        use parda_trace::io::{write_trace_v2_framed, Encoding};
        let trace: Vec<Addr> = (0..640).map(|i| (i * 11) % 97).collect();
        let path = tmp("corrupt-v21.bin");
        let f = std::fs::File::create(&path).unwrap();
        write_trace_v2_framed(
            f,
            &parda_trace::Trace::from_vec(trace.clone()),
            Encoding::Raw,
            64,
        )
        .unwrap();
        // Flip one payload byte in frame 3: its CRC no longer matches.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[raw_v21_payload_offset(3, 64) + 5] ^= 0xA5;
        std::fs::write(&path, &bytes).unwrap();

        // Strict: structured corruption error.
        let err = Analysis::new().ranks(3).run_file(&path).unwrap_err();
        assert_eq!(err.class(), "corrupt", "got {err}");

        // Lossy: exactly the analysis of the surviving frames.
        let survivors: Vec<Addr> = trace[..192].iter().chain(&trace[256..]).copied().collect();
        let (expect, _) = Analysis::new().ranks(3).run(&survivors);
        for policy in [Degradation::Repair, Degradation::BestEffort] {
            let (hist, report) = Analysis::new()
                .ranks(3)
                .degradation(policy)
                .stats(true)
                .run_file(&path)
                .unwrap();
            assert_eq!(hist, expect, "{policy:?}");
            let recovery = report.unwrap().recovery.expect("recovery attached");
            assert_eq!(recovery.frames_skipped, 1);
            assert_eq!(recovery.refs_dropped, 64);
            assert_eq!(recovery.crc_failures, 1);
            assert_eq!(recovery.skipped_frames, vec![3]);
        }

        // The streaming path applies the same ladder.
        let phased = Analysis::new()
            .ranks(3)
            .mode(Mode::Phased {
                chunk: 50,
                reduction: Reduction::ShipToRankZero,
            })
            .stats(true);
        let err = phased.run_file(&path).unwrap_err();
        assert_eq!(
            err.class(),
            "corrupt",
            "strict stream surfaces the CRC failure"
        );
        let (hist, report) = phased
            .clone()
            .degradation(Degradation::BestEffort)
            .run_file(&path)
            .unwrap();
        assert_eq!(hist, expect);
        let recovery = report.unwrap().recovery.expect("recovery attached");
        assert_eq!(recovery.frames_skipped, 1);
        assert_eq!(recovery.refs_dropped, 64);
    }

    #[test]
    fn run_file_missing_file_is_an_io_error() {
        let err = Analysis::new()
            .run_file(tmp("definitely-not-here.bin"))
            .unwrap_err();
        assert_eq!(err.class(), "io");
    }

    proptest! {
        /// The builder is bit-identical to the legacy entry points for
        /// every mode, trace, tree, rank count, and bound.
        #[test]
        fn builder_matches_legacy_entry_points(
            trace in proptest::collection::vec(0u64..48, 0..300),
            np in 1usize..6,
            bound_raw in 0u64..32,
            chunk in 1usize..40,
        ) {
            // 0 means unbounded (the shim proptest has no option strategy).
            let bound = (bound_raw >= 4).then_some(bound_raw);
            let config = PardaConfig { bound, ..PardaConfig::with_ranks(np) };
            let base = Analysis::new().ranks(np).bound(bound);

            prop_assert_eq!(
                base.clone().mode(Mode::Seq).run(&trace).0,
                analyze_sequential::<SplayTree>(&trace, bound)
            );
            prop_assert_eq!(
                base.clone().mode(Mode::Threads).run(&trace).0,
                crate::parallel::parda_threads::<SplayTree>(&trace, &config)
            );
            let reduction = Reduction::ShipToRankZero;
            prop_assert_eq!(
                base.clone().mode(Mode::Phased { chunk, reduction }).run(&trace).0,
                crate::phased::parda_phased::<SplayTree, _>(
                    SliceStream::new(&trace), chunk, &config,
                )
            );
            prop_assert_eq!(
                base.mode(Mode::Naive).run(&trace).0,
                analyze_naive(&trace)
            );
        }
    }
}
