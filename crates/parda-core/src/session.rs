//! Resumable per-session analysis: [`SessionAnalysis`].
//!
//! Daemon-style hosts (the `parda-server` shards) push decoded frames into
//! a session as they arrive off the wire ([`SessionAnalysis::feed`]) and
//! collect the histogram and optional [`Report`] at FIN
//! ([`SessionAnalysis::finish`]) — no parked thread, no trace buffer.
//!
//! Approximate modes stream through the constant-space [`ApproxSketch`].
//! Every exact mode pushes its frames into one windowed streamer
//! ([`crate::phased`]) whose tree type the session erases; a full window
//! goes to the process-wide item pool at once, and the window before it
//! folds on the calling thread meanwhile. [`Mode::Threads`] is one window,
//! run at `finish` exactly as [`Analysis::run_faulted`] runs it;
//! [`SessionAnalysis::auto_ranks`] instead cuts windows of
//! `AUTO_RANK_MAX × AUTO_RANK_CHUNK` = 2,097,152 references, so a longer
//! session holds O(M + window), not its trace. Every other exact mode
//! streams as [`Analysis::run_stream`] does.
//!
//! The builder's [`crate::FaultPolicy`] governs item rescues and the
//! watchdog; an item that fails past it ends the stream, and `finish`
//! returns its error. Every path is bit-identical to the one-shot
//! [`Analysis::run`] however the trace is split into frames
//! (property-tested below).

use crate::analysis::{Analysis, Mode};
use crate::approx::ApproxSketch;
use crate::error::PardaError;
use crate::phased::{PushStream, Streamer};
use parda_hist::ReuseHistogram;
use parda_obs::{Report, Stopwatch};
use parda_trace::Addr;

/// References per rank when [`SessionAnalysis::auto_ranks`] ranks a window
/// by its length (measured sweet spot for the batched infinity-absorb
/// cascade: small, cache-resident per-rank trees).
const AUTO_RANK_CHUNK: usize = 32_768;

/// Rank-count ceiling for [`SessionAnalysis::auto_ranks`], and so the
/// window size in units of [`AUTO_RANK_CHUNK`].
const AUTO_RANK_MAX: usize = 64;

enum State {
    Sketch(Box<ApproxSketch>),
    Exact(Box<dyn PushStream>),
}

/// Resumable analysis session (see the module docs).
pub struct SessionAnalysis {
    builder: Analysis,
    state: State,
    refs: u64,
    sw: Stopwatch,
    /// Wall time spent detached from any transport (parked in a host's
    /// orphan pool between a disconnect and a resume); excluded from the
    /// report's `total_ns` so session timing reflects analysis, not the
    /// client's reconnect latency.
    detached_ns: u64,
    detached_at: Option<std::time::Instant>,
    resumes: u32,
}

impl Analysis {
    /// Begin a resumable session driven by this builder's configuration.
    pub fn session(&self) -> SessionAnalysis {
        let state = if self.approx.is_exact() {
            State::Exact(self.push_streamer(false))
        } else {
            State::Sketch(Box::new(ApproxSketch::new(self.approx)))
        };
        SessionAnalysis {
            builder: self.clone(),
            state,
            refs: 0,
            sw: Stopwatch::start(),
            detached_ns: 0,
            detached_at: None,
            resumes: 0,
        }
    }

    /// The exact session's streamer: the one place a session picks its
    /// tree.
    fn push_streamer(&self, auto_ranks: bool) -> Box<dyn PushStream> {
        let (config, policy) = (self.config(), &self.fault);
        dispatch_tree!(self.tree, T, {
            Box::new(match self.mode {
                Mode::Threads if auto_ranks && self.ranks.is_none() => {
                    let auto = config.ranks(AUTO_RANK_MAX);
                    Streamer::<T>::new(&auto, policy, AUTO_RANK_MAX * AUTO_RANK_CHUNK)
                        .ranked_by_length(AUTO_RANK_CHUNK)
                }
                Mode::Threads => Streamer::<T>::new(&config, policy, usize::MAX),
                mode => Streamer::<T>::phased(&config, policy, mode.phase_chunk()),
            })
        })
    }
}

impl SessionAnalysis {
    /// When the builder left ranks unset, cut a [`Mode::Threads`] session
    /// into windows of 2,097,152 references, each with one rank per 32,768
    /// of them (at least 1). Histograms are rank-count and window
    /// invariant (property-tested): this trades only speed and memory.
    pub fn auto_ranks(mut self, on: bool) -> Self {
        if let State::Exact(_) = self.state {
            self.state = State::Exact(self.builder.push_streamer(on));
        }
        self
    }

    /// Push one frame of decoded references. A window the frame completes
    /// goes to the item pool, and the window before it folds.
    pub fn feed(&mut self, addrs: &[Addr]) {
        self.refs += addrs.len() as u64;
        match &mut self.state {
            State::Sketch(sketch) => sketch.update(addrs),
            State::Exact(streamer) => streamer.feed(addrs),
        }
    }

    /// References fed so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Mark the session as detached from its transport: the clock on
    /// "time spent analyzing" pauses until [`Self::reattach`]. Idempotent
    /// — a second detach without a reattach keeps the earlier mark.
    pub fn detach(&mut self) {
        if self.detached_at.is_none() {
            self.detached_at = Some(std::time::Instant::now());
        }
    }

    /// Reattach a detached session to a new transport, folding the time
    /// spent parked into the excluded-detached tally. No-op if the
    /// session was never detached.
    pub fn reattach(&mut self) {
        if let Some(at) = self.detached_at.take() {
            self.detached_ns += at.elapsed().as_nanos() as u64;
            self.resumes += 1;
        }
    }

    /// Times this session was reattached after a disconnect.
    pub fn resumes(&self) -> u32 {
        self.resumes
    }

    /// Wall time the session's stopwatch owes to analysis, not to sitting
    /// detached waiting for a reconnect.
    fn attached_ns(&self) -> u64 {
        let mut detached = self.detached_ns;
        if let Some(at) = &self.detached_at {
            detached += at.elapsed().as_nanos() as u64;
        }
        self.sw.ns().saturating_sub(detached)
    }

    /// Whether the session streams through a constant-space sketch.
    pub fn is_sketch(&self) -> bool {
        matches!(self.state, State::Sketch(_))
    }

    /// Estimated bytes of per-session analysis state held right now:
    /// exact sketch accounting for approximate sessions; for exact ones
    /// the pending window's buffer plus a per-live-address estimate (hash
    /// entry + tree node) for the item engines and the history.
    pub fn state_bytes(&self) -> u64 {
        match &self.state {
            State::Sketch(sketch) => sketch.memory_bytes(),
            State::Exact(streamer) => streamer.state_bytes(),
        }
    }

    /// Run the last window and return the result. A [`Mode::Threads`]
    /// session reports as `parda-threads`, with window aggregates only past
    /// one window; other exact sessions as `phased-stream`. `total_ns` is
    /// the attached wall time.
    ///
    /// # Errors
    ///
    /// The stream's first [`PardaError::WorkerPanic`] or
    /// [`PardaError::Stall`] under the builder's [`crate::FaultPolicy`].
    pub fn finish(self) -> Result<(ReuseHistogram, Option<Report>), PardaError> {
        let attached_ns = self.attached_ns();
        let streamer = match self.state {
            State::Sketch(sketch) => {
                return Ok(self.builder.finish_approx(&sketch, self.refs, attached_ns))
            }
            State::Exact(streamer) => streamer,
        };
        let (hist, per_rank, phased, recovery) = streamer.finish()?;
        let (mode, phased) = match self.builder.mode {
            Mode::Threads => (Mode::Threads.name(), (phased.phases > 1).then_some(phased)),
            _ => ("phased-stream", Some(phased)),
        };
        Ok(self.builder.finish(
            mode,
            hist,
            per_rank,
            phased,
            Some(recovery),
            self.refs,
            attached_ns,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxMode;
    use crate::phased::Reduction;
    use parda_tree::TreeKind;
    use proptest::prelude::*;

    fn zipfish(n: usize) -> Vec<Addr> {
        (0..n as u64).map(|i| (i * 131) % 977).collect()
    }

    /// Feed a trace in ragged frames.
    fn feed_frames(session: &mut SessionAnalysis, trace: &[Addr]) {
        for chunk in trace.chunks(237) {
            session.feed(chunk);
        }
    }

    #[test]
    fn seq_sessions_stream_for_every_tree() {
        let trace = zipfish(5_000);
        for kind in TreeKind::ALL {
            let builder = Analysis::new().tree(kind).mode(Mode::Seq).stats(true);
            let (expect, _) = builder.run(&trace);
            let mut session = builder.session();
            feed_frames(&mut session, &trace);
            assert_eq!(session.refs(), 5_000);
            assert!(!session.is_sketch());
            let (hist, report) = session.finish().unwrap();
            assert_eq!(hist, expect, "{kind:?}");
            let report = report.unwrap();
            assert_eq!(report.mode, "phased-stream");
            assert_eq!(report.trace_refs, 5_000);
            assert_eq!(report.total_rank_refs(), 5_000);
        }
    }

    #[test]
    fn phased_sessions_run_windows_as_frames_arrive() {
        let trace = zipfish(3_000);
        let builder = Analysis::new().ranks(2).stats(true).mode(Mode::Phased {
            chunk: 64,
            reduction: Reduction::ShipToRankZero,
        });
        let (expect, _) = builder.run(&trace);
        let mut session = builder.session();
        feed_frames(&mut session, &trace);
        let (hist, report) = session.finish().unwrap();
        assert_eq!(hist, expect);
        let phased = report
            .unwrap()
            .phased
            .expect("phased sessions report windows");
        assert_eq!(phased.phases, 3_000u64.div_ceil(128));
        assert_eq!(phased.history.cold_misses, hist.infinite());
    }

    #[test]
    fn threads_session_runs_one_window_at_finish() {
        let trace = zipfish(4_000);
        let builder = Analysis::new().ranks(4).mode(Mode::Threads).stats(true);
        let (expect, _) = builder.run(&trace);
        let mut session = builder.session();
        feed_frames(&mut session, &trace);
        let (hist, report) = session.finish().unwrap();
        assert_eq!(hist, expect);
        let report = report.unwrap();
        assert_eq!(report.mode, "parda-threads");
        assert!(report.phased.is_none(), "one window, no window aggregates");
        assert_eq!(report.per_rank[0].engine.cold_misses, hist.infinite());
        assert!(report
            .recovery
            .expect("faulted run attaches recovery")
            .is_clean());
    }

    #[test]
    fn auto_ranks_is_bit_identical_and_bounded() {
        let trace = zipfish(100_000);
        let builder = Analysis::new().mode(Mode::Threads).stats(true);
        let (expect, _) = builder.run(&trace);
        let mut session = builder.session().auto_ranks(true);
        feed_frames(&mut session, &trace);
        let (hist, report) = session.finish().unwrap();
        assert_eq!(hist, expect, "rank count never changes the histogram");
        assert_eq!(report.unwrap().ranks, 100_000 / AUTO_RANK_CHUNK);

        // Tiny sessions collapse to a single rank.
        let mut small = builder.session().auto_ranks(true);
        small.feed(&trace[..100]);
        let (hist, report) = small.finish().unwrap();
        assert_eq!(hist, builder.run(&trace[..100]).0);
        assert_eq!(report.unwrap().ranks, 1);
    }

    #[test]
    fn sketch_sessions_are_constant_space() {
        let trace = zipfish(50_000);
        for mode in [
            ApproxMode::ShardsFixedRate { rate: 0.25 },
            ApproxMode::ShardsFixedSize { s_max: 512 },
            ApproxMode::Aet { rate: 0.5 },
        ] {
            let builder = Analysis::new().approx(mode).stats(true);
            let (expect, _) = builder.run(&trace);
            let mut session = builder.session();
            assert!(session.is_sketch());
            feed_frames(&mut session, &trace);
            let bytes = session.state_bytes();
            assert!(bytes > 0, "{mode}: sketch accounting is live");
            assert!(
                bytes < 4 << 20,
                "{mode}: sketch stays small ({bytes} bytes)"
            );
            let (hist, report) = session.finish().unwrap();
            assert_eq!(hist, expect, "{mode}: frame boundaries never matter");
            assert!(report.unwrap().approx.is_some());
        }
    }

    #[test]
    fn detached_time_is_excluded_from_the_report_clock() {
        let trace = zipfish(2_000);
        let builder = Analysis::new().mode(Mode::Seq).stats(true);
        let mut session = builder.session();
        session.feed(&trace[..1_000]);
        session.detach();
        std::thread::sleep(std::time::Duration::from_millis(50));
        session.reattach();
        assert_eq!(session.resumes(), 1);
        session.feed(&trace[1_000..]);
        let (hist, report) = session.finish().unwrap();
        assert_eq!(hist, builder.run(&trace).0, "detach never changes the math");
        let total_ns = report.unwrap().total_ns;
        assert!(
            total_ns < 40_000_000,
            "50ms parked must not count as analysis time (got {total_ns}ns)"
        );

        // detach is idempotent; reattach without detach is a no-op.
        let mut s = builder.session();
        s.reattach();
        assert_eq!(s.resumes(), 0);
        s.detach();
        s.detach();
        s.reattach();
        assert_eq!(s.resumes(), 1);
    }

    #[test]
    fn state_bytes_tracks_the_pending_window() {
        let trace = zipfish(10_000);
        let mut session = Analysis::new().mode(Mode::Threads).session();
        session.feed(&trace);
        assert!(session.state_bytes() >= (10_000 * std::mem::size_of::<Addr>()) as u64);
    }

    #[test]
    fn a_session_dropped_mid_stream_joins_its_history_stage() {
        // Several windows in: the history stage is running when the
        // session is dropped without a FIN, as an expired orphan is.
        let trace = zipfish(20_000);
        let builder = Analysis::new().ranks(2).mode(Mode::Phased {
            chunk: 500,
            reduction: Reduction::ShipToRankZero,
        });
        for _ in 0..8 {
            let mut session = builder.session();
            feed_frames(&mut session, &trace);
            assert!(session.state_bytes() > 0);
            drop(session);
        }
    }

    /// An `auto_ranks` session past one window holds the window, its items
    /// and the history, not the trace: fed over a fixed address set, its
    /// state stays flat as references grow.
    #[test]
    fn auto_ranks_state_is_flat_past_one_window() {
        let window = AUTO_RANK_MAX * AUTO_RANK_CHUNK;
        let frame: Vec<Addr> = (0..65_536u64).map(|i| (i * 7_919) % 50_000).collect();
        let builder = Analysis::new()
            .tree(TreeKind::Vector)
            .mode(Mode::Threads)
            .stats(true);
        let mut session = builder.session().auto_ranks(true);
        let mut samples = Vec::new();
        let mut refs = 0;
        // Sample just after windows 2, 3 and 4 run: a buffered trace
        // would have doubled its capacity in between.
        while refs <= 4 * window {
            session.feed(&frame);
            refs += frame.len();
            if refs > 2 * window && refs % window == frame.len() {
                samples.push(session.state_bytes());
            }
        }
        let (hist, report) = session.finish().unwrap();
        assert_eq!(hist.total(), refs as u64);
        assert_eq!(hist.infinite(), 50_000);
        assert_eq!(report.unwrap().phased.expect("five windows").phases, 5);
        assert_eq!(samples.len(), 3, "{samples:?}");
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        assert!(
            hi - lo < (window / 8) as u64,
            "state grew from {lo} to {hi} bytes over {window} refs"
        );
    }

    /// The Algorithm 7 contract against the unbounded ground truth: exact
    /// below `bound`, mass-conserving, miss-count-exact for every
    /// capacity up to it.
    fn assert_bounded_contract(hist: &ReuseHistogram, full: &ReuseHistogram, bound: u64) {
        assert_eq!(hist.total(), full.total());
        for d in 0..bound {
            assert_eq!(hist.count(d), full.count(d), "bucket {d}");
        }
        for cap in 1..=bound {
            assert_eq!(hist.miss_count(cap), full.miss_count(cap), "capacity {cap}");
        }
    }

    proptest! {
        /// Frame boundaries never change any engine's histogram. A trace
        /// pushed in 1–8 random cuts through small windows, so frames
        /// straddle window edges, equals sequential Olken for every tree,
        /// and a bounded windowed session honours the Algorithm 7
        /// contract.
        #[test]
        fn framing_invariance(
            trace in proptest::collection::vec(0u64..128, 0..600),
            cut in 1usize..600,
            cuts in proptest::collection::vec(0usize..600, 0..8),
            chunk in 1usize..40,
            np in 1usize..6,
            tree in 0usize..4,
            bound in 1u64..24,
        ) {
            for builder in [
                Analysis::new().mode(Mode::Seq),
                Analysis::new().ranks(3).mode(Mode::Threads),
                Analysis::new().approx(ApproxMode::ShardsFixedRate { rate: 0.5 }),
            ] {
                let (expect, _) = builder.run(&trace);
                let mut session = builder.session();
                let cut = cut.min(trace.len());
                session.feed(&trace[..cut]);
                session.feed(&trace[cut..]);
                let (hist, _) = session.finish().unwrap();
                prop_assert_eq!(hist, expect);
            }

            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(trace.len())).collect();
            cuts.push(trace.len());
            cuts.sort_unstable();
            let mode = Mode::Phased { chunk, reduction: Reduction::ShipToRankZero };
            let windowed = Analysis::new().tree(TreeKind::ALL[tree]).ranks(np).mode(mode);
            let push = |builder: Analysis| {
                let mut session = builder.session();
                let mut from = 0;
                for &to in &cuts {
                    session.feed(&trace[from..to]);
                    from = to;
                }
                session.finish().unwrap().0
            };
            let full = Analysis::new().mode(Mode::Seq).run(&trace).0;
            prop_assert_eq!(push(windowed.clone()), full.clone());
            assert_bounded_contract(&push(windowed.bound(bound)), &full, bound);
        }
    }
}
