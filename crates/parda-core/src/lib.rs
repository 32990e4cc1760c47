//! PARDA: fast parallel reuse distance analysis.
//!
//! This crate implements every algorithm of the paper:
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Algorithm 1 — tree-based sequential analysis (Olken) | [`seq::analyze_sequential`], [`Engine::process_chunk`] |
//! | Algorithm 2 — tree distance query | `parda_tree::ReuseTree::distance` |
//! | Algorithm 3 — the Parda parallel algorithm | [`parallel::parda_threads`]: the windowed streamer over one window holding the whole trace ([`parallel::parda_threads_faulted`] returns its errors) |
//! | Algorithm 4 — space-optimized infinity processing | [`Engine::process_infinities_in_place`] |
//! | Algorithm 5 — windowed streaming analysis (Algorithm 6's state merge replaced by a persistent history) | [`phased`]: the one exact parallel driver, fed a slice, an [`parda_trace::AddressStream`] ([`phased::parda_phased`]) or pushed frames ([`SessionAnalysis`]) |
//! | Algorithm 7 — bounded (cache-capped) analysis | `bound` option on every engine |
//! | §III-A — naïve stack algorithm | [`seq::analyze_naive`] |
//! | §IV-D rank-renaming enhancement | superseded: the [`phased`] history never moves |
//! | §VII object-level applications | [`object::analyze_by_region`] |
//! | §VII sampling combination | [`approx`] (SHARDS/AET sketches) |
//! | §I cache sharing & partitioning | [`shared::analyze_corun`], [`shared::optimal_partition`] |
//! | §I thread-aware shared-cache analysis | [`concurrent::analyze_concurrent`], [`concurrent::recommend_partition`] |
//! | §VII phase detection | [`window::detect_phases`] |
//!
//! # Quick start
//!
//! Every engine is reachable through the [`Analysis`] builder, which also
//! produces the per-rank observability [`Report`] on request:
//!
//! ```
//! use parda_core::{Analysis, Mode};
//! use parda_trace::gen::{ReuseProfile, StackDistGen};
//! use parda_trace::AddressStream;
//!
//! // A synthetic trace: 100k references over 5k addresses.
//! let trace = StackDistGen::new(100_000, 5_000, ReuseProfile::geometric(16.0), 7)
//!     .take_trace(100_000);
//!
//! let (hist, report) = Analysis::new()
//!     .ranks(4)
//!     .mode(Mode::Threads)
//!     .stats(true)
//!     .run(trace.as_slice());
//!
//! assert_eq!(hist.total(), 100_000);
//! assert_eq!(hist.infinite(), 5_000); // one cold miss per distinct address
//! // Predicted miss ratio of a 1k-line LRU cache:
//! let mr = hist.miss_ratio(1_000);
//! assert!(mr < 1.0);
//! // The report's per-rank chunk references partition the trace.
//! assert_eq!(report.unwrap().total_rank_refs(), 100_000);
//! ```

/// Monomorphize a block over the runtime-selected [`TreeKind`]: binds the
/// concrete tree type to `$T` inside `$body`.
macro_rules! dispatch_tree {
    ($kind:expr, $T:ident, $body:block) => {
        match $kind {
            parda_tree::TreeKind::Splay => {
                type $T = parda_tree::SplayTree;
                $body
            }
            parda_tree::TreeKind::Avl => {
                type $T = parda_tree::AvlTree;
                $body
            }
            parda_tree::TreeKind::Treap => {
                type $T = parda_tree::Treap;
                $body
            }
            parda_tree::TreeKind::Vector => {
                type $T = parda_tree::VectorTree;
                $body
            }
        }
    };
}

pub mod analysis;
pub mod approx;
pub mod concurrent;
pub mod engine;
pub mod error;
pub mod object;
pub mod parallel;
pub mod phased;
pub mod seq;
pub mod session;
pub mod shared;
pub mod window;

pub use analysis::{Analysis, Mode};
pub use approx::{analyze_approx, ApproxMode, ApproxSketch, SampleRate};
pub use concurrent::{
    analyze_concurrent, analyze_concurrent_kind, default_granularity, interleave_threads,
    recommend_partition, shared_metrics, ConcurrentAnalysis, InterleaveModel, PartitionPlan,
};
pub use engine::{Engine, MissSink};
pub use error::{FaultPolicy, PardaError};
pub use parallel::{check_limits, parda_threads_faulted, PardaConfig};
pub use parda_obs::Report;
pub use parda_trace::Degradation;
pub use session::SessionAnalysis;

use parda_hist::ReuseHistogram;
use parda_trace::Addr;
use parda_tree::TreeKind;

/// Run the sequential tree-based analyzer with a runtime-selected tree.
///
/// Thin wrapper over [`Analysis`] (`.mode(Mode::Seq)`), kept for callers
/// that don't need the builder.
pub fn analyze_sequential_kind(
    trace: &[Addr],
    kind: TreeKind,
    bound: Option<u64>,
) -> ReuseHistogram {
    Analysis::new()
        .tree(kind)
        .mode(Mode::Seq)
        .bound(bound)
        .run(trace)
        .0
}

/// Run the Parda parallel analyzer (thread-cascade flavour) with a
/// runtime-selected tree.
///
/// Thin wrapper over [`Analysis`] (`.mode(Mode::Threads)`).
pub fn parda_kind(trace: &[Addr], kind: TreeKind, config: &PardaConfig) -> ReuseHistogram {
    Analysis::new()
        .tree(kind)
        .mode(Mode::Threads)
        .ranks(config.ranks)
        .bound(config.bound)
        .space_optimized(config.space_optimized)
        .subchunk_refs(config.subchunk_refs)
        .run(trace)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_dispatchers_agree() {
        let trace: Vec<Addr> = (0..500).map(|i| (i * 7) % 97).collect();
        let splay = analyze_sequential_kind(&trace, TreeKind::Splay, None);
        let avl = analyze_sequential_kind(&trace, TreeKind::Avl, None);
        let treap = analyze_sequential_kind(&trace, TreeKind::Treap, None);
        let vector = analyze_sequential_kind(&trace, TreeKind::Vector, None);
        assert_eq!(splay, avl);
        assert_eq!(splay, treap);
        assert_eq!(splay, vector);

        let cfg = PardaConfig::with_ranks(3);
        assert_eq!(parda_kind(&trace, TreeKind::Avl, &cfg), splay);
    }
}
