//! Constant-space approximate MRC engines: SHARDS and AET.
//!
//! PARDA's exact trees keep one node per live address — O(M) memory per
//! trace — which caps a daemon at a handful of heavyweight sessions. The
//! paper itself points at combining Parda with approximate analysis (§VII);
//! this module supplies the two standard constructions from the MRC
//! literature as first-class [`Analysis`](crate::Analysis) modes:
//!
//! * **SHARDS** (spatial hash sampling): an address is monitored iff
//!   `hash(addr) <= threshold`, an unbiased rate-`R` subset of the address
//!   space supporting *any* rate in (0, 1] (not just powers of two). A
//!   monitored reference with sampled reuse distance `d_s` estimates true
//!   distance `d_s / R` with weight `1/R`; the *SHARDS-adj* correction
//!   term closes the gap between the estimated and actual reference count
//!   by crediting the difference to the smallest-distance bucket.
//!   - *Fixed-rate* ([`ApproxMode::ShardsFixedRate`]): memory is
//!     O(M·R) — proportional to the monitored footprint.
//!   - *Fixed-size* ([`ApproxMode::ShardsFixedSize`]): a bounded priority
//!     structure (max-heap over hashes) evicts the highest-hash entry when
//!     the table exceeds `s_max` and lowers the threshold to just below
//!     the evicted hash, so memory is O(s_max) *regardless* of footprint
//!     and the rate adapts downward automatically.
//! * **AET** (average eviction time, [`ApproxMode::Aet`]): no tree at all.
//!   A bounded reuse-*time* histogram drives the survival function
//!   `P(t)` (fraction of references not yet reused after `t` steps); the
//!   eviction-time sweep `∫P(t)dt = c` converts it into a miss-ratio
//!   curve, which is re-emitted as a [`ReuseHistogram`] so every
//!   downstream consumer (CLI, server, stats) is agnostic to the engine.
//!
//! All sketches are **mergeable value types** ([`ApproxSketch::merge`]):
//! per-chunk or per-tenant sketches compose into the sketch of the
//! concatenated trace (exactly for fixed-rate SHARDS and AET, approximately
//! for fixed-size SHARDS where merging takes the minimum threshold).

use parda_hash::{fx_hash_u64, FxHashMap};
use parda_hist::ReuseHistogram;
use parda_obs::ApproxMetrics;
use parda_trace::Addr;
use parda_tree::{ReuseTree, SplayTree};
use std::collections::BinaryHeap;

/// `2^64` as an `f64` — the denominator of the threshold→rate mapping.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Initial sampling rate for fixed-size SHARDS (the construction's
/// customary `R_0`); eviction lowers it adaptively from there.
pub const SHARDS_FIXED_SIZE_INITIAL_RATE: f64 = 0.1;

/// Default sampling rate for AET when the spec gives none.
pub const AET_DEFAULT_RATE: f64 = 0.01;

/// Spatial sampling rate: an address is monitored iff
/// `fx_hash(addr) <= threshold`.
///
/// Supports any rate in (0, 1] via [`SampleRate::from_rate`]; the legacy
/// pow-2 constructor [`SampleRate::one_in_pow2`] produces bit-identical
/// monitoring decisions to the historical `hash >> (64-k) == 0` check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleRate {
    threshold: u64,
}

impl SampleRate {
    /// Rate 1.0 — every address monitored (exact analysis).
    pub const EXACT: SampleRate = SampleRate {
        threshold: u64::MAX,
    };

    /// Rate `2^-k`. `k = 0` monitors everything (exact analysis).
    pub fn one_in_pow2(k: u32) -> Self {
        assert!(k < 63, "sampling rate 2^-{k} is degenerate");
        if k == 0 {
            Self::EXACT
        } else {
            Self {
                threshold: (1u64 << (64 - k)) - 1,
            }
        }
    }

    /// Any rate in (0, 1] via threshold compare. For `rate = 2^-k` this is
    /// exactly [`SampleRate::one_in_pow2`]`(k)`.
    pub fn from_rate(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0 && rate <= 1.0,
            "sampling rate {rate} outside (0, 1]"
        );
        if rate >= 1.0 {
            return Self::EXACT;
        }
        let t = rate * TWO_POW_64;
        let threshold = if t >= TWO_POW_64 {
            u64::MAX
        } else {
            (t as u64).saturating_sub(1)
        };
        Self { threshold }
    }

    /// Rebuild from a raw hash threshold (fixed-size SHARDS lowers it).
    pub fn from_threshold(threshold: u64) -> Self {
        Self { threshold }
    }

    /// The raw hash threshold.
    pub fn threshold(self) -> u64 {
        self.threshold
    }

    /// The effective rate `R = (threshold + 1) / 2^64`.
    pub fn rate(self) -> f64 {
        (self.threshold as f64 + 1.0) / TWO_POW_64
    }

    /// The count scale factor `1/R` (exact for pow-2 rates).
    pub fn scale(self) -> f64 {
        TWO_POW_64 / (self.threshold as f64 + 1.0)
    }

    /// The inverse rate `1/R` rounded to an integer (legacy pow-2 API;
    /// exact for pow-2 rates).
    pub fn inverse(self) -> u64 {
        self.scale().round() as u64
    }

    /// `true` if `addr` is monitored under this rate.
    #[inline]
    pub fn monitors(self, addr: Addr) -> bool {
        fx_hash_u64(addr) <= self.threshold
    }
}

/// Which analysis engine family an [`Analysis`](crate::Analysis) run uses:
/// the exact trees, or one of the constant-space sketches.
///
/// Parsed from the CLI/wire grammar by [`ApproxMode::parse`]:
///
/// ```text
/// exact | shards:<rate> | shards-smax:<n> | aet[:<rate>]
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ApproxMode {
    /// Exact tree-based analysis (the default).
    #[default]
    Exact,
    /// Fixed-rate SHARDS at sampling rate `rate` in (0, 1].
    ShardsFixedRate {
        /// Spatial sampling rate `R`.
        rate: f64,
    },
    /// Fixed-size SHARDS: at most `s_max` monitored addresses, threshold
    /// lowered by eviction. O(s_max) memory regardless of footprint.
    ShardsFixedSize {
        /// Sketch cardinality cap.
        s_max: usize,
    },
    /// AET reuse-time model at sampling rate `rate`; no tree at all.
    Aet {
        /// Spatial sampling rate for the reuse-time samples.
        rate: f64,
    },
}

impl ApproxMode {
    /// Parse an `--approx` / CONFIG spec. Grammar:
    /// `exact | shards:<rate> | shards-smax:<n> | aet[:<rate>]` with
    /// `<rate>` in (0, 1].
    pub fn parse(spec: &str) -> Result<ApproxMode, String> {
        fn bad(spec: &str, why: &str) -> String {
            format!(
                "bad approx spec `{spec}`: {why} \
                 (grammar: exact | shards:<rate> | shards-smax:<n> | aet[:<rate>], \
                 rate in (0,1])"
            )
        }
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
        };
        let parse_rate = |arg: &str| -> Result<f64, String> {
            let rate: f64 = arg
                .parse()
                .map_err(|_| bad(spec, &format!("`{arg}` is not a number")))?;
            if !(rate.is_finite() && rate > 0.0 && rate <= 1.0) {
                return Err(bad(spec, &format!("rate {arg} outside (0, 1]")));
            }
            Ok(rate)
        };
        let mode = match (head, arg) {
            ("exact", None) => ApproxMode::Exact,
            ("exact", Some(_)) => return Err(bad(spec, "exact takes no argument")),
            ("shards", Some(a)) => ApproxMode::ShardsFixedRate {
                rate: parse_rate(a)?,
            },
            ("shards", None) => return Err(bad(spec, "shards needs a rate")),
            ("shards-smax", Some(a)) => {
                let s_max: usize = a
                    .parse()
                    .map_err(|_| bad(spec, &format!("`{a}` is not a count")))?;
                if s_max == 0 {
                    return Err(bad(spec, "s_max must be >= 1"));
                }
                ApproxMode::ShardsFixedSize { s_max }
            }
            ("shards-smax", None) => return Err(bad(spec, "shards-smax needs a size")),
            ("aet", None) => ApproxMode::Aet {
                rate: AET_DEFAULT_RATE,
            },
            ("aet", Some(a)) => ApproxMode::Aet {
                rate: parse_rate(a)?,
            },
            _ => return Err(bad(spec, "unknown engine")),
        };
        Ok(mode)
    }

    /// Engine family label: `exact`, `shards`, `shards-smax`, or `aet`.
    pub fn name(&self) -> &'static str {
        match self {
            ApproxMode::Exact => "exact",
            ApproxMode::ShardsFixedRate { .. } => "shards",
            ApproxMode::ShardsFixedSize { .. } => "shards-smax",
            ApproxMode::Aet { .. } => "aet",
        }
    }

    /// Canonical spec string; round-trips through [`ApproxMode::parse`].
    pub fn spec(&self) -> String {
        match self {
            ApproxMode::Exact => "exact".into(),
            ApproxMode::ShardsFixedRate { rate } => format!("shards:{rate}"),
            ApproxMode::ShardsFixedSize { s_max } => format!("shards-smax:{s_max}"),
            ApproxMode::Aet { rate } => format!("aet:{rate}"),
        }
    }

    /// `true` for [`ApproxMode::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, ApproxMode::Exact)
    }

    /// Panic on degenerate configurations (rate outside (0, 1], zero
    /// `s_max`). Called by the [`Analysis`](crate::Analysis) builder.
    pub fn validate(&self) {
        match *self {
            ApproxMode::Exact => {}
            ApproxMode::ShardsFixedRate { rate } | ApproxMode::Aet { rate } => {
                assert!(
                    rate.is_finite() && rate > 0.0 && rate <= 1.0,
                    "approx rate {rate} outside (0, 1]"
                );
            }
            ApproxMode::ShardsFixedSize { s_max } => {
                assert!(s_max >= 1, "approx s_max must be >= 1");
            }
        }
    }
}

impl std::fmt::Display for ApproxMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// Internal fractionally-weighted histogram: non-pow-2 rates scale counts
/// by a non-integer `1/R`, so the sketch accumulates in `f64` and rounds
/// once at [`WeightedHist::to_histogram`]. Pow-2 rates stay exact (every
/// weight is a power of two, summed without rounding error below 2^53).
#[derive(Clone, Debug, Default, PartialEq)]
struct WeightedHist {
    counts: Vec<f64>,
    infinite: f64,
}

impl WeightedHist {
    fn record(&mut self, d: u64, w: f64) {
        let idx = d as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0.0);
        }
        self.counts[idx] += w;
    }

    fn record_infinite(&mut self, w: f64) {
        self.infinite += w;
    }

    fn total(&self) -> f64 {
        self.counts.iter().sum::<f64>() + self.infinite
    }

    fn merge(&mut self, other: &WeightedHist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0.0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.infinite += other.infinite;
    }

    /// Apply the SHARDS-adj correction: reconcile the estimated reference
    /// count with the true one by crediting `diff` to the smallest-distance
    /// bucket. A surplus (`diff > 0`) lands entirely in bucket 0; a deficit
    /// (`diff < 0` — hot sampled addresses overweighting short reuses, the
    /// common case on skewed traces) is drained from the smallest buckets
    /// upward, since counts cannot go negative and the overweight mass sits
    /// at short distances.
    fn adjust_smallest(&mut self, diff: f64) {
        if self.counts.is_empty() {
            self.counts.push(0.0);
        }
        if diff >= 0.0 {
            self.counts[0] += diff;
            return;
        }
        let mut deficit = -diff;
        for c in self.counts.iter_mut() {
            if deficit <= 0.0 {
                return;
            }
            let take = c.min(deficit);
            *c -= take;
            deficit -= take;
        }
        self.infinite = (self.infinite - deficit).max(0.0);
    }

    fn to_histogram(&self) -> ReuseHistogram {
        let mut hist = ReuseHistogram::new();
        for (d, &w) in self.counts.iter().enumerate() {
            let n = w.round() as u64;
            if n > 0 {
                hist.record_finite_n(d as u64, n);
            }
        }
        let inf = self.infinite.round() as u64;
        if inf > 0 {
            hist.record_infinite_n(inf);
        }
        hist
    }
}

/// One monitored address's bookkeeping inside a SHARDS sketch.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ShardsEntry {
    /// Sampled-clock timestamp of the first touch (merge replay order).
    first_ts: u64,
    /// Sampled-clock timestamp of the most recent touch (tree key).
    last_ts: u64,
    /// Weight carried by this address's cold miss (the scale at the time
    /// it was first monitored — fixed-size rates drift downward).
    cold_w: f64,
}

/// SHARDS sketch: spatial-hash-sampled reuse distance analysis.
///
/// Fixed-rate (`s_max = None`) keeps every monitored address; fixed-size
/// keeps at most `s_max` by evicting the highest-hash entry and lowering
/// the threshold, so the live state (table + tree + heap) is O(s_max).
#[derive(Debug, Default)]
pub struct ShardsSketch {
    /// Configured initial rate (reported in metrics).
    initial_rate: f64,
    /// Current monitoring threshold (`hash <= threshold` is monitored).
    threshold: u64,
    /// Cardinality cap, when fixed-size.
    s_max: Option<usize>,
    /// Sampled-reference clock (tree key space).
    ts: u64,
    /// All references seen (monitored or not).
    total_refs: u64,
    /// References that passed the filter.
    sampled_refs: u64,
    /// Live monitored addresses.
    table: FxHashMap<Addr, ShardsEntry>,
    /// Distance oracle over monitored last-access timestamps.
    tree: SplayTree,
    /// Max-heap over (hash, addr) for fixed-size eviction; empty otherwise.
    heap: BinaryHeap<(u64, Addr)>,
    /// Scaled finite-distance observations.
    hist: WeightedHist,
    /// Cold-miss weight of evicted entries (their first touches stand).
    evicted_cold_w: f64,
    /// Entries evicted by the fixed-size policy.
    evictions: u64,
}

impl ShardsSketch {
    /// Fixed-rate sketch at `rate` in (0, 1].
    pub fn fixed_rate(rate: f64) -> Self {
        let sr = SampleRate::from_rate(rate);
        Self {
            initial_rate: rate,
            threshold: sr.threshold(),
            s_max: None,
            ..Default::default()
        }
    }

    /// Fixed-size sketch capped at `s_max` monitored addresses, starting
    /// from [`SHARDS_FIXED_SIZE_INITIAL_RATE`].
    pub fn fixed_size(s_max: usize) -> Self {
        assert!(s_max >= 1, "s_max must be >= 1");
        let sr = SampleRate::from_rate(SHARDS_FIXED_SIZE_INITIAL_RATE);
        Self {
            initial_rate: SHARDS_FIXED_SIZE_INITIAL_RATE,
            threshold: sr.threshold(),
            s_max: Some(s_max),
            ..Default::default()
        }
    }

    fn current_scale(&self) -> f64 {
        SampleRate::from_threshold(self.threshold).scale()
    }

    /// Process one reference.
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        self.total_refs += 1;
        let h = fx_hash_u64(addr);
        if h > self.threshold {
            return;
        }
        self.sampled_refs += 1;
        let w = self.current_scale();
        let ts = self.ts;
        self.ts += 1;
        if let Some(entry) = self.table.get_mut(&addr) {
            let d_s = self
                .tree
                .distance_and_remove(entry.last_ts)
                .expect("monitored entry must be in the tree");
            entry.last_ts = ts;
            self.tree.insert(ts, addr);
            let est = (d_s as f64 * w).round() as u64;
            self.hist.record(est, w);
        } else {
            self.table.insert(
                addr,
                ShardsEntry {
                    first_ts: ts,
                    last_ts: ts,
                    cold_w: w,
                },
            );
            self.tree.insert(ts, addr);
            if let Some(s_max) = self.s_max {
                self.heap.push((h, addr));
                if self.table.len() > s_max {
                    self.evict_one();
                }
            }
        }
    }

    /// Process a batch of references.
    pub fn update(&mut self, addrs: &[Addr]) {
        for &a in addrs {
            self.push(a);
        }
    }

    /// Evict the highest-hash entry and lower the threshold to just below
    /// its hash, cascading over hash ties so no future reference with an
    /// evicted hash value is ever re-admitted.
    fn evict_one(&mut self) {
        let (h_max, _) = *self.heap.peek().expect("fixed-size eviction on empty heap");
        self.threshold = h_max.saturating_sub(1);
        self.evict_above_threshold();
    }

    /// Drop every heap/table entry whose hash exceeds the current
    /// threshold (used by eviction and by merge threshold alignment).
    fn evict_above_threshold(&mut self) {
        while let Some(&(h, addr)) = self.heap.peek() {
            if h <= self.threshold {
                break;
            }
            self.heap.pop();
            let entry = self
                .table
                .remove(&addr)
                .expect("heap entry must be live in the table");
            self.tree.remove(entry.last_ts);
            self.evicted_cold_w += entry.cold_w;
            self.evictions += 1;
        }
    }

    /// Merge `other` into `self`, producing the sketch of the concatenated
    /// trace `self ++ other`.
    ///
    /// Exact for fixed-rate sketches at equal rates: cross-boundary reuses
    /// are resolved by replaying `other`'s live entries (in first-touch
    /// order) against `self`'s tree. Fixed-size merges align both sketches
    /// on the lower threshold first, then re-apply the cardinality cap.
    pub fn merge(&mut self, other: ShardsSketch) -> Result<(), String> {
        if self.s_max != other.s_max {
            return Err(format!(
                "cannot merge shards sketches with different s_max ({:?} vs {:?})",
                self.s_max, other.s_max
            ));
        }
        if self.s_max.is_none() && self.threshold != other.threshold {
            return Err("cannot merge fixed-rate shards sketches with different rates".into());
        }
        // Align on the lower threshold (no-op for fixed-rate).
        if other.threshold < self.threshold {
            self.threshold = other.threshold;
            self.evict_above_threshold();
        }
        let shift = self.ts;
        let w = self.current_scale();
        let mut entries: Vec<(Addr, ShardsEntry)> = other.table.into_iter().collect();
        entries.sort_unstable_by_key(|(_, e)| e.first_ts);
        let mut other_evicted_cold_w = other.evicted_cold_w;
        let mut other_evictions = other.evictions;
        for (addr, e) in entries {
            let h = fx_hash_u64(addr);
            if h > self.threshold {
                // `other` sampled this address under a higher threshold
                // than the merged sketch allows; retire it like any
                // fixed-size eviction.
                other_evicted_cold_w += e.cold_w;
                other_evictions += 1;
                continue;
            }
            if let Some(mine) = self.table.get_mut(&addr) {
                // Cross-boundary reuse: distance from `self`'s last touch
                // of `addr` to `other`'s first touch. The tree query counts
                // `self` survivors plus already-replayed `other` first
                // touches — exactly the distinct monitored addresses in
                // between.
                let d_s = self
                    .tree
                    .distance_and_remove(mine.last_ts)
                    .expect("monitored entry must be in the tree");
                let est = (d_s as f64 * w).round() as u64;
                self.hist.record(est, w);
                mine.last_ts = shift + e.last_ts;
                self.tree.insert(shift + e.last_ts, addr);
                // `other`'s cold miss for this address dissolves into the
                // cross reuse; `self`'s own cold weight stands.
                // (Its weight was already excluded: cold weights live in
                // the table entries, and we keep `mine`.)
            } else {
                self.table.insert(
                    addr,
                    ShardsEntry {
                        first_ts: shift + e.first_ts,
                        last_ts: shift + e.last_ts,
                        cold_w: e.cold_w,
                    },
                );
                self.tree.insert(shift + e.last_ts, addr);
                if self.s_max.is_some() {
                    self.heap.push((h, addr));
                }
            }
        }
        if let Some(s_max) = self.s_max {
            while self.table.len() > s_max {
                self.evict_one();
            }
        }
        self.hist.merge(&other.hist);
        self.ts += other.ts;
        self.total_refs += other.total_refs;
        self.sampled_refs += other.sampled_refs;
        self.evicted_cold_w += other_evicted_cold_w;
        self.evictions += other_evictions;
        Ok(())
    }

    /// The corrected estimated reuse histogram.
    ///
    /// Applies the SHARDS-adj correction: the gap between the actual
    /// reference count `N` and the estimated total is credited to the
    /// smallest-distance bucket before rounding.
    pub fn finalize(&self) -> ReuseHistogram {
        let mut wh = self.hist.clone();
        let cold: f64 = self.table.values().map(|e| e.cold_w).sum::<f64>() + self.evicted_cold_w;
        wh.record_infinite(cold);
        let diff = self.total_refs as f64 - wh.total();
        wh.adjust_smallest(diff);
        wh.to_histogram()
    }

    /// Approximate resident size of the live sketch state (table + tree +
    /// eviction heap). Excludes the output histogram accumulator, which —
    /// like any reuse histogram — is sized by the largest estimated
    /// distance.
    pub fn memory_bytes(&self) -> u64 {
        let table =
            self.table.capacity() as u64 * (std::mem::size_of::<(Addr, ShardsEntry)>() as u64 + 8);
        // The trees don't expose node sizes; 48 bytes (three pointers +
        // key + subtree size) is representative of the splay layout.
        let tree = self.tree.len() as u64 * 48;
        let heap = self.heap.len() as u64 * std::mem::size_of::<(u64, Addr)>() as u64;
        table + tree + heap
    }

    /// Realized configuration and accuracy envelope.
    pub fn metrics(&self) -> ApproxMetrics {
        let mode = if self.s_max.is_some() {
            "shards-smax"
        } else {
            "shards"
        };
        ApproxMetrics {
            mode: mode.into(),
            rate: self.initial_rate,
            effective_rate: SampleRate::from_threshold(self.threshold).rate(),
            s_max: self.s_max.map(|s| s as u64),
            sampled_refs: self.sampled_refs,
            sampled_addrs: self.table.len() as u64,
            evictions: self.evictions,
            sketch_bytes: self.memory_bytes(),
            expected_mae: expected_mae(self.table.len()),
        }
    }
}

/// Reuse-*time* histogram with bounded memory: exact linear bins below
/// [`RtHist::LINEAR`], then log2 octaves with [`RtHist::SUB_BINS`]
/// sub-bins each (≈1.6% relative resolution) — constant ~60 KiB however
/// long the reuse times grow.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RtHist {
    counts: Vec<u64>,
    total: u64,
}

impl RtHist {
    /// Reuse times below this are binned exactly.
    const LINEAR: u64 = 4096;
    /// log2(LINEAR): first octave index.
    const LINEAR_LOG2: u32 = 12;
    /// Sub-bins per octave above the linear range.
    const SUB_BINS: u64 = 64;
    const SUB_BITS: u32 = 6;

    fn new() -> Self {
        let octaves = (64 - Self::LINEAR_LOG2) as usize;
        Self {
            counts: vec![0; Self::LINEAR as usize + octaves * Self::SUB_BINS as usize],
            total: 0,
        }
    }

    fn bin(rt: u64) -> usize {
        if rt < Self::LINEAR {
            rt as usize
        } else {
            let log2 = 63 - rt.leading_zeros();
            let sub = (rt >> (log2 - Self::SUB_BITS)) & (Self::SUB_BINS - 1);
            Self::LINEAR as usize
                + (log2 - Self::LINEAR_LOG2) as usize * Self::SUB_BINS as usize
                + sub as usize
        }
    }

    /// Upper bound (inclusive representative) of bin `idx`: the reuse time
    /// all samples in the bin are conservatively attributed to.
    fn bin_bound(idx: usize) -> u64 {
        if (idx as u64) < Self::LINEAR {
            idx as u64
        } else {
            let rel = idx - Self::LINEAR as usize;
            let log2 = Self::LINEAR_LOG2 + (rel / Self::SUB_BINS as usize) as u32;
            let sub = (rel % Self::SUB_BINS as usize) as u64;
            let width = 1u64 << (log2 - Self::SUB_BITS);
            (1u64 << log2) + (sub + 1) * width
        }
    }

    fn record(&mut self, rt: u64) {
        self.counts[Self::bin(rt)] += 1;
        self.total += 1;
    }

    fn merge(&mut self, other: &RtHist) {
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
    }
}

impl Default for RtHist {
    fn default() -> Self {
        Self::new()
    }
}

/// AET sketch: a bounded reuse-time histogram plus a last-access table
/// over the monitored addresses — no distance tree at all.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AetSketch {
    rate: f64,
    threshold: u64,
    /// Global reference clock: *every* reference advances it (reuse time
    /// is measured in whole-trace references).
    ts: u64,
    sampled_refs: u64,
    table: FxHashMap<Addr, (u64, u64)>,
    rt: RtHist,
}

impl AetSketch {
    /// AET sketch sampling reuse times at `rate` in (0, 1].
    pub fn new(rate: f64) -> Self {
        let sr = SampleRate::from_rate(rate);
        Self {
            rate,
            threshold: sr.threshold(),
            ts: 0,
            sampled_refs: 0,
            table: FxHashMap::default(),
            rt: RtHist::new(),
        }
    }

    /// Process one reference.
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        let t = self.ts;
        self.ts += 1;
        if fx_hash_u64(addr) > self.threshold {
            return;
        }
        self.sampled_refs += 1;
        if let Some((_, last)) = self.table.get_mut(&addr) {
            self.rt.record(t - *last);
            *last = t;
        } else {
            self.table.insert(addr, (t, t));
        }
    }

    /// Process a batch of references.
    pub fn update(&mut self, addrs: &[Addr]) {
        for &a in addrs {
            self.push(a);
        }
    }

    /// Merge `other` into `self` — exactly the sketch of `self ++ other`:
    /// shared addresses convert `other`'s cold miss into a cross-boundary
    /// reuse time.
    pub fn merge(&mut self, other: AetSketch) -> Result<(), String> {
        if self.threshold != other.threshold {
            return Err("cannot merge aet sketches with different rates".into());
        }
        let shift = self.ts;
        for (addr, (first, last)) in other.table {
            if let Some((_, mine_last)) = self.table.get_mut(&addr) {
                self.rt.record(shift + first - *mine_last);
                *mine_last = shift + last;
            } else {
                self.table.insert(addr, (shift + first, shift + last));
            }
        }
        self.rt.merge(&other.rt);
        self.ts += other.ts;
        self.sampled_refs += other.sampled_refs;
        Ok(())
    }

    /// Run the AET sweep and re-emit the resulting miss-ratio curve as a
    /// [`ReuseHistogram`] over the whole trace (`total() ≈ N`).
    ///
    /// The survival function `P(t)` — the fraction of monitored references
    /// whose forward reuse time exceeds `t` (last touches count as ∞) —
    /// is integrated until it crosses each integer cache capacity `c`
    /// (`∫₀^AET(c) P(t)dt = c`), giving `mr(c) = P(AET(c))`. The curve is
    /// piecewise constant per reuse-time bin, so the histogram needs one
    /// bucket per bin transition.
    pub fn finalize(&self) -> ReuseHistogram {
        let n_refs = self.ts as f64;
        let mut wh = WeightedHist::default();
        if self.sampled_refs == 0 {
            // Nothing monitored: no basis for estimation; everything a
            // cold miss is the only consistent answer.
            wh.record_infinite(n_refs);
            return wh.to_histogram();
        }
        // SHARDS-adj analog for the reuse-time domain: spatial sampling
        // expects `N·R` observations but realizes `sampled_refs`, and the
        // gap is hot-address skew concentrated at the shortest reuse
        // times. Reconciling against the expected count keeps `P(t)`'s
        // denominator unbiased — without it a lucky hot address deflates
        // the whole curve (the realized count over-weights short reuses).
        let n = n_refs * SampleRate::from_threshold(self.threshold).rate();
        let mut counts: Vec<f64> = self.rt.counts.iter().map(|&c| c as f64).collect();
        let mut cold = self.table.len() as f64;
        let diff = n - self.sampled_refs as f64;
        if diff >= 0.0 {
            counts[1] += diff; // rt = 1: the smallest possible reuse time
        } else {
            let mut deficit = -diff;
            for c in counts.iter_mut() {
                if deficit <= 0.0 {
                    break;
                }
                let take = c.min(deficit);
                *c -= take;
                deficit -= take;
            }
            cold = (cold - deficit).max(0.0);
        }
        let mut above: f64 = counts.iter().sum();
        let mut cum = 0.0f64; // ∫ P(t) dt so far
        let mut t_prev = 0u64;
        let mut c_emitted = 0u64; // largest capacity already assigned
        let mut mr_prev = 1.0f64;
        for (idx, &count) in counts.iter().enumerate() {
            if count <= 0.0 {
                continue;
            }
            let bound = RtHist::bin_bound(idx);
            let p = (cold + above) / n;
            let new_cum = cum + p * (bound - t_prev) as f64;
            let c_hi = new_cum.floor() as u64;
            if c_hi > c_emitted && p < mr_prev {
                // Capacities (c_emitted, c_hi] all evict at times inside
                // this segment: mr = P. Hits gained over the previous
                // plateau land at distance c_emitted.
                wh.record(c_emitted, n_refs * (mr_prev - p));
                mr_prev = p;
            }
            if c_hi > c_emitted {
                c_emitted = c_hi;
            }
            cum = new_cum;
            t_prev = bound;
            above -= count;
        }
        // Tail: P(t) = cold/n forever after the largest reuse time; every
        // remaining capacity is eventually crossed.
        let p_tail = cold / n;
        if p_tail < mr_prev {
            wh.record(c_emitted, n_refs * (mr_prev - p_tail));
        }
        wh.record_infinite(n_refs * p_tail);
        wh.to_histogram()
    }

    /// Approximate resident size of the sketch (table + reuse-time bins).
    pub fn memory_bytes(&self) -> u64 {
        let table =
            self.table.capacity() as u64 * (std::mem::size_of::<(Addr, (u64, u64))>() as u64 + 8);
        let bins = self.rt.counts.len() as u64 * 8;
        table + bins
    }

    /// Realized configuration and accuracy envelope.
    pub fn metrics(&self) -> ApproxMetrics {
        ApproxMetrics {
            mode: "aet".into(),
            rate: self.rate,
            effective_rate: SampleRate::from_threshold(self.threshold).rate(),
            s_max: None,
            sampled_refs: self.sampled_refs,
            sampled_addrs: self.table.len() as u64,
            evictions: 0,
            sketch_bytes: self.memory_bytes(),
            expected_mae: expected_mae(self.table.len()),
        }
    }
}

/// A-priori mean-absolute-error envelope `~1/sqrt(sampled_addrs)` from the
/// MRC survey's concentration argument.
fn expected_mae(sampled_addrs: usize) -> f64 {
    1.0 / (sampled_addrs.max(1) as f64).sqrt()
}

/// A mergeable constant-space MRC sketch — the value type behind every
/// non-exact [`ApproxMode`].
#[derive(Debug)]
pub enum ApproxSketch {
    /// SHARDS (fixed-rate or fixed-size).
    Shards(ShardsSketch),
    /// AET reuse-time model.
    Aet(AetSketch),
}

impl ApproxSketch {
    /// Build the sketch for `mode`.
    ///
    /// # Panics
    ///
    /// On [`ApproxMode::Exact`] (exact analysis has no sketch) or a
    /// degenerate configuration.
    pub fn new(mode: ApproxMode) -> Self {
        mode.validate();
        match mode {
            ApproxMode::Exact => panic!("ApproxMode::Exact has no sketch"),
            ApproxMode::ShardsFixedRate { rate } => {
                ApproxSketch::Shards(ShardsSketch::fixed_rate(rate))
            }
            ApproxMode::ShardsFixedSize { s_max } => {
                ApproxSketch::Shards(ShardsSketch::fixed_size(s_max))
            }
            ApproxMode::Aet { rate } => ApproxSketch::Aet(AetSketch::new(rate)),
        }
    }

    /// Process one reference.
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        match self {
            ApproxSketch::Shards(s) => s.push(addr),
            ApproxSketch::Aet(s) => s.push(addr),
        }
    }

    /// Process a batch of references.
    pub fn update(&mut self, addrs: &[Addr]) {
        match self {
            ApproxSketch::Shards(s) => s.update(addrs),
            ApproxSketch::Aet(s) => s.update(addrs),
        }
    }

    /// Merge another sketch of the *following* trace segment into this
    /// one. Errors on engine or configuration mismatch.
    pub fn merge(&mut self, other: ApproxSketch) -> Result<(), String> {
        match (self, other) {
            (ApproxSketch::Shards(a), ApproxSketch::Shards(b)) => a.merge(b),
            (ApproxSketch::Aet(a), ApproxSketch::Aet(b)) => a.merge(b),
            _ => Err("cannot merge sketches of different engines".into()),
        }
    }

    /// The estimated reuse histogram.
    pub fn finalize(&self) -> ReuseHistogram {
        match self {
            ApproxSketch::Shards(s) => s.finalize(),
            ApproxSketch::Aet(s) => s.finalize(),
        }
    }

    /// Approximate resident size of the live sketch state.
    pub fn memory_bytes(&self) -> u64 {
        match self {
            ApproxSketch::Shards(s) => s.memory_bytes(),
            ApproxSketch::Aet(s) => s.memory_bytes(),
        }
    }

    /// Realized configuration and accuracy envelope.
    pub fn metrics(&self) -> ApproxMetrics {
        match self {
            ApproxSketch::Shards(s) => s.metrics(),
            ApproxSketch::Aet(s) => s.metrics(),
        }
    }
}

/// One-shot approximate analysis of an in-memory trace.
///
/// # Panics
///
/// On [`ApproxMode::Exact`] — route exact analysis through
/// [`Analysis`](crate::Analysis) or [`crate::seq`].
pub fn analyze_approx(trace: &[Addr], mode: ApproxMode) -> (ReuseHistogram, ApproxMetrics) {
    let mut sketch = ApproxSketch::new(mode);
    sketch.update(trace);
    (sketch.finalize(), sketch.metrics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::analyze_sequential;
    use parda_trace::gen::{ReuseProfile, StackDistGen, ZipfGen};
    use parda_trace::AddressStream;
    use parda_tree::SplayTree;
    use proptest::prelude::*;

    fn pow2_caps(max: u64) -> Vec<u64> {
        let mut caps = Vec::new();
        let mut c = 1u64;
        while c <= max {
            caps.push(c);
            c *= 2;
        }
        caps
    }

    #[test]
    fn from_rate_matches_one_in_pow2() {
        for k in [0u32, 1, 3, 7, 20, 40] {
            assert_eq!(
                SampleRate::from_rate(0.5f64.powi(k as i32)),
                SampleRate::one_in_pow2(k),
                "k={k}"
            );
        }
    }

    #[test]
    fn arbitrary_rate_selects_expected_fraction() {
        let addrs: Vec<Addr> = (0..200_000).map(|i| 0x4000 + i * 16).collect();
        for rate in [0.3f64, 0.07, 0.015] {
            let sr = SampleRate::from_rate(rate);
            let kept = addrs.iter().filter(|&&a| sr.monitors(a)).count() as f64;
            let expect = addrs.len() as f64 * rate;
            assert!(
                (kept - expect).abs() / expect < 0.1,
                "rate={rate}: kept {kept}, expected ~{expect}"
            );
            assert!((sr.rate() - rate).abs() / rate < 1e-9);
        }
    }

    #[test]
    fn mode_spec_round_trips() {
        for spec in ["exact", "shards:0.01", "shards-smax:8192", "aet:0.1"] {
            let mode = ApproxMode::parse(spec).unwrap();
            assert_eq!(mode.spec(), spec);
            assert_eq!(ApproxMode::parse(&mode.spec()).unwrap(), mode);
        }
        assert_eq!(
            ApproxMode::parse("aet").unwrap(),
            ApproxMode::Aet {
                rate: AET_DEFAULT_RATE
            }
        );
    }

    #[test]
    fn mode_parse_rejects_bad_specs() {
        for spec in [
            "",
            "shards",
            "shards:0",
            "shards:1.5",
            "shards:x",
            "shards-smax",
            "shards-smax:0",
            "shards-smax:abc",
            "aet:0",
            "aet:2",
            "exact:1",
            "banana",
        ] {
            let err = ApproxMode::parse(spec).unwrap_err();
            assert!(err.contains("grammar"), "spec `{spec}` error: {err}");
        }
    }

    #[test]
    fn shards_rate_one_is_exact() {
        let trace =
            StackDistGen::new(30_000, 2_000, ReuseProfile::geometric(32.0), 11).take_trace(30_000);
        let exact = analyze_sequential::<SplayTree>(trace.as_slice(), None);
        let (approx, metrics) =
            analyze_approx(trace.as_slice(), ApproxMode::ShardsFixedRate { rate: 1.0 });
        assert_eq!(exact, approx);
        assert_eq!(metrics.sampled_refs, trace.len() as u64);
        assert_eq!(metrics.effective_rate, 1.0);
    }

    #[test]
    fn shards_tracks_exact_mrc_at_non_pow2_rate() {
        let trace =
            StackDistGen::new(150_000, 8_000, ReuseProfile::geometric(64.0), 3).take_trace(150_000);
        let exact = analyze_sequential::<SplayTree>(trace.as_slice(), None);
        let (approx, _) =
            analyze_approx(trace.as_slice(), ApproxMode::ShardsFixedRate { rate: 0.05 });
        let caps: Vec<u64> = pow2_caps(16_384).into_iter().filter(|&c| c >= 64).collect();
        let err = approx.mrc_mean_absolute_error(&exact, &caps);
        assert!(err < 0.03, "MAE {err}");
        // The correction term closes the total-count gap.
        let rel = (approx.total() as f64 - trace.len() as f64).abs() / trace.len() as f64;
        assert!(rel < 0.02, "total off by {rel}");
    }

    #[test]
    fn fixed_size_caps_state_and_tracks_mrc() {
        let trace = ZipfGen::new(60_000, 0.8, 0, 21).take_trace(400_000);
        let exact = analyze_sequential::<SplayTree>(trace.as_slice(), None);
        let mut sketch = ShardsSketch::fixed_size(1_024);
        sketch.update(trace.as_slice());
        assert!(sketch.table.len() <= 1_024);
        assert!(sketch.tree.len() <= 1_024);
        assert!(sketch.heap.len() <= 1_024);
        let m = sketch.metrics();
        assert!(m.evictions > 0, "footprint must overflow s_max");
        assert!(m.effective_rate < SHARDS_FIXED_SIZE_INITIAL_RATE);
        let caps: Vec<u64> = pow2_caps(65_536)
            .into_iter()
            .filter(|&c| c >= 256)
            .collect();
        let err = sketch.finalize().mrc_mean_absolute_error(&exact, &caps);
        assert!(err < 0.03, "MAE {err}");
    }

    #[test]
    fn aet_tracks_exact_mrc() {
        let trace = StackDistGen::new(200_000, 10_000, ReuseProfile::geometric(96.0), 5)
            .take_trace(200_000);
        let exact = analyze_sequential::<SplayTree>(trace.as_slice(), None);
        let (approx, metrics) = analyze_approx(trace.as_slice(), ApproxMode::Aet { rate: 1.0 });
        let caps: Vec<u64> = pow2_caps(32_768).into_iter().filter(|&c| c >= 16).collect();
        let err = approx.mrc_mean_absolute_error(&exact, &caps);
        assert!(err < 0.03, "MAE {err}");
        assert_eq!(metrics.mode, "aet");
        // The reuse-time histogram is constant-size.
        assert!(metrics.sketch_bytes < 4 << 20);
        // Estimated totals track N and M.
        let rel = (approx.total() as f64 - trace.len() as f64).abs() / trace.len() as f64;
        assert!(rel < 0.01, "total off by {rel}");
        let m_rel = (approx.infinite() as f64 - 10_000.0).abs() / 10_000.0;
        assert!(m_rel < 0.05, "footprint estimate off by {m_rel}");
    }

    #[test]
    fn aet_merge_is_exact() {
        let trace = ZipfGen::new(8_000, 0.9, 0, 13).take_trace(60_000);
        let (a_part, b_part) = trace.as_slice().split_at(25_000);
        let mut whole = AetSketch::new(0.25);
        whole.update(trace.as_slice());
        let mut a = AetSketch::new(0.25);
        a.update(a_part);
        let mut b = AetSketch::new(0.25);
        b.update(b_part);
        a.merge(b).unwrap();
        assert_eq!(a, whole);
    }

    proptest! {
        #[test]
        fn shards_fixed_rate_merge_matches_whole_trace(
            trace in proptest::collection::vec(0u64..96, 2..400),
            split in 0usize..400,
            k in 0u32..3,
        ) {
            let split = split.min(trace.len());
            let rate = 0.5f64.powi(k as i32);
            let mut whole = ShardsSketch::fixed_rate(rate);
            whole.update(&trace);
            let mut a = ShardsSketch::fixed_rate(rate);
            a.update(&trace[..split]);
            let mut b = ShardsSketch::fixed_rate(rate);
            b.update(&trace[split..]);
            a.merge(b).unwrap();
            prop_assert_eq!(a.finalize(), whole.finalize());
            prop_assert_eq!(a.hist.clone(), whole.hist.clone());
            prop_assert_eq!(a.total_refs, whole.total_refs);
            prop_assert_eq!(a.sampled_refs, whole.sampled_refs);
            let mut a_tbl: Vec<_> = a.table.iter().map(|(k, v)| (*k, *v)).collect();
            let mut w_tbl: Vec<_> = whole.table.iter().map(|(k, v)| (*k, *v)).collect();
            a_tbl.sort_unstable_by_key(|(k, _)| *k);
            w_tbl.sort_unstable_by_key(|(k, _)| *k);
            prop_assert_eq!(a_tbl, w_tbl);
        }

        #[test]
        fn aet_merge_matches_whole_trace(
            trace in proptest::collection::vec(0u64..64, 2..400),
            split in 0usize..400,
        ) {
            let split = split.min(trace.len());
            let mut whole = AetSketch::new(1.0);
            whole.update(&trace);
            let mut a = AetSketch::new(1.0);
            a.update(&trace[..split]);
            let mut b = AetSketch::new(1.0);
            b.update(&trace[split..]);
            a.merge(b).unwrap();
            prop_assert_eq!(a, whole);
        }
    }

    #[test]
    fn merge_rejects_mismatched_configs() {
        let mut a = ApproxSketch::new(ApproxMode::ShardsFixedRate { rate: 0.5 });
        let b = ApproxSketch::new(ApproxMode::ShardsFixedRate { rate: 0.25 });
        assert!(a.merge(b).is_err());
        let mut a = ApproxSketch::new(ApproxMode::ShardsFixedRate { rate: 0.5 });
        let b = ApproxSketch::new(ApproxMode::Aet { rate: 0.5 });
        assert!(a.merge(b).is_err());
        let mut a = ApproxSketch::new(ApproxMode::ShardsFixedSize { s_max: 64 });
        let b = ApproxSketch::new(ApproxMode::ShardsFixedSize { s_max: 128 });
        assert!(a.merge(b).is_err());
    }

    #[test]
    fn fixed_size_merge_stays_within_cap() {
        let trace = ZipfGen::new(30_000, 0.7, 0, 17).take_trace(120_000);
        let (a_part, b_part) = trace.as_slice().split_at(60_000);
        let mut a = ShardsSketch::fixed_size(512);
        a.update(a_part);
        let mut b = ShardsSketch::fixed_size(512);
        b.update(b_part);
        a.merge(b).unwrap();
        assert!(a.table.len() <= 512);
        assert!(a.heap.len() <= 512);
        let exact = analyze_sequential::<SplayTree>(trace.as_slice(), None);
        let caps: Vec<u64> = pow2_caps(32_768)
            .into_iter()
            .filter(|&c| c >= 256)
            .collect();
        let err = a.finalize().mrc_mean_absolute_error(&exact, &caps);
        assert!(err < 0.06, "merged fixed-size MAE {err}");
    }

    #[test]
    fn rt_hist_bins_are_monotone_and_bounded() {
        let mut prev_bin = 0usize;
        for rt in (1u64..5_000).chain((13u64..40).map(|k| (1u64 << k) + 12345)) {
            let b = RtHist::bin(rt);
            assert!(b >= prev_bin || rt < RtHist::LINEAR, "rt={rt}");
            prev_bin = b;
            assert!(RtHist::bin_bound(b) >= rt, "bound must dominate rt={rt}");
            // Bin resolution above the linear range stays within ~2%.
            if rt >= RtHist::LINEAR {
                let bound = RtHist::bin_bound(b);
                assert!(
                    (bound - rt) as f64 / rt as f64 <= 2.0 / RtHist::SUB_BINS as f64 + 1e-9,
                    "rt={rt} bound={bound}"
                );
            }
        }
    }
}
