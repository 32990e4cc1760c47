//! Memory reference traces: the input side of reuse-distance analysis.
//!
//! The original PARDA consumes address traces produced by Pin-instrumented
//! SPEC CPU2006 binaries. Those binaries and their inputs are proprietary,
//! so this crate supplies the synthetic equivalent (see DESIGN.md §2):
//!
//! * [`Trace`] — an in-memory address sequence with summary statistics;
//! * [`AddressStream`] — the pull interface connecting generators, files,
//!   and the streaming (multi-phase) analyzer;
//! * [`gen`] — composable synthetic generators, including the model-driven
//!   [`gen::StackDistGen`] that produces traces with a *prescribed* reuse
//!   distance profile;
//! * [`spec`] — per-benchmark workload models carrying the paper's Table IV
//!   parameters (M, N, original runtime) plus a locality profile, scaled to
//!   laptop-size traces;
//! * [`io`] — compact binary trace formats: flat v1 (raw or delta-varint)
//!   and block-framed v2 with a seekable index, parallel frame decode,
//!   (v2.1) CRC32C frame checksums and (v2.2) thread tags; one private
//!   frame codec lays out and decodes every v2 frame and DATA message;
//! * [`recover`] — corruption recovery: [`recover::Degradation`] policies,
//!   the lossy frame decoder with resync scan, and CRC verification;
//! * [`stream`] — [`stream::FramedStream`], an [`AddressStream`] that
//!   decodes v2 frames on background threads while the analyzer runs;
//! * [`LruStack`] — an O(log M) indexable LRU stack (Fenwick-backed) used
//!   by the generators to realize target distance distributions.

pub mod alias;
mod frame;
pub mod gen;
pub mod io;
pub mod lru_stack;
pub mod recover;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod xform;

pub use lru_stack::LruStack;
pub use parda_tree::fenwick::{self, Fenwick};
pub use recover::{
    decode_tagged_trace_recovering, decode_trace_recovering, load_trace_recovering, verify_trace,
    Degradation, VerifyReport,
};
pub use stats::TraceStats;

/// A data address (word-granular in the paper's experiments).
pub type Addr = u64;

/// An in-memory data reference trace (`Ψ` in the paper's notation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    addrs: Vec<Addr>,
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an address vector.
    pub fn from_vec(addrs: Vec<Addr>) -> Self {
        Self { addrs }
    }

    /// Trace built from ASCII labels, for paper-example tests:
    /// `Trace::from_labels("dacbccgefa")`.
    pub fn from_labels(labels: &str) -> Self {
        Self {
            addrs: labels.bytes().map(|b| b as Addr).collect(),
        }
    }

    /// Number of references (`N`).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Number of distinct addresses (`M`). O(N) with a hash set.
    pub fn distinct(&self) -> usize {
        let mut set = parda_hash::FxHashSet::default();
        set.extend(self.addrs.iter().copied());
        set.len()
    }

    /// The raw address slice.
    pub fn as_slice(&self) -> &[Addr] {
        &self.addrs
    }

    /// Consume into the underlying vector.
    pub fn into_vec(self) -> Vec<Addr> {
        self.addrs
    }

    /// Append one reference.
    pub fn push(&mut self, addr: Addr) {
        self.addrs.push(addr);
    }

    /// Split into `p` contiguous chunks as evenly as possible (the paper's
    /// chunking: rank `i` gets references `[offsets[i], offsets[i+1])`).
    /// Every chunk is non-empty when `p ≤ len`; trailing chunks may be empty
    /// otherwise.
    pub fn chunks(&self, p: usize) -> Vec<&[Addr]> {
        chunk_slice(&self.addrs, p)
    }

    /// Summary statistics (N, M, address span).
    pub fn stats(&self) -> TraceStats {
        TraceStats::compute(&self.addrs)
    }
}

impl FromIterator<Addr> for Trace {
    fn from_iter<I: IntoIterator<Item = Addr>>(iter: I) -> Self {
        Self {
            addrs: iter.into_iter().collect(),
        }
    }
}

impl std::ops::Index<usize> for Trace {
    type Output = Addr;

    fn index(&self, idx: usize) -> &Addr {
        &self.addrs[idx]
    }
}

/// A thread ID accompanying a tagged reference.
pub type Tid = u32;

/// A thread-tagged reference trace: one thread ID per reference, in the
/// observed global interleaving order. This is the in-memory form of a
/// v2.2 thread-tagged trace file ([`io::save_tagged_trace_v2`]): the
/// shared stream a multi-threaded program actually issued, with enough
/// information to recover each thread's private stream exactly.
///
/// Unlike [`crate::xform`]-style address transforms, the tags are *metadata*
/// carried next to the addresses — threads share one address space, so the
/// same address appearing under two TIDs means true sharing, not a
/// collision.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadedTrace {
    addrs: Vec<Addr>,
    tids: Vec<Tid>,
}

impl ThreadedTrace {
    /// Create an empty tagged trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap parallel address/TID vectors (must be the same length).
    pub fn from_parts(addrs: Vec<Addr>, tids: Vec<Tid>) -> Self {
        assert_eq!(
            addrs.len(),
            tids.len(),
            "one thread ID per reference required"
        );
        Self { addrs, tids }
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Append one reference issued by `tid`.
    pub fn push(&mut self, tid: Tid, addr: Addr) {
        self.addrs.push(addr);
        self.tids.push(tid);
    }

    /// The interleaved address stream (tags stripped).
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// The per-reference thread IDs, parallel to [`ThreadedTrace::addrs`].
    pub fn tids(&self) -> &[Tid] {
        &self.tids
    }

    /// Distinct thread IDs, ascending.
    pub fn thread_ids(&self) -> Vec<Tid> {
        let mut ids: Vec<Tid> = {
            let mut set = parda_hash::FxHashSet::default();
            set.extend(self.tids.iter().copied());
            set.into_iter().collect()
        };
        ids.sort_unstable();
        ids
    }

    /// Split into per-thread traces, preserving each thread's program
    /// order. Returned pairs are sorted by thread ID.
    pub fn per_thread(&self) -> Vec<(Tid, Trace)> {
        let ids = self.thread_ids();
        let mut split: Vec<(Tid, Trace)> = ids.into_iter().map(|id| (id, Trace::new())).collect();
        let slot: parda_hash::FxHashMap<Tid, usize> = split
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        for (&tid, &addr) in self.tids.iter().zip(&self.addrs) {
            split[slot[&tid]].1.push(addr);
        }
        split
    }

    /// Consume into `(addrs, tids)`.
    pub fn into_parts(self) -> (Vec<Addr>, Vec<Tid>) {
        (self.addrs, self.tids)
    }
}

/// Split any slice into `p` contiguous, maximally even chunks.
///
/// The first `len % p` chunks carry one extra element, so sizes differ by at
/// most one — the load-balance property Parda's chunk assignment relies on.
pub fn chunk_slice<T>(slice: &[T], p: usize) -> Vec<&[T]> {
    assert!(p > 0, "cannot split into zero chunks");
    let base = slice.len() / p;
    let extra = slice.len() % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let size = base + usize::from(i < extra);
        out.push(&slice[start..start + size]);
        start += size;
    }
    debug_assert_eq!(start, slice.len());
    out
}

/// A pull-based source of addresses: the interface between trace producers
/// (generators, files, pinsim programs) and consumers (analyzers, pipes).
///
/// `None` marks the end of the stream. Implementations should be cheap per
/// call; batch consumers use [`AddressStream::fill`].
pub trait AddressStream {
    /// Produce the next address, or `None` at end of stream.
    fn next_addr(&mut self) -> Option<Addr>;

    /// Append up to `n` addresses to `buf`; returns how many were produced
    /// (less than `n` only at end of stream).
    fn fill(&mut self, buf: &mut Vec<Addr>, n: usize) -> usize {
        let mut produced = 0;
        while produced < n {
            match self.next_addr() {
                Some(a) => {
                    buf.push(a);
                    produced += 1;
                }
                None => break,
            }
        }
        produced
    }

    /// Collect up to `n` addresses into a [`Trace`].
    fn take_trace(&mut self, n: usize) -> Trace
    where
        Self: Sized,
    {
        // Cap the eager reservation: callers may pass "effectively all"
        // bounds far larger than the stream will produce.
        let mut buf = Vec::with_capacity(n.min(1 << 20));
        self.fill(&mut buf, n);
        Trace::from_vec(buf)
    }
}

/// Stream over a borrowed slice (used to replay in-memory traces).
pub struct SliceStream<'a> {
    slice: &'a [Addr],
    pos: usize,
}

impl<'a> SliceStream<'a> {
    /// Stream the given addresses once, in order.
    pub fn new(slice: &'a [Addr]) -> Self {
        Self { slice, pos: 0 }
    }
}

impl AddressStream for SliceStream<'_> {
    fn next_addr(&mut self) -> Option<Addr> {
        let a = self.slice.get(self.pos).copied();
        self.pos += a.is_some() as usize;
        a
    }

    fn fill(&mut self, buf: &mut Vec<Addr>, n: usize) -> usize {
        let take = n.min(self.slice.len() - self.pos);
        buf.extend_from_slice(&self.slice[self.pos..self.pos + take]);
        self.pos += take;
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_matches_bytes() {
        let t = Trace::from_labels("dacb");
        assert_eq!(
            t.as_slice(),
            &[b'd' as u64, b'a' as u64, b'c' as u64, b'b' as u64]
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.distinct(), 4);
    }

    #[test]
    fn table1_trace_has_n10_m7() {
        let t = Trace::from_labels("dacbccgefa");
        assert_eq!(t.len(), 10);
        assert_eq!(t.distinct(), 7);
    }

    #[test]
    fn chunks_are_even_and_cover() {
        let t: Trace = (0..10u64).collect();
        let chunks = t.chunks(3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 4);
        assert_eq!(chunks[1].len(), 3);
        assert_eq!(chunks[2].len(), 3);
        let flat: Vec<u64> = chunks.concat();
        assert_eq!(flat, t.into_vec());
    }

    #[test]
    fn chunks_with_more_parts_than_items() {
        let t: Trace = (0..2u64).collect();
        let chunks = t.chunks(5);
        assert_eq!(
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
            vec![1, 1, 0, 0, 0]
        );
    }

    #[test]
    fn slice_stream_yields_all_then_none() {
        let data = [1u64, 2, 3];
        let mut s = SliceStream::new(&data);
        assert_eq!(s.next_addr(), Some(1));
        let mut buf = Vec::new();
        assert_eq!(s.fill(&mut buf, 10), 2);
        assert_eq!(buf, vec![2, 3]);
        assert_eq!(s.next_addr(), None);
        assert_eq!(s.fill(&mut buf, 10), 0);
    }

    #[test]
    fn take_trace_caps_at_stream_end() {
        let data = [7u64; 5];
        let mut s = SliceStream::new(&data);
        let t = s.take_trace(100);
        assert_eq!(t.len(), 5);
        assert_eq!(t.distinct(), 1);
    }
}
