//! Streaming decode of v2 framed traces.
//!
//! [`FramedStream`] turns a v2 trace file into an [`AddressStream`] without
//! ever materializing the whole trace: a reader thread walks the frames in
//! file order and hands each compressed payload to one of a small pool of
//! decoder threads; decoded frames flow back through a bounded channel and
//! are re-sequenced by the consumer. All channels are bounded, so the
//! pipeline is double-buffered rather than unbounded — while the analyzer
//! (e.g. `parda_phased`) chews on window *k*, the decoders are already
//! producing the frames of window *k+1*, and if the analyzer stalls, the
//! readers block instead of ballooning memory.
//!
//! This is the paper's "process traces as they are produced" pipeline
//! applied to decompression: decode bandwidth overlaps analysis instead of
//! preceding it.
//!
//! The reader thread only reads each frame and parses its inline header,
//! which must agree with the frame's index entry; the decoder threads run
//! the frame codec's check and decode (CRC, tag block, addresses), the
//! same code every other reader runs, so CRC work spreads over the pool.
//!
//! Corruption handling follows the stream's [`Degradation`] policy
//! ([`FramedStream::open_with_policy`]). Under `Strict` (the default) the
//! stream stops at the first bad frame and records the error in its
//! [`StreamErrorHandle`]. Under the lossy policies each corrupt frame —
//! CRC mismatch, short read, undecodable payload — is quarantined and the
//! stream continues with the next frame; the reader re-seeks to every
//! frame's indexed offset, so one bad frame never misaligns the rest of the
//! file. Skips are tallied in the shared [`RecoveryMetrics`]
//! ([`FramedStream::recovery_handle`]). A destroyed *footer* cannot be
//! streamed around (the index is what the pipeline seeks by); callers fall
//! back to [`crate::recover::decode_trace_recovering`] for that.

use crate::frame::{FrameError, FrameFormat, FrameHeader};
use crate::io::{eof_is_corruption, invalid, read_header_and_index, FrameIndexEntry};
use crate::recover::Degradation;
use crate::{Addr, AddressStream, Tid};
use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use parda_obs::{RecoveryMetrics, Stopwatch, StreamCounters};
use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Frames in flight per decoder: one being decoded plus one queued. Small
/// on purpose — bounded buffering is what makes the pipeline streaming.
const FRAMES_IN_FLIGHT_PER_DECODER: usize = 2;

/// Shared slot recording the first I/O error hit by the pipeline.
///
/// `parda_phased` consumes the stream by value, so a caller that wants to
/// distinguish "clean end of trace" from "stream died mid-file" keeps a
/// handle from [`FramedStream::error_handle`] and checks it afterwards.
#[derive(Clone, Default)]
pub struct StreamErrorHandle {
    slot: Arc<Mutex<Option<std::io::Error>>>,
}

impl StreamErrorHandle {
    fn set(&self, e: std::io::Error) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Take the recorded error, if any.
    pub fn take(&self) -> Option<std::io::Error> {
        self.slot.lock().unwrap().take()
    }
}

/// A decoded frame payload: the addresses plus, for v2.2 tagged files,
/// the per-reference thread IDs.
type FramePayload = std::io::Result<(Vec<Addr>, Vec<Tid>)>;

/// One decoded frame, keyed by sequence number.
type DecodedFrame = (u64, FramePayload);

/// Reader → decoder work item: sequence, inline header, payload.
type FrameJob = (u64, FrameHeader, Vec<u8>);

/// An [`AddressStream`] over a v2 trace file, decoded by background threads.
pub struct FramedStream {
    done_rx: Option<Receiver<DecodedFrame>>,
    pending: HashMap<u64, FramePayload>,
    next_seq: u64,
    nframes: u64,
    total_refs: u64,
    tagged: bool,
    current: Vec<Addr>,
    current_tids: Vec<Tid>,
    pos: usize,
    error: StreamErrorHandle,
    failed: bool,
    handles: Vec<JoinHandle<()>>,
    counters: Arc<StreamCounters>,
    policy: Degradation,
    /// Per-frame ref counts from the index, so a skipped frame's loss can
    /// be tallied without the frame.
    frame_counts: Vec<u32>,
    recovery: Arc<Mutex<RecoveryMetrics>>,
}

impl FramedStream {
    /// Open a v2 trace with a decoder pool sized from the machine
    /// ([`FramedStream::default_decoders`]).
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Self::open_with(path, Self::default_decoders())
    }

    /// The default decoder-pool size: the machine's available parallelism,
    /// between 1 and 8 threads.
    pub fn default_decoders() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)
    }

    /// Open a v2 trace with an explicit number of decoder threads.
    pub fn open_with<P: AsRef<Path>>(path: P, decoders: usize) -> std::io::Result<Self> {
        Self::open_with_policy(path, decoders, Degradation::Strict)
    }

    /// Open a v2 trace with an explicit decoder count and degradation
    /// policy. The header and footer index must be intact regardless of
    /// policy (the pipeline seeks by the index); per-frame corruption is
    /// skipped under the lossy policies.
    pub fn open_with_policy<P: AsRef<Path>>(
        path: P,
        decoders: usize,
        policy: Degradation,
    ) -> std::io::Result<Self> {
        let decoders = decoders.max(1);
        let mut file = File::open(path)?;
        let (header, entries) = read_header_and_index(&mut file)?;
        let nframes = entries.len() as u64;
        let total_refs = header.count;
        let fmt = header.frame_format();
        let frame_counts: Vec<u32> = entries.iter().map(|e| e.count).collect();
        let error = StreamErrorHandle::default();
        let recovery = Arc::new(Mutex::new(RecoveryMetrics {
            frames_total: nframes,
            ..Default::default()
        }));

        // Frame payloads travel reader → decoder i (round-robin), decoded
        // frames decoder → consumer; both legs bounded.
        let mut work_txs: Vec<Sender<FrameJob>> = Vec::with_capacity(decoders);
        let mut work_rxs: Vec<Receiver<FrameJob>> = Vec::with_capacity(decoders);
        for _ in 0..decoders {
            let (tx, rx) = bounded(FRAMES_IN_FLIGHT_PER_DECODER);
            work_txs.push(tx);
            work_rxs.push(rx);
        }
        let (done_tx, done_rx) = bounded(decoders * FRAMES_IN_FLIGHT_PER_DECODER + 1);
        let counters = Arc::new(StreamCounters::default());

        let mut handles = Vec::with_capacity(decoders + 1);
        for work_rx in work_rxs {
            let done_tx = done_tx.clone();
            let counters = counters.clone();
            let recovery = recovery.clone();
            handles.push(std::thread::spawn(move || {
                loop {
                    // Time spent waiting for the reader to hand over work:
                    // decoder starvation (the reader or the disk is the
                    // bottleneck).
                    let idle = Stopwatch::start();
                    let Ok((seq, h, payload)) = work_rx.recv() else {
                        return; // reader done; work channel closed
                    };
                    counters.decoder_idle_ns.add(idle.ns());

                    let sw = Stopwatch::start();
                    let mut addrs = vec![0 as Addr; h.count as usize];
                    let mut tids = Vec::new();
                    let decoded =
                        fmt.decode(h, &payload, &mut addrs, fmt.tagged.then_some(&mut tids));
                    if let Err(FrameError::Crc { .. }) = decoded {
                        lock_metrics(&recovery).crc_failures += 1;
                    }
                    #[allow(unused_mut)]
                    let mut result: FramePayload = match decoded {
                        Ok(()) => Ok((addrs, tids)),
                        Err(e) => Err(e.into()),
                    };
                    parda_failpoint::failpoint!(
                        "stream::decode",
                        result = Err(invalid("injected stream decode failure"))
                    );
                    counters.decode_ns.add(sw.ns());
                    if result.is_ok() {
                        counters.frames_decoded.incr();
                        counters.refs_decoded.add(u64::from(h.count));
                    }

                    // Hand the frame to the consumer; a full channel means
                    // analysis is the bottleneck and backpressure engages.
                    match done_tx.try_send((seq, result)) {
                        Ok(()) => {}
                        Err(TrySendError::Full(msg)) => {
                            counters.backpressure_stalls.incr();
                            let sw = Stopwatch::start();
                            if done_tx.send(msg).is_err() {
                                return; // consumer dropped; stop decoding
                            }
                            counters.backpressure_ns.add(sw.ns());
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            return; // consumer dropped; stop decoding
                        }
                    }
                }
            }));
        }

        handles.push(std::thread::spawn(move || {
            read_frames(&mut file, &entries, fmt, &work_txs, &done_tx);
        }));

        Ok(Self {
            done_rx: Some(done_rx),
            pending: HashMap::new(),
            next_seq: 0,
            nframes,
            total_refs,
            tagged: fmt.tagged,
            current: Vec::new(),
            current_tids: Vec::new(),
            pos: 0,
            error,
            failed: false,
            handles,
            counters,
            policy,
            frame_counts,
            recovery,
        })
    }

    /// Total references in the trace (from the validated header).
    pub fn len(&self) -> u64 {
        self.total_refs
    }

    /// `true` when the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.total_refs == 0
    }

    /// Number of frames in the file.
    pub fn frames(&self) -> u64 {
        self.nframes
    }

    /// `true` when the file carries thread tags (v2.2); only then do
    /// [`FramedStream::next_tagged`] and [`FramedStream::fill_tagged`]
    /// produce anything.
    pub fn tagged(&self) -> bool {
        self.tagged
    }

    /// Produce the next `(thread ID, address)` pair, or `None` at end of
    /// stream. Panics on an untagged stream — check
    /// [`FramedStream::tagged`] first.
    pub fn next_tagged(&mut self) -> Option<(Tid, Addr)> {
        assert!(self.tagged, "next_tagged on an untagged stream");
        loop {
            if let Some(&a) = self.current.get(self.pos) {
                let tid = self.current_tids[self.pos];
                self.pos += 1;
                return Some((tid, a));
            }
            if !self.advance_frame() {
                return None;
            }
        }
    }

    /// Append up to `n` references to the parallel `addrs`/`tids` buffers;
    /// returns how many were produced (less than `n` only at end of
    /// stream). Panics on an untagged stream.
    pub fn fill_tagged(&mut self, addrs: &mut Vec<Addr>, tids: &mut Vec<Tid>, n: usize) -> usize {
        assert!(self.tagged, "fill_tagged on an untagged stream");
        let mut produced = 0;
        while produced < n {
            if self.pos >= self.current.len() {
                if !self.advance_frame() {
                    break;
                }
                continue;
            }
            let take = (n - produced).min(self.current.len() - self.pos);
            addrs.extend_from_slice(&self.current[self.pos..self.pos + take]);
            tids.extend_from_slice(&self.current_tids[self.pos..self.pos + take]);
            self.pos += take;
            produced += take;
        }
        produced
    }

    /// Handle for checking, after analysis, whether the stream ended early
    /// because of an I/O or corruption error.
    pub fn error_handle(&self) -> StreamErrorHandle {
        self.error.clone()
    }

    /// Shared pipeline counters (frames decoded, decoder idle time,
    /// backpressure stalls). Snapshot after the analysis has consumed the
    /// stream — the same pattern as [`FramedStream::error_handle`], since
    /// `parda_phased` takes the stream by value.
    pub fn stats_handle(&self) -> Arc<StreamCounters> {
        self.counters.clone()
    }

    /// Shared recovery tally: frames skipped and references dropped by the
    /// lossy policies (plus CRC failures observed by the decoders).
    /// Snapshot after analysis, like [`FramedStream::stats_handle`].
    pub fn recovery_handle(&self) -> Arc<Mutex<RecoveryMetrics>> {
        self.recovery.clone()
    }

    /// Make the next decoded frame current, skipping quarantined frames
    /// under the lossy policies. Returns `false` at end of stream or on a
    /// fatal error (recorded in the error handle).
    fn advance_frame(&mut self) -> bool {
        while !self.failed && self.next_seq < self.nframes {
            let rx = self
                .done_rx
                .as_ref()
                .expect("receiver lives until the stream is dropped");
            let result = loop {
                if let Some(r) = self.pending.remove(&self.next_seq) {
                    break r;
                }
                let wait = Stopwatch::start();
                let received = rx.recv();
                self.counters.consumer_wait_ns.add(wait.ns());
                match received {
                    Ok((seq, r)) => {
                        if seq == self.next_seq {
                            break r;
                        }
                        self.pending.insert(seq, r);
                    }
                    Err(_) => {
                        break Err(invalid(
                            "trace decode pipeline stopped before the final frame",
                        ))
                    }
                }
            };
            match result {
                Ok((frame, tids)) => {
                    self.current = frame;
                    self.current_tids = tids;
                    self.pos = 0;
                    self.next_seq += 1;
                    return true;
                }
                Err(_) if self.policy.is_lossy() => {
                    // Quarantine this frame and move on. The reader seeks
                    // each frame independently, so later frames are
                    // unaffected by this one's corruption.
                    let seq = self.next_seq;
                    let refs = self
                        .frame_counts
                        .get(seq as usize)
                        .copied()
                        .unwrap_or_default();
                    lock_metrics(&self.recovery).skip_frame(seq, u64::from(refs));
                    self.next_seq += 1;
                }
                Err(e) => {
                    self.error.set(e);
                    self.failed = true;
                    return false;
                }
            }
        }
        false
    }
}

/// Poison-tolerant metrics lock: a decoder that panicked mid-update must
/// not wedge everyone else's tallies.
fn lock_metrics(m: &Mutex<RecoveryMetrics>) -> std::sync::MutexGuard<'_, RecoveryMetrics> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Reader-thread body: stream every frame's payload to the decoder pool in
/// round-robin order. Each frame is read at its indexed offset, so one
/// frame's short read or header damage cannot shift later frames; a broken
/// frame is surfaced to the consumer as that sequence number's error and
/// the reader moves on.
fn read_frames(
    file: &mut File,
    entries: &[FrameIndexEntry],
    fmt: FrameFormat,
    work_txs: &[Sender<FrameJob>],
    done_tx: &Sender<DecodedFrame>,
) {
    use std::io::{Seek, SeekFrom};
    for (i, entry) in entries.iter().enumerate() {
        let seq = i as u64;
        let read = (|| -> std::io::Result<(FrameHeader, Vec<u8>)> {
            parda_failpoint::failpoint!(
                "stream::read_frame",
                return Err(invalid("injected frame read failure"))
            );
            file.seek(SeekFrom::Start(entry.offset))?;
            let h = entry.check(fmt.read_header(file)?)?;
            let mut payload = vec![0u8; h.len as usize];
            file.read_exact(&mut payload)
                .map_err(|e| eof_is_corruption(e, "frame payload"))?;
            Ok((h, payload))
        })();
        match read {
            Ok((h, payload)) => {
                if work_txs[i % work_txs.len()]
                    .send((seq, h, payload))
                    .is_err()
                {
                    return; // consumer gone; quiet shutdown
                }
            }
            Err(e) => {
                if done_tx.send((seq, Err(e))).is_err() {
                    return; // consumer gone; quiet shutdown
                }
            }
        }
    }
}

impl AddressStream for FramedStream {
    fn next_addr(&mut self) -> Option<Addr> {
        loop {
            if let Some(&a) = self.current.get(self.pos) {
                self.pos += 1;
                return Some(a);
            }
            if !self.advance_frame() {
                return None;
            }
        }
    }

    fn fill(&mut self, buf: &mut Vec<Addr>, n: usize) -> usize {
        parda_failpoint::failpoint!("stream::fill");
        let mut produced = 0;
        while produced < n {
            if self.pos >= self.current.len() {
                if !self.advance_frame() {
                    break;
                }
                continue;
            }
            let take = (n - produced).min(self.current.len() - self.pos);
            buf.extend_from_slice(&self.current[self.pos..self.pos + take]);
            self.pos += take;
            produced += take;
        }
        produced
    }
}

impl Drop for FramedStream {
    fn drop(&mut self) {
        // Closing the done channel unblocks any decoder mid-send; decoders
        // exiting close the work channels, which unblocks the reader.
        self.done_rx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{save_trace, save_trace_v2, write_trace_v2_framed, Encoding};
    use crate::Trace;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("parda-trace-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn collect(mut s: FramedStream) -> Vec<Addr> {
        let mut out = Vec::new();
        while s.fill(&mut out, 1000) > 0 {}
        out
    }

    #[test]
    fn streams_all_frames_in_order() {
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            let t: Trace = (0..10_000u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9) >> 16)
                .collect();
            let path = tmp(&format!("ordered-{:?}.trc", encoding));
            let mut f = std::fs::File::create(&path).unwrap();
            write_trace_v2_framed(&mut f, &t, encoding, 512).unwrap();
            drop(f);
            let stream = FramedStream::open_with(&path, 3).unwrap();
            assert_eq!(stream.len(), 10_000);
            assert_eq!(stream.frames(), 20);
            let err = stream.error_handle();
            assert_eq!(collect(stream), t.as_slice());
            assert!(err.take().is_none());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn counters_account_for_every_frame() {
        let t: Trace = (0..8_000u64).map(|i| i * 7).collect();
        let path = tmp("counted.trc");
        let mut f = std::fs::File::create(&path).unwrap();
        write_trace_v2_framed(&mut f, &t, Encoding::DeltaVarint, 500).unwrap();
        drop(f);
        let stream = FramedStream::open_with(&path, 2).unwrap();
        let stats = stream.stats_handle();
        assert_eq!(collect(stream), t.as_slice());
        let snap = stats.snapshot();
        assert_eq!(snap.frames_decoded, 16, "8000 refs / 500-ref frames");
        assert_eq!(snap.refs_decoded, 8_000);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn next_addr_matches_fill() {
        let t: Trace = (0..999u64).map(|i| i * 3).collect();
        let path = tmp("next-addr.trc");
        let mut f = std::fs::File::create(&path).unwrap();
        write_trace_v2_framed(&mut f, &t, Encoding::DeltaVarint, 100).unwrap();
        drop(f);
        let mut s = FramedStream::open_with(&path, 2).unwrap();
        let mut out = Vec::new();
        while let Some(a) = s.next_addr() {
            out.push(a);
        }
        assert_eq!(out, t.as_slice());
        assert_eq!(s.next_addr(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trace_streams_nothing() {
        let path = tmp("empty.trc");
        save_trace_v2(&path, &Trace::new(), Encoding::DeltaVarint).unwrap();
        let mut s = FramedStream::open(&path).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.next_addr(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_v1_traces() {
        let path = tmp("v1.trc");
        save_trace(&path, &Trace::from_vec(vec![1, 2, 3]), Encoding::Raw).unwrap();
        assert!(FramedStream::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// Byte offset of frame `i`'s payload, read from the footer index.
    fn frame_payload_offset(bytes: &[u8], frame: usize) -> usize {
        let header = crate::io::parse_header(bytes).unwrap();
        let entries = crate::io::parse_footer(bytes, &header).unwrap();
        entries[frame].offset as usize + header.frame_format().header_len()
    }

    #[test]
    fn corrupt_frame_stops_stream_and_records_error() {
        let t: Trace = (0..1000u64).collect();
        let path = tmp("corrupt.trc");
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 100).unwrap();
        // Flip a byte inside the 6th frame's payload so its CRC fails.
        let poke = frame_payload_offset(&buf, 5) + 40;
        buf[poke] ^= 0x80;
        std::fs::write(&path, &buf).unwrap();
        let s = FramedStream::open_with(&path, 2).unwrap();
        let err = s.error_handle();
        let got = collect(s);
        // Everything before the corrupt frame arrives intact, nothing after.
        assert!(got.len() <= 500, "stream must stop at the corrupt frame");
        assert_eq!(got.as_slice(), &t.as_slice()[..got.len()]);
        assert!(err.take().is_some(), "error handle must record the failure");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lossy_policy_skips_corrupt_frame_and_continues() {
        let t: Trace = (0..1000u64).collect();
        let path = tmp("lossy.trc");
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 100).unwrap();
        let poke = frame_payload_offset(&buf, 5) + 40;
        buf[poke] ^= 0x80;
        std::fs::write(&path, &buf).unwrap();
        for policy in [crate::Degradation::Repair, crate::Degradation::BestEffort] {
            let s = FramedStream::open_with_policy(&path, 2, policy).unwrap();
            let err = s.error_handle();
            let recovery = s.recovery_handle();
            let got = collect(s);
            // Frame 5 (refs 500..600) is quarantined; everything else flows.
            let mut expect: Vec<u64> = t.as_slice()[..500].to_vec();
            expect.extend_from_slice(&t.as_slice()[600..]);
            assert_eq!(got.as_slice(), expect.as_slice());
            assert!(err.take().is_none(), "lossy skip is not a stream error");
            let m = recovery.lock().unwrap();
            assert_eq!(m.frames_skipped, 1);
            assert_eq!(m.refs_dropped, 100);
            assert_eq!(m.crc_failures, 1);
            assert_eq!(m.skipped_frames, vec![5]);
            assert_eq!(m.frames_total, 10);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v20_decode_failure_is_skipped_under_repair() {
        // Pre-checksum v2.0 file: corruption is caught by decode validation
        // rather than a CRC, and the lossy stream still quarantines just
        // that frame.
        let t: Trace = (0..1000u64).collect();
        let path = tmp("v20-lossy.trc");
        let mut buf = Vec::new();
        crate::io::write_trace_v2_framed_opts(&mut buf, &t, Encoding::DeltaVarint, 100, false)
            .unwrap();
        // A dangling continuation bit on frame 9's final varint byte is
        // guaranteed undecodable.
        let header = crate::io::parse_header(&buf).unwrap();
        let entries = crate::io::parse_footer(&buf, &header).unwrap();
        let e = entries[9];
        let poke = e.offset as usize + header.frame_format().header_len() + e.len as usize - 1;
        buf[poke] = 0x80;
        std::fs::write(&path, &buf).unwrap();

        let s = FramedStream::open_with_policy(&path, 2, crate::Degradation::Repair).unwrap();
        let recovery = s.recovery_handle();
        let got = collect(s);
        assert_eq!(got.as_slice(), &t.as_slice()[..900]);
        let m = recovery.lock().unwrap();
        assert_eq!(m.frames_skipped, 1);
        assert_eq!(m.skipped_frames, vec![9]);
        assert_eq!(m.crc_failures, 0, "v2.0 files have no CRCs to fail");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tagged_stream_yields_tids_and_plain_addrs() {
        let n = 5000u64;
        let t = crate::ThreadedTrace::from_parts(
            (0..n).map(|i| i.wrapping_mul(0x9E37_79B9) >> 16).collect(),
            (0..n).map(|i| (i % 6) as Tid).collect(),
        );
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            let path = tmp(&format!("tagged-{encoding:?}.trc"));
            crate::io::save_tagged_trace_v2(&path, &t, encoding).unwrap();

            // Tagged consumption recovers both parallel streams.
            let mut s = FramedStream::open_with(&path, 3).unwrap();
            assert!(s.tagged());
            let (mut addrs, mut tids) = (Vec::new(), Vec::new());
            while s.fill_tagged(&mut addrs, &mut tids, 700) > 0 {}
            assert_eq!(addrs.as_slice(), t.addrs());
            assert_eq!(tids.as_slice(), t.tids());

            // Untagged consumers see the plain interleaved address stream.
            let s = FramedStream::open_with(&path, 3).unwrap();
            assert_eq!(collect(s), t.addrs());

            // next_tagged agrees with fill_tagged.
            let mut s = FramedStream::open_with(&path, 2).unwrap();
            let mut pairs = Vec::new();
            while let Some(p) = s.next_tagged() {
                pairs.push(p);
            }
            assert_eq!(pairs.len(), n as usize);
            assert_eq!(pairs[7], (t.tids()[7], t.addrs()[7]));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn untagged_stream_reports_not_tagged() {
        let path = tmp("untagged-flag.trc");
        save_trace_v2(&path, &Trace::from_vec(vec![1, 2, 3]), Encoding::Raw).unwrap();
        let s = FramedStream::open(&path).unwrap();
        assert!(!s.tagged());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dropping_mid_stream_does_not_hang() {
        let t: Trace = (0..50_000u64).collect();
        let path = tmp("dropped.trc");
        let mut f = std::fs::File::create(&path).unwrap();
        write_trace_v2_framed(&mut f, &t, Encoding::Raw, 256).unwrap();
        drop(f);
        let mut s = FramedStream::open_with(&path, 2).unwrap();
        assert_eq!(s.next_addr(), Some(0));
        drop(s); // must join cleanly with most frames unread
        std::fs::remove_file(&path).unwrap();
    }
}
