//! Corruption recovery for trace files: degradation policies, the lossy
//! frame decoder, the post-footer resync scan, and CRC verification.
//!
//! The streaming pipeline is pitched at traces fed from real systems, and
//! real telemetry is dirty: bit flips in transit, truncated uploads, torn
//! writes. The strict decoders in [`crate::io`] fail the whole file on the
//! first bad byte; this module trades completeness for availability under
//! an explicit [`Degradation`] policy:
//!
//! * [`Degradation::Strict`] — any integrity violation is an error
//!   (the default; identical behaviour to [`crate::io::decode_trace`]);
//! * [`Degradation::Repair`] — the header and footer index must be intact,
//!   but corrupt *frames* (CRC mismatch, undecodable payload) are
//!   quarantined and skipped, and the surviving frames are returned;
//! * [`Degradation::BestEffort`] — additionally survives a destroyed
//!   footer by scanning the byte stream for plausible frame headers
//!   (CRC-confirmed on v2.1 files) and never fails once a readable file
//!   header was found.
//!
//! Every skipped frame, dropped reference, CRC failure, and resync is
//! tallied in a [`RecoveryMetrics`] so callers can report exactly what was
//! lost — a partial histogram with an honest corruption report instead of
//! no histogram at all.
//!
//! Every path here checks and decodes frames with the frame codec the
//! strict readers use (`frame.rs`), so the lossy walk and the resync scan
//! keep exactly the frames a strict reader accepts and drop the rest
//! whole; the codec's typed error says when a drop was a CRC failure.

use crate::frame::{decode_varint_slice, zigzag_decode, FrameError};
use crate::io::{
    decode_frames, indexed_frame, invalid, parse_footer, parse_header, read_trace, Encoding,
    FrameIndexEntry, TraceHeader, HEADER_LEN, VERSION_V2,
};
use crate::{Addr, ThreadedTrace, Tid, Trace};
use parda_obs::RecoveryMetrics;
use std::io;
use std::path::Path;
use std::str::FromStr;

/// How much integrity loss an analysis is willing to absorb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Degradation {
    /// Fail on the first integrity violation (default).
    #[default]
    Strict,
    /// Skip corrupt frames; header and footer index must be intact.
    Repair,
    /// Skip corrupt frames and resync around a destroyed footer; never
    /// fail once the file header has been read.
    BestEffort,
}

impl Degradation {
    /// `true` when corrupt frames may be dropped rather than failing.
    pub fn is_lossy(self) -> bool {
        !matches!(self, Degradation::Strict)
    }
}

impl FromStr for Degradation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(Degradation::Strict),
            "repair" => Ok(Degradation::Repair),
            "best-effort" | "besteffort" => Ok(Degradation::BestEffort),
            other => Err(format!(
                "unknown degradation policy {other:?} (expected strict, repair, or best-effort)"
            )),
        }
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Degradation::Strict => "strict",
            Degradation::Repair => "repair",
            Degradation::BestEffort => "best-effort",
        })
    }
}

/// Decode an in-memory trace image under a degradation policy.
///
/// Under [`Degradation::Strict`] this is exactly [`crate::io::decode_trace`]
/// (including the parallel v2 frame path) plus an all-clean metrics record.
/// Under the lossy policies, corrupt frames are skipped and tallied; the
/// returned trace is the in-order concatenation of the surviving frames.
pub fn decode_trace_recovering(
    bytes: &[u8],
    policy: Degradation,
) -> io::Result<(Trace, RecoveryMetrics)> {
    recover(bytes, policy, None).map(|(addrs, metrics)| (Trace::from_vec(addrs), metrics))
}

/// Decode an in-memory v2.2 thread-tagged image under a degradation
/// policy, recovering addresses and thread IDs together. Frames whose tag
/// block or address block fail to decode are skipped as a unit, so the two
/// streams can never fall out of step.
pub fn decode_tagged_trace_recovering(
    bytes: &[u8],
    policy: Degradation,
) -> io::Result<(ThreadedTrace, RecoveryMetrics)> {
    let mut tids = Vec::new();
    let (addrs, metrics) = recover(bytes, policy, Some(&mut tids))?;
    Ok((ThreadedTrace::from_parts(addrs, tids), metrics))
}

/// [`decode_trace_recovering`], keeping a v2.2 image's thread IDs in
/// `tids`.
fn recover(
    bytes: &[u8],
    policy: Degradation,
    tids: Option<&mut Vec<Tid>>,
) -> io::Result<(Vec<Addr>, RecoveryMetrics)> {
    let header = parse_header(bytes)?;
    header.require_tags(tids.is_some())?;
    let mut metrics = RecoveryMetrics::default();

    if header.version != VERSION_V2 {
        // v1 has no frame structure to recover around: decode whole, and
        // under BestEffort salvage the longest decodable prefix.
        return match read_trace(bytes) {
            Ok(t) => Ok((t.into_vec(), metrics)),
            Err(_) if policy == Degradation::BestEffort => {
                let addrs = salvage_v1_prefix(bytes, &header);
                metrics.refs_dropped = header.count.saturating_sub(addrs.len() as u64);
                metrics.resyncs = 1;
                Ok((addrs, metrics))
            }
            Err(e) => Err(e),
        };
    }

    match parse_footer(bytes, &header) {
        Ok(entries) => {
            metrics.frames_total = entries.len() as u64;
            let addrs = if policy == Degradation::Strict {
                decode_frames(bytes, &header, &entries, tids)?
            } else {
                lossy_walk(bytes, &header, &entries, &mut metrics, tids)
            };
            Ok((addrs, metrics))
        }
        Err(_) if policy == Degradation::BestEffort => {
            metrics.resyncs = 1;
            let addrs = resync_scan(bytes, &header, &mut metrics, tids);
            metrics.refs_dropped = header.count.saturating_sub(addrs.len() as u64);
            Ok((addrs, metrics))
        }
        Err(e) => Err(e),
    }
}

/// Walk an intact footer index, decoding every frame that passes its
/// integrity checks and skipping (with a metrics tally) the ones that
/// don't. When `tids` is given the file's thread IDs are kept alongside
/// the addresses.
fn lossy_walk(
    bytes: &[u8],
    header: &TraceHeader,
    entries: &[FrameIndexEntry],
    metrics: &mut RecoveryMetrics,
    mut tids: Option<&mut Vec<Tid>>,
) -> Vec<Addr> {
    let fmt = header.frame_format();
    let mut out: Vec<Addr> = Vec::new();
    let mut frame_tids: Vec<Tid> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let start = out.len();
        out.resize(start + e.count as usize, 0);
        let decoded = indexed_frame(bytes, fmt, e).and_then(|(h, payload)| {
            let keep = tids.is_some().then_some(&mut frame_tids);
            fmt.decode(h, payload, &mut out[start..], keep)
        });
        match decoded {
            Ok(()) => {
                if let Some(ts) = tids.as_deref_mut() {
                    ts.extend_from_slice(&frame_tids);
                }
            }
            Err(err) => {
                out.truncate(start);
                if matches!(err, FrameError::Crc { .. }) {
                    metrics.crc_failures += 1;
                }
                metrics.skip_frame(i as u64, u64::from(e.count));
            }
        }
    }
    out
}

/// Load a trace from a path under a degradation policy.
pub fn load_trace_recovering<P: AsRef<Path>>(
    path: P,
    policy: Degradation,
) -> io::Result<(Trace, RecoveryMetrics)> {
    decode_trace_recovering(&std::fs::read(path)?, policy)
}

/// Longest decodable v1 prefix: raw traces keep every complete word, delta
/// traces keep everything up to the first broken varint.
fn salvage_v1_prefix(bytes: &[u8], header: &TraceHeader) -> Vec<Addr> {
    let body = &bytes[HEADER_LEN as usize..];
    let count = header.count as usize;
    let mut out: Vec<Addr> = Vec::new();
    match header.encoding {
        Encoding::Raw => {
            for chunk in body.chunks_exact(8).take(count) {
                out.push(u64::from_le_bytes(chunk.try_into().unwrap()));
            }
        }
        Encoding::DeltaVarint => {
            let mut pos = 0;
            let mut prev: Addr = 0;
            while out.len() < count {
                let Ok(v) = decode_varint_slice(body, &mut pos) else {
                    break;
                };
                prev = prev.wrapping_add(zigzag_decode(v) as u64);
                out.push(prev);
            }
        }
    }
    out
}

/// Scan a v2 byte stream for decodable frames after the footer index was
/// lost. At each candidate offset the inline header is shape-checked, the
/// payload CRC-verified (v2.1) and decoded; a hit emits the frame and jumps
/// past it, a miss advances one byte. Gaps between hits are counted as
/// resyncs. On checksummed files a false positive needs a 1-in-2^32 CRC
/// collision *and* a plausible header, so quarantined bytes (including the
/// dead footer) are skipped reliably.
fn resync_scan(
    bytes: &[u8],
    header: &TraceHeader,
    metrics: &mut RecoveryMetrics,
    mut tids: Option<&mut Vec<Tid>>,
) -> Vec<Addr> {
    let fmt = header.frame_format();
    let mut out: Vec<Addr> = Vec::new();
    let mut frame_tids: Vec<Tid> = Vec::new();
    let mut at = HEADER_LEN as usize;
    let mut aligned = true;
    let mut frame_idx = 0u64;
    while let Ok(h) = fmt.parse_header(&bytes[at..]) {
        let end = at + fmt.header_len() + h.len as usize;
        let plausible = fmt.check_shape(h.count, h.len).is_ok()
            && u64::from(h.count) <= header.count
            && end <= bytes.len();
        if plausible {
            let start = out.len();
            out.resize(start + h.count as usize, 0);
            let payload = &bytes[at + fmt.header_len()..end];
            let keep = tids.is_some().then_some(&mut frame_tids);
            if fmt.decode(h, payload, &mut out[start..], keep).is_ok() {
                if let Some(ts) = tids.as_deref_mut() {
                    ts.extend_from_slice(&frame_tids);
                }
                if !aligned {
                    metrics.resyncs += 1;
                    aligned = true;
                }
                frame_idx += 1;
                at = end;
                continue;
            }
            out.truncate(start);
        }
        if aligned {
            metrics.skip_frame(frame_idx, 0);
            frame_idx += 1;
            aligned = false;
        }
        at += 1;
    }
    out
}

/// Result of a full-file integrity check ([`verify_trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Major format version.
    pub version: u32,
    /// Minor format version (1 = CRC-checksummed frames, 2 = thread-tagged).
    pub minor: u32,
    /// Frames verified (0 for v1: the format has no frames).
    pub frames: u64,
    /// References covered by the verified frames.
    pub refs: u64,
    /// `true` when the frames carry stored CRC32C checksums (v2.1 on);
    /// every frame is decoded either way.
    pub checksummed: bool,
    /// `true` when frames carry thread-ID tag blocks (v2.2).
    pub tagged: bool,
}

/// Verify the integrity of every frame in a trace file without running any
/// analysis: the footer index (and its CRC on v2.1 files), then every
/// frame through the same checks and decode the readers run (stored CRC
/// first, where the file has one). The first violation is returned as
/// `InvalidData` naming the offending frame.
pub fn verify_trace<P: AsRef<Path>>(path: P) -> io::Result<VerifyReport> {
    let bytes = std::fs::read(path)?;
    let header = parse_header(&bytes)?;
    let (frames, refs) = if header.version == VERSION_V2 {
        let entries = parse_footer(&bytes, &header)?;
        let fmt = header.frame_format();
        let mut addrs = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            addrs.clear();
            addrs.resize(e.count as usize, 0);
            indexed_frame(&bytes, fmt, e)
                .and_then(|(h, payload)| fmt.decode(h, payload, &mut addrs, None))
                .map_err(|err| invalid(format!("frame {i}: {err}")))?;
        }
        (entries.len() as u64, header.count)
    } else {
        (0, read_trace(bytes.as_slice())?.len() as u64)
    };
    Ok(VerifyReport {
        version: header.version,
        minor: header.minor,
        frames,
        refs,
        checksummed: header.checksummed(),
        tagged: header.tagged(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_trace_v2_framed, write_trace_v2_framed_opts, Encoding};

    fn sample(n: u64) -> Trace {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9) >> 13).collect()
    }

    /// Byte offset of frame `i`'s payload in a freshly written v2.1 file.
    fn frame_payload_offset(bytes: &[u8], frame: usize) -> usize {
        let header = parse_header(bytes).unwrap();
        let entries = parse_footer(bytes, &header).unwrap();
        entries[frame].offset as usize + header.frame_format().header_len()
    }

    #[test]
    fn degradation_parses_and_displays() {
        for (s, d) in [
            ("strict", Degradation::Strict),
            ("repair", Degradation::Repair),
            ("best-effort", Degradation::BestEffort),
        ] {
            assert_eq!(s.parse::<Degradation>().unwrap(), d);
            assert_eq!(d.to_string(), s);
        }
        assert!("lenient".parse::<Degradation>().is_err());
        assert!(!Degradation::Strict.is_lossy());
        assert!(Degradation::BestEffort.is_lossy());
    }

    #[test]
    fn clean_file_recovers_identically_under_every_policy() {
        let t = sample(1000);
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 64).unwrap();
        for policy in [
            Degradation::Strict,
            Degradation::Repair,
            Degradation::BestEffort,
        ] {
            let (got, m) = decode_trace_recovering(&buf, policy).unwrap();
            assert_eq!(got, t, "{policy}");
            assert!(m.is_clean(), "{policy}: {m:?}");
        }
    }

    #[test]
    fn corrupt_frame_is_skipped_under_lossy_policies() {
        let t = sample(640);
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 64).unwrap();
        let poke = frame_payload_offset(&buf, 3) + 10;
        buf[poke] ^= 0xFF;

        assert!(decode_trace_recovering(&buf, Degradation::Strict).is_err());

        for policy in [Degradation::Repair, Degradation::BestEffort] {
            let (got, m) = decode_trace_recovering(&buf, policy).unwrap();
            // Exactly frame 3 (refs 192..256) is gone.
            let mut expect: Vec<u64> = t.as_slice()[..192].to_vec();
            expect.extend_from_slice(&t.as_slice()[256..]);
            assert_eq!(got.as_slice(), expect.as_slice(), "{policy}");
            assert_eq!(m.frames_skipped, 1);
            assert_eq!(m.refs_dropped, 64);
            assert_eq!(m.crc_failures, 1);
            assert_eq!(m.skipped_frames, vec![3]);
            assert_eq!(m.frames_total, 10);
        }
    }

    #[test]
    fn destroyed_footer_resyncs_under_best_effort_only() {
        let t = sample(640);
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 64).unwrap();
        let n = buf.len();
        buf[n - 8..].copy_from_slice(b"XXXXXXXX"); // kill the index magic

        assert!(decode_trace_recovering(&buf, Degradation::Strict).is_err());
        assert!(decode_trace_recovering(&buf, Degradation::Repair).is_err());

        let (got, m) = decode_trace_recovering(&buf, Degradation::BestEffort).unwrap();
        assert_eq!(got, t, "resync must recover every frame");
        assert!(m.resyncs >= 1);
    }

    #[test]
    fn resync_skips_a_corrupt_frame_and_realigns() {
        let t = sample(640);
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 64).unwrap();
        let poke = frame_payload_offset(&buf, 2) + 5;
        buf[poke] ^= 0x55;
        let n = buf.len();
        buf[n - 1] = b'!';

        let (got, m) = decode_trace_recovering(&buf, Degradation::BestEffort).unwrap();
        let mut expect: Vec<u64> = t.as_slice()[..128].to_vec();
        expect.extend_from_slice(&t.as_slice()[192..]);
        assert_eq!(got.as_slice(), expect.as_slice());
        assert!(m.resyncs >= 1);
        assert_eq!(m.refs_dropped, 64);
    }

    #[test]
    fn truncated_file_yields_prefix_under_best_effort() {
        let t = sample(640);
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::Raw, 64).unwrap();
        buf.truncate(buf.len() / 2);
        let (got, m) = decode_trace_recovering(&buf, Degradation::BestEffort).unwrap();
        assert!(!got.is_empty(), "some whole frames fit in half the file");
        assert_eq!(got.as_slice(), &t.as_slice()[..got.len()]);
        assert!(m.refs_dropped > 0);
    }

    #[test]
    fn v1_best_effort_salvages_prefix() {
        let t = sample(100);
        let mut buf = Vec::new();
        crate::io::write_trace(&mut buf, &t, Encoding::Raw).unwrap();
        buf.truncate(buf.len() - 12); // lose the last ref and a half
        assert!(decode_trace_recovering(&buf, Degradation::Strict).is_err());
        let (got, m) = decode_trace_recovering(&buf, Degradation::BestEffort).unwrap();
        assert_eq!(got.len(), 98);
        assert_eq!(got.as_slice(), &t.as_slice()[..98]);
        assert_eq!(m.refs_dropped, 2);
    }

    #[test]
    fn verify_passes_clean_and_names_bad_frame() {
        let dir = std::env::temp_dir().join("parda-trace-verify-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.trc");
        let t = sample(640);
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 64).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let report = verify_trace(&path).unwrap();
        assert_eq!(report.frames, 10);
        assert_eq!(report.refs, 640);
        assert!(report.checksummed);
        assert_eq!((report.version, report.minor), (2, 1));

        let poke = frame_payload_offset(&buf, 7) + 3;
        buf[poke] ^= 0x01;
        std::fs::write(&path, &buf).unwrap();
        let err = verify_trace(&path).unwrap_err();
        assert!(err.to_string().contains("frame 7"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_falls_back_to_decode_for_v20_files() {
        let dir = std::env::temp_dir().join("parda-trace-verify-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v20.trc");
        let t = sample(200);
        let mut buf = Vec::new();
        write_trace_v2_framed_opts(&mut buf, &t, Encoding::DeltaVarint, 64, false).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let report = verify_trace(&path).unwrap();
        assert!(!report.checksummed);
        assert_eq!((report.version, report.minor), (2, 0));
        assert_eq!(report.refs, 200);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v20_files_recover_without_crc_counters() {
        let t = sample(320);
        let mut buf = Vec::new();
        write_trace_v2_framed_opts(&mut buf, &t, Encoding::DeltaVarint, 64, false).unwrap();
        let (clean, m) = decode_trace_recovering(&buf, Degradation::Repair).unwrap();
        assert_eq!(clean, t);
        assert!(m.is_clean());
        // A flipped payload byte still dies in decode validation (no CRC),
        // so the frame is skipped with crc_failures staying zero.
        let header = parse_header(&buf).unwrap();
        let entries = parse_footer(&buf, &header).unwrap();
        // A dangling continuation bit on the frame's final varint byte is
        // guaranteed undecodable regardless of the surrounding data.
        let poke = entries[1].offset as usize + 8 + entries[1].len as usize - 1;
        buf[poke] = 0x80;
        let (got, m) = decode_trace_recovering(&buf, Degradation::Repair).unwrap();
        assert!(got.len() < t.len());
        assert_eq!(m.crc_failures, 0);
        assert!(m.frames_skipped >= 1);
    }

    fn tagged_sample(n: u64, threads: u32) -> ThreadedTrace {
        ThreadedTrace::from_parts(
            (0..n).map(|i| i.wrapping_mul(0x9E37_79B9) >> 13).collect(),
            (0..n).map(|i| (i % u64::from(threads)) as Tid).collect(),
        )
    }

    #[test]
    fn tagged_corrupt_frame_skips_addrs_and_tids_together() {
        let t = tagged_sample(640, 4);
        let mut buf = Vec::new();
        crate::io::write_tagged_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 64).unwrap();
        let poke = frame_payload_offset(&buf, 3) + 10;
        buf[poke] ^= 0xFF;

        assert!(decode_tagged_trace_recovering(&buf, Degradation::Strict).is_err());
        let (got, m) = decode_tagged_trace_recovering(&buf, Degradation::Repair).unwrap();
        // Exactly frame 3 (refs 192..256) is gone, from both streams.
        let mut want_addrs: Vec<u64> = t.addrs()[..192].to_vec();
        want_addrs.extend_from_slice(&t.addrs()[256..]);
        let mut want_tids: Vec<Tid> = t.tids()[..192].to_vec();
        want_tids.extend_from_slice(&t.tids()[256..]);
        assert_eq!(got.addrs(), want_addrs.as_slice());
        assert_eq!(got.tids(), want_tids.as_slice());
        assert_eq!(m.frames_skipped, 1);
        assert_eq!(m.refs_dropped, 64);
    }

    #[test]
    fn tagged_destroyed_footer_resyncs_with_tids() {
        let t = tagged_sample(640, 3);
        let mut buf = Vec::new();
        crate::io::write_tagged_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 64).unwrap();
        let n = buf.len();
        buf[n - 8..].copy_from_slice(b"XXXXXXXX");

        let (got, m) = decode_tagged_trace_recovering(&buf, Degradation::BestEffort).unwrap();
        assert_eq!(got, t, "resync must recover every tagged frame");
        assert!(m.resyncs >= 1);
    }

    #[test]
    fn tagged_recovery_rejects_untagged_files() {
        let t = sample(100);
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::Raw, 32).unwrap();
        assert!(decode_tagged_trace_recovering(&buf, Degradation::BestEffort).is_err());
    }

    #[test]
    fn verify_reports_tagged_flag() {
        let dir = std::env::temp_dir().join("parda-trace-verify-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tagged.trc");
        let t = tagged_sample(200, 2);
        crate::io::save_tagged_trace_v2(&path, &t, Encoding::DeltaVarint).unwrap();
        let report = verify_trace(&path).unwrap();
        assert!(report.tagged);
        assert!(report.checksummed);
        assert_eq!((report.version, report.minor), (2, 2));
        assert_eq!(report.refs, 200);
        std::fs::remove_file(&path).unwrap();
    }
}
