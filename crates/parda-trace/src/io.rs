//! Binary trace file formats.
//!
//! The paper streams traces through a pipe rather than storing them ("traces
//! stored for offline analysis can easily contain 100 billion references"),
//! but a file format is still needed for reproducible experiments and the
//! CLI. Both versions share a 24-byte header:
//!
//! ```text
//! magic   8 bytes  "PARDATRC"
//! version u32 LE   major | minor << 16  (1.0, 2.0, 2.1 or 2.2)
//! encoding u32 LE  0 = raw u64 LE addresses, 1 = zig-zag delta varint
//! count   u64 LE   number of references
//! ```
//!
//! **Version 1** follows the header with one flat payload: either `count`
//! little-endian u64 words, or a single delta-varint stream. The
//! varint-delta encoding exploits spatial locality: consecutive addresses in
//! real traces are near each other, so deltas are small and most references
//! cost 1–2 bytes instead of 8.
//!
//! **Version 2** splits the payload into independently decodable *frames* of
//! [`FRAME_REFS`] references, and a seekable index closes the file:
//!
//! ```text
//! frames  inline header | payload                     (repeated)
//! index   offset u64 | count u32 | len u32            (one entry per frame)
//! [index crc32c u32]                                  (v2.1 on)
//! nframes u64 LE
//! magic   8 bytes  "PARDAIDX"
//! ```
//!
//! The minor version picks the frame layout: v2.0 frames carry
//! `count | len`, v2.1 adds a CRC32C of the payload (and the index CRC),
//! and v2.2 opens every payload with a thread-ID tag block. One frame
//! codec (`frame.rs`) is the only code that lays out, parses, checks or
//! decodes a frame; every reader and writer here, the recovery layer in
//! [`crate::recover`], [`crate::stream::FramedStream`] and the daemon's
//! DATA messages ([`encode_inline_frame`], [`decode_inline_frame`]) go
//! through it. v2.0 and v2.1 files stay readable, and address-only
//! readers ([`read_trace`], [`decode_trace`], the stream) accept v2.2
//! files by checking and skipping the tag blocks; [`load_tagged_trace`]
//! keeps them.
//!
//! The index is found from the file's last 16 bytes (20 with the index
//! CRC), which makes two fast paths possible: [`decode_trace`] decodes
//! all frames of an in-memory v2 image in parallel, and
//! [`crate::stream::FramedStream`] decodes frames on background threads
//! while an analyzer consumes earlier ones.

use crate::frame::{zigzag_decode, zigzag_encode, FrameFormat, FrameHeader};
use crate::{Addr, ThreadedTrace, Tid, Trace};
use rayon::prelude::*;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

pub use crate::frame::{decode_inline_frame, encode_inline_frame, FrameError};

pub(crate) const MAGIC: &[u8; 8] = b"PARDATRC";
const VERSION: u32 = 1;
pub(crate) const VERSION_V2: u32 = 2;
/// v2 minor that added the per-frame and footer-index CRC32C checksums.
pub(crate) const V2_MINOR_CRC: u32 = 1;
/// v2 minor that added per-frame thread-ID tag blocks (implies checksums).
/// This is the highest v2 minor this reader understands.
pub(crate) const V2_MINOR_TID: u32 = 2;
const FOOTER_MAGIC: &[u8; 8] = b"PARDAIDX";

/// References per v2 frame: big enough that per-frame overhead (inline
/// header, one absolute-address varint) vanishes, small enough that a 10M
/// reference trace still fans out over ~150 frames.
pub const FRAME_REFS: usize = 65_536;

/// Fixed file header: magic + version + encoding + count.
pub(crate) const HEADER_LEN: u64 = 24;
/// Footer index entry: offset u64 + count u32 + len u32.
pub(crate) const INDEX_ENTRY_LEN: u64 = 16;
/// Cap for `Vec::with_capacity` from untrusted header counts.
const PREALLOC_CAP: usize = 1 << 22;

pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A payload cut off mid-value is corrupt data, not a clean end-of-stream.
pub(crate) fn eof_is_corruption(e: io::Error, what: &str) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        invalid(format!("truncated {what}"))
    } else {
        e
    }
}

/// Payload encoding selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// Fixed-width little-endian u64 per address.
    Raw,
    /// Zig-zag delta + LEB128 varint per address.
    DeltaVarint,
}

impl Encoding {
    fn to_u32(self) -> u32 {
        match self {
            Encoding::Raw => 0,
            Encoding::DeltaVarint => 1,
        }
    }

    fn from_u32(v: u32) -> io::Result<Self> {
        match v {
            0 => Ok(Encoding::Raw),
            1 => Ok(Encoding::DeltaVarint),
            other => Err(invalid(format!("unknown trace encoding {other}"))),
        }
    }
}

fn write_varint<W: Write>(mut w: W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Read one LEB128 varint. A u64 needs at most 10 bytes and the 10th byte
/// can only contribute the top bit, so anything longer or larger is
/// rejected as `InvalidData` rather than silently truncated; EOF inside a
/// value is reported as `InvalidData` too.
fn read_varint<R: Read>(mut r: R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte).map_err(|e| {
            if shift > 0 {
                eof_is_corruption(e, "varint")
            } else {
                e
            }
        })?;
        let b = byte[0];
        if shift == 63 && (b & 0x7f) > 1 {
            return Err(invalid("varint overflows 64 bits"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(invalid("varint longer than 10 bytes"));
        }
    }
}

/// Serialize a trace to a writer in format v1.
pub fn write_trace<W: Write>(w: W, trace: &Trace, encoding: Encoding) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(&TraceHeader::new(VERSION, 0, encoding, trace.len()).to_bytes())?;
    match encoding {
        Encoding::Raw => {
            for &a in trace.as_slice() {
                w.write_all(&a.to_le_bytes())?;
            }
        }
        Encoding::DeltaVarint => {
            let mut prev: Addr = 0;
            for &a in trace.as_slice() {
                let delta = a.wrapping_sub(prev) as i64;
                write_varint(&mut w, zigzag_encode(delta))?;
                prev = a;
            }
        }
    }
    w.flush()
}

/// Location and size of one v2 frame, as recorded in the footer index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FrameIndexEntry {
    /// File offset of the frame's inline header.
    pub offset: u64,
    /// References in the frame.
    pub count: u32,
    /// Encoded payload bytes (excluding the inline header).
    pub len: u32,
}

impl FrameIndexEntry {
    /// The inline header found at this entry's offset, if it agrees with
    /// the entry.
    pub(crate) fn check(&self, h: FrameHeader) -> Result<FrameHeader, FrameError> {
        if (h.count, h.len) == (self.count, self.len) {
            Ok(h)
        } else {
            Err(FrameError::Malformed(
                "frame header disagrees with index".into(),
            ))
        }
    }
}

/// Parsed 24-byte file header.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TraceHeader {
    /// Major format version (1 or 2); the low half of the version word.
    pub version: u32,
    /// Minor format version; the high half of the version word. Minor 1
    /// adds CRC32C checksums to frames and the footer index.
    pub minor: u32,
    pub encoding: Encoding,
    pub count: u64,
}

impl TraceHeader {
    fn new(version: u32, minor: u32, encoding: Encoding, count: usize) -> Self {
        Self {
            version,
            minor,
            encoding,
            count: count as u64,
        }
    }

    fn to_bytes(self) -> [u8; HEADER_LEN as usize] {
        let mut out = [0u8; HEADER_LEN as usize];
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&(self.version | (self.minor << 16)).to_le_bytes());
        out[12..16].copy_from_slice(&self.encoding.to_u32().to_le_bytes());
        out[16..].copy_from_slice(&self.count.to_le_bytes());
        out
    }

    /// `true` when frames carry a CRC32C in their inline header.
    pub fn checksummed(&self) -> bool {
        self.minor >= V2_MINOR_CRC
    }

    /// `true` when every frame payload starts with a thread-ID tag block
    /// (v2.2).
    pub fn tagged(&self) -> bool {
        self.version == VERSION_V2 && self.minor >= V2_MINOR_TID
    }

    /// How this file's frames are laid out.
    pub fn frame_format(&self) -> FrameFormat {
        FrameFormat {
            encoding: self.encoding,
            checksummed: self.checksummed(),
            tagged: self.tagged(),
        }
    }

    /// Footer tail length after the index entries: `[index_crc u32]` (v2.1
    /// on) + `nframes u64` + magic.
    pub fn footer_tail_len(&self) -> u64 {
        if self.checksummed() {
            20
        } else {
            16
        }
    }

    /// Thread IDs come only from v2.2 files: an untagged trace is refused
    /// rather than given a made-up thread.
    pub fn require_tags(&self, wanted: bool) -> io::Result<()> {
        if wanted && !self.tagged() {
            return Err(invalid(
                "trace is not thread-tagged (write it with a v2.2 tagged writer)",
            ));
        }
        Ok(())
    }
}

pub(crate) fn parse_header(bytes: &[u8]) -> io::Result<TraceHeader> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(invalid("trace shorter than its header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(invalid("bad trace magic"));
    }
    let word = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let version = word & 0xFFFF;
    let minor = word >> 16;
    if version != VERSION && version != VERSION_V2 {
        return Err(invalid(format!("unsupported trace version {version}")));
    }
    let minor_max = if version == VERSION_V2 {
        V2_MINOR_TID
    } else {
        0
    };
    if minor > minor_max {
        return Err(invalid(format!(
            "unsupported trace version {version}.{minor}"
        )));
    }
    let encoding = Encoding::from_u32(u32::from_le_bytes(bytes[12..16].try_into().unwrap()))?;
    let count = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    Ok(TraceHeader {
        version,
        minor,
        encoding,
        count,
    })
}

/// Locate the footer index from the footer tail (the file's last
/// [`TraceHeader::footer_tail_len`] bytes): its start offset in a file of
/// `file_len` bytes, and its length.
fn locate_index(tail: &[u8], file_len: u64) -> io::Result<(u64, usize)> {
    let (nframes, magic) = tail[tail.len() - 16..].split_at(8);
    if magic != FOOTER_MAGIC {
        return Err(invalid("bad trace index magic"));
    }
    let nframes = u64::from_le_bytes(nframes.try_into().unwrap());
    let index_bytes = nframes
        .checked_mul(INDEX_ENTRY_LEN)
        .ok_or_else(|| invalid("frame index overflow"))?;
    let start = file_len
        .checked_sub(tail.len() as u64 + index_bytes)
        .filter(|&s| s >= HEADER_LEN)
        .ok_or_else(|| invalid("frame index larger than file"))?;
    Ok((start, index_bytes as usize))
}

/// Parse the footer index entries `raw` that start at `index_start`, under
/// their footer `tail`. The index CRC (v2.1 on) must match, and the
/// entries must describe contiguous frames from the file header to the
/// index, each of a shape its count allows, whose counts sum to the
/// header's — so no frame can make a reader allocate past the file size.
fn parse_index(
    raw: &[u8],
    tail: &[u8],
    header: &TraceHeader,
    index_start: u64,
) -> io::Result<Vec<FrameIndexEntry>> {
    if header.checksummed() {
        let stored = u32::from_le_bytes(tail[..4].try_into().unwrap());
        if parda_hash::crc32c(raw) != stored {
            return Err(invalid("frame index CRC mismatch"));
        }
    }
    let fmt = header.frame_format();
    let mut entries = Vec::with_capacity(raw.len() / INDEX_ENTRY_LEN as usize);
    let mut offset = HEADER_LEN;
    let mut total: u64 = 0;
    for chunk in raw.chunks_exact(INDEX_ENTRY_LEN as usize) {
        let e = FrameIndexEntry {
            offset: u64::from_le_bytes(chunk[..8].try_into().unwrap()),
            count: u32::from_le_bytes(chunk[8..12].try_into().unwrap()),
            len: u32::from_le_bytes(chunk[12..16].try_into().unwrap()),
        };
        if e.offset != offset {
            return Err(invalid("frame index offsets are not contiguous"));
        }
        fmt.check_shape(e.count, e.len)?;
        total += u64::from(e.count);
        offset += fmt.header_len() as u64 + u64::from(e.len);
        entries.push(e);
    }
    if total != header.count {
        return Err(invalid(format!(
            "frame counts sum to {total} but header says {}",
            header.count
        )));
    }
    if offset != index_start {
        return Err(invalid("frame payload does not end at the index"));
    }
    Ok(entries)
}

/// Parse and validate the footer index of an in-memory v2 image.
pub(crate) fn parse_footer(bytes: &[u8], header: &TraceHeader) -> io::Result<Vec<FrameIndexEntry>> {
    let tail_len = header.footer_tail_len() as usize;
    if bytes.len() < HEADER_LEN as usize + tail_len {
        return Err(invalid("v2 trace shorter than its footer"));
    }
    let tail = &bytes[bytes.len() - tail_len..];
    let (start, len) = locate_index(tail, bytes.len() as u64)?;
    parse_index(&bytes[start as usize..][..len], tail, header, start)
}

/// Read and validate a v2 file's header plus footer index via seeks,
/// leaving the file positioned at the first frame. This is how
/// [`crate::stream::FramedStream`] learns the frame layout without reading
/// the payload.
pub(crate) fn read_header_and_index(
    f: &mut std::fs::File,
) -> io::Result<(TraceHeader, Vec<FrameIndexEntry>)> {
    use std::io::{Seek, SeekFrom};
    let mut header_bytes = [0u8; HEADER_LEN as usize];
    f.seek(SeekFrom::Start(0))?;
    f.read_exact(&mut header_bytes)
        .map_err(|e| eof_is_corruption(e, "trace header"))?;
    let header = parse_header(&header_bytes)?;
    if header.version != VERSION_V2 {
        return Err(invalid(
            "streaming requires a v2 framed trace (regenerate with `gen --format v2`)",
        ));
    }
    let tail_len = header.footer_tail_len();
    let file_len = f.seek(SeekFrom::End(0))?;
    if file_len < HEADER_LEN + tail_len {
        return Err(invalid("v2 trace shorter than its footer"));
    }
    let mut tail = vec![0u8; tail_len as usize];
    f.seek(SeekFrom::End(-(tail_len as i64)))?;
    f.read_exact(&mut tail)?;
    let (start, len) = locate_index(&tail, file_len)?;
    f.seek(SeekFrom::Start(start))?;
    let mut raw = vec![0u8; len];
    f.read_exact(&mut raw)
        .map_err(|e| eof_is_corruption(e, "frame index"))?;
    let entries = parse_index(&raw, &tail, &header, start)?;
    f.seek(SeekFrom::Start(HEADER_LEN))?;
    Ok((header, entries))
}

/// Serialize in format v2.1 with an explicit frame size (tests use tiny
/// frames to exercise multi-frame paths cheaply).
pub fn write_trace_v2_framed<W: Write>(
    w: W,
    trace: &Trace,
    encoding: Encoding,
    frame_refs: usize,
) -> io::Result<()> {
    write_trace_v2_framed_opts(w, trace, encoding, frame_refs, true)
}

/// Serialize in format v2 with explicit framing and checksum control.
/// `checksums: false` writes a pre-integrity v2.0 file (no frame CRCs, no
/// index CRC) for compatibility with older readers.
pub fn write_trace_v2_framed_opts<W: Write>(
    w: W,
    trace: &Trace,
    encoding: Encoding,
    frame_refs: usize,
    checksums: bool,
) -> io::Result<()> {
    let minor = if checksums { V2_MINOR_CRC } else { 0 };
    write_v2(w, trace.as_slice(), None, encoding, frame_refs, minor)
}

/// Serialize a thread-tagged trace in format v2.2 with an explicit frame
/// size. Fails if any frame spans more than 255 distinct thread IDs.
pub fn write_tagged_trace_v2_framed<W: Write>(
    w: W,
    trace: &ThreadedTrace,
    encoding: Encoding,
    frame_refs: usize,
) -> io::Result<()> {
    write_v2(
        w,
        trace.addrs(),
        Some(trace.tids()),
        encoding,
        frame_refs,
        V2_MINOR_TID,
    )
}

/// The v2 writer, for every minor version (`tids` exactly when tagged).
/// Frames are encoded in parallel — they are independent by construction —
/// then written in order, and the footer index closes the file.
fn write_v2<W: Write>(
    w: W,
    addrs: &[Addr],
    tids: Option<&[Tid]>,
    encoding: Encoding,
    frame_refs: usize,
    minor: u32,
) -> io::Result<()> {
    assert!(frame_refs > 0, "frame size must be positive");
    let header = TraceHeader::new(VERSION_V2, minor, encoding, addrs.len());
    let fmt = header.frame_format();
    let jobs: Vec<(&[Addr], Option<&[Tid]>)> = match tids {
        Some(tids) => addrs
            .chunks(frame_refs)
            .zip(tids.chunks(frame_refs))
            .map(|(a, t)| (a, Some(t)))
            .collect(),
        None => addrs.chunks(frame_refs).map(|a| (a, None)).collect(),
    };
    let frames: Vec<io::Result<(FrameHeader, Vec<u8>)>> = jobs
        .into_par_iter()
        .map(|(addrs, tids)| {
            let mut buf = Vec::new();
            fmt.encode(addrs, tids, &mut buf).map(|h| (h, buf))
        })
        .collect();

    let nframes = frames.len() as u64;
    let mut w = BufWriter::new(w);
    w.write_all(&header.to_bytes())?;
    let mut index = Vec::with_capacity(frames.len() * INDEX_ENTRY_LEN as usize);
    let mut offset = HEADER_LEN;
    for frame in frames {
        let (h, bytes) = frame?;
        w.write_all(&bytes)?;
        index.extend_from_slice(&offset.to_le_bytes());
        index.extend_from_slice(&h.count.to_le_bytes());
        index.extend_from_slice(&h.len.to_le_bytes());
        offset += bytes.len() as u64;
    }
    w.write_all(&index)?;
    if header.checksummed() {
        w.write_all(&parda_hash::crc32c(&index).to_le_bytes())?;
    }
    w.write_all(&nframes.to_le_bytes())?;
    w.write_all(FOOTER_MAGIC)?;
    w.flush()
}

/// Deserialize a trace from a reader; handles v1 and (sequentially) v2.
pub fn read_trace<R: Read>(r: R) -> io::Result<Trace> {
    read_image(r, None).map(Trace::from_vec)
}

/// [`read_trace`], keeping a v2.2 file's thread IDs in `tids`.
fn read_image<R: Read>(r: R, tids: Option<&mut Vec<Tid>>) -> io::Result<Vec<Addr>> {
    let mut r = BufReader::new(r);
    let mut header_bytes = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut header_bytes)?;
    let header = parse_header(&header_bytes)?;
    header.require_tags(tids.is_some())?;
    let count = header.count as usize;

    let mut addrs = Vec::with_capacity(count.min(PREALLOC_CAP));
    if header.version == VERSION_V2 {
        read_v2_frames_sequential(&mut r, &header, &mut addrs, tids)?;
    } else {
        match header.encoding {
            Encoding::Raw => {
                // Bulk path: read whole 8-byte words in large chunks rather
                // than one read_exact per reference.
                const CHUNK_REFS: usize = 1 << 16;
                let mut buf = vec![0u8; 8 * count.min(CHUNK_REFS)];
                let mut remaining = count;
                while remaining > 0 {
                    let take = remaining.min(CHUNK_REFS);
                    let bytes = &mut buf[..8 * take];
                    r.read_exact(bytes)
                        .map_err(|e| eof_is_corruption(e, "raw payload"))?;
                    addrs.extend(
                        bytes
                            .chunks_exact(8)
                            .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
                    );
                    remaining -= take;
                }
            }
            Encoding::DeltaVarint => {
                let mut prev: Addr = 0;
                for _ in 0..count {
                    let delta = zigzag_decode(
                        read_varint(&mut r).map_err(|e| eof_is_corruption(e, "delta payload"))?,
                    );
                    prev = prev.wrapping_add(delta as u64);
                    addrs.push(prev);
                }
            }
        }
    }
    Ok(addrs)
}

/// Sequential v2 path for non-seekable readers (pipes): walk the inline
/// frame headers, then read the footer and check it matches what was seen.
/// With `tids` the thread IDs are kept; otherwise tag blocks are checked
/// and skipped.
fn read_v2_frames_sequential<R: Read>(
    r: &mut R,
    header: &TraceHeader,
    addrs: &mut Vec<Addr>,
    mut tids: Option<&mut Vec<Tid>>,
) -> io::Result<()> {
    let fmt = header.frame_format();
    let count = header.count as usize;
    let mut seen: Vec<FrameIndexEntry> = Vec::new();
    let mut offset = HEADER_LEN;
    let mut payload = Vec::new();
    let mut frame_tids = Vec::new();
    while addrs.len() < count {
        let h = fmt.read_header(r)?;
        fmt.check_shape(h.count, h.len)?;
        if addrs.len() + h.count as usize > count {
            return Err(invalid("frame counts exceed header count"));
        }
        // Grow the buffer with the bytes that arrive, not with the length
        // the header claims: a pipe has no file size to bound it by.
        payload.clear();
        r.by_ref()
            .take(u64::from(h.len))
            .read_to_end(&mut payload)?;
        if payload.len() != h.len as usize {
            return Err(invalid("truncated frame payload"));
        }
        let start = addrs.len();
        addrs.resize(start + h.count as usize, 0);
        let keep = tids.is_some().then_some(&mut frame_tids);
        fmt.decode(h, &payload, &mut addrs[start..], keep)?;
        if let Some(tids) = tids.as_deref_mut() {
            tids.extend_from_slice(&frame_tids);
        }
        seen.push(FrameIndexEntry {
            offset,
            count: h.count,
            len: h.len,
        });
        offset += (fmt.header_len() + payload.len()) as u64;
    }

    // Footer: one index entry per frame seen, then the tail.
    let index_len = seen.len() * INDEX_ENTRY_LEN as usize;
    let mut footer = vec![0u8; index_len + header.footer_tail_len() as usize];
    r.read_exact(&mut footer)
        .map_err(|e| eof_is_corruption(e, "frame index"))?;
    let (raw, tail) = footer.split_at(index_len);
    if locate_index(tail, offset + footer.len() as u64)?.0 != offset {
        return Err(invalid("frame index count disagrees with frames read"));
    }
    if parse_index(raw, tail, header, offset)? != seen {
        return Err(invalid("frame index disagrees with frame headers"));
    }
    Ok(())
}

/// Decode a complete in-memory trace image (either version). For v2 the
/// frames are decoded in parallel: each frame gets a disjoint slice of the
/// preallocated output, sized from the validated footer index.
pub fn decode_trace(bytes: &[u8]) -> io::Result<Trace> {
    decode_image(bytes, None).map(Trace::from_vec)
}

/// [`decode_trace`], keeping a v2.2 image's thread IDs in `tids`.
fn decode_image(bytes: &[u8], tids: Option<&mut Vec<Tid>>) -> io::Result<Vec<Addr>> {
    let header = parse_header(bytes)?;
    header.require_tags(tids.is_some())?;
    if header.version != VERSION_V2 {
        // v1 has no frame structure; decode the flat payload sequentially.
        return read_image(bytes, tids);
    }
    let entries = parse_footer(bytes, &header)?;
    decode_frames(bytes, &header, &entries, tids)
}

/// The frame `e` indexes in an in-memory image whose footer index passed
/// [`parse_footer`]: its inline header, checked against the entry, and its
/// payload.
pub(crate) fn indexed_frame<'a>(
    bytes: &'a [u8],
    fmt: FrameFormat,
    e: &FrameIndexEntry,
) -> Result<(FrameHeader, &'a [u8]), FrameError> {
    let frame = &bytes[e.offset as usize..];
    let h = e.check(fmt.parse_header(frame)?)?;
    Ok((h, &frame[fmt.header_len()..][..h.len as usize]))
}

/// Decode every frame of a validated in-memory v2 image in parallel, each
/// into its own slice of one preallocated output; with `tids`, keep the
/// thread IDs too.
pub(crate) fn decode_frames(
    bytes: &[u8],
    header: &TraceHeader,
    entries: &[FrameIndexEntry],
    mut tids: Option<&mut Vec<Tid>>,
) -> io::Result<Vec<Addr>> {
    let fmt = header.frame_format();
    let mut out = vec![0 as Addr; header.count as usize];
    let mut jobs: Vec<(&FrameIndexEntry, &mut [Addr])> = Vec::with_capacity(entries.len());
    let mut rest = out.as_mut_slice();
    for e in entries {
        let (head, tail) = rest.split_at_mut(e.count as usize);
        jobs.push((e, head));
        rest = tail;
    }
    let keep_tids = tids.is_some();
    let results: Vec<Result<Vec<Tid>, FrameError>> = jobs
        .into_par_iter()
        .map(|(e, slice)| {
            let (h, payload) = indexed_frame(bytes, fmt, e)?;
            let mut frame_tids = Vec::new();
            fmt.decode(h, payload, slice, keep_tids.then_some(&mut frame_tids))?;
            Ok(frame_tids)
        })
        .collect();
    for r in results {
        let frame_tids = r?;
        if let Some(tids) = tids.as_deref_mut() {
            tids.extend_from_slice(&frame_tids);
        }
    }
    Ok(out)
}

/// Write a trace to a file path in format v1.
pub fn save_trace<P: AsRef<Path>>(path: P, trace: &Trace, encoding: Encoding) -> io::Result<()> {
    write_trace(std::fs::File::create(path)?, trace, encoding)
}

/// Write a trace to a file path in format v2.1 with the default
/// [`FRAME_REFS`] framing.
pub fn save_trace_v2<P: AsRef<Path>>(path: P, trace: &Trace, encoding: Encoding) -> io::Result<()> {
    write_trace_v2_framed(std::fs::File::create(path)?, trace, encoding, FRAME_REFS)
}

/// Write a thread-tagged trace to a file path in format v2.2 with the
/// default [`FRAME_REFS`] framing.
pub fn save_tagged_trace_v2<P: AsRef<Path>>(
    path: P,
    trace: &ThreadedTrace,
    encoding: Encoding,
) -> io::Result<()> {
    write_tagged_trace_v2_framed(std::fs::File::create(path)?, trace, encoding, FRAME_REFS)
}

/// Read the major format version of a trace file from its header (the
/// minor half of the version word — e.g. the v2.1 checksum revision — is
/// masked off; majors alone decide which read path applies).
pub fn peek_version<P: AsRef<Path>>(path: P) -> io::Result<u32> {
    let mut f = std::fs::File::open(path)?;
    let mut head = [0u8; 12];
    f.read_exact(&mut head)
        .map_err(|e| eof_is_corruption(e, "trace header"))?;
    if &head[..8] != MAGIC {
        return Err(invalid("bad trace magic"));
    }
    Ok(u32::from_le_bytes(head[8..12].try_into().unwrap()) & 0xFFFF)
}

/// Read a trace from a file path. v2 files are read whole and decoded with
/// [`decode_trace`]'s parallel frame path; v1 files go through the legacy
/// streaming reader.
pub fn load_trace<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
    let path = path.as_ref();
    if peek_version(path)? == VERSION_V2 {
        decode_trace(&std::fs::read(path)?)
    } else {
        read_trace(std::fs::File::open(path)?)
    }
}

/// Read a thread-tagged (v2.2) trace from a file path via the parallel
/// decoder. Untagged traces are refused rather than given a made-up
/// thread ID.
pub fn load_tagged_trace<P: AsRef<Path>>(path: P) -> io::Result<ThreadedTrace> {
    let mut tids = Vec::new();
    let addrs = decode_image(&std::fs::read(path)?, Some(&mut tids))?;
    Ok(ThreadedTrace::from_parts(addrs, tids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(trace: &Trace, encoding: Encoding) -> Trace {
        let mut buf = Vec::new();
        write_trace(&mut buf, trace, encoding).unwrap();
        read_trace(buf.as_slice()).unwrap()
    }

    fn round_trip_v2(trace: &Trace, encoding: Encoding, frame_refs: usize) -> Trace {
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, trace, encoding, frame_refs).unwrap();
        let parallel = decode_trace(&buf).unwrap();
        let sequential = read_trace(buf.as_slice()).unwrap();
        assert_eq!(
            parallel, sequential,
            "parallel and sequential v2 decode differ"
        );
        parallel
    }

    #[test]
    fn raw_round_trip() {
        let t = Trace::from_vec(vec![0, u64::MAX, 42, 42, 7]);
        assert_eq!(round_trip(&t, Encoding::Raw), t);
    }

    #[test]
    fn delta_round_trip_with_wraparound() {
        let t = Trace::from_vec(vec![u64::MAX, 0, 1 << 63, 3]);
        assert_eq!(round_trip(&t, Encoding::DeltaVarint), t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new();
        assert_eq!(round_trip(&t, Encoding::Raw), t);
        assert_eq!(round_trip(&t, Encoding::DeltaVarint), t);
    }

    #[test]
    fn delta_is_smaller_for_local_traces() {
        let t: Trace = (0..10_000u64).map(|i| 0x1000_0000 + i * 8).collect();
        let mut raw = Vec::new();
        let mut delta = Vec::new();
        write_trace(&mut raw, &t, Encoding::Raw).unwrap();
        write_trace(&mut delta, &t, Encoding::DeltaVarint).unwrap();
        assert!(
            delta.len() * 4 < raw.len(),
            "delta {} vs raw {}",
            delta.len(),
            raw.len()
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::from_vec(vec![1]), Encoding::Raw).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(read_trace(bad_magic.as_slice()).is_err());
        let mut bad_version = buf.clone();
        bad_version[8] = 99;
        assert!(read_trace(bad_version.as_slice()).is_err());
    }

    #[test]
    fn truncated_payload_errors() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::from_vec(vec![1, 2, 3]), Encoding::Raw).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn overlong_varint_is_invalid_data() {
        // Header for a 1-reference delta trace followed by eleven
        // continuation bytes: a valid u64 varint never exceeds ten.
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new(), Encoding::DeltaVarint).unwrap();
        buf[16..24].copy_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&[0x80; 11]);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Ten bytes whose final byte carries more than the one allowed bit
        // would overflow 64 bits.
        let mut overflow = Vec::new();
        write_trace(&mut overflow, &Trace::new(), Encoding::DeltaVarint).unwrap();
        overflow[16..24].copy_from_slice(&1u64.to_le_bytes());
        overflow.extend_from_slice(&[0x80; 9]);
        overflow.push(0x02);
        let err = read_trace(overflow.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_varint_is_invalid_data_not_eof() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new(), Encoding::DeltaVarint).unwrap();
        buf[16..24].copy_from_slice(&1u64.to_le_bytes());
        buf.push(0x80); // continuation bit set, then EOF
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn save_and_load_via_path() {
        let dir = std::env::temp_dir().join("parda-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        let t: Trace = (0..100u64).map(|i| i * 3).collect();
        save_trace(&path, &t, Encoding::DeltaVarint).unwrap();
        assert_eq!(load_trace(&path).unwrap(), t);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_round_trips_across_frame_shapes() {
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            // Empty trace: zero frames, footer only.
            let empty = Trace::new();
            assert_eq!(round_trip_v2(&empty, encoding, 8), empty);
            // Single partial frame.
            let small = Trace::from_vec(vec![9, 9, u64::MAX, 0]);
            assert_eq!(round_trip_v2(&small, encoding, 8), small);
            // Exactly one full frame.
            let exact: Trace = (0..8u64).collect();
            assert_eq!(round_trip_v2(&exact, encoding, 8), exact);
            // Many frames plus a partial tail straddling the boundary.
            let big: Trace = (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            assert_eq!(round_trip_v2(&big, encoding, 8), big);
        }
    }

    #[test]
    fn v2_default_framing_straddles_frame_boundary() {
        let n = FRAME_REFS + FRAME_REFS / 2;
        let t: Trace = (0..n as u64).map(|i| 0x4000_0000 + i * 16).collect();
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, FRAME_REFS).unwrap();
        assert_eq!(decode_trace(&buf).unwrap(), t);
    }

    #[test]
    fn v2_save_load_via_path_uses_parallel_decode() {
        let dir = std::env::temp_dir().join("parda-trace-io-test-v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.trc");
        let t: Trace = (0..5000u64).map(|i| i * 7 % 1024).collect();
        save_trace_v2(&path, &t, Encoding::DeltaVarint).unwrap();
        assert_eq!(peek_version(&path).unwrap(), 2);
        assert_eq!(load_trace(&path).unwrap(), t);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_corruption_is_detected() {
        let t: Trace = (0..100u64).collect();
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::DeltaVarint, 16).unwrap();

        let mut bad_footer = buf.clone();
        let n = bad_footer.len();
        bad_footer[n - 1] = b'!';
        assert!(decode_trace(&bad_footer).is_err());

        let mut truncated = buf.clone();
        truncated.truncate(truncated.len() - 20);
        assert!(decode_trace(&truncated).is_err());

        // Header count disagreeing with the frame counts.
        let mut miscounted = buf.clone();
        miscounted[16..24].copy_from_slice(&99u64.to_le_bytes());
        assert!(decode_trace(&miscounted).is_err());
        assert!(read_trace(miscounted.as_slice()).is_err());
    }

    #[test]
    fn v21_version_word_carries_minor() {
        let t: Trace = (0..50u64).collect();
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::Raw, 16).unwrap();
        let header = parse_header(&buf).unwrap();
        assert_eq!((header.version, header.minor), (2, 1));
        assert!(header.checksummed());
        assert_eq!(header.frame_format().header_len(), 12);

        let mut legacy = Vec::new();
        write_trace_v2_framed_opts(&mut legacy, &t, Encoding::Raw, 16, false).unwrap();
        let header = parse_header(&legacy).unwrap();
        assert_eq!((header.version, header.minor), (2, 0));
        assert!(!header.checksummed());
    }

    #[test]
    fn v20_files_remain_readable() {
        let t: Trace = (0..500u64).map(|i| i.wrapping_mul(0x517C_C1B7)).collect();
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            let mut buf = Vec::new();
            write_trace_v2_framed_opts(&mut buf, &t, encoding, 64, false).unwrap();
            assert_eq!(decode_trace(&buf).unwrap(), t);
            assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
        }
    }

    #[test]
    fn v21_frame_crc_detects_bit_flip() {
        let t: Trace = (0..500u64).collect();
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::Raw, 64).unwrap();
        // Flip one payload bit in frame 2; raw decode would otherwise
        // accept any bytes, so only the CRC can catch this.
        let header = parse_header(&buf).unwrap();
        let entries = parse_footer(&buf, &header).unwrap();
        let poke = entries[2].offset as usize + header.frame_format().header_len() + 9;
        buf[poke] ^= 0x04;
        let err = decode_trace(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn v21_index_crc_detects_index_flip() {
        let t: Trace = (0..500u64).collect();
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::Raw, 64).unwrap();
        // Flip a bit inside an index entry's count field. The per-entry
        // validation might also catch it, but the index CRC must.
        let n = buf.len();
        let index_start = n - 20 - 8 * INDEX_ENTRY_LEN as usize;
        buf[index_start + 8] ^= 0x01;
        let err = decode_trace(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("index CRC"), "{err}");
    }

    #[test]
    fn adversarial_frame_header_is_rejected_before_allocation() {
        // Sequential v2 read with a hostile inline header: a huge
        // payload_len must come back as InvalidData without a matching
        // huge allocation. (The delta bound is 10 bytes/ref; raw is 8.)
        for (encoding, fcount, flen) in [
            (Encoding::DeltaVarint, 10u32, u32::MAX),
            (Encoding::Raw, 10, u32::MAX),
            (Encoding::DeltaVarint, 0, 0),
        ] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&(VERSION_V2 | (V2_MINOR_CRC << 16)).to_le_bytes());
            buf.extend_from_slice(&encoding.to_u32().to_le_bytes());
            buf.extend_from_slice(&10u64.to_le_bytes());
            buf.extend_from_slice(&fcount.to_le_bytes());
            buf.extend_from_slice(&flen.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes()); // crc
            buf.extend_from_slice(&[0xAA; 64]);
            let err = read_trace(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{encoding:?}");
        }
    }

    proptest! {
        #[test]
        fn any_trace_round_trips_both_encodings(addrs in proptest::collection::vec(any::<u64>(), 0..300)) {
            let t = Trace::from_vec(addrs);
            prop_assert_eq!(round_trip(&t, Encoding::Raw), t.clone());
            prop_assert_eq!(round_trip(&t, Encoding::DeltaVarint), t);
        }

        /// v2 (any frame size) and v1 agree with each other and the source,
        /// covering empty traces, single frames, and frame-straddling tails.
        #[test]
        fn v2_matches_v1_and_memory(
            addrs in proptest::collection::vec(any::<u64>(), 0..300),
            frame_refs in 1usize..70,
        ) {
            let t = Trace::from_vec(addrs);
            for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
                let via_v1 = round_trip(&t, encoding);
                let via_v2 = round_trip_v2(&t, encoding, frame_refs);
                prop_assert_eq!(&via_v1, &t);
                prop_assert_eq!(&via_v2, &t);
                prop_assert_eq!(via_v1, via_v2);
            }
        }
    }

    /// The tagged in-memory decode behind [`load_tagged_trace`].
    fn decode_tagged(bytes: &[u8]) -> io::Result<ThreadedTrace> {
        let mut tids = Vec::new();
        let addrs = decode_image(bytes, Some(&mut tids))?;
        Ok(ThreadedTrace::from_parts(addrs, tids))
    }

    /// The sequential (pipe) reader, keeping thread IDs.
    fn read_tagged(r: impl Read) -> io::Result<ThreadedTrace> {
        let mut tids = Vec::new();
        let addrs = read_image(r, Some(&mut tids))?;
        Ok(ThreadedTrace::from_parts(addrs, tids))
    }

    fn round_trip_tagged(trace: &ThreadedTrace, encoding: Encoding, frame_refs: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tagged_trace_v2_framed(&mut buf, trace, encoding, frame_refs).unwrap();
        let parallel = decode_tagged(&buf).unwrap();
        let sequential = read_tagged(buf.as_slice()).unwrap();
        assert_eq!(&parallel, trace, "parallel tagged decode differs");
        assert_eq!(&sequential, trace, "sequential tagged decode differs");
        buf
    }

    #[test]
    fn tagged_round_trips_across_frame_shapes() {
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            // Empty trace: zero frames, footer only.
            let empty = ThreadedTrace::new();
            round_trip_tagged(&empty, encoding, 8);
            // One thread only: the per-reference index block is omitted.
            let solo = ThreadedTrace::from_parts(vec![5, 5, 9, u64::MAX], vec![3; 4]);
            round_trip_tagged(&solo, encoding, 8);
            // Round-robin over enough threads to need multi-bit indices,
            // with frames straddling the thread rotation.
            let n = 1000u64;
            let rr = ThreadedTrace::from_parts(
                (0..n).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
                (0..n).map(|i| (i % 5) as Tid).collect(),
            );
            round_trip_tagged(&rr, encoding, 8);
            round_trip_tagged(&rr, encoding, 64);
        }
    }

    #[test]
    fn tagged_header_carries_minor_2() {
        let t = ThreadedTrace::from_parts(vec![1, 2, 3], vec![0, 1, 0]);
        let buf = round_trip_tagged(&t, Encoding::Raw, 8);
        let header = parse_header(&buf).unwrap();
        assert_eq!((header.version, header.minor), (2, 2));
        assert!(header.checksummed());
        assert!(header.tagged());
        assert_eq!(
            peek_version(std_tmp_write("tagged-peek.trc", &buf)).unwrap(),
            2
        );
    }

    /// Write a byte image to a temp file and return its path.
    fn std_tmp_write(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("parda-trace-io-test-tagged");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn untagged_readers_accept_tagged_files() {
        let n = 500u64;
        let t = ThreadedTrace::from_parts(
            (0..n).map(|i| 0x1000 + i * 8).collect(),
            (0..n).map(|i| (i % 3) as Tid).collect(),
        );
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            let buf = round_trip_tagged(&t, encoding, 16);
            let want = Trace::from_vec(t.addrs().to_vec());
            assert_eq!(decode_trace(&buf).unwrap(), want);
            assert_eq!(read_trace(buf.as_slice()).unwrap(), want);
        }
    }

    #[test]
    fn tagged_readers_reject_untagged_files() {
        let t: Trace = (0..100u64).collect();
        let mut buf = Vec::new();
        write_trace_v2_framed(&mut buf, &t, Encoding::Raw, 16).unwrap();
        let err = decode_tagged(&buf).unwrap_err();
        assert!(err.to_string().contains("not thread-tagged"), "{err}");
        let err = load_tagged_trace(std_tmp_write("untagged.trc", &buf)).unwrap_err();
        assert!(err.to_string().contains("not thread-tagged"), "{err}");
        assert!(read_tagged(buf.as_slice()).is_err());
    }

    #[test]
    fn tagged_frame_crc_detects_tag_block_flip() {
        let t = ThreadedTrace::from_parts(
            (0..200u64).collect(),
            (0..200).map(|i| (i % 4) as Tid).collect(),
        );
        let mut buf = Vec::new();
        write_tagged_trace_v2_framed(&mut buf, &t, Encoding::Raw, 32).unwrap();
        // Flip a bit inside frame 1's tag block (just past the inline
        // header): only the CRC can catch index-block corruption.
        let header = parse_header(&buf).unwrap();
        let entries = parse_footer(&buf, &header).unwrap();
        let poke = entries[1].offset as usize + header.frame_format().header_len() + 2;
        buf[poke] ^= 0x10;
        let err = decode_tagged(&buf).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
        let err = decode_trace(&buf).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn tagged_frame_rejects_too_many_threads() {
        // 256 distinct TIDs in a single frame exceed the u8 dictionary.
        let n = 256u64;
        let t = ThreadedTrace::from_parts((0..n).collect(), (0..n as Tid).collect());
        let mut buf = Vec::new();
        let err = write_tagged_trace_v2_framed(&mut buf, &t, Encoding::Raw, 512).unwrap_err();
        assert!(err.to_string().contains("255"), "{err}");
        // Split across frames the same TIDs fit fine.
        let mut ok = Vec::new();
        write_tagged_trace_v2_framed(&mut ok, &t, Encoding::Raw, 128).unwrap();
        assert_eq!(decode_tagged(&ok).unwrap(), t);
    }

    proptest! {
        /// Tagged traces round-trip through the parallel and sequential
        /// readers for any TID assignment and frame size.
        #[test]
        fn tagged_round_trips_any_assignment(
            refs in proptest::collection::vec((any::<u64>(), 0u32..12), 0..300),
            frame_refs in 1usize..70,
            raw in any::<bool>(),
        ) {
            let encoding = if raw { Encoding::Raw } else { Encoding::DeltaVarint };
            let (addrs, tids): (Vec<Addr>, Vec<Tid>) = refs.into_iter().unzip();
            let t = ThreadedTrace::from_parts(addrs, tids);
            round_trip_tagged(&t, encoding, frame_refs);
        }
    }
}
