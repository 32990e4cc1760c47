//! The v2 frame codec: the one place that knows how a frame is laid out.
//!
//! A v2 trace file is a run of frames between its file header and its
//! footer index ([`crate::io`]), and every daemon DATA message carries
//! exactly one frame. A frame is an inline header and a payload:
//!
//! ```text
//! inline header  count u32 | len u32                  v2.0
//!                count u32 | len u32 | crc32c u32     v2.1, v2.2 and DATA
//! payload        [tag block]                          v2.2 and tagged DATA
//!                address block                        (`len` bytes in all)
//! ```
//!
//! All words are little-endian, and `crc32c` covers the `len` payload
//! bytes. The address block holds `count` addresses, raw (8 bytes each)
//! or as zig-zag delta varints whose baseline resets to zero in every
//! frame, so any frame decodes from its own bytes. The tag block names the
//! thread that issued each reference:
//!
//! ```text
//! tag block  ntids u8                       1..=255
//!            tid varint × ntids             per-frame dictionary, first-appearance order
//!            indices, ⌈log₂ ntids⌉ bits/ref  LSB-first; omitted when ntids = 1
//! ```
//!
//! Readers take three steps: [`FrameFormat::parse_header`] reads an
//! inline header, [`FrameFormat::check_shape`] bounds a file frame's sizes
//! before any buffer is sized from them, and [`FrameFormat::decode`]
//! checks the payload (length bounds, CRC, tag block) and decodes it into
//! the caller's buffer. A reader thread can parse headers while decoder
//! threads check and decode.

use crate::io::{eof_is_corruption, invalid, Encoding};
use crate::{Addr, Tid};
use parda_hash::crc32c;
use std::fmt;
use std::io::{self, Read};

/// Longest inline header (v2.1 on: count, len, crc32c).
const MAX_HEADER_LEN: usize = 12;

/// Largest tag block before its index bits: `ntids` plus 255 dictionary
/// varints of at most 5 bytes (a u32).
const TAG_BLOCK_FIXED_MAX: u64 = 1 + 255 * 5;

/// How the frames of one file, or of one daemon session, are laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FrameFormat {
    pub encoding: Encoding,
    /// The inline header carries a CRC32C of the payload (v2.1 on).
    pub checksummed: bool,
    /// The payload opens with a tag block (v2.2).
    pub tagged: bool,
}

/// A parsed inline frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// References in the frame.
    pub count: u32,
    /// Payload bytes after the inline header.
    pub len: u32,
    /// CRC32C of the payload, when the format carries one.
    pub crc: Option<u32>,
}

/// Why a frame could not be used. The kinds are apart so recovery can
/// count CRC failures and still account the references a frame claimed.
#[derive(Debug)]
pub enum FrameError {
    /// The inline header is truncated or disagrees with what holds the
    /// frame (its index entry, or the message carrying it), so the
    /// reference count it claims is unknown.
    Malformed(String),
    /// The payload's CRC32C does not match the header.
    Crc {
        /// References the header claimed.
        count: u32,
    },
    /// The payload does not decode to the references the header claims.
    Decode {
        /// References the header claimed.
        count: u32,
        /// What the decoder found.
        detail: String,
    },
}

impl FrameError {
    /// References the frame claimed to carry (0 when unknowable).
    pub fn count(&self) -> u64 {
        match self {
            FrameError::Malformed(_) => 0,
            FrameError::Crc { count } | FrameError::Decode { count, .. } => u64::from(*count),
        }
    }

    fn decode(count: u32, detail: impl ToString) -> Self {
        FrameError::Decode {
            count,
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Malformed(msg) | FrameError::Decode { detail: msg, .. } => f.write_str(msg),
            FrameError::Crc { .. } => f.write_str("frame CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        invalid(e.to_string())
    }
}

impl FrameFormat {
    /// A daemon DATA frame: the v2.1 layout, or v2.2 in tagged sessions.
    fn wire(encoding: Encoding, tagged: bool) -> Self {
        Self {
            encoding,
            checksummed: true,
            tagged,
        }
    }

    /// Bytes of the inline header.
    pub(crate) fn header_len(self) -> usize {
        if self.checksummed {
            MAX_HEADER_LEN
        } else {
            8
        }
    }

    /// Append one frame to `out` — inline header, the tag block of `tids`
    /// (one per address; required exactly when the format is tagged), then
    /// the address block — and return the header written.
    pub(crate) fn encode(
        self,
        addrs: &[Addr],
        tids: Option<&[Tid]>,
        out: &mut Vec<u8>,
    ) -> io::Result<FrameHeader> {
        debug_assert_eq!(
            self.tagged,
            tids.is_some(),
            "tags exactly in tagged formats"
        );
        let start = out.len();
        out.resize(start + self.header_len(), 0);
        if let Some(tids) = tids {
            if tids.len() != addrs.len() {
                return Err(invalid("one thread ID per reference required"));
            }
            encode_tag_block(tids, out)?;
        }
        encode_frame(addrs, self.encoding, out);
        let payload = &out[start + self.header_len()..];
        let h = FrameHeader {
            count: u32::try_from(addrs.len())
                .map_err(|_| invalid("frame holds more than u32 references"))?,
            len: u32::try_from(payload.len())
                .map_err(|_| invalid("frame payload exceeds u32 bytes"))?,
            crc: self.checksummed.then(|| crc32c(payload)),
        };
        out[start..start + 4].copy_from_slice(&h.count.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&h.len.to_le_bytes());
        if let Some(crc) = h.crc {
            out[start + 8..start + 12].copy_from_slice(&crc.to_le_bytes());
        }
        Ok(h)
    }

    /// Parse the inline header at the front of `bytes`.
    pub(crate) fn parse_header(self, bytes: &[u8]) -> Result<FrameHeader, FrameError> {
        let head = bytes.get(..self.header_len()).ok_or_else(|| {
            FrameError::Malformed(format!(
                "{} bytes is shorter than the {}-byte inline header",
                bytes.len(),
                self.header_len()
            ))
        })?;
        let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
        Ok(FrameHeader {
            count: word(0),
            len: word(4),
            crc: self.checksummed.then(|| word(8)),
        })
    }

    /// Read one inline header from a stream.
    pub(crate) fn read_header(self, r: &mut impl Read) -> io::Result<FrameHeader> {
        let mut head = [0u8; MAX_HEADER_LEN];
        let head = &mut head[..self.header_len()];
        r.read_exact(head)
            .map_err(|e| eof_is_corruption(e, "frame header"))?;
        Ok(self.parse_header(head)?)
    }

    /// Bound a file frame's sizes before any buffer is sized from them: a
    /// frame in a file is never empty, and its payload length must fit
    /// its count (see [`FrameFormat::decode`]), so an adversarial header
    /// cannot force a large allocation.
    pub(crate) fn check_shape(self, count: u32, len: u32) -> Result<(), FrameError> {
        if count == 0 {
            return Err(FrameError::decode(0, "empty frame in v2 trace"));
        }
        self.check_len(count, len)
    }

    /// The payload length must fit the count: raw addresses take exactly 8
    /// bytes each, delta ones 1 to 10. A tag block adds at least 2 bytes
    /// (`ntids` and one dictionary varint) and at most
    /// [`TAG_BLOCK_FIXED_MAX`] plus one index byte per reference.
    fn check_len(self, count: u32, len: u32) -> Result<(), FrameError> {
        let (count64, len) = (u64::from(count), u64::from(len));
        let (tag_min, tag_max) = if self.tagged {
            (2, TAG_BLOCK_FIXED_MAX + count64)
        } else {
            (0, 0)
        };
        let detail = match self.encoding {
            Encoding::Raw if len < count64 * 8 + tag_min || len > count64 * 8 + tag_max => {
                "raw frame length does not match its count"
            }
            Encoding::DeltaVarint if len < count64 + tag_min => {
                "delta frame shorter than its count"
            }
            Encoding::DeltaVarint if len > count64 * 10 + tag_max => {
                "delta frame longer than 10 bytes per reference"
            }
            _ => return Ok(()),
        };
        Err(FrameError::decode(count, detail))
    }

    /// Check one frame's `payload` and decode it: length bounds, CRC, tag
    /// block, then the `h.count` addresses into `addrs` (which must hold
    /// exactly that many) and, when `tids` is given, their thread IDs
    /// (replacing its contents). Without `tids` a tag block is still
    /// checked in full, so every reader rejects the same frames.
    pub(crate) fn decode(
        self,
        h: FrameHeader,
        payload: &[u8],
        addrs: &mut [Addr],
        tids: Option<&mut Vec<Tid>>,
    ) -> Result<(), FrameError> {
        assert_eq!(addrs.len(), h.count as usize, "buffer sized to the frame");
        debug_assert_eq!(payload.len(), h.len as usize, "payload sized to the frame");
        debug_assert!(
            self.tagged || tids.is_none(),
            "tags only from tagged frames"
        );
        self.check_len(h.count, h.len)?;
        if h.crc.is_some_and(|stored| crc32c(payload) != stored) {
            return Err(FrameError::Crc { count: h.count });
        }
        let addr_block = if self.tagged {
            parse_tag_block(payload, h.count as usize, tids)
                .map_err(|e| FrameError::decode(h.count, e))?
        } else {
            0
        };
        decode_frame_into(&payload[addr_block..], self.encoding, addrs)
            .map_err(|e| FrameError::decode(h.count, e))
    }
}

/// Lay out one whole frame the way a daemon DATA message carries it: the
/// v2.1 inline frame, or with `tids` (one per address) the v2.2 tagged
/// one.
pub fn encode_inline_frame(
    addrs: &[Addr],
    tids: Option<&[Tid]>,
    encoding: Encoding,
) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    FrameFormat::wire(encoding, tids.is_some()).encode(addrs, tids, &mut out)?;
    Ok(out)
}

/// Check and decode one whole inline frame, such as a DATA message: the
/// header must account for exactly the bytes after it. `addrs` is
/// refilled with the frame's addresses and, for a tagged frame, `tids`
/// with their thread IDs; both keep their capacity, so a steady decode
/// loop allocates nothing per frame.
pub fn decode_inline_frame(
    frame: &[u8],
    encoding: Encoding,
    addrs: &mut Vec<Addr>,
    tids: Option<&mut Vec<Tid>>,
) -> Result<(), FrameError> {
    let fmt = FrameFormat::wire(encoding, tids.is_some());
    let h = fmt.parse_header(frame)?;
    let payload = &frame[fmt.header_len()..];
    if payload.len() != h.len as usize {
        return Err(FrameError::Malformed(format!(
            "header claims {} payload bytes, message carries {}",
            h.len,
            payload.len()
        )));
    }
    // Bound the count by the bytes present before sizing `addrs` from it.
    fmt.check_len(h.count, h.len)?;
    addrs.clear();
    addrs.resize(h.count as usize, 0);
    fmt.decode(h, payload, addrs, tids)
}

#[inline]
pub(crate) fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint from `buf` at `*pos`. A u64 needs at most 10
/// bytes and the 10th byte can only contribute the top bit, so anything
/// longer or larger is `InvalidData` rather than silently truncated.
#[inline]
pub(crate) fn decode_varint_slice(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or_else(|| invalid("truncated varint"))?;
        *pos += 1;
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

/// Encode one frame's address block; the delta baseline resets to zero so
/// frames decode independently (the first reference costs one absolute
/// varint).
fn encode_frame(addrs: &[Addr], encoding: Encoding, out: &mut Vec<u8>) {
    match encoding {
        Encoding::Raw => {
            out.reserve(addrs.len() * 8);
            for &a in addrs {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
        Encoding::DeltaVarint => {
            let mut prev: Addr = 0;
            for &a in addrs {
                let delta = a.wrapping_sub(prev) as i64;
                push_varint(out, zigzag_encode(delta));
                prev = a;
            }
        }
    }
}

/// Decode one frame's address block into an exactly-sized output slice.
fn decode_frame_into(payload: &[u8], encoding: Encoding, out: &mut [Addr]) -> io::Result<()> {
    parda_failpoint::failpoint!(
        "trace::decode_frame",
        return Err(invalid("injected frame decode failure"))
    );
    match encoding {
        Encoding::Raw => {
            if payload.len() != out.len() * 8 {
                return Err(invalid("raw frame length does not match its count"));
            }
            for (slot, bytes) in out.iter_mut().zip(payload.chunks_exact(8)) {
                *slot = u64::from_le_bytes(bytes.try_into().unwrap());
            }
        }
        Encoding::DeltaVarint => {
            let mut pos = 0usize;
            let mut prev: Addr = 0;
            for slot in out.iter_mut() {
                let delta = zigzag_decode(decode_varint_slice(payload, &mut pos)?);
                prev = prev.wrapping_add(delta as u64);
                *slot = prev;
            }
            if pos != payload.len() {
                return Err(invalid("trailing bytes in frame payload"));
            }
        }
    }
    Ok(())
}

/// Bits per packed dictionary index for a tag block with `ntids` entries.
#[inline]
fn tag_index_bits(ntids: usize) -> usize {
    debug_assert!(ntids > 1);
    (usize::BITS - (ntids - 1).leading_zeros()) as usize
}

/// Append the tag block for one frame's thread IDs.
fn encode_tag_block(tids: &[Tid], out: &mut Vec<u8>) -> io::Result<()> {
    if tids.is_empty() {
        return Err(invalid("empty tagged frame"));
    }
    let mut dict: Vec<Tid> = Vec::new();
    let mut index_of: parda_hash::FxHashMap<Tid, u8> = Default::default();
    let mut indices: Vec<u8> = Vec::with_capacity(tids.len());
    for &t in tids {
        let idx = match index_of.get(&t) {
            Some(&i) => i,
            None => {
                if dict.len() == 255 {
                    return Err(invalid("more than 255 distinct thread IDs in one frame"));
                }
                let i = dict.len() as u8;
                dict.push(t);
                index_of.insert(t, i);
                i
            }
        };
        indices.push(idx);
    }
    out.push(dict.len() as u8);
    for &t in &dict {
        push_varint(out, u64::from(t));
    }
    if dict.len() > 1 {
        let bits = tag_index_bits(dict.len());
        let mut acc: u32 = 0;
        let mut nbits = 0usize;
        for &i in &indices {
            acc |= u32::from(i) << nbits;
            nbits += bits;
            while nbits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push((acc & 0xff) as u8);
        }
    }
    Ok(())
}

/// Parse the tag block of a frame of `count` references, replacing the
/// contents of `tids` (when given) with their thread IDs; returns the
/// payload offset where the address block starts.
fn parse_tag_block(
    payload: &[u8],
    count: usize,
    mut tids: Option<&mut Vec<Tid>>,
) -> io::Result<usize> {
    if count == 0 {
        return Err(invalid("empty tagged frame"));
    }
    let ntids = usize::from(
        *payload
            .first()
            .ok_or_else(|| invalid("truncated tag block"))?,
    );
    if ntids == 0 {
        return Err(invalid("tag block with zero thread IDs"));
    }
    let mut pos = 1usize;
    let mut dict: Vec<Tid> = Vec::with_capacity(ntids);
    for _ in 0..ntids {
        let v =
            decode_varint_slice(payload, &mut pos).map_err(|_| invalid("truncated tag block"))?;
        dict.push(Tid::try_from(v).map_err(|_| invalid("thread ID overflows 32 bits"))?);
    }
    if let Some(tids) = tids.as_deref_mut() {
        tids.clear();
        tids.reserve(count);
    }
    if ntids == 1 {
        if let Some(tids) = tids {
            tids.resize(count, dict[0]);
        }
        return Ok(pos);
    }
    let bits = tag_index_bits(ntids);
    let nbytes = count
        .checked_mul(bits)
        .map(|b| b.div_ceil(8))
        .ok_or_else(|| invalid("tag block index overflow"))?;
    let idx_bytes = payload
        .get(pos..pos + nbytes)
        .ok_or_else(|| invalid("truncated tag block"))?;
    let mut acc: u32 = 0;
    let mut nbits = 0usize;
    let mut at = 0usize;
    let mask = (1u32 << bits) - 1;
    for _ in 0..count {
        while nbits < bits {
            acc |= u32::from(idx_bytes[at]) << nbits;
            at += 1;
            nbits += 8;
        }
        let i = (acc & mask) as usize;
        acc >>= bits;
        nbits -= bits;
        if i >= ntids {
            return Err(invalid("thread index out of dictionary range"));
        }
        if let Some(tids) = tids.as_deref_mut() {
            tids.push(dict[i]);
        }
    }
    Ok(pos + nbytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `frame` with its inline header's count word replaced.
    fn with_count(frame: &[u8], count: u32) -> Vec<u8> {
        let mut out = frame.to_vec();
        out[..4].copy_from_slice(&count.to_le_bytes());
        out
    }

    proptest! {
        #[test]
        fn inline_frames_round_trip(
            addrs in proptest::collection::vec(0u64..1 << 40, 0..300),
            raw in any::<bool>(),
        ) {
            let encoding = if raw { Encoding::Raw } else { Encoding::DeltaVarint };
            let frame = encode_inline_frame(&addrs, None, encoding).unwrap();
            let mut back = Vec::new();
            decode_inline_frame(&frame, encoding, &mut back, None).unwrap();
            prop_assert_eq!(back, addrs);
        }
    }

    #[test]
    fn inline_frames_reject_implausible_counts() {
        let mut out = Vec::new();
        let frame = encode_inline_frame(&[1, 2, 3], None, Encoding::Raw).unwrap();
        for count in [4, u32::MAX / 4, u32::MAX] {
            let bad = with_count(&frame, count);
            assert!(decode_inline_frame(&bad, Encoding::Raw, &mut out, None).is_err());
        }
        // Delta: each reference costs at least one byte, so a count beyond
        // the payload length must be rejected before allocating.
        let frame = encode_inline_frame(&[1, 2, 3], None, Encoding::DeltaVarint).unwrap();
        let bad = with_count(&frame, frame.len() as u32);
        assert!(decode_inline_frame(&bad, Encoding::DeltaVarint, &mut out, None).is_err());
    }

    #[test]
    fn tagged_inline_frames_round_trip() {
        let addrs: Vec<Addr> = (0..100u64).map(|i| i * 64).collect();
        let tids: Vec<Tid> = (0..100).map(|i| (i % 7) as Tid).collect();
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            let frame = encode_inline_frame(&addrs, Some(&tids), encoding).unwrap();
            let (mut got_addrs, mut got_tids) = (Vec::new(), Vec::new());
            decode_inline_frame(&frame, encoding, &mut got_addrs, Some(&mut got_tids)).unwrap();
            assert_eq!(got_addrs, addrs);
            assert_eq!(got_tids, tids);
            // A lying count is rejected before any decode.
            let bad = with_count(&frame, u32::MAX / 8);
            let err = decode_inline_frame(&bad, encoding, &mut got_addrs, Some(&mut got_tids));
            assert!(err.is_err());
        }
    }

    #[test]
    fn zigzag_is_involutive_on_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1234567, -7654321] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }
}
