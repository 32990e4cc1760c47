//! The `parda-server` wire protocol.
//!
//! Everything on the socket is a length-prefixed *message*:
//!
//! ```text
//! [kind u8][payload_len u32 LE][payload …]
//! ```
//!
//! A session is a fixed exchange:
//!
//! ```text
//! client                         server
//!   HELLO  ("PARDAWIRE" + ver) →
//!   CONFIG (key=value lines)   →
//!                              ← ACCEPT (id + token + watermark) | ERROR
//!   DATA   (v2.1 frame)        →   (zero or more)
//!                              ← ACK (watermark u64)   (periodic, advisory)
//!   FIN    (empty)             →
//!                              ← STATS (format u8 + body) |  ERROR
//! ```
//!
//! When a connection dies mid-session the server parks the session in its
//! orphan pool; the client reconnects and sends `RESUME` (token + the last
//! watermark it saw) in place of CONFIG. The resume ACCEPT carries the
//! server's authoritative watermark — the count of frames already ingested
//! — and the client retransmits only frames past it. Nothing is replayed
//! server-side, so the histogram stays bit-identical to an unbroken run.
//!
//! A DATA payload is byte-for-byte one v2.1 *inline frame* — `count u32 |
//! len u32 | crc32c u32 | encoded refs` — or, in tagged sessions, one v2.2
//! frame with its thread-ID tag block. The trace crate's frame codec
//! ([`encode_inline_frame`], [`decode_inline_frame`]) lays out and checks
//! both, so the file format's CRC verification and frame decoding (and
//! therefore the `Degradation` quarantine machinery) apply unchanged on the
//! wire.
//!
//! ERROR payloads carry a class byte aligned with the `PardaError`
//! taxonomy plus two u32 details (rank/attempts, rank/deadline-ms) and a
//! UTF-8 message, so the client can rehydrate a *typed* error and the CLI
//! maps it onto the existing exit-code classes.

use parda_core::PardaError;
use parda_trace::io::{decode_inline_frame, encode_inline_frame, Encoding, FrameError};
use parda_trace::{Addr, Tid};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Handshake magic carried by HELLO.
pub const WIRE_MAGIC: &[u8; 9] = b"PARDAWIRE";

/// Wire protocol version carried by HELLO.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on any message payload (a DATA frame at the default
/// 65 536-ref framing is ~512 KiB; this leaves generous headroom while
/// bounding what a lying length prefix can make the server allocate).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// STATS payload format byte: UTF-8 `{"histogram":…,"stats":…}` document.
pub const STATS_FORMAT_JSON: u8 = 0;

/// STATS payload format byte: binary histogram (see
/// [`encode_histogram_binary`]).
pub const STATS_FORMAT_BINARY: u8 = 1;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Message discriminant (the `kind` byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Client → server: protocol magic + version.
    Hello = 1,
    /// Client → server: session configuration as `key=value` lines.
    Config = 2,
    /// Client → server: one v2.1 trace frame (v2.2 in tagged sessions).
    Data = 3,
    /// Client → server: end of trace, run the analysis.
    Fin = 4,
    /// Server → client: session admitted; payload is
    /// `id u64 | token [u8;16] | watermark u64` (see [`AcceptPayload`]).
    Accept = 5,
    /// Server → client: the analysis result.
    Stats = 6,
    /// Server → client: a classified failure (see [`ErrorFrame`]).
    Error = 7,
    /// Server → client: periodic ingest acknowledgement; payload is the
    /// watermark (u64 LE) — frames ingested so far. Advisory: a lost ACK
    /// costs only retransmission volume, never correctness.
    Ack = 8,
    /// Client → server (in place of CONFIG): reattach to an orphaned
    /// session; payload is `token [u8;16] | last seen watermark u64`.
    Resume = 9,
}

impl MsgKind {
    pub(crate) fn from_u8(b: u8) -> io::Result<Self> {
        Ok(match b {
            1 => MsgKind::Hello,
            2 => MsgKind::Config,
            3 => MsgKind::Data,
            4 => MsgKind::Fin,
            5 => MsgKind::Accept,
            6 => MsgKind::Stats,
            7 => MsgKind::Error,
            8 => MsgKind::Ack,
            9 => MsgKind::Resume,
            other => return Err(invalid(format!("unknown message kind {other:#04x}"))),
        })
    }
}

/// Bytes of a session resume token carried in ACCEPT and RESUME.
pub const TOKEN_LEN: usize = 16;

/// The decoded ACCEPT payload: `id u64 | token [u8;16] | watermark u64`
/// (32 bytes, all LE). On a fresh accept the watermark is 0; on a resume
/// accept it is the server's authoritative count of frames already
/// ingested — the client retransmits from there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcceptPayload {
    /// The server-assigned session id.
    pub session: u64,
    /// Opaque resume token (id + nonce); present to RESUME verbatim.
    pub token: [u8; TOKEN_LEN],
    /// Frames the server has ingested for this session.
    pub watermark: u64,
}

impl AcceptPayload {
    /// Serialized length of an ACCEPT payload.
    pub const LEN: usize = 8 + TOKEN_LEN + 8;

    /// Serialize for the wire.
    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        let mut out = [0u8; Self::LEN];
        out[..8].copy_from_slice(&self.session.to_le_bytes());
        out[8..8 + TOKEN_LEN].copy_from_slice(&self.token);
        out[8 + TOKEN_LEN..].copy_from_slice(&self.watermark.to_le_bytes());
        out
    }

    /// Parse an ACCEPT payload.
    pub fn from_bytes(payload: &[u8]) -> io::Result<Self> {
        if payload.len() != Self::LEN {
            return Err(invalid(format!(
                "ACCEPT payload is {} bytes, expected {}",
                payload.len(),
                Self::LEN
            )));
        }
        let mut token = [0u8; TOKEN_LEN];
        token.copy_from_slice(&payload[8..8 + TOKEN_LEN]);
        Ok(Self {
            session: u64::from_le_bytes(payload[..8].try_into().unwrap()),
            token,
            watermark: u64::from_le_bytes(payload[8 + TOKEN_LEN..].try_into().unwrap()),
        })
    }
}

/// Serialize a RESUME payload: `token [u8;16] | last seen watermark u64`.
pub fn encode_resume(token: &[u8; TOKEN_LEN], last_acked: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(TOKEN_LEN + 8);
    out.extend_from_slice(token);
    out.extend_from_slice(&last_acked.to_le_bytes());
    out
}

/// Parse a RESUME payload.
pub fn decode_resume(payload: &[u8]) -> io::Result<([u8; TOKEN_LEN], u64)> {
    if payload.len() != TOKEN_LEN + 8 {
        return Err(invalid(format!(
            "RESUME payload is {} bytes, expected {}",
            payload.len(),
            TOKEN_LEN + 8
        )));
    }
    let mut token = [0u8; TOKEN_LEN];
    token.copy_from_slice(&payload[..TOKEN_LEN]);
    let last = u64::from_le_bytes(payload[TOKEN_LEN..].try_into().unwrap());
    Ok((token, last))
}

/// Parse an ACK payload (the watermark).
pub fn decode_ack(payload: &[u8]) -> io::Result<u64> {
    payload
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| invalid("ACK payload is not a u64 watermark"))
}

/// One decoded wire message.
#[derive(Clone, Debug)]
pub struct Message {
    /// The discriminant byte.
    pub kind: MsgKind,
    /// The raw payload.
    pub payload: Vec<u8>,
}

/// Write one message (header + payload). Callers flush when the peer is
/// expected to act on it.
pub fn write_msg(w: &mut impl Write, kind: MsgKind, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut head = [0u8; 5];
    head[0] = kind as u8;
    head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)
}

/// Read one message, rejecting oversized length prefixes before
/// allocating.
pub fn read_msg(r: &mut impl Read) -> io::Result<Message> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let kind = MsgKind::from_u8(head[0])?;
    let len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(invalid(format!(
            "message payload of {len} bytes exceeds cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Message { kind, payload })
}

/// The HELLO payload for this protocol version.
pub fn hello_payload() -> Vec<u8> {
    let mut p = WIRE_MAGIC.to_vec();
    p.push(WIRE_VERSION);
    p
}

/// Validate a HELLO payload (magic + a version we speak).
pub fn check_hello(payload: &[u8]) -> Result<(), String> {
    if payload.len() != WIRE_MAGIC.len() + 1 || &payload[..WIRE_MAGIC.len()] != WIRE_MAGIC {
        return Err("HELLO payload is not PARDAWIRE".into());
    }
    let version = payload[WIRE_MAGIC.len()];
    if version != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {version} (server speaks {WIRE_VERSION})"
        ));
    }
    Ok(())
}

/// Build one DATA payload: the v2.1 inline frame layout over `addrs`.
pub fn encode_data_frame(addrs: &[Addr], encoding: Encoding) -> Vec<u8> {
    encode_inline_frame(addrs, None, encoding).expect("a DATA frame fits its u32 length word")
}

/// Build one thread-tagged DATA payload: the v2.2 inline frame (TID
/// dictionary + bit-packed tags + encoded addresses). Sessions configured
/// `tagged=1` exchange these instead of plain frames.
pub fn encode_tagged_data_frame(
    addrs: &[Addr],
    tids: &[Tid],
    encoding: Encoding,
) -> io::Result<Vec<u8>> {
    encode_inline_frame(addrs, Some(tids), encoding)
}

/// Validate and decode one plain DATA payload into a caller-owned arena
/// (see [`decode_inline_frame`]), so a shard decoding frames from hundreds
/// of sessions performs no per-frame allocation.
pub fn decode_data_frame_into(
    payload: &[u8],
    encoding: Encoding,
    out: &mut Vec<Addr>,
) -> Result<(), FrameError> {
    decode_inline_frame(payload, encoding, out, None)
}

/// The daemon's one-line report of a DATA frame it could not use.
pub fn data_frame_message(e: &FrameError) -> String {
    match e {
        FrameError::Malformed(msg) => format!("malformed DATA frame: {msg}"),
        FrameError::Crc { count } => {
            format!("DATA frame CRC32C mismatch ({count} refs quarantined)")
        }
        FrameError::Decode { detail, .. } => format!("DATA frame decode failed: {detail}"),
    }
}

/// Error class byte on the wire, aligned with [`PardaError::class`] plus
/// three server-side classes that map onto the configuration exit class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorClass {
    /// Unusable session configuration.
    Config = 1,
    /// Corrupt input (strict degradation).
    Corrupt = 2,
    /// I/O failure on the server side.
    Io = 3,
    /// Analysis worker panicked past its retry budget.
    WorkerPanic = 4,
    /// Watchdog / idle deadline expired.
    Stall = 5,
    /// Admission control refused the session (cap reached).
    Admission = 6,
    /// The session exceeded its byte budget.
    Budget = 7,
    /// The peer violated the message state machine.
    Protocol = 8,
    /// The transport died and reconnection attempts were exhausted
    /// (client-side classification; exits in the i/o class).
    ConnectionLost = 9,
}

impl ErrorClass {
    fn from_u8(b: u8) -> io::Result<Self> {
        Ok(match b {
            1 => ErrorClass::Config,
            2 => ErrorClass::Corrupt,
            3 => ErrorClass::Io,
            4 => ErrorClass::WorkerPanic,
            5 => ErrorClass::Stall,
            6 => ErrorClass::Admission,
            7 => ErrorClass::Budget,
            8 => ErrorClass::Protocol,
            9 => ErrorClass::ConnectionLost,
            other => return Err(invalid(format!("unknown error class {other}"))),
        })
    }
}

/// A structured server-side failure, as carried by an ERROR message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The failure class.
    pub class: ErrorClass,
    /// First detail word (worker-panic: rank; stall: rank).
    pub a: u32,
    /// Second detail word (worker-panic: attempts; stall: deadline ms).
    pub b: u32,
    /// Human-readable description.
    pub message: String,
}

impl ErrorFrame {
    /// A detail-free frame of the given class.
    pub fn new(class: ErrorClass, message: impl Into<String>) -> Self {
        Self {
            class,
            a: 0,
            b: 0,
            message: message.into(),
        }
    }

    /// Classify a [`PardaError`] for the wire, preserving the typed details.
    pub fn from_parda(e: &PardaError) -> Self {
        match e {
            PardaError::Io(inner) => Self::new(ErrorClass::Io, inner.to_string()),
            PardaError::Corrupt(msg) => Self::new(ErrorClass::Corrupt, msg.clone()),
            PardaError::Config(msg) => Self::new(ErrorClass::Config, msg.clone()),
            PardaError::WorkerPanic { rank, attempts } => Self {
                class: ErrorClass::WorkerPanic,
                a: *rank as u32,
                b: *attempts,
                message: e.to_string(),
            },
            PardaError::Stall { rank, deadline } => Self {
                class: ErrorClass::Stall,
                a: *rank as u32,
                b: u32::try_from(deadline.as_millis()).unwrap_or(u32::MAX),
                message: e.to_string(),
            },
            PardaError::ConnectionLost { attempts } => Self {
                class: ErrorClass::ConnectionLost,
                a: *attempts,
                b: 0,
                message: e.to_string(),
            },
        }
    }

    /// Rehydrate the typed error on the client side. The server-only
    /// classes (admission, budget, protocol) land in the configuration
    /// exit class — the invocation, not the data, was unacceptable.
    pub fn to_parda(&self) -> PardaError {
        match self.class {
            ErrorClass::Config => PardaError::Config(self.message.clone()),
            ErrorClass::Corrupt => PardaError::Corrupt(self.message.clone()),
            ErrorClass::Io => PardaError::Io(io::Error::other(self.message.clone())),
            ErrorClass::WorkerPanic => PardaError::WorkerPanic {
                rank: self.a as usize,
                attempts: self.b,
            },
            ErrorClass::Stall => PardaError::Stall {
                rank: self.a as usize,
                deadline: Duration::from_millis(u64::from(self.b)),
            },
            ErrorClass::Admission => PardaError::Config(format!("server: {}", self.message)),
            ErrorClass::Budget => PardaError::Config(format!("server: {}", self.message)),
            ErrorClass::Protocol => PardaError::Config(format!("protocol: {}", self.message)),
            ErrorClass::ConnectionLost => PardaError::ConnectionLost { attempts: self.a },
        }
    }

    /// Serialize for an ERROR message payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.message.len());
        out.push(self.class as u8);
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(self.message.as_bytes());
        out
    }

    /// Parse an ERROR message payload.
    pub fn from_payload(payload: &[u8]) -> io::Result<Self> {
        if payload.len() < 9 {
            return Err(invalid("ERROR payload shorter than its fixed fields"));
        }
        let class = ErrorClass::from_u8(payload[0])?;
        let a = u32::from_le_bytes(payload[1..5].try_into().unwrap());
        let b = u32::from_le_bytes(payload[5..9].try_into().unwrap());
        let message = String::from_utf8(payload[9..].to_vec())
            .map_err(|_| invalid("ERROR message is not UTF-8"))?;
        Ok(Self {
            class,
            a,
            b,
            message,
        })
    }
}

/// Serialize a histogram for a binary STATS body:
/// `npairs u64 | (distance u64, count u64)* | infinite u64` (LE).
pub fn encode_histogram_binary(hist: &parda_hist::ReuseHistogram) -> Vec<u8> {
    let pairs: Vec<(u64, u64)> = hist
        .finite_counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(d, &c)| (d as u64, c))
        .collect();
    let mut out = Vec::with_capacity(8 + pairs.len() * 16 + 8);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (d, c) in pairs {
        out.extend_from_slice(&d.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&hist.infinite().to_le_bytes());
    out
}

/// Rebuild the histogram from a binary STATS body. Exact: counts only
/// ever grow, so re-recording every non-zero bucket reproduces the
/// original bit for bit.
pub fn decode_histogram_binary(body: &[u8]) -> io::Result<parda_hist::ReuseHistogram> {
    let take_u64 = |b: &[u8], at: usize| -> io::Result<u64> {
        b.get(at..at + 8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
            .ok_or_else(|| invalid("binary histogram truncated"))
    };
    let npairs = take_u64(body, 0)?;
    let expected = 8 + (npairs as usize).saturating_mul(16) + 8;
    if body.len() != expected {
        return Err(invalid(format!(
            "binary histogram is {} bytes, layout requires {expected}",
            body.len()
        )));
    }
    let mut hist = parda_hist::ReuseHistogram::new();
    let mut at = 8;
    for _ in 0..npairs {
        let d = take_u64(body, at)?;
        let c = take_u64(body, at + 8)?;
        hist.record_finite_n(d, c);
        at += 16;
    }
    let inf = take_u64(body, at)?;
    if inf > 0 {
        hist.record_infinite_n(inf);
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn message_round_trips_through_a_byte_buffer() {
        let mut buf = Vec::new();
        write_msg(&mut buf, MsgKind::Hello, &hello_payload()).unwrap();
        write_msg(&mut buf, MsgKind::Fin, &[]).unwrap();
        let mut r = buf.as_slice();
        let hello = read_msg(&mut r).unwrap();
        assert_eq!(hello.kind, MsgKind::Hello);
        check_hello(&hello.payload).unwrap();
        let fin = read_msg(&mut r).unwrap();
        assert_eq!(fin.kind, MsgKind::Fin);
        assert!(fin.payload.is_empty());
        assert!(read_msg(&mut r).is_err(), "buffer exhausted");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = vec![MsgKind::Data as u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_msg(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn accept_resume_and_ack_payloads_round_trip() {
        let accept = AcceptPayload {
            session: 0xDEAD_BEEF_u64,
            token: *b"0123456789abcdef",
            watermark: 42,
        };
        let bytes = accept.to_bytes();
        assert_eq!(bytes.len(), AcceptPayload::LEN);
        assert_eq!(AcceptPayload::from_bytes(&bytes).unwrap(), accept);
        assert!(AcceptPayload::from_bytes(&bytes[..8]).is_err());

        let resume = encode_resume(&accept.token, 42);
        let (token, last) = decode_resume(&resume).unwrap();
        assert_eq!(token, accept.token);
        assert_eq!(last, 42);
        assert!(decode_resume(&resume[..10]).is_err());

        assert_eq!(decode_ack(&7u64.to_le_bytes()).unwrap(), 7);
        assert!(decode_ack(&[1, 2, 3]).is_err());
    }

    #[test]
    fn bad_hello_versions_and_magic_are_rejected() {
        assert!(check_hello(b"PARDAWIRE\x01").is_ok());
        assert!(check_hello(b"PARDAWIRE\x63").is_err());
        assert!(check_hello(b"NOTPARDA!\x01").is_err());
        assert!(check_hello(b"").is_err());
    }

    /// Bytes of a DATA frame's inline header: count, len, crc32c.
    const HEADER: usize = 12;

    proptest! {
        #[test]
        fn data_frames_round_trip(
            addrs in proptest::collection::vec(0u64..1 << 48, 0..400),
            raw in any::<bool>(),
        ) {
            let encoding = if raw { Encoding::Raw } else { Encoding::DeltaVarint };
            let frame = encode_data_frame(&addrs, encoding);
            let mut back = Vec::new();
            decode_data_frame_into(&frame, encoding, &mut back).unwrap();
            prop_assert_eq!(back, addrs);
        }

        #[test]
        fn flipped_byte_in_a_data_frame_is_caught(
            addrs in proptest::collection::vec(0u64..1 << 48, 1..200),
            flip_body in any::<bool>(),
            bit in 0u8..8,
        ) {
            let frame = encode_data_frame(&addrs, Encoding::DeltaVarint);
            let mut bad = frame.clone();
            // Flip in the body (CRC catches it) or in the CRC field itself.
            let at = if flip_body { HEADER } else { 8 };
            bad[at] ^= 1 << bit;
            let mut out = Vec::new();
            prop_assert!(decode_data_frame_into(&bad, Encoding::DeltaVarint, &mut out).is_err());
        }
    }

    #[test]
    fn tagged_data_frames_round_trip_and_catch_corruption() {
        let addrs = [0x10u64, 0x20, 0x10, 0x30, 0x20];
        let tids = [0u32, 1, 0, 2, 1];
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            let frame = encode_tagged_data_frame(&addrs, &tids, encoding).unwrap();
            let (mut a, mut t) = (Vec::new(), Vec::new());
            decode_inline_frame(&frame, encoding, &mut a, Some(&mut t)).unwrap();
            assert_eq!(a, addrs);
            assert_eq!(t, tids);

            let mut bad = frame.clone();
            bad[HEADER] ^= 0x08;
            assert!(matches!(
                decode_inline_frame(&bad, encoding, &mut a, Some(&mut t)),
                Err(FrameError::Crc { count: 5 })
            ));
            assert!(matches!(
                decode_inline_frame(&frame[..6], encoding, &mut a, Some(&mut t)),
                Err(FrameError::Malformed(_))
            ));
        }
    }

    #[test]
    fn crc_and_malformed_errors_are_distinguished() {
        let mut out = Vec::new();
        let frame = encode_data_frame(&[1, 2, 3], Encoding::Raw);
        let mut bad = frame.clone();
        bad[HEADER] ^= 0x40;
        match decode_data_frame_into(&bad, Encoding::Raw, &mut out) {
            Err(e @ FrameError::Crc { count: 3 }) => assert_eq!(
                data_frame_message(&e),
                "DATA frame CRC32C mismatch (3 refs quarantined)"
            ),
            other => panic!("expected Crc error, got {other:?}"),
        }
        match decode_data_frame_into(&frame[..6], Encoding::Raw, &mut out) {
            Err(FrameError::Malformed(_)) => {}
            other => panic!("expected Malformed error, got {other:?}"),
        }
        // Consistent header+CRC but an undecodable payload: a two-ref raw
        // frame whose header claims three, so only the count disagrees.
        let mut torn = encode_data_frame(&[1, 2], Encoding::Raw);
        torn[..4].copy_from_slice(&3u32.to_le_bytes());
        match decode_data_frame_into(&torn, Encoding::Raw, &mut out) {
            Err(FrameError::Decode { count: 3, .. }) => {}
            other => panic!("expected Decode error, got {other:?}"),
        }
    }

    #[test]
    fn error_frames_round_trip_typed_details() {
        let cases = [
            PardaError::Config("bad tree".into()),
            PardaError::Corrupt("crc mismatch".into()),
            PardaError::Io(io::Error::other("disk on fire")),
            PardaError::WorkerPanic {
                rank: 3,
                attempts: 4,
            },
            PardaError::Stall {
                rank: 1,
                deadline: Duration::from_millis(250),
            },
            PardaError::ConnectionLost { attempts: 5 },
        ];
        for e in &cases {
            let frame = ErrorFrame::from_parda(e);
            let back = ErrorFrame::from_payload(&frame.to_payload()).unwrap();
            assert_eq!(back, frame);
            let rehydrated = back.to_parda();
            assert_eq!(rehydrated.class(), e.class(), "{e}");
        }
        let panic = ErrorFrame::from_parda(&cases[3]).to_parda();
        match panic {
            PardaError::WorkerPanic { rank, attempts } => {
                assert_eq!((rank, attempts), (3, 4));
            }
            other => panic!("lost panic details: {other:?}"),
        }
    }

    #[test]
    fn server_only_classes_map_to_the_config_exit_class() {
        for class in [
            ErrorClass::Admission,
            ErrorClass::Budget,
            ErrorClass::Protocol,
        ] {
            let e = ErrorFrame::new(class, "refused").to_parda();
            assert_eq!(e.class(), "config");
        }
    }

    proptest! {
        #[test]
        fn binary_histogram_round_trips(
            pairs in proptest::collection::vec((0u64..10_000, 1u64..1000), 0..50),
            inf in 0u64..1000,
        ) {
            let mut hist = parda_hist::ReuseHistogram::new();
            for &(d, c) in &pairs {
                hist.record_finite_n(d, c);
            }
            if inf > 0 {
                hist.record_infinite_n(inf);
            }
            let back = decode_histogram_binary(&encode_histogram_binary(&hist)).unwrap();
            prop_assert_eq!(back, hist);
        }
    }

    #[test]
    fn binary_histogram_rejects_truncation() {
        let mut hist = parda_hist::ReuseHistogram::new();
        hist.record_finite_n(5, 2);
        hist.record_infinite_n(1);
        let body = encode_histogram_binary(&hist);
        assert!(decode_histogram_binary(&body[..body.len() - 1]).is_err());
        assert!(decode_histogram_binary(&[]).is_err());
    }
}
