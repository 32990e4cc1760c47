//! End-to-end fault tolerance: corrupted trace files driven through the
//! full pipeline must never panic or hang. `Strict` fails cleanly on the
//! first violation; the lossy policies produce exactly the histogram of
//! the surviving frames plus an honest [`parda::obs::RecoveryMetrics`]
//! report. The corruptions here are randomized — byte flips, truncations,
//! and outright garbage — over freshly written v2.1 files; a mutation
//! harness drives every reader over v2.0, v2.1 and v2.2 images, and the
//! daemon's DATA frames, under bit flips, truncations, 4-byte rewrites and
//! runs of random bytes.

use parda::prelude::*;
use parda::trace::io::{
    decode_inline_frame, decode_trace, encode_inline_frame, read_trace,
    write_tagged_trace_v2_framed, write_trace_v2_framed, write_trace_v2_framed_opts, Encoding,
    FrameError,
};
use parda::trace::stream::FramedStream;
use parda::trace::{
    decode_tagged_trace_recovering, decode_trace_recovering, load_trace_recovering, verify_trace,
    ThreadedTrace, Tid,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FRAME_REFS: usize = 64;

/// Serialize a trace into a v2.1 (checksummed) image with 64-ref frames.
fn framed_image(trace: &[u64], encoding: Encoding) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace_v2_framed(
        &mut buf,
        &Trace::from_vec(trace.to_vec()),
        encoding,
        FRAME_REFS,
    )
    .unwrap();
    buf
}

/// Byte offset of frame `i`'s payload in a freshly written *raw* v2.1
/// image: 24-byte file header, then per full frame a 12-byte inline header
/// and `FRAME_REFS`·8 payload bytes. Valid because only the last frame can
/// be partial.
fn raw_payload_offset(frame: usize) -> usize {
    24 + frame * (12 + FRAME_REFS * 8) + 12
}

/// The trace that remains after dropping the given frames whole.
fn surviving(trace: &[u64], corrupt: &[usize]) -> Vec<u64> {
    trace
        .chunks(FRAME_REFS)
        .enumerate()
        .filter(|(i, _)| !corrupt.contains(i))
        .flat_map(|(_, c)| c.iter().copied())
        .collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("parda-fault-tolerance-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    /// Flipping payload bytes in k distinct frames: strict decoding fails,
    /// the lossy policies return exactly the in-order concatenation of the
    /// surviving frames, and the metrics tally exactly the k victims.
    #[test]
    fn byte_flips_skip_exactly_the_corrupt_frames(
        trace in proptest::collection::vec(0u64..512, 320..1280),
        picks in proptest::collection::vec(any::<u64>(), 1..4),
        flip in 1u8..=255,
    ) {
        let image = framed_image(&trace, Encoding::Raw);
        let nframes = trace.len().div_ceil(FRAME_REFS);
        // Corrupt only full frames so the fixed-stride offset formula and
        // the refs_dropped arithmetic below stay exact.
        let full = trace.len() / FRAME_REFS;
        let mut corrupt: Vec<usize> = picks.iter().map(|p| (*p as usize) % full).collect();
        corrupt.sort_unstable();
        corrupt.dedup();

        let mut bad = image.clone();
        for (j, &f) in corrupt.iter().enumerate() {
            bad[raw_payload_offset(f) + (j * 97) % (FRAME_REFS * 8)] ^= flip;
        }

        prop_assert!(decode_trace_recovering(&bad, Degradation::Strict).is_err());

        let expect = surviving(&trace, &corrupt);
        for policy in [Degradation::Repair, Degradation::BestEffort] {
            let (got, m) = decode_trace_recovering(&bad, policy).unwrap();
            prop_assert_eq!(got.as_slice(), expect.as_slice());
            prop_assert_eq!(m.frames_total, nframes as u64);
            prop_assert_eq!(m.frames_skipped, corrupt.len() as u64);
            prop_assert_eq!(m.refs_dropped, (corrupt.len() * FRAME_REFS) as u64);
            prop_assert_eq!(m.crc_failures, corrupt.len() as u64);
            let skipped: Vec<u64> = corrupt.iter().map(|&f| f as u64).collect();
            prop_assert_eq!(m.skipped_frames.clone(), skipped);
        }
    }

    /// Truncating the image anywhere must never panic; with the file header
    /// intact, best-effort salvages a frame-aligned prefix of the original.
    #[test]
    fn truncation_is_salvaged_or_rejected_never_a_panic(
        trace in proptest::collection::vec(0u64..512, 64..640),
        encoding_raw in any::<bool>(),
        cut_seed in any::<u64>(),
    ) {
        let encoding = if encoding_raw { Encoding::Raw } else { Encoding::DeltaVarint };
        let image = framed_image(&trace, encoding);
        let cut = (cut_seed as usize) % image.len();
        let short = &image[..cut];

        // Footer gone: strict and repair must reject it (or, for cut == 0
        // and other sub-header cuts, fail header parsing) — cleanly.
        prop_assert!(decode_trace_recovering(short, Degradation::Strict).is_err());
        prop_assert!(decode_trace_recovering(short, Degradation::Repair).is_err());

        match decode_trace_recovering(short, Degradation::BestEffort) {
            Ok((got, m)) => {
                // Whatever was salvaged is a prefix of the original trace.
                prop_assert!(got.len() <= trace.len());
                prop_assert_eq!(got.as_slice(), &trace[..got.len()]);
                prop_assert_eq!(m.refs_dropped, (trace.len() - got.len()) as u64);
            }
            // Only a destroyed *file header* is allowed to fail best-effort.
            Err(_) => prop_assert!(cut < 24, "cut={cut} failed after a readable header"),
        }
    }

    /// Arbitrary garbage: every policy returns an error or a trace, never a
    /// panic, a hang, or an absurd allocation. A real header grafted onto
    /// garbage must still succeed under best-effort (salvaging nothing).
    #[test]
    fn garbage_bytes_never_panic(
        garbage in proptest::collection::vec(any::<u8>(), 0..600),
        trace in proptest::collection::vec(0u64..64, 128..192),
    ) {
        for policy in [Degradation::Strict, Degradation::Repair, Degradation::BestEffort] {
            let _ = decode_trace_recovering(&garbage, policy);
        }
        // "Never fail once a readable file header was found": a valid v2.1
        // header followed by junk decodes to *something* under best-effort.
        let image = framed_image(&trace, Encoding::Raw);
        let mut grafted = image[..24].to_vec();
        grafted.extend_from_slice(&garbage);
        let (got, _) = decode_trace_recovering(&grafted, Degradation::BestEffort).unwrap();
        prop_assert!(got.len() <= trace.len());
    }

    /// The full pipeline over a corrupt *file*: under best-effort, both the
    /// in-memory parallel driver and the streaming phased driver produce
    /// exactly the clean histogram of the surviving frames, and the report
    /// counts the victims.
    #[test]
    fn best_effort_analysis_equals_clean_analysis_of_survivors(
        trace in proptest::collection::vec(0u64..256, 640..960),
        pick in any::<u64>(),
        ranks in 2usize..5,
    ) {
        let full = trace.len() / FRAME_REFS;
        let corrupt = vec![(pick as usize) % full];
        let mut bad = framed_image(&trace, Encoding::Raw);
        bad[raw_payload_offset(corrupt[0]) + 11] ^= 0xA5;
        let path = tmp("best-effort.trc");
        std::fs::write(&path, &bad).unwrap();

        let expect_trace = surviving(&trace, &corrupt);
        let modes = [
            Mode::Threads,
            Mode::Phased { chunk: 100, reduction: Reduction::ShipToRankZero },
        ];
        for mode in modes {
            let analysis = Analysis::new()
                .mode(mode)
                .ranks(ranks)
                .stats(true)
                .degradation(Degradation::BestEffort);
            let (expect_hist, _) = analysis.run(&expect_trace);
            let (hist, report) = analysis.run_file(&path).unwrap();
            prop_assert_eq!(&hist, &expect_hist);
            let rec = report.unwrap().recovery.expect("recovery metrics attached");
            prop_assert_eq!(rec.frames_skipped, 1);
            prop_assert_eq!(rec.refs_dropped, FRAME_REFS as u64);
        }

        // Strict on the same file is a clean, classified failure.
        let strict = Analysis::new().mode(Mode::Threads).ranks(ranks).run_file(&path);
        prop_assert_eq!(strict.unwrap_err().class(), "corrupt");
    }
}

/// Adversarial header fields: a count far beyond the actual payload and
/// oversized frame shapes must come back as clean errors (no panic, no
/// multi-gigabyte allocation). This drives the load path end-to-end at the
/// facade level.
#[test]
fn adversarial_lengths_are_invalid_data_not_panics() {
    let trace: Vec<u64> = (0..200u64).collect();

    // v1 with a 2^60 count: the reader must hit EOF, not pre-allocate.
    let mut v1 = Vec::new();
    parda::trace::io::write_trace(&mut v1, &Trace::from_vec(trace.clone()), Encoding::Raw).unwrap();
    v1[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
    for policy in [Degradation::Strict, Degradation::Repair] {
        assert!(decode_trace_recovering(&v1, policy).is_err());
    }
    // Best-effort keeps the decodable prefix instead.
    let (got, _) = decode_trace_recovering(&v1, Degradation::BestEffort).unwrap();
    assert_eq!(got.as_slice(), trace.as_slice());

    // v2.1 with an inflated frame count in the inline header: shape check
    // must reject it before any allocation is sized from it.
    let mut v2 = framed_image(&trace, Encoding::Raw);
    v2[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_trace_recovering(&v2, Degradation::Strict).is_err());
    let (got, m) = decode_trace_recovering(&v2, Degradation::Repair).unwrap();
    assert_eq!(got.as_slice(), &trace[64..], "frame 0 quarantined");
    assert_eq!(m.frames_skipped, 1);
}

/// `verify_trace` agrees with the decoder about what is and is not intact,
/// without running any analysis.
#[test]
fn verify_matches_decoder_verdict() {
    let trace: Vec<u64> = (0..640u64).map(|i| (i * 37) % 400).collect();
    let path = tmp("verify.trc");
    std::fs::write(&path, framed_image(&trace, Encoding::Raw)).unwrap();
    let report = verify_trace(&path).unwrap();
    assert_eq!((report.version, report.minor), (2, 1));
    assert_eq!(report.frames, 10);
    assert_eq!(report.refs, 640);
    assert!(report.checksummed);
    let (t, m) = load_trace_recovering(&path, Degradation::Strict).unwrap();
    assert_eq!(t.as_slice(), trace.as_slice());
    assert!(m.is_clean());

    let mut bad = framed_image(&trace, Encoding::Raw);
    bad[raw_payload_offset(4)] ^= 0x10;
    std::fs::write(&path, &bad).unwrap();
    let err = verify_trace(&path).unwrap_err();
    assert!(err.to_string().contains("frame 4"), "{err}");
}

/// The v2 layouts the mutation harness covers: minor version (0 = v2.0,
/// 1 = v2.1 with CRCs, 2 = v2.2 thread-tagged) and address encoding.
const V2_LAYOUTS: [(u32, Encoding); 6] = [
    (0, Encoding::Raw),
    (0, Encoding::DeltaVarint),
    (1, Encoding::Raw),
    (1, Encoding::DeltaVarint),
    (2, Encoding::Raw),
    (2, Encoding::DeltaVarint),
];

/// Three thread IDs in a skewed interleaving, so tag blocks pack 2-bit
/// indices over a three-entry dictionary.
fn tids_for(n: usize) -> Vec<Tid> {
    (0..n)
        .map(|i| [7, 300, 70_000][(i * i / 5 + i) % 3])
        .collect()
}

/// A multi-frame v2 image of `trace` in one of [`V2_LAYOUTS`].
fn v2_image(trace: &[u64], minor: u32, encoding: Encoding) -> Vec<u8> {
    let mut buf = Vec::new();
    if minor == 2 {
        let t = ThreadedTrace::from_parts(trace.to_vec(), tids_for(trace.len()));
        write_tagged_trace_v2_framed(&mut buf, &t, encoding, FRAME_REFS).unwrap();
    } else {
        let t = Trace::from_vec(trace.to_vec());
        write_trace_v2_framed_opts(&mut buf, &t, encoding, FRAME_REFS, minor == 1).unwrap();
    }
    buf
}

fn word_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Offsets of the words a reader trusts in a clean v2 image: the file
/// header's version, encoding and count, every frame's inline header,
/// every index entry, the index CRC, and the footer's frame count and
/// magic. The 4-byte rewrites aim at these half of the time.
fn structural_words(image: &[u8], minor: u32) -> Vec<usize> {
    let n = image.len();
    let tail = if minor == 0 { 16 } else { 20 };
    let nframes = word_at(image, n - 16);
    let index = n - tail - 16 * nframes;
    let mut words = vec![8, 12, 16, 20, n - 16, n - 12, n - 8, n - 4];
    if minor > 0 {
        words.push(n - 20);
    }
    for i in 0..nframes {
        let entry = index + 16 * i;
        words.extend((0..4).map(|w| entry + 4 * w));
        let frame = word_at(image, entry);
        words.extend([frame, frame + 4]);
        if minor > 0 {
            words.push(frame + 8);
        }
    }
    words
}

/// One corruption of `image`, chosen by `kind`: a bit flip, a truncation,
/// a 4-byte rewrite with 0, 1, 2^31, `u32::MAX` or a random word (at one
/// of the `words` offsets half the time), or a run of up to 32 random
/// bytes. `pos` and `arg` pick where and what.
fn mutate(image: &[u8], kind: u8, pos: u64, arg: u64, words: &[usize]) -> Vec<u8> {
    let mut bad = image.to_vec();
    let n = image.len();
    let pos = pos as usize;
    match kind % 4 {
        0 => bad[pos % n] ^= 1 << (arg % 8),
        1 => bad.truncate(pos % n),
        2 => {
            let at = if arg & 1 == 0 {
                words[pos % words.len()]
            } else {
                pos % (n - 3)
            };
            let word = [0, 1, 1 << 31, u32::MAX, (arg >> 32) as u32][(arg >> 1) as usize % 5];
            bad[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        _ => {
            let at = pos % n;
            let len = (1 + arg as usize % 32).min(n - at);
            let mut rng = StdRng::seed_from_u64(arg);
            for b in &mut bad[at..at + len] {
                *b = rng.gen();
            }
        }
    }
    bad
}

/// Every reference the strict stream yields, or the error its handle
/// recorded.
fn stream_all(path: &std::path::Path, policy: Degradation) -> std::io::Result<Vec<u64>> {
    let mut stream = FramedStream::open_with_policy(path, 2, policy)?;
    let errors = stream.error_handle();
    let mut out = Vec::new();
    stream.fill(&mut out, usize::MAX);
    drop(stream);
    errors.take().map_or(Ok(out), Err)
}

proptest! {
    /// Mutated v2.0, v2.1 and v2.2 images, raw and delta: no reader
    /// panics, whatever the policy, and the strict readers reach one
    /// verdict — the same addresses when they accept. The stream refuses
    /// v1 by design, so it joins the verdict only while the version word
    /// still says v2. On checksummed images with an intact file header
    /// every effective mutation is rejected.
    #[test]
    fn every_reader_survives_mutated_images_and_strict_readers_agree(
        trace in proptest::collection::vec(0u64..1 << 40, 130..400),
        mutations in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 8..9),
    ) {
        let path = tmp("mutated.trc");
        for (minor, encoding) in V2_LAYOUTS {
            let image = v2_image(&trace, minor, encoding);
            let words = structural_words(&image, minor);
            for &(kind, pos, arg) in &mutations {
                let bad = mutate(&image, kind, pos, arg, &words);
                std::fs::write(&path, &bad).unwrap();
                let what = format!("v2.{minor} {encoding:?} mutation {kind} at {pos}");
                let header_intact = bad.get(..24) == Some(&image[..24]);

                for policy in [Degradation::Strict, Degradation::Repair, Degradation::BestEffort] {
                    let lossy = decode_trace_recovering(&bad, policy);
                    let tagged = decode_tagged_trace_recovering(&bad, policy);
                    if policy == Degradation::BestEffort && header_intact {
                        prop_assert!(lossy.is_ok(), "{what}: best-effort failed past a clean header");
                        prop_assert!(minor < 2 || tagged.is_ok(), "{what}: tagged best-effort failed");
                    }
                }
                let _ = stream_all(&path, Degradation::BestEffort);

                let sequential = read_trace(bad.as_slice()).map(Trace::into_vec);
                let parallel = decode_trace(&bad).map(Trace::into_vec);
                let recovering = decode_trace_recovering(&bad, Degradation::Strict)
                    .map(|(t, _)| t.into_vec());
                let verified = verify_trace(&path);
                let mut verdicts = vec![
                    ("read_trace", sequential.is_ok()),
                    ("decode_trace", parallel.is_ok()),
                    ("decode_trace_recovering", recovering.is_ok()),
                    ("verify_trace", verified.is_ok()),
                ];
                let streamed = (bad.len() >= 12 && bad[8..10] == [2, 0])
                    .then(|| stream_all(&path, Degradation::Strict));
                if let Some(streamed) = &streamed {
                    verdicts.push(("FramedStream", streamed.is_ok()));
                }
                let accepted = sequential.is_ok();
                prop_assert!(
                    verdicts.iter().all(|&(_, ok)| ok == accepted),
                    "{what}: strict readers disagree: {verdicts:?}"
                );
                if let Ok(addrs) = &sequential {
                    prop_assert_eq!(parallel.as_ref().unwrap(), addrs, "{}", what);
                    prop_assert_eq!(recovering.as_ref().unwrap(), addrs, "{}", what);
                    prop_assert_eq!(verified.unwrap().refs, addrs.len() as u64, "{}", what);
                    if let Some(Ok(streamed)) = &streamed {
                        prop_assert_eq!(streamed, addrs, "{}", what);
                    }
                    if minor == 2 && header_intact {
                        let (t, _) = decode_tagged_trace_recovering(&bad, Degradation::Strict)
                            .unwrap();
                        prop_assert_eq!(t.addrs(), addrs.as_slice(), "{}", what);
                    }
                }
                if minor > 0 && bad != image && header_intact {
                    prop_assert!(!accepted, "{what}: a checksummed image took a mutation");
                }
            }
        }
    }

    /// The daemon's DATA frames — plain and tagged, raw and delta — under
    /// the same mutations: every effective one is rejected with a typed
    /// error (CRC32C covers the payload, the header must fit it), never a
    /// panic, and an untouched frame still decodes.
    #[test]
    fn mutated_data_frames_are_rejected_with_a_typed_error(
        addrs in proptest::collection::vec(0u64..1 << 40, 1..200),
        mutations in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 16..17),
    ) {
        let tids = tids_for(addrs.len());
        let (mut got, mut got_tids) = (Vec::new(), Vec::new());
        for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
            for tagged in [false, true] {
                let frame =
                    encode_inline_frame(&addrs, tagged.then_some(tids.as_slice()), encoding)
                        .unwrap();
                for &(kind, pos, arg) in &mutations {
                    let bad = mutate(&frame, kind, pos, arg, &[0, 4, 8]);
                    let keep = tagged.then_some(&mut got_tids);
                    let decoded: Result<(), FrameError> =
                        decode_inline_frame(&bad, encoding, &mut got, keep);
                    let what = format!("{encoding:?} tagged={tagged} mutation {kind} at {pos}");
                    if bad == frame {
                        prop_assert!(decoded.is_ok(), "{what}: {decoded:?}");
                        prop_assert_eq!(&got, &addrs);
                    } else {
                        prop_assert!(decoded.is_err(), "{what}: a mutated frame decoded");
                    }
                }
            }
        }
    }
}
