//! Golden bytes: one fixed 300-reference trace written in every trace
//! format and as daemon DATA frames, each image pinned by its length and
//! CRC32C. Any change to a single byte of any layout — file header, inline
//! frame header, v2.2 tag block, address block, footer index, DATA frame —
//! fails here, so a refactor of the frame code can prove it changed no
//! format.

use parda_hash::crc32c;
use parda_server::proto::{encode_data_frame, encode_tagged_data_frame};
use parda_trace::io::{
    decode_trace, write_tagged_trace_v2_framed, write_trace, write_trace_v2_framed_opts, Encoding,
};
use parda_trace::{Addr, ThreadedTrace, Tid, Trace};

const REFS: usize = 300;
const FRAME: usize = 64;

/// Large addresses with deltas of both signs and varying varint widths.
fn addrs() -> Vec<Addr> {
    (0..REFS as u64)
        .map(|i| 0x7f00_0000_0000 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) * 8)
        .collect()
}

/// Three thread IDs. Refs 128..192 (exactly frame 2) belong to one thread,
/// so that frame's tag block carries a one-entry dictionary and no index
/// bits; every other frame packs 2-bit indices.
fn tids() -> Vec<Tid> {
    const IDS: [Tid; 3] = [7, 300, 70_000];
    (0..REFS)
        .map(|i| {
            if (128..192).contains(&i) {
                IDS[1]
            } else {
                IDS[(i * i / 5 + i) % 3]
            }
        })
        .collect()
}

fn v1(encoding: Encoding) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, &Trace::from_vec(addrs()), encoding).unwrap();
    buf
}

fn v2(encoding: Encoding, checksums: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace_v2_framed_opts(
        &mut buf,
        &Trace::from_vec(addrs()),
        encoding,
        FRAME,
        checksums,
    )
    .unwrap();
    buf
}

fn v22(encoding: Encoding) -> Vec<u8> {
    let mut buf = Vec::new();
    let trace = ThreadedTrace::from_parts(addrs(), tids());
    write_tagged_trace_v2_framed(&mut buf, &trace, encoding, FRAME).unwrap();
    buf
}

fn data(encoding: Encoding) -> Vec<u8> {
    encode_data_frame(&addrs()[..FRAME], encoding)
}

fn tagged_data(encoding: Encoding) -> Vec<u8> {
    encode_tagged_data_frame(&addrs()[..FRAME], &tids()[..FRAME], encoding).unwrap()
}

#[test]
fn every_format_is_byte_identical_to_its_pinned_image() {
    use Encoding::{DeltaVarint as Delta, Raw};
    let images: [(&str, Vec<u8>, usize, u32); 12] = [
        ("v1 raw", v1(Raw), 2424, 0x2780_047f),
        ("v1 delta", v1(Delta), 1227, 0xa8f5_b277),
        ("v2.0 raw", v2(Raw, false), 2560, 0x28e4_441f),
        ("v2.0 delta", v2(Delta, false), 1375, 0x4f40_b58d),
        ("v2.1 raw", v2(Raw, true), 2584, 0x498b_977f),
        ("v2.1 delta", v2(Delta, true), 1399, 0xffd4_7853),
        ("v2.2 raw", v22(Raw), 2674, 0x5606_a5c2),
        ("v2.2 delta", v22(Delta), 1489, 0x0448_e7ef),
        ("DATA raw", data(Raw), 524, 0xb299_f035),
        ("DATA delta", data(Delta), 271, 0xe9e1_61d8),
        ("tagged DATA raw", tagged_data(Raw), 547, 0xc8fb_0232),
        ("tagged DATA delta", tagged_data(Delta), 294, 0xd98b_a5d4),
    ];
    let mut wrong = Vec::new();
    for (name, bytes, len, crc) in &images {
        if (bytes.len(), crc32c(bytes)) != (*len, *crc) {
            wrong.push(format!(
                "{name}: {} bytes, crc32c {:#010x} (pinned {len} bytes, {crc:#010x})",
                bytes.len(),
                crc32c(bytes)
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn every_pinned_file_image_decodes_to_the_trace() {
    let want = Trace::from_vec(addrs());
    for encoding in [Encoding::Raw, Encoding::DeltaVarint] {
        for image in [
            v1(encoding),
            v2(encoding, false),
            v2(encoding, true),
            v22(encoding),
        ] {
            assert_eq!(decode_trace(&image).unwrap(), want, "{encoding:?}");
        }
    }
}
