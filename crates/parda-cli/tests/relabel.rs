//! Relabelling invariance through the CLI: a reuse distance counts
//! distinct addresses, so any injective relabelling of a trace's addresses
//! leaves every exact histogram, and so every printed byte, unchanged. A
//! zipf v2 trace and four relabelled copies (a stride of 2^12 past a base,
//! an xor mask, a seeded permutation of its distinct addresses, an odd
//! multiplier) must print the same `analyze --json` under every exact
//! engine, the same `--stats=json` histogram and the same `mrc`.
//!
//! `--approx` and `--line-bits` are left out on purpose: SHARDS samples by
//! address hash and line folding merges neighbouring addresses, so neither
//! output is relabelling-invariant.

use parda_cli::run;
use parda_trace::io::{load_trace, write_trace_v2_framed, Encoding};
use parda_trace::{Addr, Trace};
use serde_json::Value;
use std::collections::HashMap;

fn run_to_string(argv: &[&str]) -> (i32, String) {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = run(&argv, &mut buf);
    (code, String::from_utf8(buf).unwrap())
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("parda-cli-relabel-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// splitmix64: a seeded stream for the permutation.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `trace` with its distinct addresses shuffled among themselves.
fn permuted(trace: &[Addr], seed: u64) -> Vec<Addr> {
    let mut distinct = trace.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut image = distinct.clone();
    let mut state = seed;
    for i in (1..image.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        image.swap(i, j);
    }
    let map: HashMap<Addr, Addr> = distinct.into_iter().zip(image).collect();
    trace.iter().map(|a| map[a]).collect()
}

/// What the CLI prints for `path` on every relabelling-invariant surface.
fn outputs(path: &str) -> Vec<(&'static str, String)> {
    let print = |argv: &[&str]| {
        let (code, out) = run_to_string(argv);
        assert_eq!(code, 0, "{argv:?} failed: {out}");
        out
    };
    let stats = print(&["analyze", path, "--stats=json"]);
    let doc: Value = serde_json::from_str(stats.trim_end()).expect("one JSON document");
    let histogram = serde_json::to_string(doc.field("histogram").unwrap()).unwrap();
    vec![
        ("analyze --json", print(&["analyze", path, "--json"])),
        (
            "analyze --engine parda --json",
            print(&["analyze", path, "--engine", "parda", "--json"]),
        ),
        (
            "analyze --engine seq --json",
            print(&["analyze", path, "--engine", "seq", "--json"]),
        ),
        ("analyze --stats=json histogram", histogram),
        ("mrc", print(&["mrc", path])),
    ]
}

#[test]
fn relabelled_traces_print_the_same_bytes() {
    let path = tmp("zipf.trc");
    let (code, out) = run_to_string(&[
        "gen",
        "--pattern",
        "zipf",
        "--footprint",
        "8192",
        "--refs",
        "300000",
        "--seed",
        "3",
        "--out",
        &path,
    ]);
    assert_eq!(code, 0, "gen failed: {out}");
    let trace = load_trace(&path).unwrap().into_vec();
    let expected = outputs(&path);

    let copies: [(&str, Vec<Addr>); 4] = [
        (
            "stride",
            trace
                .iter()
                .map(|&a| 0x7f00_0000_0000u64.wrapping_add(a << 12))
                .collect(),
        ),
        (
            "xor",
            trace.iter().map(|&a| a ^ 0x5a5a_a5a5_0f0f_f0f0).collect(),
        ),
        ("permutation", permuted(&trace, 31)),
        // An odd multiplier is a bijection of u64 that scatters the
        // addresses, so the table's probe chains differ from the dense
        // trace's, which the three maps above leave collision-free.
        (
            "odd multiplier",
            trace
                .iter()
                .map(|&a| a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        ),
    ];
    for (name, addrs) in copies {
        let copy = tmp(&format!("zipf-{name}.trc"));
        let file = std::fs::File::create(&copy).unwrap();
        write_trace_v2_framed(file, &Trace::from_vec(addrs), Encoding::DeltaVarint, 4096).unwrap();
        for ((surface, want), (_, got)) in expected.iter().zip(outputs(&copy)) {
            assert_eq!(&got, want, "{name}: {surface}");
        }
        std::fs::remove_file(&copy).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}
