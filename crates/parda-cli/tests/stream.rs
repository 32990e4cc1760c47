//! End-to-end checks for the v2 streaming analyze pipeline: the streamed
//! histogram must be bit-identical to the in-memory engines', and v1 files
//! must keep working through the legacy path.

use parda_cli::run;
use parda_core::parallel::parda_threads;
use parda_core::PardaConfig;
use parda_trace::io::{load_trace, save_trace, Encoding};
use parda_trace::Trace;
use parda_tree::SplayTree;

fn run_to_string(argv: &[&str]) -> (i32, String) {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = run(&argv, &mut buf);
    (code, String::from_utf8(buf).unwrap())
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("parda-cli-stream-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn streamed_analyze_is_bit_identical_to_in_memory() {
    let path = tmp("zipf.v2.trc");
    let (code, out) = run_to_string(&[
        "gen",
        "--pattern",
        "zipf",
        "--footprint",
        "4096",
        "--refs",
        "150000",
        "--seed",
        "11",
        "--out",
        &path,
    ]);
    assert_eq!(code, 0, "gen failed: {out}");
    assert!(out.contains("(v2)"), "gen must default to v2: {out}");

    // Streamed (explicit --stream) vs the in-memory parallel engine.
    let (code, streamed) = run_to_string(&["analyze", &path, "--stream", "--json"]);
    assert_eq!(code, 0, "streamed analyze failed: {streamed}");
    let (code, in_memory) = run_to_string(&["analyze", &path, "--engine", "parda", "--json"]);
    assert_eq!(code, 0, "in-memory analyze failed: {in_memory}");
    assert_eq!(
        streamed, in_memory,
        "streamed histogram must be bit-identical"
    );

    // Auto-streaming (default engine on a v2 file) gives the same bytes.
    let (code, auto) = run_to_string(&["analyze", &path, "--json"]);
    assert_eq!(code, 0, "auto analyze failed: {auto}");
    assert_eq!(auto, streamed);

    // And all of it matches the library computed directly on the trace.
    let trace = load_trace(&path).unwrap();
    let hist = parda_threads::<SplayTree>(trace.as_slice(), &PardaConfig::with_ranks(4));
    let expected = serde_json::to_string(&hist).unwrap();
    assert_eq!(streamed.trim_end(), expected);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v1_traces_load_via_legacy_path_and_reject_stream() {
    let path = tmp("zipf.v1.trc");
    let (code, out) = run_to_string(&[
        "gen",
        "--pattern",
        "zipf",
        "--footprint",
        "512",
        "--refs",
        "20000",
        "--format",
        "v1",
        "--out",
        &path,
    ]);
    assert_eq!(code, 0, "gen --format v1 failed: {out}");
    assert!(out.contains("(v1)"), "got: {out}");

    let (code, out) = run_to_string(&["stats", &path]);
    assert_eq!(code, 0);
    assert!(out.contains("N=20000"), "got: {out}");

    // v1 histogram agrees with a v2 copy of the same generated trace.
    let (code, v1_json) = run_to_string(&["analyze", &path, "--engine", "seq", "--json"]);
    assert_eq!(code, 0, "v1 analyze failed: {v1_json}");
    let path2 = tmp("zipf.v1-as-v2.trc");
    let (code, _) = run_to_string(&[
        "gen",
        "--pattern",
        "zipf",
        "--footprint",
        "512",
        "--refs",
        "20000",
        "--out",
        &path2,
    ]);
    assert_eq!(code, 0);
    let (code, v2_json) = run_to_string(&["analyze", &path2, "--json"]);
    assert_eq!(code, 0, "v2 analyze failed: {v2_json}");
    assert_eq!(
        v1_json, v2_json,
        "format change must not change the histogram"
    );

    // Streaming needs the frame index; v1 files are rejected with a hint.
    let (code, out) = run_to_string(&["analyze", &path, "--stream"]);
    assert_eq!(code, 1);
    assert!(out.contains("v2"), "error should point at v2: {out}");

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&path2).unwrap();
}

#[test]
fn the_largest_address_is_analyzed_like_any_other() {
    // Address u64::MAX once doubled as the vector tree's dead-slot mark.
    let path = tmp("max-addr.v1.trc");
    let trace = Trace::from_vec(vec![u64::MAX, 0, 1, u64::MAX, 0, u64::MAX]);
    save_trace(&path, &trace, Encoding::Raw).unwrap();
    let (code, oracle) = run_to_string(&[
        "analyze", &path, "--engine", "seq", "--tree", "splay", "--json",
    ]);
    assert_eq!(code, 0, "splay analyze failed: {oracle}");
    assert_eq!(
        oracle.trim_end(),
        r#"{"counts":[0,1,2],"infinite":3,"total":6}"#
    );
    for engine in [&[][..], &["--engine", "seq"], &["--engine", "parda"]] {
        let mut argv = vec!["analyze", path.as_str(), "--json"];
        argv.extend_from_slice(engine);
        let (code, out) = run_to_string(&argv);
        assert_eq!(code, 0, "{engine:?} analyze failed: {out}");
        assert_eq!(out, oracle, "{engine:?} differs from the splay oracle");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn stream_flag_rejects_incompatible_options() {
    let path = tmp("small.v2.trc");
    let (code, _) = run_to_string(&[
        "gen",
        "--pattern",
        "cyclic",
        "--footprint",
        "64",
        "--refs",
        "1000",
        "--out",
        &path,
    ]);
    assert_eq!(code, 0);

    let (code, out) = run_to_string(&["analyze", &path, "--engine", "seq", "--stream"]);
    assert_eq!(code, 1);
    assert!(out.contains("--stream"), "got: {out}");

    let (code, out) = run_to_string(&["analyze", &path, "--line-bits", "6", "--stream"]);
    assert_eq!(code, 1);
    assert!(out.contains("line-bits"), "got: {out}");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mrc_streams_v2_and_matches_sequential() {
    let v1 = tmp("mrc.v1.trc");
    let v2 = tmp("mrc.v2.trc");
    for (path, format) in [(&v1, "v1"), (&v2, "v2")] {
        let (code, out) = run_to_string(&[
            "gen", "--spec", "gcc", "--refs", "30000", "--seed", "5", "--format", format, "--out",
            path,
        ]);
        assert_eq!(code, 0, "gen {format} failed: {out}");
    }
    let (code, seq_mrc) = run_to_string(&["mrc", &v1]);
    assert_eq!(code, 0, "v1 mrc failed: {seq_mrc}");
    let (code, streamed_mrc) = run_to_string(&["mrc", &v2]);
    assert_eq!(code, 0, "v2 mrc failed: {streamed_mrc}");
    assert_eq!(seq_mrc, streamed_mrc, "streamed MRC must match sequential");

    std::fs::remove_file(&v1).unwrap();
    std::fs::remove_file(&v2).unwrap();
}

/// Out-of-range sizes are configuration errors (exit 1, `[config]`),
/// never a panic or an allocation that aborts the process.
#[test]
fn out_of_range_sizes_exit_1_as_config_errors() {
    let path = tmp("limits.v2.trc");
    let (code, out) = run_to_string(&[
        "gen",
        "--pattern",
        "zipf",
        "--footprint",
        "2000",
        "--refs",
        "20000",
        "--out",
        &path,
    ]);
    assert_eq!(code, 0, "gen failed: {out}");

    let huge_ranks = "1000000000000";
    for argv in [
        &["analyze", &path, "--chunk", "0"][..],
        &["analyze", &path, "--bound", "0"],
        &["analyze", &path, "--engine", "parda", "--bound", "0"],
        &["analyze", &path, "--engine", "parda", "--line-bits", "64"],
        &["analyze", &path, "--engine", "parda", "--line-bits", "70"],
        &["analyze", &path, "--ranks", huge_ranks],
        &["analyze", &path, "--engine", "parda", "--ranks", huge_ranks],
        &["analyze", &path, "--ranks", "1025"],
        &[
            "analyze",
            &path,
            "--ranks",
            "1024",
            "--chunk",
            "18014398509481985",
        ],
        &["mrc", &path, "--ranks", huge_ranks],
        &["compare", &path, "--ranks", huge_ranks],
    ] {
        let (code, out) = run_to_string(argv);
        assert_eq!(code, 1, "{argv:?}: {out}");
        assert!(out.contains("error: [config]"), "{argv:?}: {out}");
    }

    // A window larger than the trace is legal: the streamer grows its
    // buffer to what the file holds instead of reserving the window.
    let (code, default) = run_to_string(&["analyze", &path, "--json"]);
    assert_eq!(code, 0, "{default}");
    let (code, one_window) =
        run_to_string(&["analyze", &path, "--chunk", "1099511627776", "--json"]);
    assert_eq!(code, 0, "{one_window}");
    assert_eq!(one_window, default);
    let (code, most_ranks) = run_to_string(&["analyze", &path, "--ranks", "1024", "--json"]);
    assert_eq!(code, 0, "{most_ranks}");
    assert_eq!(most_ranks, default);

    std::fs::remove_file(&path).unwrap();
}
