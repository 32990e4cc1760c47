//! Subcommand implementations.

use crate::{Args, CliError};
use parda_core::phased::Reduction;
use parda_core::{
    analyze_concurrent_kind, default_granularity, interleave_threads, recommend_partition,
    shared_metrics, Analysis, ApproxMode, Degradation, FaultPolicy, InterleaveModel, Mode,
    PardaError, Report,
};
use parda_obs::SharedMetrics;
use parda_pinsim::{collect_mt_trace, collect_trace};
use parda_server::{Server, ServerConfig, SubmitOptions};
use parda_trace::gen::{CyclicGen, SequentialGen, UniformGen, ZipfGen};
use parda_trace::io::{
    load_tagged_trace, load_trace, peek_version, save_tagged_trace_v2, save_trace, save_trace_v2,
    Encoding,
};
use parda_trace::spec::{SpecBenchmark, SPEC2006};
use parda_trace::stream::FramedStream;
use parda_trace::{load_trace_recovering, verify_trace, Addr, AddressStream, Trace};
use parda_tree::TreeKind;
use serde::Deserialize;
use std::io::Write;
use std::time::{Duration, Instant};

/// Boolean switches the CLI recognizes: these never consume the next token
/// (`--stream file.trc` keeps `file.trc` positional), while `--stats=json`
/// still selects a format via the `--key=value` form.
pub const SWITCHES: &[&str] = &[
    "json",
    "stream",
    "stats",
    "verify",
    "mrc",
    "approx",
    "fallback-poller",
    "false-sharing",
];

/// Top-level usage text.
pub const USAGE: &str = "\
usage: parda <command> [options]

commands:
  gen      generate a trace
             --spec <name> --refs <n> [--seed <s>]      SPEC CPU2006 model
             --pattern <cyclic|uniform|zipf|sequential> --footprint <m> --refs <n>
             --kernel <matmul|matmul-blocked|stencil|chase|join|triad|mergesort> --size <n>
             --kernel <mt-stencil|mt-matmul> --size <n> [--threads <t>]
             [--iters <i>] [--false-sharing]
             (multi-threaded kernels write thread-tagged v2.2 traces;
              --false-sharing packs per-thread counters on one line)
             --out <file> [--encoding <raw|delta>] [--format <v1|v2>]
             (v2 is the default: block-framed with a seekable index)
  analyze  analyze a trace file
             <file> [--engine <parda|seq|naive|phased>] [--ranks <p>]
             [--bound <B>] [--tree <vector|splay|avl|treap>] [--json]
             [--line-bits <b>]  (fold addresses to 2^b-byte lines first)
             [--stream]  (decode v2 frames concurrently with analysis;
                          automatic for v2 files with the default engine)
             [--stats[=json|pretty]]  (per-rank timing breakdown; with
                          --stats=json the output is one JSON object
                          holding the histogram and the stats report)
             [--degradation <strict|repair|best-effort>]  (corrupt-input
                          policy: fail, skip checksummed-bad frames, or
                          salvage everything recoverable; default strict)
             [--verify]  (check format + checksums only, no analysis)
             [--approx[=<spec>]]  (constant-space approximate analysis;
                          spec is exact | shards:<rate> | shards-smax:<n>
                          | aet[:<rate>], default shards:0.01)
             phased:  [--chunk <C>]  (references per rank per window)
  mrc      print the miss ratio curve of a trace
             <file> [--capacities <c1,c2,...>] [--stream]
             [--stats[=json|pretty]] [--degradation <policy>]
             [--approx[=<spec>]]  (same grammar as analyze)
  stats    print trace statistics (N, M, address span)
             <file>
  compare  run every engine over a trace, verify agreement, report timings
             <file> [--ranks <p>] [--naive-limit <n>]
  spec     print the paper's Table IV benchmark table
  serve    run the analysis daemon (std TCP, sharded event-driven core)
             [--addr <host:port>]     (default 127.0.0.1:0, ephemeral port;
                          the bound address is printed on startup)
             [--max-sessions <n>]     (admission cap, default 8)
             [--shards <n>]           (ingest shard threads; default 0 =
                          scale to the hardware, capped at 8)
             [--max-session-bytes <b>] (per-session DATA budget)
             [--degradation <policy>] (default wire-corruption policy for
                          sessions that do not pick their own)
             [--idle-timeout <secs>]  (stall out silent clients; 0 = never)
             [--accept-limit <n>]     (stop after n connections; tests)
             [--approx[=<spec>]]      (default approx mode for sessions
                          that do not pick their own; default exact)
             [--ack-every <n>]        (ACK ingest progress every n DATA
                          frames so reconnecting clients resume cheaply;
                          0 = no ACKs, the default)
             [--orphan-retention <secs>] (keep disconnected sessions
                          resumable this long; 0 = fail on disconnect,
                          the default)
             [--orphan-budget <bytes>] (total parked-session state, oldest
                          evicted first; default 64 MiB)
             [--fallback-poller]      (use the portable bounded-sleep
                          poller instead of poll(2); mainly for testing)
             SIGINT/SIGTERM stop accepting and drain in-flight sessions
  submit   stream a trace to a daemon and print the returned histogram
             <file> --addr <host:port> [--config k=v[,k=v...]]
             [--encoding <raw|delta>] [--frame-refs <n>] [--json] [--mrc]
             [--approx[=<spec>]]  (request approximate analysis; rides the
                          CONFIG frame as approx=<spec>)
             [--stats=json]  (full histogram+stats document from the server,
                          same shape as analyze --stats=json)
             [--retries <n>]  (total connection attempts; after a lost
                          connection the client reconnects with backoff
                          and RESUMEs the same session; default 1)
             [--backoff <ms>] (initial reconnect delay, doubling per
                          attempt with jitter; default 50)
             [--timeout <secs>] (connect + socket I/O deadlines; a hung
                          daemon exits with a stall, not a hang;
                          default 30, 0 = wait forever)
  partition  recommend a static shared-cache partition (UCP/Soft-OLP)
             <tagged.trc>            one thread-tagged v2.2 trace,
                          analyzed in recorded order; --model instead
                          re-interleaves its per-thread streams
             <t0.trc> <t1.trc> ...   one plain trace per thread, merged
                          under --model (default rr:1)
             --capacity <lines>       shared-cache capacity to split
             [--granularity <lines>]  (default capacity/64, min 1)
             [--model <rr[:burst]|prob[:w,..][@seed]>]
             [--tree <vector|splay|avl|treap>]
             [--addr <host:port>]  (run the analysis on a daemon via a
                          thread-tagged session; the daemon analyzes the
                          stream as received — model `as-recorded` — and
                          returns the same recommendation as offline)
             [--stats[=json]]  (JSON: one document with the shared-stream
                          histogram and a stats report carrying the
                          SharedMetrics block, identical in shape offline
                          and served; pretty is offline-only)
             [--json]  (shared-stream histogram only)
             [--frame-refs <n>] [--retries <n>] [--backoff <ms>]
             [--timeout <secs>]  (server path; same semantics as submit)
  help     show this message

exit codes: 0 ok, 1 usage, 2 corrupt trace, 3 i/o failure,
            4 worker panic (retries exhausted), 5 watchdog stall";

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The `--approx` engine selection, shared by `analyze`, `mrc`, `serve`,
/// and `submit`. Bare `--approx` defaults to fixed-rate SHARDS at 1%;
/// `--approx=<spec>` accepts the full grammar
/// (`exact | shards:<rate> | shards-smax:<n> | aet[:<rate>]`).
fn parse_approx(args: &Args) -> Result<Option<ApproxMode>, CliError> {
    if let Some(spec) = args.get("approx") {
        Ok(Some(ApproxMode::parse(spec).map_err(CliError::Usage)?))
    } else if args.has("approx") {
        Ok(Some(ApproxMode::ShardsFixedRate { rate: 0.01 }))
    } else {
        Ok(None)
    }
}

/// The `--degradation` policy, defaulting to strict.
fn parse_degradation(args: &Args) -> Result<Degradation, CliError> {
    match args.get("degradation") {
        None => Ok(Degradation::Strict),
        Some(raw) => raw
            .parse()
            .map_err(|e: String| CliError::Fault(PardaError::Config(e))),
    }
}

/// `parda gen`: produce a trace from a SPEC model, a pattern generator, or
/// a pinsim kernel.
pub fn gen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.get("out").ok_or("missing --out <file>")?.to_string();
    let seed: u64 = args.get_parsed("seed", 42)?;
    let refs: u64 = args.get_parsed("refs", 1_000_000)?;
    let encoding = match args.get("encoding").unwrap_or("delta") {
        "raw" => Encoding::Raw,
        "delta" => Encoding::DeltaVarint,
        other => return Err(format!("unknown encoding `{other}`").into()),
    };

    let trace: Trace = if let Some(name) = args.get("spec") {
        let bench = SpecBenchmark::by_name(name)
            .ok_or_else(|| format!("unknown SPEC benchmark `{name}` (see `parda spec`)"))?;
        bench.generator(refs, seed).take_trace(refs as usize)
    } else if let Some(pattern) = args.get("pattern") {
        let m: u64 = args.get_parsed("footprint", 1_024)?;
        match pattern {
            "cyclic" => CyclicGen::new(m, 0).take_trace(refs as usize),
            "uniform" => UniformGen::new(m, 0, seed).take_trace(refs as usize),
            "zipf" => {
                let theta: f64 = args.get_parsed("theta", 0.99)?;
                ZipfGen::new(m as usize, theta, 0, seed).take_trace(refs as usize)
            }
            "sequential" => SequentialGen::new(0, 8).take_trace(refs as usize),
            other => return Err(format!("unknown pattern `{other}`").into()),
        }
    } else if let Some(kernel) = args.get("kernel") {
        let size: usize = args.get_parsed("size", 64)?;
        // Multi-threaded kernels produce thread-tagged streams and take a
        // v2.2 early exit: there is no v1 layout for thread tags.
        if kernel.starts_with("mt-") {
            let threads: usize = args.get_parsed("threads", 4)?;
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            let false_sharing = args.has("false-sharing");
            let mt = match kernel {
                "mt-stencil" => {
                    let iters: usize = args.get_parsed("iters", 4)?;
                    collect_mt_trace(parda_pinsim::MtStencil2D::new(
                        size,
                        iters,
                        threads,
                        false_sharing,
                    ))
                }
                "mt-matmul" => {
                    collect_mt_trace(parda_pinsim::MtMatMul::new(size, threads, false_sharing))
                }
                other => return Err(format!("unknown kernel `{other}`").into()),
            };
            if args.get("format").is_some_and(|f| f != "v2") {
                return Err("thread-tagged kernels write format v2.2; drop --format".into());
            }
            save_tagged_trace_v2(&path, &mt.interleaved, encoding).map_err(io_err)?;
            writeln!(
                out,
                "wrote {} references from {} threads to {path} (v2.2 tagged)",
                mt.interleaved.len(),
                mt.per_thread.len()
            )
            .map_err(io_err)?;
            return Ok(());
        }
        match kernel {
            "matmul" => collect_trace(parda_pinsim::MatMul::naive(size)),
            "matmul-blocked" => {
                let block: usize = args.get_parsed("block", (size / 4).max(1))?;
                collect_trace(parda_pinsim::MatMul::blocked(size, block))
            }
            "stencil" => {
                let iters: usize = args.get_parsed("iters", 4)?;
                collect_trace(parda_pinsim::Stencil2D::new(size, iters))
            }
            "chase" => collect_trace(parda_pinsim::PointerChase::new(size, refs, seed)),
            "join" => collect_trace(parda_pinsim::HashJoin::new(size, size * 4, seed)),
            "triad" => {
                let iters: usize = args.get_parsed("iters", 4)?;
                collect_trace(parda_pinsim::StreamTriad::new(size, iters))
            }
            "mergesort" => collect_trace(parda_pinsim::MergeSortScan::new(size, seed)),
            other => return Err(format!("unknown kernel `{other}`").into()),
        }
    } else {
        return Err("gen needs one of --spec, --pattern, or --kernel".into());
    };

    let format = args.get("format").unwrap_or("v2");
    match format {
        "v2" => save_trace_v2(&path, &trace, encoding).map_err(io_err)?,
        "v1" => save_trace(&path, &trace, encoding).map_err(io_err)?,
        other => return Err(format!("unknown format `{other}` (v1|v2)").into()),
    }
    writeln!(out, "wrote {} references to {path} ({format})", trace.len()).map_err(io_err)?;
    Ok(())
}

/// `--tree`, defaulting to the Fenwick time vector: the fastest exact
/// structure, bit-identical to the paper's splay tree.
fn parse_tree(args: &Args) -> Result<TreeKind, String> {
    args.get("tree").map_or(Ok(TreeKind::Vector), str::parse)
}

/// How `--stats` output should be rendered.
enum StatsFormat {
    Off,
    Pretty,
    Json,
}

fn stats_format(args: &Args) -> Result<StatsFormat, String> {
    if let Some(fmt) = args.get("stats") {
        match fmt {
            "json" => Ok(StatsFormat::Json),
            "pretty" => Ok(StatsFormat::Pretty),
            other => Err(format!("unknown --stats format `{other}` (json|pretty)")),
        }
    } else if args.has("stats") {
        Ok(StatsFormat::Pretty)
    } else {
        Ok(StatsFormat::Off)
    }
}

/// Emit the histogram and report as one JSON object, so the whole stdout of
/// a `--stats=json` run parses as a single document.
fn write_stats_json(
    hist: &parda_hist::ReuseHistogram,
    report: &Report,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let hist_json = serde_json::to_string(hist).map_err(io_err)?;
    let report_json = serde_json::to_string(report).map_err(io_err)?;
    writeln!(out, "{{\"histogram\":{hist_json},\"stats\":{report_json}}}").map_err(io_err)?;
    Ok(())
}

/// `parda analyze`: run an analyzer over a trace file and print the binned
/// histogram and timing.
pub fn analyze(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional(0, "trace file")?;

    // --verify: integrity check only — header, footer index, and (v2.1)
    // every frame CRC — without running any analysis.
    if args.has("verify") {
        let report = verify_trace(path).map_err(PardaError::from)?;
        writeln!(
            out,
            "ok: version={}.{} frames={} refs={} checksummed={} tagged={}",
            report.version,
            report.minor,
            report.frames,
            report.refs,
            report.checksummed,
            report.tagged
        )
        .map_err(io_err)?;
        return Ok(());
    }

    let engine = args.get("engine").unwrap_or("parda");
    if !matches!(engine, "parda" | "seq" | "naive" | "phased") {
        return Err(format!("unknown engine `{engine}` (parda|seq|naive|phased)").into());
    }
    let tree = parse_tree(args)?;
    let bound: Option<u64> = args.get_optional("bound")?;
    let ranks: usize = args.get_parsed("ranks", 4)?;
    let line_bits: u32 = args.get_parsed("line-bits", 0)?;
    let stats_fmt = stats_format(args)?;
    let degradation = parse_degradation(args)?;
    let approx = parse_approx(args)?;
    if approx.is_some_and(|a| !a.is_exact()) && args.get("engine").is_some() {
        return Err("--approx replaces the analysis engine; drop --engine".into());
    }

    // Streamed analysis: decode v2 frames on background threads while the
    // windowed streamer consumes them. Explicit with --stream; automatic for
    // v2 files when the engine is left at its default (or is `phased`) —
    // the streamer is exact, so the histogram is identical either way.
    let requested_stream = args.has("stream");
    if requested_stream {
        if !matches!(engine, "parda" | "phased") {
            return Err(format!(
                "--stream runs the phased engine and cannot honor --engine {engine}"
            )
            .into());
        }
        if line_bits > 0 {
            return Err("--stream cannot be combined with --line-bits".into());
        }
    }
    let version = peek_version(path).map_err(PardaError::from)?;
    if requested_stream && version != 2 {
        return Err(format!(
            "--stream needs a v2 framed trace with a frame index; `{path}` is v{version}"
        )
        .into());
    }
    let use_stream = requested_stream
        || (version == 2 && line_bits == 0 && (engine == "phased" || args.get("engine").is_none()));

    let chunk: usize = args.get_parsed("chunk", 65_536)?;
    let reduction = Reduction::ShipToRankZero;

    let builder = Analysis::new()
        .tree(tree)
        .ranks(ranks)
        .bound(bound)
        .stats(true)
        .degradation(degradation)
        .approx(approx.unwrap_or_default());

    // The streaming path needs an intact footer index to seek frames; if
    // it is destroyed and the policy is best-effort, fall back to the
    // in-memory salvage decoder below.
    let streamed = if use_stream {
        match FramedStream::open_with_policy(path, FramedStream::default_decoders(), degradation) {
            Ok(stream) => {
                let builder = builder.clone().mode(Mode::Phased { chunk, reduction });
                let errors = stream.error_handle();
                let counters = stream.stats_handle();
                let recovery = stream.recovery_handle();
                let (hist, report) = builder.run_stream(stream);
                if let Some(e) = errors.take() {
                    return Err(PardaError::from(e).into());
                }
                let mut report = report.expect("stats were requested");
                report.stream = Some(counters.snapshot());
                report.merge_recovery(&recovery.lock().unwrap_or_else(|e| e.into_inner()));
                Some((hist, report))
            }
            Err(_) if degradation == Degradation::BestEffort => None,
            Err(e) => return Err(PardaError::from(e).into()),
        }
    } else {
        None
    };

    let (hist, report) = match streamed {
        Some(done) => done,
        None => {
            let (mut trace, rec) =
                load_trace_recovering(path, degradation).map_err(PardaError::from)?;
            if line_bits > 0 {
                trace = parda_trace::xform::to_lines(&trace, line_bits);
            }
            let mode = match engine {
                "seq" => Mode::Seq,
                "naive" => Mode::Naive,
                "phased" => Mode::Phased { chunk, reduction },
                _ => Mode::Threads,
            };
            // run_faulted: the threads engine reports an unrescued worker
            // panic or stall as an error instead of panicking.
            let (hist, report) = builder
                .clone()
                .mode(mode)
                .fault_policy(FaultPolicy::with_degradation(degradation))
                .run_faulted(trace.as_slice())?;
            let mut report = report.expect("stats were requested");
            report.merge_recovery(&rec);
            (hist, report)
        }
    };

    if matches!(stats_fmt, StatsFormat::Json) {
        return write_stats_json(&hist, &report, out);
    }
    if args.has("json") {
        let json = serde_json::to_string(&hist).map_err(io_err)?;
        writeln!(out, "{json}").map_err(io_err)?;
    } else {
        writeln!(
            out,
            "engine={} tree={} ranks={} bound={} time={:.3}s",
            report.mode,
            tree.name(),
            report.ranks,
            bound.map_or("none".into(), |b| b.to_string()),
            report.total_ns as f64 / 1e9
        )
        .map_err(io_err)?;
        writeln!(
            out,
            "total={} finite={} inf={} mean_finite={:.1}",
            hist.total(),
            hist.finite_total(),
            hist.infinite(),
            hist.mean_finite_distance().unwrap_or(0.0)
        )
        .map_err(io_err)?;
        write!(out, "{}", hist.to_binned().render()).map_err(io_err)?;
    }
    if matches!(stats_fmt, StatsFormat::Pretty) {
        write!(out, "{}", report.render_pretty()).map_err(io_err)?;
    }
    Ok(())
}

/// `parda mrc`: miss ratio curve at pow-2 capacities (or a custom list).
pub fn mrc(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional(0, "trace file")?;
    let stats_fmt = stats_format(args)?;
    let degradation = parse_degradation(args)?;
    let approx = parse_approx(args)?.unwrap_or_default();
    // v2 files stream through the windowed streamer (exact, same histogram as
    // the sequential analyzer); v1 files use the legacy load-then-analyze.
    // A v2 file whose footer is destroyed falls back to the in-memory
    // salvage decoder under best-effort.
    let streamed = if args.has("stream") || peek_version(path).map_err(PardaError::from)? == 2 {
        let ranks: usize = args.get_parsed("ranks", 4)?;
        match FramedStream::open_with_policy(path, FramedStream::default_decoders(), degradation) {
            Ok(stream) => {
                let errors = stream.error_handle();
                let counters = stream.stats_handle();
                let recovery = stream.recovery_handle();
                let (hist, report) = Analysis::new()
                    .tree(TreeKind::Vector)
                    .ranks(ranks)
                    .stats(true)
                    .approx(approx)
                    .run_stream(stream);
                if let Some(e) = errors.take() {
                    return Err(PardaError::from(e).into());
                }
                let mut report = report.expect("stats were requested");
                report.stream = Some(counters.snapshot());
                report.merge_recovery(&recovery.lock().unwrap_or_else(|e| e.into_inner()));
                Some((hist, report))
            }
            Err(_) if degradation == Degradation::BestEffort => None,
            Err(e) => return Err(PardaError::from(e).into()),
        }
    } else {
        None
    };
    let (hist, report) = match streamed {
        Some(done) => done,
        None => {
            let (trace, rec) =
                load_trace_recovering(path, degradation).map_err(PardaError::from)?;
            let (hist, report) = Analysis::new()
                .tree(TreeKind::Vector)
                .mode(Mode::Seq)
                .stats(true)
                .approx(approx)
                .run(trace.as_slice());
            let mut report = report.expect("stats were requested");
            report.recovery = Some(rec);
            (hist, report)
        }
    };
    if matches!(stats_fmt, StatsFormat::Json) {
        return write_stats_json(&hist, &report, out);
    }
    let curve = match args.get("capacities") {
        Some(list) => {
            let caps: Result<Vec<u64>, _> = list.split(',').map(str::parse).collect();
            hist.miss_ratio_curve(&caps.map_err(|e| format!("bad capacity list: {e}"))?)
        }
        None => hist.miss_ratio_curve_pow2(),
    };
    writeln!(out, "{:>12} {:>10}", "capacity", "miss_ratio").map_err(io_err)?;
    for (c, mr) in curve {
        writeln!(out, "{c:>12} {mr:>10.4}").map_err(io_err)?;
    }
    if matches!(stats_fmt, StatsFormat::Pretty) {
        write!(out, "{}", report.render_pretty()).map_err(io_err)?;
    }
    Ok(())
}

/// `parda stats`: N, M, and address span of a trace file.
pub fn stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional(0, "trace file")?;
    let trace = load_trace(path).map_err(io_err)?;
    writeln!(out, "{}", trace.stats()).map_err(io_err)?;
    Ok(())
}

/// `parda compare`: run every exact engine over a trace, check that they
/// produce identical histograms, and report per-engine timings.
pub fn compare(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional(0, "trace file")?;
    let ranks: usize = args.get_parsed("ranks", 4)?;
    let naive_limit: usize = args.get_parsed("naive-limit", 50_000)?;
    let trace = load_trace(path).map_err(io_err)?;

    let mut results: Vec<(String, f64, parda_hist::ReuseHistogram)> = Vec::new();
    let mut run = |name: String, f: &mut dyn FnMut() -> parda_hist::ReuseHistogram| {
        let start = Instant::now();
        let hist = f();
        results.push((name, start.elapsed().as_secs_f64(), hist));
    };

    let base = Analysis::new().ranks(ranks);
    for kind in TreeKind::ALL {
        run(format!("seq/{}", kind.name()), &mut || {
            base.clone()
                .tree(kind)
                .mode(Mode::Seq)
                .run(trace.as_slice())
                .0
        });
    }
    run(format!("parda-threads/p{ranks}"), &mut || {
        base.clone().mode(Mode::Threads).run(trace.as_slice()).0
    });
    run(format!("phased/p{ranks}"), &mut || {
        base.clone()
            .mode(Mode::Phased {
                chunk: 65_536,
                reduction: Reduction::ShipToRankZero,
            })
            .run(trace.as_slice())
            .0
    });
    if trace.len() <= naive_limit {
        run("naive-stack".to_string(), &mut || {
            base.clone().mode(Mode::Naive).run(trace.as_slice()).0
        });
    }

    let reference = results[0].2.clone();
    writeln!(out, "{:<22} {:>10} {:>10}", "engine", "time_s", "agrees").map_err(io_err)?;
    let mut all_agree = true;
    for (name, secs, hist) in &results {
        let agrees = *hist == reference;
        all_agree &= agrees;
        writeln!(
            out,
            "{name:<22} {secs:>10.3} {:>10}",
            if agrees { "yes" } else { "NO" }
        )
        .map_err(io_err)?;
    }
    if all_agree {
        writeln!(out, "all engines agree on {} references", trace.len()).map_err(io_err)?;
        Ok(())
    } else {
        Err("engine disagreement detected".into())
    }
}

/// `parda serve`: run the analysis daemon until a signal (or the accept
/// limit) stops it, then print the final metrics.
pub fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let max_sessions: usize = args.get_parsed("max-sessions", 8)?;
    if max_sessions == 0 {
        return Err("--max-sessions must be at least 1".into());
    }
    let max_session_bytes: Option<u64> = args.get_optional("max-session-bytes")?;
    let degradation = parse_degradation(args)?;
    let idle_secs: u64 = args.get_parsed("idle-timeout", 30)?;
    let accept_limit: Option<u64> = args.get_optional("accept-limit")?;
    // 0 = scale with the hardware (the ServerConfig default).
    let shards: usize = args.get_parsed("shards", 0)?;
    let ack_every: u32 = args.get_parsed("ack-every", 0)?;
    let orphan_retention_secs: u64 = args.get_parsed("orphan-retention", 0)?;
    let orphan_budget: u64 = args.get_parsed("orphan-budget", 64 * 1024 * 1024)?;

    // Chaos harnesses arm fault injection through the environment so the
    // serve command line stays identical between clean and chaos runs.
    parda_server::arm_failpoints_from_env()
        .map_err(|e| CliError::from(format!("bad PARDA_FAILPOINTS: {e}")))?;

    let server = Server::bind(ServerConfig {
        addr,
        max_sessions,
        max_session_bytes,
        fault: FaultPolicy::with_degradation(degradation),
        idle_timeout: (idle_secs > 0).then(|| Duration::from_secs(idle_secs)),
        accept_limit,
        default_approx: parse_approx(args)?.unwrap_or_default(),
        shards,
        orphan_retention: Duration::from_secs(orphan_retention_secs),
        orphan_budget,
        ack_every,
        fallback_poller: args.has("fallback-poller"),
    })
    .map_err(PardaError::Io)?;
    let local = server.local_addr().map_err(PardaError::Io)?;

    // The startup line is the port-discovery contract for scripts that
    // bind port 0 (see ci.sh): flush it before blocking in the accept loop.
    writeln!(out, "parda-server listening on {local}").map_err(io_err)?;
    out.flush().map_err(io_err)?;

    parda_server::install_signal_shutdown();
    let started = Instant::now();
    let metrics = server.run().map_err(PardaError::Io)?;
    write!(
        out,
        "{}",
        metrics.render_pretty(started.elapsed().as_secs_f64())
    )
    .map_err(io_err)?;
    Ok(())
}

/// `parda submit`: stream a trace file to a daemon and print the reply.
pub fn submit(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional(0, "trace file")?;
    let addr = args.get("addr").ok_or("missing --addr <host:port>")?;
    let stats_fmt = stats_format(args)?;
    if matches!(stats_fmt, StatsFormat::Pretty) {
        return Err("submit supports --stats=json only (the stats document \
                    arrives pre-rendered from the server)"
            .into());
    }

    let mut opts = SubmitOptions::default();
    // Args rejects duplicate options, so multiple pairs ride one
    // comma-separated --config value.
    if let Some(pairs) = args.get("config") {
        for pair in pairs.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad --config entry `{pair}` (want key=value)"))?;
            opts.config.push((k.to_string(), v.to_string()));
        }
    }
    // --approx rides the CONFIG frame; older servers reject the key with a
    // clear error, and servers never see it when the flag is absent.
    if let Some(mode) = parse_approx(args)? {
        opts.config.push(("approx".to_string(), mode.spec()));
    }
    opts.encoding = match args.get("encoding").unwrap_or("delta") {
        "raw" => Encoding::Raw,
        "delta" => Encoding::DeltaVarint,
        other => return Err(format!("unknown encoding `{other}`").into()),
    };
    opts.frame_refs = args.get_parsed("frame-refs", opts.frame_refs)?;
    if matches!(stats_fmt, StatsFormat::Json) {
        opts.reply = parda_server::ReplyFormat::Json;
    }
    let retries: u32 = args.get_parsed("retries", 1)?;
    if retries == 0 {
        return Err("--retries must be at least 1".into());
    }
    opts.retry = parda_server::RetryPolicy::with_attempts(retries);
    let backoff_ms: u64 = args.get_parsed("backoff", 50)?;
    opts.retry.backoff = Duration::from_millis(backoff_ms);
    let timeout_secs: u64 = args.get_parsed("timeout", 30)?;
    // 0 keeps the OS defaults: block indefinitely.
    let deadline = (timeout_secs > 0).then(|| Duration::from_secs(timeout_secs));
    opts.retry.connect_timeout = deadline;
    opts.retry.io_timeout = deadline;

    let reply = parda_server::submit_file(addr, path, &opts)?;

    if matches!(stats_fmt, StatsFormat::Json) {
        let doc = reply
            .stats_json
            .ok_or_else(|| CliError::Fault(PardaError::Corrupt("server sent no stats".into())))?;
        writeln!(out, "{doc}").map_err(io_err)?;
        return Ok(());
    }
    let hist = reply.histogram;
    if args.has("json") {
        let json = serde_json::to_string(&hist).map_err(io_err)?;
        writeln!(out, "{json}").map_err(io_err)?;
    } else if args.has("mrc") {
        writeln!(out, "{:>12} {:>10}", "capacity", "miss_ratio").map_err(io_err)?;
        for (c, mr) in hist.miss_ratio_curve_pow2() {
            writeln!(out, "{c:>12} {mr:>10.4}").map_err(io_err)?;
        }
    } else {
        writeln!(
            out,
            "session={} total={} finite={} inf={} mean_finite={:.1}",
            reply.session,
            hist.total(),
            hist.finite_total(),
            hist.infinite(),
            hist.mean_finite_distance().unwrap_or(0.0)
        )
        .map_err(io_err)?;
        write!(out, "{}", hist.to_binned().render()).map_err(io_err)?;
    }
    Ok(())
}

/// Render the shared-cache summary and partition table from a
/// [`SharedMetrics`] block — the one rendering both the offline analysis
/// and the parsed server reply flow through, so the two paths print
/// identically when the recommendations agree.
fn render_partition(m: &SharedMetrics, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "threads={} model={} shared_addrs={} sharing_ratio={:.4}",
        m.threads, m.model, m.shared_addrs, m.sharing_ratio
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "partition: capacity={} granularity={} predicted_misses={}",
        m.capacity, m.granularity, m.predicted_misses
    )
    .map_err(io_err)?;
    writeln!(out, "{:>8} {:>12} {:>8}", "thread", "refs", "alloc").map_err(io_err)?;
    for i in 0..m.threads {
        writeln!(
            out,
            "{:>8} {:>12} {:>8}",
            i,
            m.per_thread_refs.get(i).copied().unwrap_or(0),
            m.allocation.get(i).copied().unwrap_or(0)
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// A probabilistic model with explicit weights needs one weight per thread
/// — caught here so the interleaver's assertion never fires on user input.
fn check_model_arity(model: &InterleaveModel, threads: usize) -> Result<(), CliError> {
    if let InterleaveModel::Probabilistic { weights, .. } = model {
        if !weights.is_empty() && weights.len() != threads {
            return Err(format!(
                "--model prob has {} weights for {threads} threads",
                weights.len()
            )
            .into());
        }
    }
    Ok(())
}

/// `parda partition`: analyze a thread-tagged shared reference stream and
/// recommend a static cache partition, offline or on a daemon.
pub fn partition(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut paths = Vec::new();
    while let Some(p) = args.positional(paths.len()) {
        paths.push(p.to_string());
    }
    if paths.is_empty() {
        return Err(
            "missing required argument: trace file(s) — one thread-tagged trace, \
             or one plain trace per thread"
                .into(),
        );
    }

    let capacity: u64 = args
        .get_optional("capacity")?
        .ok_or("missing --capacity <lines>")?;
    if capacity == 0 {
        return Err("--capacity must be at least 1 line".into());
    }
    let granularity: u64 = args.get_parsed("granularity", default_granularity(capacity))?;
    if granularity == 0 || granularity > capacity {
        return Err(
            format!("--granularity must be between 1 and the capacity ({capacity})").into(),
        );
    }
    let model: Option<InterleaveModel> = args.get_optional("model")?;
    let tree = parse_tree(args)?;
    let stats_fmt = stats_format(args)?;

    // Build the thread-tagged shared stream: either a recorded v2.2
    // interleaving, or per-thread plain traces merged under the model.
    let started = Instant::now();
    let (trace, label) = if paths.len() == 1 {
        let tagged = load_tagged_trace(&paths[0]).map_err(|e| {
            if e.to_string().contains("not thread-tagged") {
                CliError::Usage(format!(
                    "`{}` is not thread-tagged: pass one v2.2 tagged trace \
                     (gen --kernel mt-…) or one plain trace per thread",
                    paths[0]
                ))
            } else {
                CliError::Fault(PardaError::from(e))
            }
        })?;
        match &model {
            None => (tagged, "as-recorded".to_string()),
            Some(m) => {
                check_model_arity(m, tagged.thread_ids().len())?;
                let per_thread = tagged.per_thread();
                let slices: Vec<&[Addr]> = per_thread.iter().map(|(_, t)| t.as_slice()).collect();
                (interleave_threads(&slices, m), m.to_string())
            }
        }
    } else {
        let m = model.clone().unwrap_or_else(InterleaveModel::round_robin);
        check_model_arity(&m, paths.len())?;
        let mut loaded = Vec::with_capacity(paths.len());
        for p in &paths {
            loaded.push(load_trace(p).map_err(io_err)?);
        }
        let slices: Vec<&[Addr]> = loaded.iter().map(|t| t.as_slice()).collect();
        (interleave_threads(&slices, &m), m.to_string())
    };

    let threads = trace.thread_ids().len();
    if threads == 0 {
        return Err("partition needs at least one reference".into());
    }
    if capacity < granularity * threads as u64 {
        return Err(format!(
            "partition capacity {capacity} cannot give {threads} threads \
             {granularity} lines each"
        )
        .into());
    }

    // Server path: the stream rides a thread-tagged session and the daemon
    // runs the same concurrent analyzer; the printed recommendation comes
    // from its reply, not a local re-analysis.
    if let Some(addr) = args.get("addr") {
        if matches!(stats_fmt, StatsFormat::Pretty) {
            return Err("partition --addr supports --stats=json only (the stats \
                        document arrives pre-rendered from the server)"
                .into());
        }
        let mut opts = SubmitOptions {
            reply: parda_server::ReplyFormat::Json,
            ..SubmitOptions::default()
        };
        opts.config
            .push(("partition".to_string(), format!("{capacity}/{granularity}")));
        opts.config.push(("tree".to_string(), tree.name().into()));
        opts.frame_refs = args.get_parsed("frame-refs", opts.frame_refs)?;
        let retries: u32 = args.get_parsed("retries", 1)?;
        if retries == 0 {
            return Err("--retries must be at least 1".into());
        }
        opts.retry = parda_server::RetryPolicy::with_attempts(retries);
        let backoff_ms: u64 = args.get_parsed("backoff", 50)?;
        opts.retry.backoff = Duration::from_millis(backoff_ms);
        let timeout_secs: u64 = args.get_parsed("timeout", 30)?;
        let deadline = (timeout_secs > 0).then(|| Duration::from_secs(timeout_secs));
        opts.retry.connect_timeout = deadline;
        opts.retry.io_timeout = deadline;

        let reply = parda_server::submit_tagged(addr, &trace, &opts)?;
        let doc = reply
            .stats_json
            .ok_or_else(|| CliError::Fault(PardaError::Corrupt("server sent no stats".into())))?;
        if matches!(stats_fmt, StatsFormat::Json) {
            writeln!(out, "{doc}").map_err(io_err)?;
            return Ok(());
        }
        if args.has("json") {
            let json = serde_json::to_string(&reply.histogram).map_err(io_err)?;
            writeln!(out, "{json}").map_err(io_err)?;
            return Ok(());
        }
        let parsed: serde_json::Value = serde_json::from_str(doc.trim()).map_err(io_err)?;
        let shared = parsed
            .field("stats")
            .and_then(|s| s.field("shared"))
            .map_err(io_err)?;
        let metrics = SharedMetrics::from_value(shared).map_err(io_err)?;
        return render_partition(&metrics, out);
    }

    let analysis = analyze_concurrent_kind(&trace, tree);
    let plan = recommend_partition(&analysis.per_thread_solo, capacity, granularity);
    let metrics = shared_metrics(&analysis, &label, Some(&plan));

    if matches!(stats_fmt, StatsFormat::Json) {
        let report = Report {
            mode: "concurrent".to_string(),
            tree: tree.name().to_string(),
            ranks: 1,
            trace_refs: trace.len() as u64,
            total_ns: started.elapsed().as_nanos() as u64,
            shared: Some(metrics),
            ..Report::default()
        };
        return write_stats_json(&analysis.shared, &report, out);
    }
    if args.has("json") {
        let json = serde_json::to_string(&analysis.shared).map_err(io_err)?;
        writeln!(out, "{json}").map_err(io_err)?;
        return Ok(());
    }
    render_partition(&metrics, out)?;
    if matches!(stats_fmt, StatsFormat::Pretty) {
        let report = Report {
            mode: "concurrent".to_string(),
            tree: tree.name().to_string(),
            ranks: 1,
            trace_refs: trace.len() as u64,
            total_ns: started.elapsed().as_nanos() as u64,
            shared: Some(metrics),
            ..Report::default()
        };
        write!(out, "{}", report.render_pretty()).map_err(io_err)?;
    }
    Ok(())
}

/// `parda spec`: the paper's Table IV parameters and slowdown factors.
pub fn spec(_args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<12} {:>12} {:>16} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "benchmark", "M", "N", "orig_s", "olken_s", "parda_s", "olken_x", "parda_x"
    )
    .map_err(io_err)?;
    for b in &SPEC2006 {
        writeln!(
            out,
            "{:<12} {:>12} {:>16} {:>8.2} {:>10.2} {:>10.2} {:>8.1} {:>8.1}",
            b.name,
            b.m_paper,
            b.n_paper,
            b.orig_secs,
            b.olken_secs,
            b.parda_secs,
            b.olken_slowdown(),
            b.parda_slowdown()
        )
        .map_err(io_err)?;
    }
    Ok(())
}
