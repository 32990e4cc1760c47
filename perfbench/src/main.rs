//! The repository benchmark.
//!
//!   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!   perfbench compare --base <result.json>... --new <result.json>...
//!
//! A run generates its workload's inputs from the seed, computes the
//! reference histograms, measures for the given seconds and prints, as its
//! last stdout line, `{"correct","attempted","failed","metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones from the traced run. The line before it is the host
//! block. A result file with the host block, every timing's median, count
//! and tail percentile, and every metric goes to
//! `$CARGO_TARGET_DIR/perfbench-out/results/` (default `perfbench/target`).
//! A run exits 1 if any op failed.

mod host;
mod layers;
mod ops;
mod report;
mod spans;
mod stats;
mod workload;

use layers::{push, Samples};
use ops::{Tally, OFFLINE_OPS};
use report::MetricList;
use serde_json::Value;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Share of a run's time given to the offline ops; the daemon loop runs
/// first and gets the rest.
const OFFLINE_SHARE: f64 = 0.7;
/// Fewest rounds of the offline ops in a run.
const MIN_ROUNDS: usize = 3;
/// Fewest daemon sessions in a run, so that p95 has ten samples beyond it.
const MIN_SESSIONS: usize = 200;
/// Daemon sessions in the traced run (it only needs the shard metrics).
const TRACED_SESSIONS: usize = 40;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` ({})", names.join("|"))
    })?;
    let num =
        |key: &str| -> Result<u64, String> { get(key)?.parse().map_err(|e| format!("{key}: {e}")) };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
    })
}

fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-out")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("compare") {
        compare(&argv[1..])
    } else if argv.first().map(String::as_str) == Some(ops::RSS_PROBE) {
        ops::rss_probe_child(&argv[1..])
    } else {
        match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> i32 {
    let host = host::Host::probe();
    let w = args.workload;
    let scratch = out_dir().join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    eprintln!(
        "perfbench: {} seed {}: generating inputs",
        w.name, args.seed
    );
    let inputs = match w.inputs(args.seed, &scratch, args.trace) {
        Ok(i) => i,
        Err(e) => {
            eprintln!(
                "perfbench: cannot write inputs under {}: {e}",
                scratch.display()
            );
            return 2;
        }
    };
    let mut tally = Tally::default();
    let outcome = if args.trace {
        traced(args, &inputs, &mut tally)
    } else {
        untraced(args, &inputs, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (samples, list) = match outcome {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };

    let mut values = BTreeMap::new();
    let mut timings = Vec::new();
    for (name, xs) in &samples {
        if let Some(s) = Summary::of(xs) {
            values.insert(name.clone(), s.median);
            let tail = s.tail.map_or(Value::Null, |(pm, v)| {
                Value::Object(vec![
                    ("percentile".into(), Value::F64(pm as f64 / 10.0)),
                    ("value".into(), Value::F64(v)),
                ])
            });
            eprintln!(
                "  {name:<42} median {:>14.6}  n={:<4} tail {}",
                s.median,
                s.n,
                s.tail.map_or("-".into(), |(pm, v)| format!(
                    "p{} {v:.6}",
                    pm as f64 / 10.0
                ))
            );
            timings.push((
                name.clone(),
                Value::Object(vec![
                    ("median".into(), Value::F64(s.median)),
                    ("n".into(), Value::U64(s.n as u64)),
                    ("tail".into(), tail),
                    (
                        "samples".into(),
                        Value::Array(xs.iter().map(|&x| Value::F64(x)).collect()),
                    ),
                ]),
            ));
        }
    }
    eprintln!(
        "  failed_ops_frac {} ({} of {} ops)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    let metrics = match report::metrics_object(list, &values) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let host_block = host.to_value(args.seed);
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host_block.clone()),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("failed_ops_frac".into(), Value::F64(tally.failed_frac())),
        ("timings".into(), Value::Object(timings)),
        ("metrics".into(), metrics.clone()),
    ]);
    let results = out_dir().join("results");
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&results).and_then(|()| {
        std::fs::write(
            &file,
            serde_json::to_string(&doc).expect("result serializes"),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![("host".into(), host_block)]))
            .expect("host serializes")
    );
    println!(
        "{}",
        report::result_line(tally.attempted, tally.failed, metrics)
    );
    i32::from(tally.failed > 0)
}

/// The end-to-end run: the peak-memory probe, setup, the daemon loop, then
/// rounds of the offline ops until the time is up.
fn untraced(
    args: &Args,
    inputs: &workload::Inputs,
    tally: &mut Tally,
) -> Result<(Samples, &'static MetricList), String> {
    let mut samples = Samples::new();
    if let Some(mib) = tally.record("analyze (peak memory)", ops::probe_peak_rss(inputs)) {
        push(&mut samples, "peak_rss_mb", mib);
    }
    for _ in 0..SETUP_REPS {
        push(&mut samples, "setup_s", ops::setup_once(inputs)?);
    }

    // The daemon runs first, so no memory the offline ops freed is in its
    // peak.
    let start = Instant::now();
    let daemon_until = start + Duration::from_secs_f64(args.seconds * (1.0 - OFFLINE_SHARE));
    let d = ops::daemon_loop(inputs, MIN_SESSIONS, daemon_until, tally, None)?;
    // Exact and sketch sessions form two clusters, so a median over both
    // would sit in the gap between them: each kind gets its own median.
    let all: Vec<f64> = d.exact_ms.iter().chain(&d.sketch_ms).copied().collect();
    for (name, xs) in [
        ("exact_session_p50_ms", &d.exact_ms),
        ("sketch_session_p50_ms", &d.sketch_ms),
        ("session_ms", &all),
    ] {
        samples.insert(name.into(), xs.clone());
    }
    if let Some(p95) = stats::percentile(&all, 950) {
        push(&mut samples, "session_p95_ms", p95);
    }
    push(&mut samples, "ingest_refs_per_s", d.refs as f64 / d.wall_s);
    if let Some(mib) = d.peak_rss_mib {
        push(&mut samples, "serve_peak_rss_mb", mib);
    }

    let until = start + Duration::from_secs_f64(args.seconds);
    let file = inputs.file.to_string_lossy().into_owned();
    // Round 0 runs each op once to warm the allocator and page cache and is
    // not timed. A round that would end past the run's time is not started.
    let mut round = 0;
    let mut last = Duration::ZERO;
    while round <= MIN_ROUNDS || Instant::now() + last < until {
        let began = Instant::now();
        for op in OFFLINE_OPS {
            for _ in 0..if round == 0 { 1 } else { op.repeats() } {
                let run = ops::cli(&op.argv(&file));
                let checked = tally.record(op.name(), ops::check_offline(op, &run, inputs));
                let (Some(mae), true) = (checked, round > 0) else {
                    continue;
                };
                push(&mut samples, format!("{}_s", op.name()), run.secs);
                if let Some(mae) = mae {
                    push(&mut samples, "approx_mae", mae);
                }
            }
        }
        last = began.elapsed();
        round += 1;
    }
    Ok((samples, &report::END_TO_END))
}

/// The traced run: layer iterations until the time is up, one short daemon
/// loop for the shard metrics, then the spans are written out.
fn traced(
    args: &Args,
    inputs: &workload::Inputs,
    tally: &mut Tally,
) -> Result<(Samples, &'static MetricList), String> {
    let tracer = spans::Tracer::new();
    let mut samples = Samples::new();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(args.seconds);
    loop {
        layers::iteration(&tracer, inputs, &mut samples, tally);
        if Instant::now() >= until {
            break;
        }
    }
    let d = ops::daemon_loop(
        inputs,
        TRACED_SESSIONS,
        Instant::now(),
        tally,
        Some(&tracer),
    )?;
    let shard_max = |f: fn(&parda_obs::ShardMetrics) -> u64| {
        d.metrics.per_shard.iter().map(f).max().unwrap_or(0) as f64
    };
    samples.insert(
        "parda_server.queue_depth_hwm".into(),
        vec![shard_max(|s| s.queue_depth_hwm)],
    );
    samples.insert(
        "parda_server.state_bytes_hwm".into(),
        vec![shard_max(|s| s.state_bytes_hwm)],
    );

    let spans_dir = out_dir().join("spans");
    let file = spans_dir.join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
    let written = std::fs::create_dir_all(&spans_dir)
        .and_then(|()| std::fs::write(&file, spans::to_jsonl(&tracer.spans())));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    Ok((samples, &report::PER_LAYER))
}

/// `compare --base <files>... --new <files>...`: exit 0 when no metric is
/// worse than its bound, 1 when one is, 2 when the results must not be
/// compared (another host) or cannot be read.
fn compare(argv: &[String]) -> i32 {
    let split = argv.iter().position(|a| a == "--new");
    let (Some(split), Some("--base")) = (split, argv.first().map(String::as_str)) else {
        eprintln!("usage: perfbench compare --base <result.json>... --new <result.json>...");
        return 2;
    };
    let load = |paths: &[String]| -> Result<Vec<Value>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let outcome = (|| {
        let bench = load(&["BENCHMARK.json".to_string()])?.remove(0);
        report::compare(&bench, &load(&argv[1..split])?, &load(&argv[split + 1..])?)
    })();
    match outcome {
        Ok((text, ok)) => {
            print!("{text}");
            i32::from(!ok)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}
