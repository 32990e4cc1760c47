//! The traced run: every offline op rebuilt from the public calls the CLI
//! makes, each call wrapped in a span, plus standalone timings of the
//! layers no user op isolates. The program itself carries no
//! instrumentation; every span is recorded here, around a public call.

use crate::ops::{cli, stream_decoders, OfflineOp, Tally, OFFLINE_SKETCH};
use crate::spans::{self_secs, TimedStream, Tracer};
use crate::workload::Inputs;
use parda_core::phased::Reduction;
use parda_core::{Analysis, ApproxMode, ApproxSketch, Engine, FaultPolicy, MissSink, Mode};
use parda_hist::ReuseHistogram;
use parda_server::proto::{decode_data_frame_into, encode_data_frame};
use parda_trace::io::{Encoding, FRAME_REFS};
use parda_trace::stream::FramedStream;
use parda_trace::{chunk_slice, load_trace_recovering, Addr, Degradation, SliceStream};
use parda_tree::{AvlTree, ReuseTree, SplayTree, Treap, TreeKind, VectorTree};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Ranks `parda analyze` runs with by default.
const CLI_RANKS: usize = 4;
/// Phase chunk `parda analyze` streams with by default.
const CLI_CHUNK: usize = 65_536;

/// Samples per metric name; the report takes each one's median.
pub type Samples = BTreeMap<String, Vec<f64>>;

pub fn push(samples: &mut Samples, name: impl Into<String>, v: f64) {
    samples.entry(name.into()).or_default().push(v);
}

/// The analysis builder behind `parda analyze` (splay, four ranks,
/// strict decoding, stats on).
fn cli_builder() -> Analysis {
    Analysis::new()
        .tree(TreeKind::Splay)
        .ranks(CLI_RANKS)
        .stats(true)
        .degradation(Degradation::Strict)
}

fn exact(hist: &ReuseHistogram, inputs: &Inputs) -> Result<(), String> {
    (hist == &inputs.reference)
        .then_some(())
        .ok_or_else(|| "histogram differs from the sequential reference".into())
}

/// Open the trace file for streaming, inside a span.
fn open(tracer: &Tracer, root: u64, op: u64, inputs: &Inputs) -> Result<FramedStream, String> {
    tracer
        .span("parda_trace.open", Some(root), op, |_| {
            FramedStream::open_with_policy(&inputs.file, stream_decoders(), Degradation::Strict)
        })
        .map_err(|e| e.to_string())
}

/// Run a builder over the file's stream with every `fill` timed; a decode
/// error ends the stream early and is returned instead of the histogram.
fn stream_through(
    tracer: &Arc<Tracer>,
    name: &'static str,
    root: u64,
    op: u64,
    stream: FramedStream,
    builder: &Analysis,
) -> Result<ReuseHistogram, String> {
    let errors = stream.error_handle();
    let hist = tracer.span(name, Some(root), op, |engine| {
        builder
            .run_stream(TimedStream {
                inner: stream,
                tracer: Arc::clone(tracer),
                parent: engine,
                op,
            })
            .0
    });
    match errors.take() {
        Some(e) => Err(e.to_string()),
        None => Ok(hist),
    }
}

/// One offline op rebuilt from the calls `parda analyze` makes, every call
/// in a span under one root. Returns the op id and the histogram.
fn traced_op(
    tracer: &Arc<Tracer>,
    which: OfflineOp,
    inputs: &Inputs,
) -> (u64, Result<ReuseHistogram, String>) {
    let op = tracer.new_op();
    let out = tracer.span("op", None, op, |root| {
        let hist = match which {
            OfflineOp::Analyze => {
                let builder = cli_builder().mode(Mode::Phased {
                    chunk: CLI_CHUNK,
                    reduction: Reduction::ShipToRankZero,
                });
                let stream = open(tracer, root, op, inputs)?;
                stream_through(
                    tracer,
                    "parda_core.phased.run_stream",
                    root,
                    op,
                    stream,
                    &builder,
                )?
            }
            OfflineOp::AnalyzeParda => {
                let (trace, _) = tracer
                    .span("parda_trace.decode", Some(root), op, |_| {
                        load_trace_recovering(&inputs.file, Degradation::Strict)
                    })
                    .map_err(|e| e.to_string())?;
                tracer
                    .span("parda_core.parallel.run_faulted", Some(root), op, |_| {
                        cli_builder()
                            .mode(Mode::Threads)
                            .fault_policy(FaultPolicy::with_degradation(Degradation::Strict))
                            .run_faulted(trace.as_slice())
                    })
                    .map_err(|e| e.to_string())?
                    .0
            }
            OfflineOp::Approx => {
                let mode = ApproxMode::parse(OFFLINE_SKETCH).expect("valid sketch spec");
                let builder = cli_builder().approx(mode);
                let stream = open(tracer, root, op, inputs)?;
                stream_through(
                    tracer,
                    "parda_core.approx.run_stream",
                    root,
                    op,
                    stream,
                    &builder,
                )?
            }
        };
        tracer.span("parda_hist.render", Some(root), op, |_| {
            black_box(serde_json::to_string(&hist).expect("histogram serializes"));
        });
        Ok(hist)
    });
    (op, out)
}

/// Chunk and cascade work of the in-memory Parda driver, staged on one
/// thread from `Engine`'s public calls: every rank chunk through
/// `process_chunk`, then the local infinities folded right to left through
/// `process_infinities_in_place`.
struct Staged {
    hist: ReuseHistogram,
    chunk_s: f64,
    cascade_s: f64,
    local_infinities: u64,
    resolved: u64,
}

fn staged<T: ReuseTree + Default>(tracer: &Tracer, trace: &[Addr], ranks: usize) -> Staged {
    let op = tracer.new_op();
    let (hist, local_infinities, resolved) =
        tracer.span("parda_core.engine.staged", None, op, |root| {
            let mut items: Vec<(Engine<T>, Vec<Addr>)> = Vec::with_capacity(ranks);
            let mut start = 0u64;
            for chunk in chunk_slice(trace, ranks) {
                let mut engine: Engine<T> = Engine::new(None, chunk.len());
                let mut own = Vec::new();
                tracer.span("parda_core.engine.process_chunk", Some(root), op, |_| {
                    engine.process_chunk(chunk, start, MissSink::Forward(&mut own));
                });
                start += chunk.len() as u64;
                items.push((engine, own));
            }
            let local_infinities: u64 = items.iter().skip(1).map(|(e, _)| e.forwarded()).sum();
            let mut total = ReuseHistogram::new();
            let mut resolved = 0;
            let mut stream: Vec<Addr> = Vec::new();
            while let Some((mut engine, mut own)) = items.pop() {
                let is_leftmost = items.is_empty();
                if is_leftmost {
                    // Rank 0's own misses are global infinities.
                    engine.record_global_infinities(own.len() as u64);
                    own.clear();
                }
                let round = tracer.span(
                    "parda_core.engine.process_infinities",
                    Some(root),
                    op,
                    |_| engine.process_infinities_in_place(&mut stream),
                );
                resolved += round.resolved;
                if is_leftmost {
                    engine.record_global_infinities(stream.len() as u64);
                } else {
                    own.append(&mut stream);
                    stream = own;
                }
                total.merge(engine.histogram());
            }
            (total, local_infinities, resolved)
        });
    let spans = tracer.spans();
    Staged {
        hist,
        chunk_s: self_secs(&spans, op, "parda_core.engine.process_chunk"),
        cascade_s: self_secs(&spans, op, "parda_core.engine.process_infinities"),
        local_infinities,
        resolved,
    }
}

fn timed<R>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let op = tracer.new_op();
    let out = tracer.span(name, None, op, |_| f());
    (out, t.elapsed().as_secs_f64())
}

/// One pass over every layer. Ops that produce a histogram are checked
/// against the reference and counted in `tally`.
pub fn iteration(tracer: &Arc<Tracer>, inputs: &Inputs, samples: &mut Samples, tally: &mut Tally) {
    let trace = inputs
        .trace
        .as_ref()
        .expect("the traced run keeps the trace")
        .as_slice();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;

    // The offline ops, traced and untraced, for attribution and overhead.
    for which in crate::ops::OFFLINE_OPS {
        let (op, hist) = traced_op(tracer, which, inputs);
        let checked = hist.and_then(|h| match which {
            OfflineOp::Approx if h.total() == inputs.file_refs => Ok(()),
            OfflineOp::Approx => Err("approx histogram does not cover the trace".into()),
            _ => exact(&h, inputs),
        });
        tally.record(which.name(), checked);
        let spans = tracer.spans();
        let root = spans
            .iter()
            .find(|s| s.op == op && s.parent.is_none())
            .expect("root span");
        let traced_s = root.dur_ns() as f64 / 1e9;
        if let Some(u) = crate::spans::unattributed_frac(&spans, op) {
            push(samples, format!("{}.unattributed_frac", which.name()), u);
        }
        let run = cli(&which.argv(&inputs.file.to_string_lossy()));
        if tally
            .record(which.name(), crate::ops::check_offline(which, &run, inputs))
            .is_some()
        {
            push(
                samples,
                format!("{}.trace_overhead_s", which.name()),
                traced_s - run.secs,
            );
        }
        match which {
            OfflineOp::Analyze => {
                push(
                    samples,
                    "parda_trace.open_s",
                    self_secs(&spans, op, "parda_trace.open"),
                );
                push(
                    samples,
                    "parda_trace.fill_wait_s",
                    self_secs(&spans, op, "parda_trace.fill"),
                );
            }
            OfflineOp::AnalyzeParda => {
                let decode_s = self_secs(&spans, op, "parda_trace.decode");
                push(samples, "parda_trace.decode_s", decode_s);
                push(
                    samples,
                    "parda_trace.decode_mb_per_s",
                    inputs.file_bytes as f64 / 1e6 / decode_s,
                );
            }
            OfflineOp::Approx => {}
        }
    }

    // Engine and tree ablation: the same staged chunk + cascade per tree.
    let mut splay_work = 0.0;
    for (tree, run) in [
        (
            "splay",
            staged::<SplayTree> as fn(&Tracer, &[Addr], usize) -> Staged,
        ),
        ("avl", staged::<AvlTree>),
        ("treap", staged::<Treap>),
        ("vector", staged::<VectorTree>),
    ] {
        let s = run(tracer, trace, CLI_RANKS);
        if tally
            .record(&format!("staged {tree}"), exact(&s.hist, inputs))
            .is_none()
        {
            continue;
        }
        push(samples, format!("parda_tree.{tree}.chunk_s"), s.chunk_s);
        if tree == "splay" {
            splay_work = s.chunk_s + s.cascade_s;
            push(samples, "parda_core.engine.chunk_s", s.chunk_s);
            push(samples, "parda_core.engine.cascade_s", s.cascade_s);
            push(
                samples,
                "parda_core.engine.local_infinities",
                s.local_infinities as f64,
            );
            push(
                samples,
                "parda_core.engine.cascade_resolved_frac",
                s.resolved as f64 / s.local_infinities.max(1) as f64,
            );
        }
    }

    let ((hist, _), threads_s) = timed(tracer, "parda_core.parallel.run", || {
        cli_builder().stats(false).mode(Mode::Threads).run(trace)
    });
    if tally.record("threads", exact(&hist, inputs)).is_some() {
        push(samples, "parda_core.parallel.threads_s", threads_s);
        push(
            samples,
            "parda_core.parallel.efficiency",
            splay_work / (threads_s * nproc),
        );
    }

    let ((hist, _), phased_s) = timed(tracer, "parda_core.phased.run_stream", || {
        cli_builder()
            .stats(false)
            .mode(Mode::Phased {
                chunk: CLI_CHUNK,
                reduction: Reduction::ShipToRankZero,
            })
            .run_stream(SliceStream::new(trace))
    });
    if tally
        .record("phased in memory", exact(&hist, inputs))
        .is_some()
    {
        push(samples, "parda_core.phased.run_s", phased_s);
    }

    // The program's own phase-reduction figure, from `--stats=json`.
    let run = cli(&[
        "analyze".into(),
        inputs.file.to_string_lossy().into_owned(),
        "--stats=json".into(),
    ]);
    if let Some(ns) = tally.record("analyze --stats=json", reduction_ns(&run.out, inputs)) {
        push(samples, "parda_core.phased.reduction_s", ns as f64 / 1e9);
    }

    let mode = ApproxMode::parse(OFFLINE_SKETCH).expect("valid sketch spec");
    let (bytes, update_s) = timed(tracer, "parda_core.approx.update", || {
        let mut sketch = ApproxSketch::new(mode);
        sketch.update(trace);
        sketch.memory_bytes()
    });
    push(samples, "parda_core.approx.update_s", update_s);
    push(samples, "parda_core.approx.sketch_bytes", bytes as f64);

    let (_, render_s) = timed(tracer, "parda_hist.render", || {
        black_box(inputs.reference.to_binned().render());
        black_box(serde_json::to_string(&inputs.reference).expect("histogram serializes"));
    });
    push(samples, "parda_hist.render_s", render_s);

    wire_and_session(tracer, inputs, samples, tally);
}

/// The daemon's per-frame layers over one pool trace: wire encode and
/// decode of every DATA frame, then the session driver an exact session
/// runs (`feed` per frame, `finish`).
fn wire_and_session(
    tracer: &Arc<Tracer>,
    inputs: &Inputs,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    let pool = &inputs.pool[0];
    let frames: Vec<&[Addr]> = pool.trace.as_slice().chunks(FRAME_REFS).collect();
    let op = tracer.new_op();
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            tracer.span("parda_server.proto.encode", None, op, |_| {
                encode_data_frame(f, Encoding::DeltaVarint)
            })
        })
        .collect();
    let mut buf = Vec::new();
    let mut round_trip = Ok(());
    for (payload, frame) in payloads.iter().zip(&frames) {
        let decoded = tracer.span("parda_server.proto.decode", None, op, |_| {
            decode_data_frame_into(payload, Encoding::DeltaVarint, &mut buf)
        });
        if decoded.is_err() || buf.as_slice() != *frame {
            round_trip = Err("a DATA frame did not decode to what was encoded".to_string());
        }
    }
    if tally.record("proto round trip", round_trip).is_some() {
        let spans = tracer.spans();
        push(
            samples,
            "parda_server.proto.encode_s",
            self_secs(&spans, op, "parda_server.proto.encode"),
        );
        push(
            samples,
            "parda_server.proto.decode_s",
            self_secs(&spans, op, "parda_server.proto.decode"),
        );
    }

    // The builder an exact session with the default CONFIG gets.
    let mut session = Analysis::new()
        .tree(TreeKind::Vector)
        .mode(Mode::Threads)
        .stats(true)
        .session()
        .auto_ranks(true);
    let op = tracer.new_op();
    let mut state_hwm = 0u64;
    for frame in &frames {
        tracer.span("parda_core.session.feed", None, op, |_| session.feed(frame));
        state_hwm = state_hwm.max(session.state_bytes());
    }
    let done = tracer.span("parda_core.session.finish", None, op, |_| session.finish());
    let spans = tracer.spans();
    let checked = match done {
        Ok((hist, _)) if hist == pool.exact => Ok(()),
        Ok(_) => Err("session histogram differs from the reference".to_string()),
        Err(e) => Err(e.to_string()),
    };
    if tally.record("session driver", checked).is_some() {
        push(
            samples,
            "parda_core.session.feed_s",
            self_secs(&spans, op, "parda_core.session.feed"),
        );
        push(
            samples,
            "parda_core.session.finish_s",
            self_secs(&spans, op, "parda_core.session.finish"),
        );
        push(
            samples,
            "parda_core.session.state_bytes_hwm",
            state_hwm as f64,
        );
    }
}

/// Sum of the per-phase reduction times in `analyze --stats=json` output,
/// whose histogram must match the reference.
fn reduction_ns(out: &[u8], inputs: &Inputs) -> Result<u64, String> {
    let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
    let prefix = format!("{{\"histogram\":{},\"stats\":", inputs.reference_json);
    if !text.starts_with(&prefix) {
        return Err("histogram differs from the sequential reference".into());
    }
    let doc: serde_json::Value =
        serde_json::from_str(text.trim_end()).map_err(|e| e.to_string())?;
    let phases = doc
        .field("stats")
        .and_then(|s| s.field("phased"))
        .and_then(|p| p.field("phase_reduction_ns"))
        .map_err(|e| e.to_string())?;
    let serde_json::Value::Array(ns) = phases else {
        return Err("phase_reduction_ns is not an array".into());
    };
    ns.iter()
        .map(|v| match v {
            serde_json::Value::U64(n) => Ok(*n),
            other => Err(format!("phase_reduction_ns entry {other:?}")),
        })
        .sum()
}
