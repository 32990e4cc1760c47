//! Metric names and units, the result line and file, and the comparison
//! of two sets of result files.

use crate::host;
use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;

/// `(name, unit)` of each metric a run prints.
pub type MetricList = [(&'static str, &'static str)];

/// End-to-end metrics, printed with `--trace 0`, as named in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("analyze_s", "s"),
    ("analyze_parda_s", "s"),
    ("approx_s", "s"),
    ("approx_mae", "ratio"),
    ("exact_session_p50_ms", "ms"),
    ("sketch_session_p50_ms", "ms"),
    ("session_p95_ms", "ms"),
    ("ingest_refs_per_s", "refs/s"),
    ("peak_rss_mb", "MiB"),
    ("serve_peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("parda_trace.open_s", "s"),
    ("parda_trace.decode_s", "s"),
    ("parda_trace.decode_mb_per_s", "MB/s"),
    ("parda_trace.fill_wait_s", "s"),
    ("parda_core.engine.chunk_s", "s"),
    ("parda_core.engine.cascade_s", "s"),
    ("parda_core.engine.local_infinities", "count"),
    ("parda_core.engine.cascade_resolved_frac", "ratio"),
    ("parda_tree.splay.chunk_s", "s"),
    ("parda_tree.avl.chunk_s", "s"),
    ("parda_tree.treap.chunk_s", "s"),
    ("parda_tree.vector.chunk_s", "s"),
    ("parda_core.parallel.threads_s", "s"),
    ("parda_core.parallel.efficiency", "ratio"),
    ("parda_core.phased.run_s", "s"),
    ("parda_core.phased.reduction_s", "s"),
    ("parda_core.approx.update_s", "s"),
    ("parda_core.approx.sketch_bytes", "bytes"),
    ("parda_hist.render_s", "s"),
    ("parda_server.proto.encode_s", "s"),
    ("parda_server.proto.decode_s", "s"),
    ("parda_core.session.feed_s", "s"),
    ("parda_core.session.finish_s", "s"),
    ("parda_core.session.state_bytes_hwm", "bytes"),
    ("parda_server.queue_depth_hwm", "count"),
    ("parda_server.state_bytes_hwm", "bytes"),
    ("analyze.unattributed_frac", "ratio"),
    ("analyze_parda.unattributed_frac", "ratio"),
    ("approx.unattributed_frac", "ratio"),
    ("analyze.trace_overhead_s", "s"),
    ("analyze_parda.trace_overhead_s", "s"),
    ("approx.trace_overhead_s", "s"),
];

/// The metrics object of the result line: every listed metric with its
/// value and unit. Errors name the first metric with no value.
pub fn metrics_object(
    list: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
) -> Result<Value, String> {
    let mut fields = Vec::new();
    for &(name, unit) in list {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("no value for metric {name}"))?;
        fields.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::F64(v)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    Ok(Value::Object(fields))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: Value) -> String {
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics),
    ]);
    serde_json::to_string(&doc).expect("result serializes")
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark: &Value) -> Result<Vec<(String, String, f64)>, String> {
    let Ok(Value::Array(rows)) = benchmark.field("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    rows.iter()
        .map(|r| {
            let s = |k: &str| match r.field(k) {
                Ok(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("end_to_end row lacks {k}")),
            };
            let bound = r
                .field("bound")
                .ok()
                .and_then(num)
                .ok_or("end_to_end row lacks bound")?;
            Ok((s("name")?, s("better")?, bound))
        })
        .collect()
}

/// Compare two sets of result files metric by metric, per workload. Each
/// set's value is the median over its files. A metric fails when the new
/// median is worse than the base median by more than its bound. Refuses
/// outright when the files come from hosts with another core count or CPU.
pub fn compare(benchmark: &Value, base: &[Value], new: &[Value]) -> Result<(String, bool), String> {
    let first = base.first().or(new.first()).ok_or("no result files")?;
    let host0 = first.field("host").map_err(|e| e.to_string())?;
    for doc in base.iter().chain(new) {
        let h = doc.field("host").map_err(|e| e.to_string())?;
        if let Some(why) = host::incomparable(host0, h) {
            return Err(format!("refusing to compare: {why}"));
        }
    }
    let workload = |d: &Value| match d.field("workload") {
        Ok(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let value = |d: &Value, m: &str| {
        d.field("metrics")
            .and_then(|ms| ms.field(m))
            .ok()
            .and_then(|v| v.field("value").ok())
            .and_then(num)
    };
    let mut workloads: Vec<String> = base.iter().map(workload).collect();
    workloads.sort();
    workloads.dedup();
    let mut out = String::new();
    let mut ok = true;
    for w in &workloads {
        for (name, better, bound) in bounds(benchmark)? {
            let side = |set: &[Value]| -> Vec<f64> {
                set.iter()
                    .filter(|d| &workload(d) == w)
                    .filter_map(|d| value(d, &name))
                    .collect()
            };
            let (b, n) = (side(base), side(new));
            let (Some(bm), Some(nm)) = (median(&b), median(&n)) else {
                continue;
            };
            let worse = if better == "higher" {
                (bm - nm) / bm
            } else {
                (nm - bm) / bm
            };
            let verdict = if worse > bound {
                ok = false;
                "WORSE"
            } else {
                "ok"
            };
            let sp = |xs: &[f64]| spread(xs).map_or("-".into(), |s| format!("{s:.3}"));
            out.push_str(&format!(
                "{w:<13} {name:<18} base {bm:>14.6} (n={}, spread {}) new {nm:>14.6} (n={}, spread {}) worse by {worse:+.3} / bound {bound}  {verdict}\n",
                b.len(),
                sp(&b),
                n.len(),
                sp(&n)
            ));
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap()
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Ok(Value::Array(rows)) = doc.field(key) else {
            panic!("{key} missing");
        };
        rows.iter()
            .map(|r| match (r.field("name"), r.field("unit")) {
                (Ok(Value::Str(n)), Ok(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("bad row in {key}"),
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = benchmark_json();
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn every_layer_metric_says_what_it_should_move() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let map: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let moves = map.field("per_layer").unwrap();
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        for (name, _) in PER_LAYER {
            let row = moves
                .field(name)
                .unwrap_or_else(|_| panic!("layers.json lacks {name}"));
            let Ok(Value::Str(target)) = row.field("moves") else {
                panic!("{name}: no `moves`");
            };
            assert!(
                e2e.contains(&target.as_str()),
                "{name} moves unknown metric {target}"
            );
        }
        let workloads = map.field("workloads").unwrap();
        for w in crate::workload::WORKLOADS {
            assert!(
                workloads.field(w.name).is_ok(),
                "layers.json lacks workload {}",
                w.name
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|(n, _)| (n.to_string(), 1.5))
            .collect();
        let line = result_line(10, 0, metrics_object(&END_TO_END, &values).unwrap());
        let doc: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(fields) = &doc else {
            panic!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.field("correct").unwrap(), &Value::Bool(true));
        let bad = result_line(10, 1, Value::Object(vec![]));
        assert!(bad.starts_with("{\"correct\":false"));
        assert!(metrics_object(&PER_LAYER, &values).is_err());
    }

    fn result(nproc: u64, workload: &str, analyze_s: f64) -> Value {
        let host = crate::host::Host {
            nproc: nproc as usize,
            cpu_model: "cpu".into(),
            l2: "-".into(),
            llc: "-".into(),
            rustc: "-".into(),
            git_rev: "-".into(),
        };
        let values: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|(n, _)| {
                (
                    n.to_string(),
                    if *n == "analyze_s" { analyze_s } else { 1.0 },
                )
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("host".into(), host.to_value(1)),
            (
                "metrics".into(),
                metrics_object(&END_TO_END, &values).unwrap(),
            ),
        ])
    }

    #[test]
    fn compare_flags_regressions_and_refuses_other_hosts() {
        let bench = benchmark_json();
        let base = [result(2, "zipf-small", 1.0), result(2, "zipf-small", 1.02)];
        let same = [result(2, "zipf-small", 1.01)];
        assert!(compare(&bench, &base, &same).unwrap().1);
        let slower = [result(2, "zipf-small", 2.0)];
        let (text, ok) = compare(&bench, &base, &slower).unwrap();
        assert!(!ok && text.contains("WORSE"), "{text}");
        let other = [result(8, "zipf-small", 1.0)];
        assert!(compare(&bench, &base, &other)
            .unwrap_err()
            .contains("nproc"));
    }
}
