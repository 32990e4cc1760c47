//! Experiment harness for the PARDA reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §5); this library holds the shared machinery:
//!
//! * [`workload`] — building scaled SPEC traces and accounting for the
//!   trace-generation ("Pin") and pipe-transfer overheads the paper reports
//!   alongside analysis time;
//! * [`report`] — aligned text tables plus JSON-lines output so
//!   EXPERIMENTS.md entries are reproducible verbatim;
//! * [`host`] — the machine block every committed `BENCH_*.json` carries;
//! * [`d2_cascade`] — ablation D2's serial cascade, with and without
//!   Algorithm 4.
//!
//! ## Reading slowdown factors
//!
//! The paper reports every cost as a *slowdown factor*: time divided by the
//! uninstrumented runtime of the benchmark (`Orig` in Table IV). Our traces
//! are scaled down by `n_scaled / n_paper`, so the comparable baseline is
//! `orig_secs · n_scaled / n_paper` — the time the original program would
//! have spent issuing that many references. All slowdowns printed by the
//! harness use this scaled baseline, making them directly comparable to the
//! paper's factors.

pub mod host;
pub mod report;
pub mod workload;

pub use host::Host;
pub use report::{format_row, Report};
pub use workload::{build_workload, pipe_transfer_secs, BenchTimings, Workload};

use parda_core::{Engine, MissSink};
use parda_trace::{chunk_slice, Addr};
use parda_tree::SplayTree;
use std::time::Instant;

/// Ablation D2's cascade, serial: Algorithm 3 over `np` chunks of `trace`,
/// folded right to left on one thread. With `optimized` each rank absorbs
/// the stream from its right with Algorithm 4
/// ([`Engine::process_infinities`]); without it each rank runs the stream
/// through its reference path ([`Engine::process_chunk`]) as plain
/// Algorithm 3 does, keeping a replica of every element it sees. Returns
/// the rank engines after the fold.
pub fn d2_cascade(trace: &[Addr], np: usize, optimized: bool) -> Vec<Engine<SplayTree>> {
    let mut engines = Vec::new();
    let mut own_infs = Vec::new();
    let mut next_ts = Vec::new();
    let mut start = 0u64;
    for chunk in chunk_slice(trace, np) {
        let mut engine = Engine::new(None, 0);
        let mut inf = Vec::new();
        engine.process_chunk(chunk, start, MissSink::Forward(&mut inf));
        start += chunk.len() as u64;
        engines.push(engine);
        own_infs.push(inf);
        next_ts.push(start);
    }
    let mut stream = Vec::new();
    for p in (0..engines.len()).rev() {
        let mut survivors = Vec::new();
        if optimized {
            engines[p].process_infinities(&stream, &mut survivors);
        } else {
            engines[p].process_chunk(&stream, next_ts[p], MissSink::Forward(&mut survivors));
        }
        stream = std::mem::take(&mut own_infs[p]);
        stream.append(&mut survivors);
    }
    engines
}

/// Time a closure, returning `(result, seconds)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Parse `--key value` style overrides from a binary's argv, with defaults.
/// (The experiment binaries share a tiny flag surface: `--refs`, `--ranks`,
/// `--seed`, `--json`.)
pub struct BenchArgs {
    /// References per benchmark trace.
    pub refs: u64,
    /// Ranks for the parallel analyzer.
    pub ranks: usize,
    /// Generator seed.
    pub seed: u64,
    /// Also emit JSON lines.
    pub json: bool,
}

impl BenchArgs {
    /// Parse from `std::env::args`, applying the given defaults.
    pub fn parse(default_refs: u64, default_ranks: usize) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |key: &str| -> Option<String> {
            argv.iter()
                .position(|a| a == key)
                .and_then(|i| argv.get(i + 1).cloned())
        };
        Self {
            refs: get("--refs")
                .and_then(|v| v.parse().ok())
                .unwrap_or(default_refs),
            ranks: get("--ranks")
                .and_then(|v| v.parse().ok())
                .unwrap_or(default_ranks),
            seed: get("--seed").and_then(|v| v.parse().ok()).unwrap_or(42),
            json: argv.iter().any(|a| a == "--json"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (value, secs) = time(|| {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(value > 0);
        assert!(secs >= 0.0);
    }
}
