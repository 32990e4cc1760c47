//! The named workloads, their seeded inputs and the reference histograms
//! every timed op is checked against.

use parda_core::{analyze_approx, Analysis, ApproxMode, Mode};
use parda_hist::ReuseHistogram;
use parda_trace::gen::ZipfGen;
use parda_trace::io::{save_trace_v2, Encoding};
use parda_trace::{AddressStream, Trace};
use std::path::{Path, PathBuf};

/// Zipf skew of every generated trace.
const THETA: f64 = 0.99;
/// References per daemon session.
const SESSION_REFS: usize = 500_000;
/// Distinct session traces in the daemon pool.
const POOL: usize = 4;
/// The sketch every approx daemon session requests.
pub const SESSION_SKETCH: &str = "shards-smax:8192";

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// References in the offline trace file.
    file_refs: usize,
    /// Distinct addresses the zipf generators draw from.
    footprint: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "zipf-large",
        file_refs: 4_000_000,
        footprint: 1 << 20,
    },
    Workload {
        name: "zipf-small",
        file_refs: 8_000_000,
        footprint: 1 << 14,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One session trace of the daemon pool with its expected replies.
pub struct PoolTrace {
    pub trace: Trace,
    pub exact: ReuseHistogram,
    pub sketch: ReuseHistogram,
}

/// Everything a run measures against.
pub struct Inputs {
    pub file: PathBuf,
    pub file_bytes: u64,
    pub file_refs: u64,
    /// The offline trace, kept only for the traced run.
    pub trace: Option<Trace>,
    /// The oracle: `Mode::Seq` over the offline trace.
    pub reference: ReuseHistogram,
    /// `reference` rendered exactly as `analyze --json` prints it.
    pub reference_json: String,
    pub pool: Vec<PoolTrace>,
}

/// Distinct, deterministic generator seeds derived from the workload seed.
fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sequential reference analysis (Algorithm 1 on one splay tree):
/// it shares no parallel, phased or session driver with the ops it checks.
pub fn reference(trace: &[u64]) -> ReuseHistogram {
    Analysis::new().mode(Mode::Seq).run(trace).0
}

impl Workload {
    /// Generate this workload's inputs for `seed` under `dir`.
    pub fn inputs(&self, seed: u64, dir: &Path, keep_trace: bool) -> std::io::Result<Inputs> {
        let sketch = ApproxMode::parse(SESSION_SKETCH).expect("valid sketch spec");
        let pool: Vec<PoolTrace> = (0..POOL as u64)
            .map(|k| {
                let trace = ZipfGen::new(self.footprint, THETA, 0, derive_seed(seed, k + 1))
                    .take_trace(SESSION_REFS);
                PoolTrace {
                    exact: reference(trace.as_slice()),
                    sketch: analyze_approx(trace.as_slice(), sketch).0,
                    trace,
                }
            })
            .collect();
        let trace =
            ZipfGen::new(self.footprint, THETA, 0, derive_seed(seed, 0)).take_trace(self.file_refs);
        std::fs::create_dir_all(dir)?;
        let file = dir.join(format!("{}.trc", self.name));
        save_trace_v2(&file, &trace, Encoding::DeltaVarint)?;
        let reference = reference(trace.as_slice());
        let reference_json = serde_json::to_string(&reference).expect("histogram serializes");
        Ok(Inputs {
            file_bytes: std::fs::metadata(&file)?.len(),
            file,
            file_refs: trace.len() as u64,
            trace: keep_trace.then_some(trace),
            reference,
            reference_json,
            pool,
        })
    }
}

/// Cache capacities the approx error is averaged over: powers of two up to
/// one past the reference's largest distance.
pub fn mae_capacities(reference: &ReuseHistogram) -> Vec<u64> {
    reference
        .miss_ratio_curve_pow2()
        .into_iter()
        .map(|(c, _)| c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn derived_seeds_differ() {
        let seeds: std::collections::HashSet<u64> = (0..5)
            .flat_map(|s| (0..5).map(move |k| derive_seed(s, k)))
            .collect();
        assert_eq!(seeds.len(), 25);
    }
}
