//! The machine a bench result was measured on.

use serde::Serialize;

/// The machine a report was measured on: rows from another core count or
/// CPU measure another machine and must not be compared.
#[derive(Serialize)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`, or "unknown".
    pub cpu_model: String,
    /// The checked-out commit of this workspace.
    pub git_rev: String,
}

impl Host {
    /// Probe the running machine and the workspace's checkout.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            git_rev: git_rev(),
        }
    }
}

/// The checked-out commit of this workspace, read from `.git` without
/// running git; "unknown" outside a repository.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
