//! The host block recorded with every result, and the rule for which
//! results may be compared.

use serde_json::Value;
use std::path::Path;

#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub llc: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Host {
        let mut caches = cache_sizes();
        caches.retain(|(_, kind, _)| kind != "Instruction");
        caches.sort();
        let size = |c: Option<&(String, String, String)>| {
            c.map_or_else(|| "unknown".into(), |(_, _, size)| size.clone())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            l2: size(caches.iter().find(|(lvl, _, _)| lvl == "2")),
            llc: size(caches.last()),
            rustc: rustc_version(),
            git_rev: git_rev(Path::new(".")),
        }
    }

    pub fn to_value(&self, seed: u64) -> Value {
        let s = |x: &str| Value::Str(x.to_string());
        Value::Object(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("cpu_model".into(), s(&self.cpu_model)),
            ("l2".into(), s(&self.l2)),
            ("llc".into(), s(&self.llc)),
            ("rustc".into(), s(&self.rustc)),
            ("git_rev".into(), s(&self.git_rev)),
            ("seed".into(), Value::U64(seed)),
        ])
    }
}

/// Why two host blocks must not be compared, if they must not: a result
/// from another core count or CPU measures another machine.
pub fn incomparable(a: &Value, b: &Value) -> Option<String> {
    for key in ["nproc", "cpu_model"] {
        let (x, y) = (a.field(key).ok(), b.field(key).ok());
        if x.is_none() || x != y {
            return Some(format!("host {key} differs: {x:?} vs {y:?}"));
        }
    }
    None
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(level, type, size)` of each cache of CPU 0.
fn cache_sizes() -> Vec<(String, String, String)> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            out.push((level, kind, size));
        }
    }
    out
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from an export that is not a repository).
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn host(nproc: usize, cpu: &str) -> Value {
        Host {
            nproc,
            cpu_model: cpu.into(),
            l2: "2048K".into(),
            llc: "32M".into(),
            rustc: "rustc".into(),
            git_rev: "abc".into(),
        }
        .to_value(1)
    }

    #[test]
    fn only_same_core_count_and_cpu_compare() {
        assert_eq!(incomparable(&host(2, "x"), &host(2, "x")), None);
        assert!(incomparable(&host(2, "x"), &host(8, "x")).is_some());
        assert!(incomparable(&host(2, "x"), &host(2, "y")).is_some());
        assert!(incomparable(&host(2, "x"), &Value::Object(vec![])).is_some());
    }
}
