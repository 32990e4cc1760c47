//! Error taxonomy and fault policy for the analysis pipeline.
//!
//! The fault-tolerant entry points ([`crate::Analysis::run_file`],
//! [`crate::parallel::parda_threads_faulted`]) return [`PardaError`]
//! instead of a bare [`std::io::Error`], so callers — the CLI in
//! particular — can distinguish *corrupt input* from *I/O failure* from
//! *internal worker faults* and react per class (exit codes, retries,
//! degradation). [`FaultPolicy`] bundles the knobs that govern recovery:
//! the [`Degradation`] ladder for input corruption, retry budget and
//! backoff for work items whose worker panicked, and an optional watchdog
//! deadline that converts a stalled cascade wait into a structured
//! [`PardaError::Stall`] instead of a hang. A work item is a rank's chunk
//! or a work-stealing sub-chunk of one.

use parda_trace::Degradation;
use std::fmt;
use std::io;
use std::time::Duration;

/// Everything that can go wrong in an end-to-end analysis run, classified
/// by what the caller should do about it.
#[derive(Debug)]
pub enum PardaError {
    /// The input could not be read (file missing, permission, short read).
    Io(io::Error),
    /// The input was read but failed integrity validation: bad magic,
    /// CRC mismatch, truncated frame, malformed varint. Under a lossy
    /// [`Degradation`] policy most of these are repaired instead.
    Corrupt(String),
    /// A work item's worker panicked and every rescue attempt (scalar
    /// re-analysis with backoff) panicked too. `attempts` counts the
    /// initial run plus all retries.
    WorkerPanic {
        /// The rank owning the item whose analysis could not be completed.
        rank: usize,
        /// Total attempts made (1 initial + retries).
        attempts: u32,
    },
    /// A work item failed to publish its result within the watchdog
    /// deadline.
    Stall {
        /// The rank owning the item the cascade fold was waiting on.
        rank: usize,
        /// The configured deadline that expired.
        deadline: Duration,
    },
    /// The requested configuration is unusable (e.g. an unknown
    /// degradation policy name).
    Config(String),
    /// A network peer vanished mid-exchange (connection reset / broken
    /// pipe / unexpected EOF on a socket) and every reconnect attempt
    /// failed. Distinct from [`PardaError::Io`] so a retrying client can
    /// tell a dead transport from a dead disk; exits in the i/o class.
    ConnectionLost {
        /// Connection attempts made before giving up.
        attempts: u32,
    },
}

impl PardaError {
    /// Stable machine-readable class name (used by the CLI diagnostics).
    pub fn class(&self) -> &'static str {
        match self {
            PardaError::Io(_) => "io",
            PardaError::Corrupt(_) => "corrupt",
            PardaError::WorkerPanic { .. } => "worker-panic",
            PardaError::Stall { .. } => "stall",
            PardaError::Config(_) => "config",
            PardaError::ConnectionLost { .. } => "connection-lost",
        }
    }
}

impl fmt::Display for PardaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PardaError::Io(e) => write!(f, "i/o error: {e}"),
            PardaError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            PardaError::WorkerPanic { rank, attempts } => {
                write!(f, "rank {rank} worker panicked ({attempts} attempts)")
            }
            PardaError::Stall { rank, deadline } => {
                write!(f, "rank {rank} stalled past the {deadline:?} watchdog")
            }
            PardaError::Config(msg) => write!(f, "bad configuration: {msg}"),
            PardaError::ConnectionLost { attempts } => {
                write!(f, "connection lost ({attempts} attempts exhausted)")
            }
        }
    }
}

impl std::error::Error for PardaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PardaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PardaError {
    /// Classify an I/O error: `InvalidData` / `UnexpectedEof` mean the
    /// bytes arrived but were wrong — that is corruption, not I/O.
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => {
                PardaError::Corrupt(e.to_string())
            }
            _ => PardaError::Io(e),
        }
    }
}

/// Recovery policy for a fault-tolerant analysis run.
///
/// The default is conservative: strict input validation, two rescue
/// retries with a 10 ms backoff, no watchdog (waits are unbounded). The
/// drivers that return no error — [`crate::parallel::parda_threads`] and
/// the windowed streamer — run under it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// How to treat corrupt input (see [`Degradation`]).
    pub degradation: Degradation,
    /// How many times a work item whose worker panicked is re-analyzed
    /// (with the scalar reference engine) before giving up with
    /// [`PardaError::WorkerPanic`].
    pub max_retries: u32,
    /// Pause between rescue attempts.
    pub retry_backoff: Duration,
    /// Deadline for each cascade wait on a work item's slot; `None` waits
    /// forever. On expiry the run aborts with [`PardaError::Stall`].
    pub watchdog: Option<Duration>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            degradation: Degradation::Strict,
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            watchdog: None,
        }
    }
}

impl FaultPolicy {
    /// Policy with the given degradation ladder rung and default retry /
    /// watchdog settings.
    pub fn with_degradation(degradation: Degradation) -> Self {
        Self {
            degradation,
            ..Self::default()
        }
    }

    /// Builder-style retry budget setter.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder-style backoff setter.
    pub fn backoff(mut self, d: Duration) -> Self {
        self.retry_backoff = d;
        self
    }

    /// Builder-style watchdog setter.
    pub fn watchdog(mut self, d: impl Into<Option<Duration>>) -> Self {
        self.watchdog = d.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_classify_by_kind() {
        let corrupt: PardaError = io::Error::new(io::ErrorKind::InvalidData, "bad crc").into();
        assert_eq!(corrupt.class(), "corrupt");
        let eof: PardaError = io::Error::new(io::ErrorKind::UnexpectedEof, "short").into();
        assert_eq!(eof.class(), "corrupt");
        let missing: PardaError = io::Error::new(io::ErrorKind::NotFound, "no file").into();
        assert_eq!(missing.class(), "io");
    }

    #[test]
    fn display_is_one_line_and_class_stable() {
        let e = PardaError::WorkerPanic {
            rank: 3,
            attempts: 3,
        };
        assert_eq!(e.class(), "worker-panic");
        assert!(!e.to_string().contains('\n'));
        let s = PardaError::Stall {
            rank: 1,
            deadline: Duration::from_millis(50),
        };
        assert_eq!(s.class(), "stall");
        assert!(s.to_string().contains("rank 1"));
        let c = PardaError::ConnectionLost { attempts: 5 };
        assert_eq!(c.class(), "connection-lost");
        assert!(c.to_string().contains("5 attempts"));
    }

    #[test]
    fn default_policy_is_strict_with_bounded_retries() {
        let p = FaultPolicy::default();
        assert_eq!(p.degradation, Degradation::Strict);
        assert_eq!(p.max_retries, 2);
        assert!(p.watchdog.is_none());
        let q = FaultPolicy::with_degradation(Degradation::BestEffort)
            .retries(1)
            .watchdog(Duration::from_secs(5));
        assert_eq!(q.degradation, Degradation::BestEffort);
        assert_eq!(q.max_retries, 1);
        assert_eq!(q.watchdog, Some(Duration::from_secs(5)));
    }
}
