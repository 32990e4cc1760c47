//! The process-wide item pool: one set of worker threads that analyzes the
//! work items of every exact surface.
//!
//! The pool starts when the first window is submitted and lives as long as
//! the process. It runs [`worker_count`] threads named `parda-item-<i>`.
//! Every `analyze` run, every daemon session and every window shares them,
//! so the thread count does not grow with windows or sessions. Jobs run in
//! submission order. [`crate::parallel`] submits a window's items right to
//! left, the order its cascade folds them, and the windowed streamer
//! submits window `k + 1` before it folds window `k`, so the workers
//! analyze one window while the caller folds the one before it.
//!
//! A job that panics is caught here, so a worker outlives any job. Item
//! jobs catch their own panics first and publish a failure marker that the
//! fold rescues. A job whose window was abandoned while it ran (its fold
//! gave up on a stalled item, or its stream was dropped) still holds its
//! worker until it returns; the pool counts those workers, and once they
//! are all it has, a fold waiting on a queued item knows the queue is not
//! draining.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once};

/// A unit of work for the pool.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

static QUEUE: Mutex<VecDeque<Job>> = Mutex::new(VecDeque::new());
static READY: Condvar = Condvar::new();
static START: Once = Once::new();
/// Workers the pool started.
static WORKERS: AtomicUsize = AtomicUsize::new(0);
/// Workers held by a job of an abandoned window.
static ABANDONED: AtomicUsize = AtomicUsize::new(0);

/// Threads the item pool runs: `RAYON_NUM_THREADS` (the knob the rest of
/// the workspace honours) or the machine's available parallelism.
pub fn worker_count() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Queue `jobs` in order behind every job already queued, starting the
/// pool on first use.
///
/// # Panics
///
/// If the pool has no worker and none can be started.
pub(crate) fn submit(jobs: impl IntoIterator<Item = Job>) {
    START.call_once(start);
    let mut queue = lock();
    let before = queue.len();
    queue.extend(jobs);
    let added = queue.len() - before;
    drop(queue);
    for _ in 0..added {
        READY.notify_one();
    }
}

/// Poison-tolerant lock on the queue: no job runs while it is held.
fn lock() -> MutexGuard<'static, VecDeque<Job>> {
    QUEUE.lock().unwrap_or_else(|e| e.into_inner())
}

fn start() {
    let started = (0..worker_count())
        .filter(|i| {
            std::thread::Builder::new()
                .name(format!("parda-item-{i}"))
                .spawn(work)
                .is_ok()
        })
        .count();
    assert!(started > 0, "cannot start any item worker");
    WORKERS.store(started, Ordering::Relaxed);
}

/// A running job's window was abandoned: its worker now does nothing
/// anyone waits for, until the job returns and calls [`release`].
pub(crate) fn hold() {
    ABANDONED.fetch_add(1, Ordering::Relaxed);
}

/// An abandoned job that [`hold`] counted has returned its worker.
pub(crate) fn release() {
    ABANDONED.fetch_sub(1, Ordering::Relaxed);
}

/// `true` while every worker is held by a job of an abandoned window, so
/// no queued job can start before one of them returns.
pub(crate) fn clogged() -> bool {
    let workers = WORKERS.load(Ordering::Relaxed);
    workers > 0 && ABANDONED.load(Ordering::Relaxed) >= workers
}

/// A worker: run queued jobs, oldest first, forever.
fn work() {
    loop {
        let job = {
            let mut queue = lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = READY.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn jobs_run_and_a_panicking_job_spares_its_worker() {
        let (done, results) = channel();
        let jobs = (0..3 * worker_count()).map(|i| {
            let done = done.clone();
            Box::new(move || {
                if i % 3 == 0 {
                    panic!("job {i}");
                }
                done.send(i).unwrap();
            }) as Job
        });
        submit(jobs);
        drop(done);
        let mut seen: Vec<usize> = results.iter().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..3 * worker_count()).filter(|i| i % 3 != 0).collect();
        assert_eq!(seen, expected);
    }
}
