//! The item pool's thread bound: however many streams run at once and
//! however many windows they cut, item analysis runs on the one
//! process-wide pool of `worker_count()` named threads, and no thread is
//! started per window. Linux only: the check reads `/proc/self/task`.
#![cfg(target_os = "linux")]

use parda::core::pool::worker_count;
use parda::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every thread of this process now: id and name.
fn threads() -> BTreeMap<u64, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect()
}

#[test]
fn eight_windowed_sessions_share_the_pool_threads() {
    const SESSIONS: usize = 8;
    let before = threads();
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut seen: BTreeMap<u64, String> = BTreeMap::new();
            let mut most_items = 0;
            while !done.load(Ordering::Relaxed) {
                let now = threads();
                let items = now.values().filter(|n| n.starts_with("parda-item")).count();
                most_items = most_items.max(items);
                seen.extend(now);
                std::thread::sleep(Duration::from_millis(1));
            }
            (seen, most_items)
        })
    };

    // 100 windows of 4 × 500 references each, pushed frame by frame.
    let trace: Vec<Addr> = (0..200_000u64).map(|i| (i * 7_919) % 3_001).collect();
    let expected = analyze_sequential::<SplayTree>(&trace, None);
    let builder = Analysis::new().ranks(4).mode(Mode::Phased {
        chunk: 500,
        reduction: Reduction::ShipToRankZero,
    });
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..SESSIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut session = builder.session();
                    for frame in trace.chunks(1_024) {
                        session.feed(frame);
                    }
                    session.finish().unwrap().0
                })
            })
            .collect();
        for run in runs {
            assert_eq!(run.join().unwrap(), expected);
        }
    });
    done.store(true, Ordering::Relaxed);
    let (seen, most_items) = sampler.join().unwrap();

    let workers = worker_count();
    let item_threads = seen
        .values()
        .filter(|n| n.starts_with("parda-item"))
        .count();
    assert!(
        most_items <= workers && item_threads <= workers,
        "{item_threads} item threads over the run, {most_items} at once, pool of {workers}"
    );
    // Besides the threads already running: the sessions' drivers and
    // history stages, the pool, and the sampler. A thread per window
    // would add hundreds.
    let new = seen.keys().filter(|tid| !before.contains_key(tid)).count();
    assert!(
        new <= 2 * SESSIONS + workers + 1,
        "{new} new threads: {:?}",
        seen.values().collect::<Vec<_>>()
    );
}
