//! Message-passing substrate: the stand-in for MPI.
//!
//! The original PARDA runs as MPI processes on a cluster; its communication
//! needs are modest — point-to-point sends of local-infinity lists between
//! neighbouring ranks, state shipping for the multi-phase reduction
//! (Algorithm 6, which the windowed streamer in `parda-core` replaces),
//! and a final histogram reduction. This crate reproduces that programming model
//! on OS threads:
//!
//! * [`World::run`] launches `np` ranks, each receiving a [`RankCtx`] with
//!   MPI-flavoured operations: [`RankCtx::send`], [`RankCtx::recv_from`],
//!   [`RankCtx::barrier`];
//! * [`pipe()`] provides the bounded producer/consumer channel standing in for
//!   the Linux pipe between the Pin tracer and rank 0 (paper Figure 3).
//!
//! Message delivery between a pair of ranks is FIFO; `recv_from` buffers
//! out-of-order arrivals from other sources, exactly matching MPI's
//! per-(source, dest) ordering guarantee.

pub mod collectives;
pub mod pipe;

pub use pipe::{pipe, PipeReader, PipeWriter};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Per-rank communication context handed to the closure run by
/// [`World::run`].
pub struct RankCtx<M> {
    rank: usize,
    np: usize,
    senders: Vec<Sender<(usize, M)>>,
    receiver: Receiver<(usize, M)>,
    /// Messages that arrived while waiting for a specific source.
    stash: Vec<VecDeque<M>>,
    barrier: Arc<Barrier>,
    /// Set when any rank panics, so peers blocked in `recv` fail fast
    /// instead of deadlocking (every rank holds senders to every other, so
    /// channels never disconnect on their own).
    failed: Arc<AtomicBool>,
}

impl<M: Send> RankCtx<M> {
    /// This rank's id in `0..np`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn np(&self) -> usize {
        self.np
    }

    /// Send `msg` to rank `dest` (non-blocking; channels are unbounded).
    ///
    /// Panics if `dest` is out of range. Sending to self is allowed and the
    /// message is received like any other.
    pub fn send(&self, dest: usize, msg: M) {
        assert!(dest < self.np, "dest {dest} out of range (np {})", self.np);
        // The receiver can only have hung up if its rank panicked; propagate.
        self.senders[dest]
            .send((self.rank, msg))
            .expect("destination rank terminated");
    }

    /// Blocking receive with fail-fast on peer panic.
    fn recv_raw(&self) -> (usize, M) {
        loop {
            match self.receiver.recv_timeout(Duration::from_millis(20)) {
                Ok(pair) => return pair,
                Err(RecvTimeoutError::Timeout) => {
                    if self.failed.load(Ordering::Relaxed) {
                        panic!("a peer rank panicked while rank {} was waiting", self.rank);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("all senders dropped while waiting for message");
                }
            }
        }
    }

    /// Receive the next message sent by rank `src`, blocking until one
    /// arrives. Messages from other sources received meanwhile are stashed
    /// and returned by their own `recv_from`/`recv_any` calls later.
    pub fn recv_from(&mut self, src: usize) -> M {
        assert!(src < self.np, "src {src} out of range (np {})", self.np);
        if let Some(msg) = self.stash[src].pop_front() {
            return msg;
        }
        loop {
            let (from, msg) = self.recv_raw();
            if from == src {
                return msg;
            }
            self.stash[from].push_back(msg);
        }
    }

    /// Receive the next message from any source, returning `(src, msg)`.
    pub fn recv_any(&mut self) -> (usize, M) {
        for (src, queue) in self.stash.iter_mut().enumerate() {
            if let Some(msg) = queue.pop_front() {
                return (src, msg);
            }
        }
        self.recv_raw()
    }

    /// `true` if a message from `src` is already available (non-blocking).
    pub fn poll_from(&mut self, src: usize) -> bool {
        if !self.stash[src].is_empty() {
            return true;
        }
        while let Ok((from, msg)) = self.receiver.try_recv() {
            self.stash[from].push_back(msg);
        }
        !self.stash[src].is_empty()
    }

    /// Block until every rank has entered the barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// A set of ranks executing the same function on separate threads — the
/// moral equivalent of `MPI_COMM_WORLD`.
pub struct World;

impl World {
    /// Run `np` ranks of `f` to completion, returning their results ordered
    /// by rank. `M` is the message type exchanged via [`RankCtx`].
    ///
    /// Panics in any rank propagate after all ranks have been joined.
    pub fn run<M, R, F>(np: usize, f: F) -> Vec<R>
    where
        M: Send,
        R: Send,
        F: Fn(RankCtx<M>) -> R + Sync,
    {
        assert!(np > 0, "world needs at least one rank");
        let mut senders = Vec::with_capacity(np);
        let mut receivers = Vec::with_capacity(np);
        for _ in 0..np {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(Barrier::new(np));
        let failed = Arc::new(AtomicBool::new(false));

        let mut contexts: Vec<RankCtx<M>> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| RankCtx {
                rank,
                np,
                senders: senders.clone(),
                receiver,
                stash: (0..np).map(|_| VecDeque::new()).collect(),
                barrier: barrier.clone(),
                failed: failed.clone(),
            })
            .collect();
        // Drop the original senders so channels close when ranks finish.
        drop(senders);

        // Run each rank under catch_unwind so a panic flips the shared flag
        // (waking peers blocked in recv) before propagating at join time.
        let guarded = |ctx: RankCtx<M>, failed: &AtomicBool| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            result
        };

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(np);
            // Give rank 0 the current thread; spawn the rest.
            let ctx0 = contexts.remove(0);
            let guarded = &guarded;
            for ctx in contexts {
                let failed = failed.clone();
                handles.push(scope.spawn(move || guarded(ctx, &failed)));
            }
            let r0 = guarded(ctx0, &failed);
            let mut results = Vec::with_capacity(np);
            let mut first_panic = None;
            for result in std::iter::once(r0).chain(handles.into_iter().map(|h| {
                h.join().unwrap_or_else(|p| {
                    failed.store(true, Ordering::Relaxed);
                    Err(p)
                })
            })) {
                match result {
                    Ok(r) => results.push(r),
                    Err(panic) => {
                        first_panic.get_or_insert(panic);
                    }
                }
            }
            if let Some(panic) = first_panic {
                std::panic::resume_unwind(panic);
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world_runs() {
        let results = World::run::<(), _, _>(1, |ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.np(), 1);
            ctx.barrier();
            42
        });
        assert_eq!(results, vec![42]);
    }

    #[test]
    fn results_are_ordered_by_rank() {
        let results = World::run::<(), _, _>(8, |ctx| ctx.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn ring_pass_accumulates() {
        // Each rank adds its id and forwards around a ring; matches MPI's
        // canonical ring example.
        let results = World::run::<u64, _, _>(4, |mut ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0);
                ctx.recv_from(3)
            } else {
                let v = ctx.recv_from(ctx.rank() - 1);
                let next = (ctx.rank() + 1) % ctx.np();
                ctx.send(next, v + ctx.rank() as u64);
                0
            }
        });
        assert_eq!(results[0], 1 + 2 + 3);
    }

    #[test]
    fn recv_from_filters_by_source() {
        // Rank 2 sends first, but rank 0 asks for rank 1's message first:
        // the stash must hold rank 2's message for the later recv.
        let results = World::run::<u64, _, _>(3, |mut ctx| match ctx.rank() {
            0 => {
                let a = ctx.recv_from(1);
                let b = ctx.recv_from(2);
                a * 100 + b
            }
            1 => {
                // The token from rank 2 guarantees rank 2's message to rank 0
                // was enqueued first, so rank 0 must stash it while waiting
                // for ours.
                let token = ctx.recv_from(2);
                assert_eq!(token, 1);
                ctx.send(0, 7);
                0
            }
            2 => {
                ctx.send(0, 9);
                ctx.send(1, 1);
                0
            }
            _ => unreachable!(),
        });
        assert_eq!(results[0], 709);
    }

    #[test]
    fn messages_between_pair_are_fifo() {
        let results = World::run::<u64, _, _>(2, |mut ctx| {
            if ctx.rank() == 0 {
                for i in 0..100 {
                    ctx.send(1, i);
                }
                0
            } else {
                let mut last = None;
                for _ in 0..100 {
                    let v = ctx.recv_from(0);
                    if let Some(prev) = last {
                        assert!(v > prev, "FIFO violated: {v} after {prev}");
                    }
                    last = Some(v);
                }
                last.unwrap()
            }
        });
        assert_eq!(results[1], 99);
    }

    #[test]
    fn send_to_self_is_received() {
        let results = World::run::<u64, _, _>(1, |mut ctx| {
            ctx.send(0, 5);
            ctx.recv_from(0)
        });
        assert_eq!(results, vec![5]);
    }

    #[test]
    fn recv_any_returns_source() {
        let results = World::run::<u64, _, _>(2, |mut ctx| {
            if ctx.rank() == 0 {
                let (src, v) = ctx.recv_any();
                assert_eq!(src, 1);
                v
            } else {
                ctx.send(0, 11);
                0
            }
        });
        assert_eq!(results[0], 11);
    }

    #[test]
    fn rank_panic_propagates_instead_of_deadlocking() {
        // Regression test: rank 1 panics while rank 0 blocks in recv_from.
        // Without the shared failure flag this deadlocked forever (every
        // rank holds senders to every other, so channels never disconnect).
        let result = std::panic::catch_unwind(|| {
            World::run::<u64, _, _>(3, |mut ctx| {
                match ctx.rank() {
                    0 => ctx.recv_from(1), // never satisfied
                    1 => panic!("injected rank failure"),
                    _ => 0,
                }
            })
        });
        let panic = result.expect_err("the injected panic must propagate");
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("injected rank failure") || message.contains("peer rank panicked"),
            "expected the injected panic (or the fail-fast peer panic), got: {message}"
        );
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        World::run::<(), _, _>(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }
}
