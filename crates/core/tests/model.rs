//! Model-checked concurrency tests for the shipping protocols: the
//! work-stealing pool's dispatch/completion discipline and the
//! quiescence barrier's deferred-work seam.
//!
//! These compile only under `RUSTFLAGS="--cfg tripoll_model"`, where
//! the `tripoll-sync` facade swaps std primitives for the instrumented
//! ones in `tripoll-modelcheck` and every lock/atomic/spawn becomes a
//! schedule point. Run them with:
//!
//! ```text
//! RUSTFLAGS="--cfg tripoll_model" cargo test -p tripoll-core --test model
//! ```
//!
//! A failing interleaving panics with a deterministic trace and a
//! `TRIPOLL_MODEL_REPLAY=` line that re-executes exactly that schedule.
#![cfg(tripoll_model)]

use std::sync::Arc;

use rayon::pool::ThreadPool;
use tripoll_modelcheck::cell::RaceCell;
use tripoll_modelcheck::thread;
use tripoll_modelcheck::{check, Config};
use tripoll_ygm::quiesce::Quiescence;

/// The steal-half deque: every index of a batch executes exactly once,
/// and the caller's post-`run` reads are ordered after every worker's
/// writes. A duplicated index shows up as a `RaceCell` race (two
/// unsynchronized `with_mut`s) or a count of 2; a lost index as a count
/// of 0; a broken completion edge (the `remaining` Acquire) as a race
/// between a worker's write and the caller's read.
#[test]
fn pool_runs_each_index_exactly_once() {
    let stats = check(Config::with_bound(2), || {
        let counts: Vec<RaceCell<u32>> = (0..2).map(|_| RaceCell::new(0)).collect();
        let pool = ThreadPool::new(1);
        pool.run(2, |i| counts[i].with_mut(|v| *v += 1));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.get(), 1, "index {i} did not run exactly once");
        }
        drop(pool); // shutdown/join protocol is part of the execution
    });
    assert!(
        stats.exhausted,
        "DFS must exhaust the deque space at this bound ({} schedules)",
        stats.schedules
    );
}

/// The `ParQueue` recycling discipline, replicated on the pool seam it
/// runs through: the same buffers are handed to `run_mut` twice (one
/// "flush" per round, buffers recycled in between). If `run`'s
/// completion protocol failed to synchronize the caller with every
/// worker, round 2's writes would race round 1's.
#[test]
fn pool_recycles_buffers_across_batches_without_racing() {
    let stats = check(Config::with_bound(2), || {
        let pool = ThreadPool::new(1);
        let mut bufs: Vec<RaceCell<u32>> = (0..2).map(|_| RaceCell::new(0)).collect();
        pool.run_mut(&mut bufs, |b| b.with_mut(|v| *v += 1));
        // Recycle: the engine clears and reuses its frame/match buffers
        // between flushes; reuse is sound only if the first batch fully
        // happened-before this point.
        pool.run_mut(&mut bufs, |b| b.with_mut(|v| *v += 1));
        for b in &bufs {
            assert_eq!(b.get(), 2, "a recycled buffer lost a round");
        }
    });
    assert!(
        stats.exhausted,
        "DFS must exhaust the recycling space at this bound ({} schedules)",
        stats.schedules
    );
}

/// The quiescence invariant: a barrier never releases while deferred
/// work is outstanding, under both spin loops (last-arrival driver and
/// generation waiter — both arrival orders are explored). The deferred
/// unit's effect is a `RaceCell` write; if the barrier could release
/// early, the post-barrier read would race it (and the assert would see
/// a stale value).
#[test]
fn quiescence_barrier_waits_for_deferred_work() {
    let stats = check(Config::with_bound(2), || {
        let q = Arc::new(Quiescence::new());
        let data = Arc::new(RaceCell::new(0u32));
        q.record_sent(); // defer_work: registered before anyone enters
        let (q2, d2) = (q.clone(), data.clone());
        let h = thread::spawn(move || {
            d2.with_mut(|v| *v = 42); // the deferred work itself
            q2.record_done(); // deferred_done: Release publishes it
            q2.barrier(2, || false);
        });
        q.barrier(2, || false);
        assert_eq!(
            data.get(),
            42,
            "barrier released before deferred work completed"
        );
        h.join().unwrap();
    });
    assert!(
        stats.exhausted,
        "DFS must exhaust the barrier space at this bound ({} schedules)",
        stats.schedules
    );
}

/// The drain-hook seam: the deferred unit completes *inside* the
/// barrier's progress callback (exactly how the engine's `ParQueue`
/// drain hook retires deferred flushes), interleaved against both spin
/// loops. The peer's post-barrier read proves the generation release
/// carries the hook's effects.
#[test]
fn drain_hook_inside_barrier_reaches_quiescence() {
    let stats = check(Config::with_bound(2), || {
        let q = Arc::new(Quiescence::new());
        let data = Arc::new(RaceCell::new(0u32));
        q.record_sent(); // the engine defers a flush before the barrier
        let (q2, d2) = (q.clone(), data.clone());
        let h = thread::spawn(move || {
            q2.barrier(2, || false);
            d2.with(|v| assert_eq!(*v, 7, "peer released before the drain hook ran"));
        });
        let mut drained = false;
        q.barrier(2, || {
            if drained {
                return false;
            }
            drained = true;
            data.with_mut(|v| *v = 7); // the hook drains the deferred unit
            q.record_done();
            true
        });
        data.with(|v| assert_eq!(*v, 7));
        h.join().unwrap();
    });
    assert!(
        stats.exhausted,
        "DFS must exhaust the drain-hook space at this bound ({} schedules)",
        stats.schedules
    );
}

/// Regression: the AcqRel on `record_done` is load-bearing. The only
/// edge from a waiter's drain hook to the driver's release is the
/// pending decrement's Release half — the waiter already passed the
/// (SeqCst) arrival counter *before* its hook ran, so that edge cannot
/// carry the hook's effects. Downgrading the decrement to Relaxed
/// severs it, and the checker reports the driver's post-barrier read
/// as a data race. (If someone "optimizes" the ordering, this test
/// fails by not panicking.)
#[test]
#[should_panic(expected = "data race")]
fn quiescence_relaxed_decrement_races() {
    check(Config::with_bound(2), || {
        let q = Arc::new(Quiescence::new());
        let data = Arc::new(RaceCell::new(0u32));
        q.record_sent();
        let (q2, d2) = (q.clone(), data.clone());
        let h = thread::spawn(move || {
            let mut drained = false;
            q2.barrier(2, || {
                if drained {
                    return false;
                }
                drained = true;
                d2.with_mut(|v| *v = 7);
                q2.record_done_relaxed(); // BUG under test: no Release half
                true
            });
        });
        q.barrier(2, || false);
        let _ = data.get();
        h.join().unwrap();
    });
}
