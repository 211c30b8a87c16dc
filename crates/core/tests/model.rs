//! Model-checked concurrency tests for the shipping quiescence
//! protocol: the pending-record counter and the generation barrier.
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

use tripoll_modelcheck::cell::RaceCell;
use tripoll_modelcheck::thread;
use tripoll_modelcheck::{check, Config};
use tripoll_ygm::quiesce::Quiescence;

/// The quiescence invariant: a barrier never releases while a sent
/// record is outstanding, under both spin loops (last-arrival driver
/// and generation waiter — both arrival orders are explored). The
/// record's effect is a `RaceCell` write; if the barrier could release
/// early, the post-barrier read would race it (and the assert would see
/// a stale value).
#[test]
fn quiescence_barrier_waits_for_deferred_work() {
    let stats = check(Config::with_bound(2), || {
        let q = Arc::new(Quiescence::new());
        let data = Arc::new(RaceCell::new(0u32));
        q.record_sent(); // a send: counted before anyone enters
        let (q2, d2) = (q.clone(), data.clone());
        let h = thread::spawn(move || {
            d2.with_mut(|v| *v = 42); // the record's handler runs
            q2.record_done(); // Release publishes its effects
            q2.barrier(2, || false);
        });
        q.barrier(2, || false);
        assert_eq!(
            data.get(),
            42,
            "barrier released before the outstanding record completed"
        );
        h.join().unwrap();
    });
    assert!(
        stats.exhausted,
        "DFS must exhaust the barrier space at this bound ({} schedules)",
        stats.schedules
    );
}

/// The barrier's progress step: a received record is retired *inside*
/// the barrier's progress callback (exactly how `Comm::barrier`'s
/// `poll` runs handlers for records that arrive while the rank spins),
/// interleaved against both spin loops. The peer's post-barrier read
/// proves the generation release carries the handler's effects.
#[test]
fn progress_step_inside_barrier_reaches_quiescence() {
    let stats = check(Config::with_bound(2), || {
        let q = Arc::new(Quiescence::new());
        let data = Arc::new(RaceCell::new(0u32));
        q.record_sent(); // a record is in flight before the barrier
        let (q2, d2) = (q.clone(), data.clone());
        let h = thread::spawn(move || {
            q2.barrier(2, || false);
            d2.with(|v| assert_eq!(*v, 7, "peer released before the progress step ran"));
        });
        let mut drained = false;
        q.barrier(2, || {
            if drained {
                return false;
            }
            drained = true;
            data.with_mut(|v| *v = 7); // `poll` runs the record's handler
            q.record_done();
            true
        });
        data.with(|v| assert_eq!(*v, 7));
        h.join().unwrap();
    });
    assert!(
        stats.exhausted,
        "DFS must exhaust the progress-step space at this bound ({} schedules)",
        stats.schedules
    );
}

/// Regression: the AcqRel on `record_done` is load-bearing. The only
/// edge from a waiter's progress step to the driver's release is the
/// pending decrement's Release half — the waiter already passed the
/// (SeqCst) arrival counter *before* its step ran, so that edge cannot
/// carry the step's effects. Downgrading the decrement to Relaxed
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
