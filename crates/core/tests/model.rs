//! Model-checked concurrency tests for the shipping quiescence
//! protocol: the pending-record counter, published once per envelope
//! through `Quiescence::publish`, and the generation barrier.
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
        q.publish(1); // a ship: counted before anyone enters
        let (q2, d2) = (q.clone(), data.clone());
        let h = thread::spawn(move || {
            d2.with_mut(|v| *v = 42); // the record's handler runs
            q2.publish(-1); // the dispatch's Release publishes its effects
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
        q.publish(1); // a record is in flight before the barrier
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
            q.publish(-1);
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

/// A progress step whose envelope publishes nothing: a waiter's step
/// retires one record and its handler sends a chained one, so the
/// step's net balance is 0 and `publish(0)` is a no-op — no Release
/// edge leaves that step. A later step retires the chained record with
/// `publish(-1)`, whose Release (program order after both writes)
/// must carry both steps' effects to the last arrival's post-barrier reads.
#[test]
fn chained_send_with_zero_net_balance_reaches_quiescence() {
    let stats = check(Config::with_bound(2), || {
        let q = Arc::new(Quiescence::new());
        let first = Arc::new(RaceCell::new(0u32));
        let chained = Arc::new(RaceCell::new(0u32));
        q.publish(1); // one record is in flight before the barrier
        let (q2, f2, c2) = (q.clone(), first.clone(), chained.clone());
        let h = thread::spawn(move || {
            let mut step = 0;
            q2.barrier(2, || {
                step += 1;
                match step {
                    1 => {
                        // The record's handler runs and sends a chained
                        // record: +1 - 1 = 0.
                        f2.with_mut(|v| *v = 7);
                        q2.publish(0);
                        true
                    }
                    2 => {
                        c2.with_mut(|v| *v = 9); // the chained handler runs
                        q2.publish(-1);
                        true
                    }
                    _ => false,
                }
            });
        });
        q.barrier(2, || false);
        assert_eq!(first.get(), 7, "barrier released before the first record");
        assert_eq!(
            chained.get(),
            9,
            "barrier released before the chained record"
        );
        h.join().unwrap();
    });
    assert!(
        stats.exhausted,
        "DFS must exhaust the chained-send space at this bound ({} schedules)",
        stats.schedules
    );
}

/// Regression: the AcqRel on `publish` is load-bearing. The only edge
/// from a waiter's progress step to the last arrival's release is the
/// dispatch-end publish's Release half — the waiter already passed the
/// (SeqCst) arrival counter *before* its step ran, so that edge cannot
/// carry the step's effects. Downgrading the publish to Relaxed severs
/// it, and the checker reports the last arrival's post-barrier read as a
/// data race. (If someone "optimizes" the ordering, this test fails by
/// not panicking.)
#[test]
#[should_panic(expected = "data race")]
fn publish_relaxed_races() {
    check(Config::with_bound(2), || {
        let q = Arc::new(Quiescence::new());
        let data = Arc::new(RaceCell::new(0u32));
        q.publish(1);
        let (q2, d2) = (q.clone(), data.clone());
        let h = thread::spawn(move || {
            let mut drained = false;
            q2.barrier(2, || {
                if drained {
                    return false;
                }
                drained = true;
                d2.with_mut(|v| *v = 7);
                q2.publish_relaxed(-1); // BUG under test: no Release half
                true
            });
        });
        q.barrier(2, || false);
        let _ = data.get();
        h.join().unwrap();
    });
}
