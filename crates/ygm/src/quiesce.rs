//! The quiescence protocol: the pending-record counter and the
//! generation barrier, extracted into one type so the *shipping*
//! protocol code — not a transliteration — runs under the concurrency
//! model checker (`cargo test -p tripoll-core --test model` with
//! `RUSTFLAGS="--cfg tripoll_model"`; see `docs/CONCURRENCY.md`).
//!
//! Every atomic here goes through the `tripoll-sync` facade, so in a
//! normal build this module compiles to exactly the std atomics it
//! always used, while under `--cfg tripoll_model` each operation is a
//! schedule point with its `Ordering` driving happens-before
//! bookkeeping.
//!
//! ## Protocol (also catalogued in `docs/CONCURRENCY.md` and pinned by
//! `lint/orderings.toml`)
//!
//! * `pending` (**quiescence-pending-counter**): records sent but not
//!   yet fully processed, summed over all ranks. A rank counts its own
//!   sends and finished records in a plain local balance and publishes
//!   it here once per envelope: when it ships one (before the envelope
//!   is visible to any receiver) and when it finishes dispatching one
//!   (after every handler of it ran). AcqRel on the publish suffices:
//!   its Release half orders the finished handlers before it, and the
//!   barrier's SeqCst read acquires the whole chain (read-modify-writes
//!   continue a release sequence), so a barrier that observes 0 has
//!   synchronized with every completed record. The model test
//!   `publish_relaxed_races` demonstrates that downgrading the publish
//!   to Relaxed breaks exactly this edge.
//! * `barrier_count` / `barrier_gen` (**barrier-generation**): the
//!   rendezvous. The last arrival drives the world to quiescence, then
//!   resets the count *before* advancing the generation — ranks can
//!   only re-enter after observing the new generation, so their
//!   increments always land on the reset counter. SeqCst throughout:
//!   the barrier needs a total order between the count, the generation
//!   and the pending counter, and it is far off the hot path.
//! * `poisoned` (**poison-flag**): one-way abort flag; SeqCst store and
//!   loads keep it totally ordered with the barrier spins that must
//!   observe it.

use tripoll_sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use tripoll_sync::thread::yield_now;

/// Shared quiescence state for one world. See the module docs for the
/// protocol; [`Comm`](crate::Comm) methods delegate here.
pub struct Quiescence {
    /// Records sent but not yet fully processed, summed over the
    /// balances the ranks have published (see [`Quiescence::publish`]).
    pending: AtomicI64,
    /// Ranks currently inside `barrier()`.
    barrier_count: AtomicUsize,
    /// Completed-barrier generation; waiters leave when it advances.
    barrier_gen: AtomicU64,
    /// Set when any rank panics, so peers abort instead of hanging.
    poisoned: AtomicBool,
}

impl Default for Quiescence {
    fn default() -> Self {
        Quiescence::new()
    }
}

impl Quiescence {
    /// Fresh state: nothing pending, generation zero, not poisoned.
    pub const fn new() -> Self {
        Quiescence {
            pending: AtomicI64::new(0),
            barrier_count: AtomicUsize::new(0),
            barrier_gen: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Adds one rank's unpublished record balance to the shared count:
    /// the records it sent minus the records it finished since its last
    /// publish. A rank publishes in `Comm::ship` *before* the envelope
    /// enters a channel, and at the end of each dispatched envelope
    /// *after* every handler of it ran, so one RMW covers a whole
    /// envelope. A zero balance publishes nothing.
    ///
    /// Why the count stays safe (see `docs/CONCURRENCY.md`): every
    /// record is counted no later than the ship that makes it visible,
    /// and retired no earlier than its handler ran, so a publish at any
    /// such point can only overcount. The shared count undershoots the
    /// truth only while some rank holds sends it counted locally but
    /// has not published; that rank is either not yet in the barrier,
    /// or in the middle of dispatching an envelope whose own records
    /// still count as pending.
    ///
    /// Ordering: AcqRel. The Release half orders the finished handlers'
    /// effects (and the sends they made) before the update, RMWs
    /// continue the release sequence, and the barrier's SeqCst read
    /// acquires the whole chain, so a barrier that observes 0 has
    /// synchronized with every completed record. The model test
    /// `publish_relaxed_races` shows that a Relaxed publish breaks
    /// exactly this edge.
    #[inline]
    pub fn publish(&self, delta: i64) {
        if delta != 0 {
            self.pending.fetch_add(delta, Ordering::AcqRel);
        }
    }

    /// [`Quiescence::publish`] with the ordering deliberately
    /// downgraded to Relaxed — **for the model-checker regression test
    /// only**, which proves the AcqRel above is load-bearing: with
    /// Relaxed the publish stops carrying the handlers' work to the
    /// barrier's read and the checker reports a data race.
    #[cfg(tripoll_model)]
    pub fn publish_relaxed(&self, delta: i64) {
        if delta != 0 {
            self.pending.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current pending count (diagnostics and shutdown asserts).
    pub fn pending(&self) -> i64 {
        self.pending.load(Ordering::SeqCst)
    }

    /// Marks the world poisoned (any rank, on its way out).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// Whether the world has been poisoned.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// The quiescence barrier rendezvous. `progress` is the caller's
    /// poll step: it must make message progress (dispatch received
    /// records, flush what their handlers produced),
    /// return whether anything happened, and panic if the world is
    /// poisoned. The last arrival drives `progress` until the world is
    /// quiescent (`pending == 0` with nothing left to poll), then
    /// releases the generation; everyone else keeps making progress
    /// until the generation advances.
    pub fn barrier(&self, nranks: usize, mut progress: impl FnMut() -> bool) {
        let gen = self.barrier_gen.load(Ordering::SeqCst);
        let arrived = self.barrier_count.fetch_add(1, Ordering::SeqCst) + 1;
        if arrived == nranks {
            // Last arrival: drive the world to quiescence, then release.
            loop {
                if progress() {
                    continue;
                }
                if self.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                yield_now();
            }
            // Reset count *before* advancing the generation: ranks can
            // only re-enter after observing the new generation, so
            // their increments always land on the reset counter.
            self.barrier_count.store(0, Ordering::SeqCst);
            self.barrier_gen.fetch_add(1, Ordering::SeqCst);
        } else {
            while self.barrier_gen.load(Ordering::SeqCst) == gen {
                if !progress() {
                    yield_now();
                }
            }
        }
    }
}
