//! SPMD world driver.
//!
//! A [`World`] stands in for `mpirun -n <N>`: it spawns one OS thread per
//! simulated rank, hands each a [`Comm`] endpoint wired to its peers, runs
//! the same program closure on every rank, and joins. The closure is the
//! SPMD `main`; differences in behaviour between ranks come only from
//! `comm.rank()`, exactly as in an MPI program.
//!
//! If any rank panics, the world poisons the shared barrier state so
//! peer ranks abort instead of waiting forever, then re-raises the first
//! panic (by rank order) on the driving thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam::channel::unbounded;

use crate::comm::{Comm, CommConfig, Shared};
use crate::stats::CommStats;

/// Results of a world run plus the per-rank communication statistics.
#[derive(Debug)]
pub struct WorldOutput<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Final per-rank communication counters, indexed by rank.
    pub stats: Vec<CommStats>,
}

impl<R> WorldOutput<R> {
    /// Global communication totals (sum over ranks).
    pub fn total_stats(&self) -> CommStats {
        CommStats::sum(&self.stats)
    }
}

/// A simulated MPI world: a rank count plus communicator configuration.
#[derive(Debug, Clone)]
pub struct World {
    nranks: usize,
    config: CommConfig,
}

impl World {
    /// Creates a world of `nranks` simulated ranks with default config.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "a world needs at least one rank");
        World {
            nranks,
            config: CommConfig::default(),
        }
    }

    /// Overrides the communicator configuration.
    pub fn with_config(mut self, config: CommConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of ranks this world will spawn.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Runs `f` as the SPMD program and returns each rank's result.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        self.run_full(f).results
    }

    /// Runs `f` and returns results together with per-rank statistics.
    pub fn run_with_stats<F, R>(&self, f: F) -> WorldOutput<R>
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        self.run_full(f)
    }

    fn run_full<F, R>(&self, f: F) -> WorldOutput<R>
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let nranks = self.nranks;
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..nranks).map(|_| unbounded::<Vec<u8>>()).unzip();
        let shared = Arc::new(Shared::new(nranks, senders));
        let config = self.config.clone();
        let f = &f;

        // Each rank thread hands back its outcome and its final stats
        // (a rank that panicked included) through the join.
        let (outcomes, stats): (Vec<std::thread::Result<R>>, Vec<CommStats>) =
            std::thread::scope(|scope| {
                let joins: Vec<_> = receivers
                    .into_iter()
                    .enumerate()
                    .map(|(rank, rx)| {
                        let shared = Arc::clone(&shared);
                        let config = config.clone();
                        scope.spawn(move || {
                            let comm = Comm::new(rank, Arc::clone(&shared), config, rx);
                            let result = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                            if result.is_err() {
                                // Wake peers stuck in barriers before unwinding.
                                shared.q.poison();
                            }
                            (result, comm.finish())
                        })
                    })
                    .collect();
                // The thread itself never panics (the program panic was
                // caught inside), so join() is infallible in practice.
                joins
                    .into_iter()
                    .map(|join| join.join().expect("rank thread join"))
                    .unzip()
            });

        let mut results = Vec::with_capacity(nranks);
        let mut panics = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(payload) => panics.push(payload),
            }
        }
        if !panics.is_empty() {
            // Prefer the root-cause panic over secondary "peer panicked"
            // aborts raised by ranks that were poisoned out of a barrier.
            let root = panics.iter().position(|p| !is_poison_panic(p)).unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(root));
        }

        debug_assert_eq!(
            shared.q.pending(),
            0,
            "records left unprocessed after world shutdown — missing barrier?"
        );

        WorldOutput { results, stats }
    }
}

fn is_poison_panic(payload: &Box<dyn std::any::Any + Send>) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied());
    msg.is_some_and(|m| m.contains(crate::comm::POISON_MSG))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let out = World::new(1).run(|comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.nranks(), 1);
            comm.barrier();
            7u32
        });
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn results_indexed_by_rank() {
        let out = World::new(5).run(|comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn stats_are_per_rank() {
        let out = World::new(3).run_with_stats(|comm| {
            let h = comm.register::<u64, _>(|_c, _v| {});
            if comm.rank() == 0 {
                comm.send(1, &h, &42u64);
                comm.send(2, &h, &43u64);
            }
            comm.barrier();
        });
        assert_eq!(out.stats[0].records_remote, 2);
        assert_eq!(out.stats[1].records_remote, 0);
        assert_eq!(out.stats[2].records_remote, 0);
        assert_eq!(out.total_stats().records_remote, 2);
        assert_eq!(out.total_stats().handlers_run, 2);
    }

    #[test]
    #[should_panic(expected = "rank 1 says no")]
    fn panic_propagates_to_driver() {
        World::new(3).run(|comm| {
            if comm.rank() == 1 {
                panic!("rank 1 says no");
            }
            comm.barrier();
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "missing barrier")]
    fn send_after_last_barrier_is_reported() {
        // The record stays in rank 0's send buffer, counted only in its
        // local balance; the rank's exit publishes it, so the shutdown
        // check still sees it.
        World::new(2).run(|comm| {
            let h = comm.register::<u64, _>(|_c, _v| {});
            comm.barrier();
            if comm.rank() == 0 {
                comm.send(1, &h, &7u64);
            }
        });
    }

    #[test]
    fn worlds_are_reusable() {
        let w = World::new(2);
        for trial in 0..3 {
            let out = w.run(|comm| {
                comm.barrier();
                comm.rank()
            });
            assert_eq!(out, vec![0, 1], "trial {trial}");
        }
    }
}
