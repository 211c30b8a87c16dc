//! Blocking collectives over the quiescence barrier.
//!
//! TriPoll's callbacks leave per-rank partial results (triangle counters,
//! histogram shards) that are combined with "an `All_Reduce`-type
//! operation" (Alg. 2, line 4). These collectives provide that: each rank
//! deposits its serialized contribution in a shared slot, a barrier
//! separates the write and read sides, and every rank folds the
//! contributions in rank order so all ranks compute bit-identical results.
//!
//! All collectives are *synchronizing*: they begin with a quiescence
//! barrier, so any fire-and-forget traffic still in flight is drained
//! before values are combined — calling `all_reduce` right after a survey
//! is always safe.

use crate::comm::Comm;
use crate::wire::{from_bytes, to_bytes, Wire};

impl Comm {
    /// Gathers one value from every rank; all ranks receive the full
    /// vector, indexed by rank.
    pub fn all_gather<T: Wire>(&self, value: &T) -> Vec<T> {
        // Drain in-flight traffic and synchronize entry.
        self.barrier();
        *self.shared().slots[self.rank()].lock() = to_bytes(value);
        // Everyone has written their slot.
        self.barrier();
        let out: Vec<T> = (0..self.nranks())
            .map(|r| {
                let bytes = self.shared().slots[r].lock();
                from_bytes(&bytes).expect("collective slot decodes")
            })
            .collect();
        // Everyone has read; slots may now be reused by the next collective.
        self.barrier();
        out
    }

    /// Reduces one value per rank with `op`, folding in rank order; every
    /// rank receives the same result.
    pub fn all_reduce<T: Wire, F: Fn(T, T) -> T>(&self, value: T, op: F) -> T {
        let mut parts = self.all_gather(&value).into_iter();
        let first = parts.next().expect("at least one rank");
        parts.fold(first, op)
    }

    /// Sum-reduction shorthand for counters.
    pub fn all_reduce_sum(&self, value: u64) -> u64 {
        self.all_reduce(value, |a, b| a + b)
    }

    /// Max-reduction shorthand.
    pub fn all_reduce_max(&self, value: u64) -> u64 {
        self.all_reduce(value, std::cmp::max)
    }

    /// Broadcasts `value` from `root` to every rank. Non-root ranks pass
    /// their (ignored) local value to keep the call shape SPMD-uniform.
    pub fn broadcast<T: Wire>(&self, value: &T, root: usize) -> T {
        assert!(root < self.nranks(), "broadcast root {root} out of range");
        self.barrier();
        if self.rank() == root {
            *self.shared().slots[root].lock() = to_bytes(value);
        }
        self.barrier();
        let out = {
            let bytes = self.shared().slots[root].lock();
            from_bytes(&bytes).expect("broadcast slot decodes")
        };
        self.barrier();
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;

    #[test]
    fn all_gather_orders_by_rank() {
        let out = World::new(4).run(|comm| comm.all_gather(&(comm.rank() as u64 * 3)));
        for ranks in out {
            assert_eq!(ranks, vec![0, 3, 6, 9]);
        }
    }

    #[test]
    fn all_reduce_sum_matches_serial() {
        let out = World::new(5).run(|comm| comm.all_reduce_sum(comm.rank() as u64 + 1));
        assert_eq!(out, vec![15; 5]);
    }

    #[test]
    fn all_reduce_min_max() {
        let out = World::new(3).run(|comm| {
            let v = (comm.rank() as u64 + 7) * 11;
            (comm.all_reduce(v, std::cmp::min), comm.all_reduce_max(v))
        });
        assert_eq!(out, vec![(77, 99); 3]);
    }

    #[test]
    fn all_reduce_nontrivial_type() {
        // Reduce vectors by element-wise sum.
        let out = World::new(3).run(|comm| {
            let mine = vec![comm.rank() as u64, 1];
            comm.all_reduce(mine, |a, b| {
                a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
            })
        });
        assert_eq!(out, vec![vec![3, 3]; 3]);
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..3 {
            let out = World::new(3).run(|comm| {
                let mine = format!("from-{}", comm.rank());
                comm.broadcast(&mine, root)
            });
            assert_eq!(out, vec![format!("from-{root}"); 3]);
        }
    }

    #[test]
    fn collective_after_async_traffic() {
        let out = World::new(4).run(|comm| {
            use std::cell::Cell;
            use std::rc::Rc;
            let local = Rc::new(Cell::new(0u64));
            let local2 = local.clone();
            let h = comm.register::<u64, _>(move |_c, v| {
                local2.set(local2.get() + v);
            });
            for dest in 0..comm.nranks() {
                comm.send(dest, &h, &1u64);
            }
            // Drain the fire-and-forget traffic, then combine. (The value
            // passed to all_reduce is evaluated before its entry barrier,
            // so the explicit barrier here is required — same discipline
            // as the paper's Alg. 2 which reduces only after the survey.)
            comm.barrier();
            comm.all_reduce_sum(local.get())
        });
        assert_eq!(out, vec![16; 4]);
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let out = World::new(3).run(|comm| {
            let a = comm.all_reduce_sum(1);
            let b = comm.all_reduce_sum(10);
            let c = comm.all_reduce_sum(100);
            (a, b, c)
        });
        assert_eq!(out, vec![(3, 30, 300); 3]);
    }
}
