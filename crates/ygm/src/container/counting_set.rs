//! Distributed counting set with a per-rank write-back cache.
//!
//! This is the structure the paper leans on for every non-trivial survey:
//! "a distributed counting set that keeps individual counts of different
//! items seen across ranks. This structure stores a small cache on each
//! rank to keep values seen recently, which must be flushed and have its
//! contents sent across the network occasionally" (§4.1.4).
//!
//! Increments hit the local cache; when the cache exceeds its capacity the
//! accumulated `(key, count)` pairs are shipped to each key's owner rank
//! as ordinary buffered records, interleaving with whatever else the
//! application is sending (triangle pushes, pulls, ...). After a
//! `flush` + barrier, the owner shards hold the authoritative counts.

use std::cell::RefCell;
use std::hash::Hash;
use std::rc::Rc;

use crate::comm::{Comm, Handler};
use crate::container::owner_of;
use crate::hash::FastMap;
use crate::wire::Wire;

/// Default number of distinct cached keys before a flush.
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// A distributed multiset of counters keyed by `K`.
pub struct DistCountingSet<K>
where
    K: Wire + Hash + Eq + Clone + 'static,
{
    handler: Handler<Vec<(K, u64)>>,
    cache: Rc<RefCell<FastMap<K, u64>>>,
    counts: Rc<RefCell<FastMap<K, u64>>>,
    cache_capacity: usize,
}

impl<K> Clone for DistCountingSet<K>
where
    K: Wire + Hash + Eq + Clone + 'static,
{
    /// Clones a *handle*: both handles share the same cache and counts,
    /// so one can be captured by a survey callback while the original
    /// gathers results afterwards.
    fn clone(&self) -> Self {
        DistCountingSet {
            handler: self.handler,
            cache: self.cache.clone(),
            counts: self.counts.clone(),
            cache_capacity: self.cache_capacity,
        }
    }
}

impl<K> DistCountingSet<K>
where
    K: Wire + Hash + Eq + Clone + 'static,
{
    /// Creates the set; must be called collectively (all ranks, same
    /// registration order) like every handler registration.
    pub fn new(comm: &Comm) -> Self {
        Self::with_cache_capacity(comm, DEFAULT_CACHE_CAPACITY)
    }

    /// Creates the set with an explicit cache capacity (distinct keys).
    pub fn with_cache_capacity(comm: &Comm, cache_capacity: usize) -> Self {
        let counts: Rc<RefCell<FastMap<K, u64>>> = Rc::new(RefCell::new(FastMap::default()));
        let counts_in = counts.clone();
        let handler = comm.register::<Vec<(K, u64)>, _>(move |_c, batch| {
            let mut counts = counts_in.borrow_mut();
            for (key, amount) in batch {
                *counts.entry(key).or_insert(0) += amount;
            }
        });
        DistCountingSet {
            handler,
            cache: Rc::new(RefCell::new(FastMap::default())),
            counts,
            cache_capacity: cache_capacity.max(1),
        }
    }

    /// Adds 1 to `key`'s count.
    #[inline]
    pub fn increment(&self, comm: &Comm, key: K) {
        self.add(comm, key, 1);
    }

    /// Adds `amount` to `key`'s count.
    pub fn add(&self, comm: &Comm, key: K, amount: u64) {
        {
            let mut cache = self.cache.borrow_mut();
            *cache.entry(key).or_insert(0) += amount;
            if cache.len() < self.cache_capacity {
                return;
            }
        }
        self.flush(comm);
    }

    /// Ships all cached counts to their owner ranks. Counts are visible on
    /// owners only after a subsequent `comm.barrier()`.
    pub fn flush(&self, comm: &Comm) {
        let drained: Vec<(K, u64)> = self.cache.borrow_mut().drain().collect();
        if drained.is_empty() {
            return;
        }
        let nranks = comm.nranks();
        let mut per_rank: Vec<Vec<(K, u64)>> = (0..nranks).map(|_| Vec::new()).collect();
        for (key, amount) in drained {
            per_rank[owner_of(&key, nranks)].push((key, amount));
        }
        for (dest, batch) in per_rank.into_iter().enumerate() {
            if !batch.is_empty() {
                comm.send(dest, &self.handler, &batch);
            }
        }
    }

    /// Flushes and synchronizes; afterwards `local_counts` on each rank
    /// holds that rank's authoritative shard. Collective.
    pub fn finalize(&self, comm: &Comm) {
        self.flush(comm);
        comm.barrier();
    }

    /// This rank's authoritative shard (valid after [`Self::finalize`]).
    pub fn local_counts(&self) -> std::cell::Ref<'_, FastMap<K, u64>> {
        self.counts.borrow()
    }

    /// Gathers the complete distribution onto every rank, sorted by key
    /// bytes for determinism. Collective; finalizes first. Intended for
    /// post-processing of survey results (the paper does this step "on a
    /// single machine", §5.8).
    pub fn gather(&self, comm: &Comm) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        self.finalize(comm);
        let local: Vec<(K, u64)> = self
            .counts
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut all: Vec<(K, u64)> = comm.all_gather(&local).into_iter().flatten().collect();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn counts_across_ranks() {
        let out = World::new(4).run(|comm| {
            let set = DistCountingSet::<u64>::new(comm);
            // Every rank increments keys 0..10, key k gets k+1 increments.
            for key in 0..10u64 {
                for _ in 0..=key {
                    set.increment(comm, key);
                }
            }
            set.gather(comm)
        });
        for gathered in out {
            assert_eq!(gathered.len(), 10);
            for (key, count) in gathered {
                assert_eq!(count, 4 * (key + 1), "key {key}");
            }
        }
    }

    #[test]
    fn tiny_cache_forces_flushes() {
        let out = World::new(2).run_with_stats(|comm| {
            let set = DistCountingSet::<u64>::with_cache_capacity(comm, 2);
            for key in 0..100u64 {
                set.increment(comm, key);
            }
            set.gather(comm).len()
        });
        assert_eq!(out.results, vec![100, 100]);
        // With capacity 2, caches flushed ~50 times per rank; most records
        // hit the wire.
        assert!(out.total_stats().records_total() > 0);
    }

    #[test]
    fn string_keys() {
        let out = World::new(3).run(|comm| {
            let set = DistCountingSet::<String>::new(comm);
            set.increment(comm, "alpha".to_string());
            set.add(comm, "beta".to_string(), comm.rank() as u64);
            set.gather(comm)
        });
        for gathered in out {
            assert_eq!(
                gathered,
                vec![("alpha".to_string(), 3), ("beta".to_string(), 3)]
            );
        }
    }

    #[test]
    fn tuple_keys_for_joint_distributions() {
        // The Reddit survey counts (open_time, close_time) pairs (Alg. 4).
        let out = World::new(2).run(|comm| {
            let set = DistCountingSet::<(u32, u32)>::new(comm);
            set.increment(comm, (3, 5));
            set.increment(comm, (3, 5));
            set.increment(comm, (1, 9));
            set.gather(comm)
        });
        for gathered in out {
            assert_eq!(gathered, vec![((1, 9), 2), ((3, 5), 4)]);
        }
    }

    #[test]
    fn add_amounts() {
        let out = World::new(2).run(|comm| {
            let set = DistCountingSet::<u64>::new(comm);
            set.add(comm, 7, 100);
            set.gather(comm)
        });
        for gathered in out {
            assert_eq!(gathered, vec![(7u64, 200)]);
        }
    }

    #[test]
    fn global_len_counts_distinct_keys_once() {
        let out = World::new(4).run(|comm| {
            let set = DistCountingSet::<u64>::new(comm);
            // All ranks touch the same 5 keys.
            for key in 0..5u64 {
                set.increment(comm, key);
            }
            // Each key has one owner shard, so the shards' sizes sum
            // to the number of distinct keys.
            set.finalize(comm);
            let owned = set.local_counts().len() as u64;
            comm.all_reduce_sum(owned)
        });
        assert_eq!(out, vec![5; 4]);
    }

    #[test]
    fn empty_set_gathers_empty() {
        let out = World::new(3).run(|comm| {
            let set = DistCountingSet::<u64>::new(comm);
            set.gather(comm)
        });
        for gathered in out {
            assert!(gathered.is_empty());
        }
    }

    #[test]
    fn counts_survive_interleaved_barriers() {
        let out = World::new(2).run(|comm| {
            let set = DistCountingSet::<u64>::new(comm);
            set.increment(comm, 1);
            comm.barrier();
            set.increment(comm, 1);
            comm.barrier();
            set.increment(comm, 2);
            set.gather(comm)
        });
        for gathered in out {
            assert_eq!(gathered, vec![(1u64, 4), (2u64, 2)]);
        }
    }
}
