//! Communication accounting.
//!
//! The TriPoll evaluation measures *communication volume* (Table 4) and
//! per-phase runtimes (Figs. 4, 7). On a real cluster those numbers come
//! from instrumenting the MPI layer; in this simulated runtime they are
//! first-class: every record, every buffer flush ("MPI message") and every
//! payload byte is counted at the moment it leaves a rank.
//!
//! Counters are split into *remote* (traffic to other ranks, which
//! would cross the network) and *local* (self-sends; the runtime still
//! routes these through the message queue but they cost no network
//! traffic). The cost model prices remote traffic only; the Table 4
//! "communication volume" experiment reports totals, since on the
//! paper's 24-rank-per-node clusters rank-to-rank payloads are ordinary
//! MPI volume wherever they land.

use std::cell::Cell;

/// Live per-rank counters. Only the owning rank's thread touches them
/// (they live in its [`Comm`](crate::Comm), which is not `Send`), so
/// they are plain cells; the rank hands its final [`CommStats`] to the
/// [`World`](crate::World) through the thread join.
#[derive(Debug, Default)]
pub(crate) struct RankCounters {
    /// Application-level records sent to other ranks.
    pub(crate) records_remote: Cell<u64>,
    /// Application-level records a rank sent to itself.
    pub(crate) records_local: Cell<u64>,
    /// Buffer flushes to other ranks — each one would be an MPI message.
    pub(crate) envelopes_remote: Cell<u64>,
    /// Buffer flushes to self.
    pub(crate) envelopes_local: Cell<u64>,
    /// Payload bytes shipped to other ranks.
    pub(crate) bytes_remote: Cell<u64>,
    /// Payload bytes shipped to self.
    pub(crate) bytes_local: Cell<u64>,
    /// Handler invocations executed on this rank.
    pub(crate) handlers_run: Cell<u64>,
    /// Application-declared work units (e.g. wedge-check comparisons)
    /// performed on this rank — the compute term of the cost model.
    pub(crate) work: Cell<u64>,
    /// Quiescence barriers this rank has completed.
    pub(crate) barriers: Cell<u64>,
    /// Encode operations performed (one per `send`/`send_encoded`, one
    /// per `send_to_many` regardless of destination count). With
    /// fan-out, `records_total - records_encoded` deliveries were served
    /// by memcpy of already-encoded bytes.
    pub(crate) records_encoded: Cell<u64>,
    /// Bytes produced by the wire encoder. `bytes_total - bytes_encoded`
    /// bytes were delivered without re-encoding (fan-out copies).
    pub(crate) bytes_encoded: Cell<u64>,
    /// Send-buffer drains whose replacement allocation came from the
    /// recycled-buffer pool instead of the allocator.
    pub(crate) pool_reuses: Cell<u64>,
    /// Records decoded **in place** from the receive buffer (zero-copy
    /// receive handlers). `handlers_run - records_borrowed` records
    /// were materialized through owned decode.
    pub(crate) records_borrowed: Cell<u64>,
    /// Record bytes consumed by in-place (borrowed) handlers. A
    /// borrowed handler may still decode individual header fields to
    /// owned values (e.g. string vertex metadata), so this measures the
    /// payload volume that *skipped the owned-message materialization*,
    /// not a strict never-copied guarantee per byte.
    pub(crate) bytes_decoded_in_place: Cell<u64>,
}

impl RankCounters {
    /// Adds `n` to one counter.
    #[inline]
    pub(crate) fn add(counter: &Cell<u64>, n: u64) {
        counter.set(counter.get() + n);
    }

    /// Takes a point-in-time snapshot.
    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            records_remote: self.records_remote.get(),
            records_local: self.records_local.get(),
            envelopes_remote: self.envelopes_remote.get(),
            envelopes_local: self.envelopes_local.get(),
            bytes_remote: self.bytes_remote.get(),
            bytes_local: self.bytes_local.get(),
            handlers_run: self.handlers_run.get(),
            work: self.work.get(),
            barriers: self.barriers.get(),
            records_encoded: self.records_encoded.get(),
            bytes_encoded: self.bytes_encoded.get(),
            pool_reuses: self.pool_reuses.get(),
            records_borrowed: self.records_borrowed.get(),
            bytes_decoded_in_place: self.bytes_decoded_in_place.get(),
            records_multicast: 0,
        }
    }
}

/// Immutable snapshot of one rank's counters (or a sum / delta of such).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Application-level records sent to other ranks.
    pub records_remote: u64,
    /// Application-level records a rank sent to itself.
    pub records_local: u64,
    /// Buffer flushes to other ranks.
    pub envelopes_remote: u64,
    /// Buffer flushes to self.
    pub envelopes_local: u64,
    /// Payload bytes shipped to other ranks.
    pub bytes_remote: u64,
    /// Payload bytes shipped to self.
    pub bytes_local: u64,
    /// Handler invocations executed.
    pub handlers_run: u64,
    /// Application-declared work units performed.
    pub work: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Encode operations performed (fan-out deliveries excluded).
    pub records_encoded: u64,
    /// Bytes produced by the wire encoder (fan-out copies excluded).
    pub bytes_encoded: u64,
    /// Buffer drains served by the recycled-allocation pool.
    pub pool_reuses: u64,
    /// Records decoded in place from the receive buffer.
    pub records_borrowed: u64,
    /// Record bytes consumed by in-place (borrowed) handlers.
    pub bytes_decoded_in_place: u64,
    /// Always 0: the transport has no multicast path. The field stays
    /// only because the end-to-end benchmark (`benchmark/src/layers.rs`)
    /// reads it and reports it as `ygm.comm.records_multicast`.
    pub records_multicast: u64,
}

impl CommStats {
    /// Total records regardless of destination.
    pub fn records_total(&self) -> u64 {
        self.records_remote + self.records_local
    }

    /// Total payload bytes regardless of destination.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_remote + self.bytes_local
    }

    /// Component-wise difference `self - earlier`; saturates at zero so a
    /// stale snapshot can never underflow.
    pub fn delta(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            records_remote: self.records_remote.saturating_sub(earlier.records_remote),
            records_local: self.records_local.saturating_sub(earlier.records_local),
            envelopes_remote: self
                .envelopes_remote
                .saturating_sub(earlier.envelopes_remote),
            envelopes_local: self.envelopes_local.saturating_sub(earlier.envelopes_local),
            bytes_remote: self.bytes_remote.saturating_sub(earlier.bytes_remote),
            bytes_local: self.bytes_local.saturating_sub(earlier.bytes_local),
            handlers_run: self.handlers_run.saturating_sub(earlier.handlers_run),
            work: self.work.saturating_sub(earlier.work),
            barriers: self.barriers.saturating_sub(earlier.barriers),
            records_encoded: self.records_encoded.saturating_sub(earlier.records_encoded),
            bytes_encoded: self.bytes_encoded.saturating_sub(earlier.bytes_encoded),
            pool_reuses: self.pool_reuses.saturating_sub(earlier.pool_reuses),
            records_borrowed: self
                .records_borrowed
                .saturating_sub(earlier.records_borrowed),
            bytes_decoded_in_place: self
                .bytes_decoded_in_place
                .saturating_sub(earlier.bytes_decoded_in_place),
            records_multicast: 0,
        }
    }

    /// Component-wise sum, for aggregating over ranks.
    pub fn merge(&self, other: &CommStats) -> CommStats {
        CommStats {
            records_remote: self.records_remote + other.records_remote,
            records_local: self.records_local + other.records_local,
            envelopes_remote: self.envelopes_remote + other.envelopes_remote,
            envelopes_local: self.envelopes_local + other.envelopes_local,
            bytes_remote: self.bytes_remote + other.bytes_remote,
            bytes_local: self.bytes_local + other.bytes_local,
            handlers_run: self.handlers_run + other.handlers_run,
            work: self.work + other.work,
            barriers: self.barriers + other.barriers,
            records_encoded: self.records_encoded + other.records_encoded,
            bytes_encoded: self.bytes_encoded + other.bytes_encoded,
            pool_reuses: self.pool_reuses + other.pool_reuses,
            records_borrowed: self.records_borrowed + other.records_borrowed,
            bytes_decoded_in_place: self.bytes_decoded_in_place + other.bytes_decoded_in_place,
            records_multicast: 0,
        }
    }

    /// Sums a collection of per-rank snapshots into a global total.
    pub fn sum<'a, I: IntoIterator<Item = &'a CommStats>>(stats: I) -> CommStats {
        stats
            .into_iter()
            .fold(CommStats::default(), |acc, s| acc.merge(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let c = RankCounters::default();
        RankCounters::add(&c.records_remote, 3);
        RankCounters::add(&c.bytes_remote, 100);
        let s = c.snapshot();
        assert_eq!(s.records_remote, 3);
        assert_eq!(s.bytes_remote, 100);
        assert_eq!(s.records_local, 0);
    }

    #[test]
    fn delta_and_merge() {
        let a = CommStats {
            records_remote: 10,
            bytes_remote: 100,
            ..Default::default()
        };
        let b = CommStats {
            records_remote: 25,
            bytes_remote: 260,
            handlers_run: 5,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.records_remote, 15);
        assert_eq!(d.bytes_remote, 160);
        assert_eq!(d.handlers_run, 5);

        let m = a.merge(&b);
        assert_eq!(m.records_remote, 35);
        assert_eq!(m.bytes_remote, 360);
    }

    #[test]
    fn delta_saturates() {
        let a = CommStats {
            records_remote: 10,
            ..Default::default()
        };
        let b = CommStats::default();
        assert_eq!(b.delta(&a).records_remote, 0);
    }

    #[test]
    fn sum_over_ranks() {
        let per_rank = vec![
            CommStats {
                bytes_remote: 1,
                ..Default::default()
            },
            CommStats {
                bytes_remote: 2,
                ..Default::default()
            },
            CommStats {
                bytes_remote: 3,
                ..Default::default()
            },
        ];
        assert_eq!(CommStats::sum(&per_rank).bytes_remote, 6);
    }

    #[test]
    fn totals() {
        let s = CommStats {
            records_remote: 2,
            records_local: 3,
            bytes_remote: 10,
            bytes_local: 20,
            ..Default::default()
        };
        assert_eq!(s.records_total(), 5);
        assert_eq!(s.bytes_total(), 30);
    }
}
