//! Network cost model: turning measured communication into modeled
//! distributed runtimes.
//!
//! The simulated runtime measures *exactly* what each rank sends (records,
//! envelopes, bytes — see [`crate::stats`]). Wall-clock on a many-threads/
//! few-cores development box cannot exhibit the scaling behaviour of a
//! 256-node InfiniBand cluster, so the experiment harness combines the
//! measured counters with a classic α-β (latency–bandwidth) model:
//!
//! ```text
//! t_rank = handlers·γ  +  envelopes·α  +  bytes/β
//! t_phase = max over ranks of t_rank        (bulk-synchronous bound)
//! ```
//!
//! * `α` — per-message overhead (MPI header, handshake, injection). This is
//!   the term YGM's buffering exists to amortize (§4.1.1).
//! * `β` — link bandwidth in bytes/second.
//! * `γ` — per-record handler cost, standing in for the merge-path compute.
//!
//! Defaults approximate the paper's Catalyst cluster (QDR InfiniBand:
//! ~32 Gbit/s ≈ 4 GB/s per node, ~1.3 µs MPI latency). The *absolute*
//! numbers are not meaningful — the *ratios* between algorithm variants
//! and rank counts are, which is what the paper's figures report.
//!
//! The same `α·β` product sizes the communicator's send buffers: see
//! [`CostModel::adaptive_flush_threshold`].

use crate::stats::CommStats;

/// α-β-γ network/compute cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Seconds of fixed overhead per envelope (MPI message), `α`.
    pub latency_per_message: f64,
    /// Link bandwidth in bytes per second, `β`.
    pub bandwidth_bytes_per_sec: f64,
    /// Seconds of compute per delivered record (handler execution), `γ`.
    pub per_record_cost: f64,
    /// Seconds per application work unit (one wedge-check comparison).
    pub per_work_unit: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::catalyst_like()
    }
}

impl CostModel {
    /// Parameters loosely resembling one Catalyst node (QDR InfiniBand).
    pub fn catalyst_like() -> Self {
        CostModel {
            latency_per_message: 1.3e-6,
            bandwidth_bytes_per_sec: 4.0e9,
            per_record_cost: 2.0e-8,
            per_work_unit: 5.0e-9,
        }
    }

    /// The latency–bandwidth product `α·β` in bytes: the envelope size
    /// at which per-message overhead and wire time break even. Buffers
    /// below this waste `α`; the flush threshold should sit at or above
    /// it.
    fn latency_bandwidth_product(&self) -> usize {
        (self.latency_per_message * self.bandwidth_bytes_per_sec) as usize
    }

    /// The adaptive flush threshold of a world of `nranks` ranks (the
    /// resolution of [`crate::CommConfig`]'s `flush_threshold: None`),
    /// applied to every destination buffer, self included.
    ///
    /// Rationale: a fixed phase volume splits across more destination
    /// buffers as the world grows, so each buffer fills slower and a
    /// fixed threshold degenerates into the §5.4 small-message blowup.
    /// The threshold therefore scales with the rank count, floored at
    /// the `α·β` break-even (never below the tiny-world 8 KiB default)
    /// and capped at 1 MiB — the order of YGM's real-cluster buffers —
    /// so per-rank buffer memory stays bounded.
    pub fn adaptive_flush_threshold(&self, nranks: usize) -> usize {
        let per_rank = self
            .latency_bandwidth_product()
            .saturating_mul(nranks.max(1));
        per_rank.clamp(8 * 1024, 1 << 20)
    }

    /// Modeled time for one rank's traffic.
    fn rank_time(&self, stats: &CommStats) -> f64 {
        let msgs = stats.envelopes_remote as f64;
        let bytes = stats.bytes_remote as f64;
        // Local records still execute handlers; local bytes skip the wire.
        let records = (stats.handlers_run) as f64;
        msgs * self.latency_per_message
            + bytes / self.bandwidth_bytes_per_sec
            + records * self.per_record_cost
            + stats.work as f64 * self.per_work_unit
    }

    /// Modeled time for a bulk-synchronous phase: the slowest rank bounds
    /// the phase (everyone waits at the barrier).
    pub fn phase_time(&self, per_rank: &[CommStats]) -> f64 {
        per_rank
            .iter()
            .map(|s| self.rank_time(s))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(envelopes: u64, bytes: u64, handlers: u64) -> CommStats {
        CommStats {
            envelopes_remote: envelopes,
            bytes_remote: bytes,
            handlers_run: handlers,
            ..Default::default()
        }
    }

    #[test]
    fn rank_time_components() {
        let m = CostModel {
            latency_per_message: 1.0,
            bandwidth_bytes_per_sec: 10.0,
            per_record_cost: 0.5,
            per_work_unit: 0.0,
        };
        // 2 messages (2s) + 20 bytes (2s) + 4 records (2s) = 6s.
        let t = m.rank_time(&stats(2, 20, 4));
        assert!((t - 6.0).abs() < 1e-12, "t={t}");
    }

    #[test]
    fn phase_time_is_max_over_ranks() {
        let m = CostModel {
            latency_per_message: 0.0,
            bandwidth_bytes_per_sec: 1.0,
            per_record_cost: 0.0,
            per_work_unit: 0.0,
        };
        let ranks = vec![stats(0, 5, 0), stats(0, 50, 0), stats(0, 7, 0)];
        assert!((m.phase_time(&ranks) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn buffering_reduces_modeled_time() {
        // Same bytes, fewer envelopes → strictly cheaper under the model.
        let m = CostModel::catalyst_like();
        let unbuffered = stats(1_000_000, 8_000_000, 1_000_000);
        let buffered = stats(1_000, 8_000_000, 1_000_000);
        assert!(m.rank_time(&buffered) < m.rank_time(&unbuffered));
    }

    #[test]
    fn adaptive_threshold_scales_and_clamps() {
        let m = CostModel::catalyst_like();
        // Catalyst-like α·β ≈ 5.2 KB, so tiny worlds sit on the 8 KiB floor.
        assert_eq!(m.adaptive_flush_threshold(0), 8 * 1024);
        assert_eq!(m.adaptive_flush_threshold(1), 8 * 1024);
        // Growth is monotone in the rank count...
        let mut last = 0;
        for nranks in [2, 4, 16, 64, 256, 4096] {
            let t = m.adaptive_flush_threshold(nranks);
            assert!(t >= last, "threshold shrank at nranks={nranks}");
            last = t;
        }
        // ...tracks α·β·nranks in the mid range...
        let t4 = m.adaptive_flush_threshold(4);
        assert_eq!(t4, m.latency_bandwidth_product() * 4);
        // ...and caps at the 1 MiB buffer bound.
        assert_eq!(m.adaptive_flush_threshold(1 << 20), 1 << 20);
    }
}
