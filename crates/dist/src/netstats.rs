//! Network-traffic accounting shared by the TAG distributed run and the
//! shuffle-join model.
//!
//! The paper (Section 8.6) measures *total network traffic during query
//! execution* with `sar` on a 6-machine cluster. Both simulated engines here
//! report that quantity as a [`NetStats`]: bytes (and message/tuple counts)
//! that crossed a machine boundary. Both sides charge the same wire model,
//! [`Value::wire_bytes`] per value: the TAG executor through
//! `Table::approx_bytes` (see `vcsql_core::table`), the Spark model through
//! [`unsafe_row_bytes`] — so the byte comparison is like for like.

use vcsql_bsp::RunStats;
use vcsql_relation::Value;

/// Traffic that crossed simulated machine boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages (TAG) or shuffled/broadcast tuples (Spark model) sent over
    /// the network.
    pub network_messages: u64,
    /// Bytes sent over the network.
    pub network_bytes: u64,
    /// Communication rounds: BSP supersteps (TAG) or exchange stages —
    /// shuffles plus broadcasts (Spark model).
    pub rounds: u64,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c). Always 0: placements are fixed at open, so no
    /// vertex state ever migrates.
    pub migration_bytes: u64,
    /// Bytes written to superstep checkpoints (fault tolerance). **Not**
    /// included in `network_bytes`: checkpoints go to (simulated) stable
    /// storage local to each machine, not over the wire — itemized here so
    /// the checkpoint-interval tradeoff is measurable without corrupting
    /// the paper's network-traffic figure.
    pub checkpoint_bytes: u64,
    /// Of `network_bytes`, bytes re-shipped to restore crashed partitions
    /// from a checkpoint (confined recovery: only the lost machine's share
    /// travels). Invariant: `recovery_bytes <= network_bytes`.
    pub recovery_bytes: u64,
    /// Supersteps replayed after crash rollbacks. **Not** included in
    /// `rounds`: the replayed rounds' traffic is recorded once (the replay
    /// is bit-identical), so counting them again would double-bill; they
    /// are itemized here as the recovery's latency cost.
    pub recovered_rounds: u64,
}

impl NetStats {
    /// The network share of one TAG-join run: its cross-machine messages
    /// and bytes, one round per superstep, and its fault-tolerance traffic
    /// — checkpoint writes go to stable storage (itemized, outside the
    /// totals), recovery re-ships the crashed partition's checkpoint state
    /// over the wire (itemized and inside the totals). The
    /// engine keeps both out of its per-label `totals`, so nothing is
    /// double-billed; a fault-free run has all three counters zero.
    pub fn from_run(stats: &RunStats) -> NetStats {
        let mut net = NetStats {
            network_messages: stats.totals.network_messages,
            network_bytes: stats.totals.network_bytes,
            rounds: stats.supersteps,
            ..Default::default()
        };
        let ft = &stats.faults;
        net.record_checkpoint(ft.checkpoint_bytes);
        net.record_recovery(ft.recovered_vertices, ft.recovery_bytes, ft.recovered_rounds);
        net
    }

    /// Fold another run's traffic into this one (e.g. a subquery's).
    pub fn absorb(&mut self, other: &NetStats) {
        self.network_messages += other.network_messages;
        self.network_bytes += other.network_bytes;
        self.rounds += other.rounds;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.recovery_bytes += other.recovery_bytes;
        self.recovered_rounds += other.recovered_rounds;
    }

    /// Record one exchange of `tuples` totalling `bytes`.
    pub fn record_exchange(&mut self, tuples: u64, bytes: u64) {
        self.network_messages += tuples;
        self.network_bytes += bytes;
        self.rounds += 1;
    }

    /// Charge `bytes` of checkpoint writes. Itemized only — checkpoints are
    /// stable-storage writes, not network traffic (see the field doc).
    pub fn record_checkpoint(&mut self, bytes: u64) {
        self.checkpoint_bytes += bytes;
    }

    /// Charge a crash recovery: `vertices` restored vertices totalling
    /// `bytes` of re-shipped checkpoint state (network traffic), after rolling back `rounds` supersteps (itemized, not
    /// added to `rounds` — the replayed traffic is recorded once).
    pub fn record_recovery(&mut self, vertices: u64, bytes: u64, rounds: u64) {
        self.network_messages += vertices;
        self.network_bytes += bytes;
        self.recovery_bytes += bytes;
        self.recovered_rounds += rounds;
    }
}

/// Modelled size of one row in Spark's `UnsafeRow` shuffle format: an
/// 8-byte null bitmap word (per 64 columns) plus [`Value::wire_bytes`] per
/// field (one 8-byte word, and 8-byte-aligned variable-length data for
/// strings). This is what Spark's shuffle serializer actually writes, so
/// the shuffle-join model charges it instead of an idealized packed
/// encoding.
pub fn unsafe_row_bytes(row: &[Value]) -> u64 {
    let bitmap = 8 * (row.len() as u64).div_ceil(64).max(1);
    bitmap + row.iter().map(|v| v.wire_bytes() as u64).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_row_sizes() {
        // 1 bitmap word + 3 fields + "0123456789" padded to 16.
        assert_eq!(
            unsafe_row_bytes(&[Value::Int(1), Value::Null, Value::str("0123456789")]),
            8 + 24 + 16
        );
        // Empty row still pays the bitmap word.
        assert_eq!(unsafe_row_bytes(&[]), 8);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = NetStats::default();
        a.record_exchange(10, 100);
        let mut b = NetStats::default();
        b.record_exchange(5, 50);
        a.absorb(&b);
        assert_eq!(
            a,
            NetStats { network_messages: 15, network_bytes: 150, rounds: 2, ..Default::default() }
        );
    }

    #[test]
    fn checkpoints_are_itemized_outside_totals() {
        let mut n = NetStats::default();
        n.record_exchange(10, 100);
        n.record_checkpoint(64);
        assert_eq!(n.checkpoint_bytes, 64);
        assert_eq!(n.network_bytes, 100, "checkpoints are not network traffic");
        assert_eq!(n.network_messages, 10);
        assert_eq!(n.rounds, 1);
    }

    #[test]
    fn recovery_is_itemized_and_counted_in_totals() {
        let mut n = NetStats::default();
        n.record_exchange(10, 100);
        n.record_recovery(4, 32, 2);
        assert_eq!(n.network_messages, 14);
        assert_eq!(n.network_bytes, 132, "restored state travels the network");
        assert_eq!(n.recovery_bytes, 32);
        assert_eq!(n.recovered_rounds, 2);
        assert_eq!(n.rounds, 1, "replayed rounds are recorded once, not re-billed");
        assert!(n.recovery_bytes <= n.network_bytes);
        let mut m = NetStats::default();
        m.absorb(&n);
        assert_eq!(m.recovery_bytes, 32);
        assert_eq!(m.checkpoint_bytes, 0);
        assert_eq!(m.recovered_rounds, 2);
    }
}
