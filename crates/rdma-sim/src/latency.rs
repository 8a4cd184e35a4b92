//! The latency and CPU-cost model of the simulated cluster.
//!
//! The Hamband evaluation hinges on the *relative* costs of the three
//! communication mechanisms available on an RDMA-equipped cluster:
//!
//! 1. **one-sided verbs** (WRITE/READ/CAS) — 1–2 µs wire latency, no
//!    remote CPU involvement, tiny posting cost at the issuer;
//! 2. **two-sided messages** (SEND/RECV through the network and OS
//!    stack, as the message-passing CRDT baseline uses) — tens of µs
//!    and a receive-path CPU cost at the target;
//! 3. **local computation** — order of 0.1 µs per call.
//!
//! The default numbers below are calibrated from the paper's own
//! reports (Mu consensus commits in ~1.3 µs; message-passing CRDTs show
//! ~23× the response time of Hamband; 40 Gbps links ≈ 0.2 ns/byte) and
//! the DARE/Mu literature. Absolute values are synthetic; the *ratios*
//! are what the reproduction preserves.

use rand::rngs::StdRng;
use rand::Rng;

use crate::time::SimDuration;
use crate::verbs::VerbKind;

/// Latency/cost parameters of the simulated fabric.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// One-way latency of a one-sided WRITE before per-byte cost.
    pub write_base: SimDuration,
    /// Round-trip latency of a one-sided READ before per-byte cost.
    pub read_base: SimDuration,
    /// Round-trip latency of a one-sided CAS (dearer than READ; the
    /// paper's §2 motivates the single-writer design by this cost).
    pub cas_base: SimDuration,
    /// One-way latency of a two-sided message before per-byte cost
    /// (network + OS stack).
    pub msg_base: SimDuration,
    /// Per-byte wire cost (applies to all transfers).
    pub per_byte_ns: f64,
    /// CPU time the issuer spends posting any verb or message.
    pub post_cost: SimDuration,
    /// NIC transmit serialization cost per verb (limits per-node
    /// injection rate).
    pub nic_tx_cost: SimDuration,
    /// CPU time a receiver spends in the network stack per delivered
    /// two-sided message (zero for one-sided traffic — the whole point).
    pub recv_cpu_cost: SimDuration,
    /// CPU time to execute one data-type method locally.
    pub apply_cost: SimDuration,
    /// Relative jitter amplitude (0.1 = ±10 %), applied to wire
    /// latencies with a deterministic RNG.
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            write_base: SimDuration::nanos(1_000),
            read_base: SimDuration::nanos(2_000),
            cas_base: SimDuration::nanos(2_600),
            msg_base: SimDuration::nanos(25_000),
            per_byte_ns: 0.2,
            post_cost: SimDuration::nanos(60),
            nic_tx_cost: SimDuration::nanos(110),
            recv_cpu_cost: SimDuration::nanos(3_200),
            apply_cost: SimDuration::nanos(150),
            jitter: 0.08,
        }
    }
}

impl LatencyModel {
    /// A model with zero jitter, for bit-exact tests.
    pub fn deterministic() -> Self {
        LatencyModel { jitter: 0.0, ..LatencyModel::default() }
    }

    /// Sampled wire latency of a verb of `kind` moving `len` bytes: one
    /// way for a WRITE or SEND, the round trip for a READ or CAS.
    pub fn latency(&self, kind: VerbKind, len: usize, rng: &mut StdRng) -> SimDuration {
        let base = match kind {
            VerbKind::Write => self.write_base,
            VerbKind::Read => self.read_base,
            VerbKind::CompareAndSwap => self.cas_base,
            VerbKind::Send => self.msg_base,
        };
        let wire = base + SimDuration::nanos((self.per_byte_ns * len as f64) as u64);
        if self.jitter == 0.0 {
            wire
        } else {
            let f = 1.0 + rng.gen_range(-self.jitter..=self.jitter);
            wire.mul_f64(f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deterministic_model_has_no_jitter() {
        let m = LatencyModel::deterministic();
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let write = |rng| m.latency(VerbKind::Write, 100, rng);
        assert_eq!(write(&mut r1), write(&mut r2));
        assert_eq!(m.latency(VerbKind::Write, 0, &mut r1), m.write_base);
    }

    #[test]
    fn per_byte_cost_scales() {
        let m = LatencyModel::deterministic();
        let mut rng = StdRng::seed_from_u64(0);
        let small = m.latency(VerbKind::Write, 10, &mut rng);
        let large = m.latency(VerbKind::Write, 10_000, &mut rng);
        assert!(large > small);
        assert_eq!(large.as_nanos() - m.write_base.as_nanos(), 2_000);
    }

    #[test]
    fn cost_ordering_matches_rdma_reality() {
        let m = LatencyModel::default();
        assert!(m.write_base < m.read_base);
        assert!(m.read_base < m.cas_base);
        assert!(m.cas_base < m.msg_base);
        assert!(m.recv_cpu_cost > SimDuration::ZERO);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let m = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        let base = m.write_base.as_nanos() as f64;
        for _ in 0..500 {
            let l = m.latency(VerbKind::Write, 0, &mut rng).as_nanos() as f64;
            assert!(l >= base * (1.0 - m.jitter) - 1.0);
            assert!(l <= base * (1.0 + m.jitter) + 1.0);
        }
    }

    #[test]
    fn same_seed_same_samples() {
        let m = LatencyModel::default();
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| m.latency(VerbKind::Send, 64, &mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| m.latency(VerbKind::Send, 64, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
