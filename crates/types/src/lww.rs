//! The last-writer-wins register CRDT (§5).
//!
//! `write(stamp, value)` keeps the value with the largest
//! `(timestamp, node)` stamp; ties are impossible because stamps embed
//! the writer. Writes commute (max is associative-commutative) and two
//! writes summarize to the one with the larger stamp, so `write` is
//! **reducible**.

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{ObjectSpec, WorkloadSupport};

/// A hybrid stamp ordering writes totally: logical time, then writer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Stamp {
    /// Logical timestamp.
    pub time: u64,
    /// Writer identifier (tie-breaker).
    pub node: u64,
}

hamband_core::calls! { wire struct Stamp { time, node } }

/// An update call on the register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LwwUpdate {
    /// `write(stamp, value)`.
    Write {
        /// The write's stamp.
        stamp: Stamp,
        /// The written value.
        value: u64,
    },
}

hamband_core::calls! {
    untagged LwwUpdate { WRITE = "write" => Write { stamp, value } }
}

/// A query call on the register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LwwQuery {
    /// `read()`: the current value (0 if never written).
    Read,
}

/// The register state: the winning stamped value, if any.
pub type LwwState = Option<(Stamp, u64)>;

/// The last-writer-wins register.
///
/// ```
/// use hamband_core::ObjectSpec;
/// use hamband_types::lww::{LwwRegister, LwwUpdate, Stamp};
///
/// let r = LwwRegister::default();
/// let w1 = LwwUpdate::Write { stamp: Stamp { time: 1, node: 0 }, value: 10 };
/// let w2 = LwwUpdate::Write { stamp: Stamp { time: 2, node: 1 }, value: 20 };
/// // Order of application does not matter: the larger stamp wins.
/// let a = r.apply(&r.apply(&r.initial(), &w1), &w2);
/// let b = r.apply(&r.apply(&r.initial(), &w2), &w1);
/// assert_eq!(a, b);
/// assert_eq!(a, Some((Stamp { time: 2, node: 1 }, 20)));
/// ```
#[derive(Debug, Clone)]
pub struct LwwRegister {
    max_time: u64,
    nodes: u64,
}

impl LwwRegister {
    /// A register whose sampler draws stamps below `max_time` from up to
    /// `nodes` writers.
    pub fn new(max_time: u64, nodes: u64) -> Self {
        assert!(max_time > 0 && nodes > 0);
        LwwRegister { max_time, nodes }
    }

    /// Coordination: `write` is reducible.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(1).summarization_group([WRITE.index()]).build()
    }
}

impl Default for LwwRegister {
    fn default() -> Self {
        LwwRegister::new(1 << 32, 8)
    }
}

impl ObjectSpec for LwwRegister {
    type State = LwwState;
    type Update = LwwUpdate;
    type Query = LwwQuery;
    type Reply = u64;

    fn name(&self) -> &str {
        "lww-register"
    }

    fn initial(&self) -> LwwState {
        None
    }

    fn invariant(&self, _state: &LwwState) -> bool {
        true
    }

    fn permissible(&self, _state: &LwwState, _call: &LwwUpdate) -> bool {
        true // the invariant is constant: no post-state to build
    }

    fn apply_mut(&self, state: &mut LwwState, call: &LwwUpdate) {
        let LwwUpdate::Write { stamp, value } = *call;
        match state {
            Some((s, _)) if *s >= stamp => {}
            _ => *state = Some((stamp, value)),
        }
    }

    fn query(&self, state: &LwwState, _query: &LwwQuery) -> u64 {
        state.map(|(_, v)| v).unwrap_or(0)
    }

    fn summaries_monotone(&self) -> bool {
        true
    }

    fn summarize(&self, first: &LwwUpdate, second: &LwwUpdate) -> Option<LwwUpdate> {
        let (LwwUpdate::Write { stamp: s1, .. }, LwwUpdate::Write { stamp: s2, .. }) =
            (first, second);
        Some(if s2 > s1 { *second } else { *first })
    }
}

impl WorkloadSupport for LwwRegister {
    fn sample_state(&self, rng: &mut StdRng) -> LwwState {
        if rng.gen_bool(0.1) {
            None
        } else {
            Some((
                Stamp { time: rng.gen_range(0..self.max_time), node: rng.gen_range(0..self.nodes) },
                rng.gen_range(0..1_000),
            ))
        }
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> LwwUpdate {
        assert_eq!(method, WRITE, "register has a single method");
        LwwUpdate::Write {
            stamp: Stamp {
                time: rng.gen_range(0..self.max_time),
                node: rng.gen_range(0..self.nodes),
            },
            value: rng.gen_range(0..1_000),
        }
    }

    fn sample_query(&self, _rng: &mut StdRng) -> LwwQuery {
        LwwQuery::Read
    }

    fn gen_update(
        &self,
        state: &LwwState,
        node: usize,
        seq: u64,
        _method: MethodId,
        rng: &mut StdRng,
    ) -> Option<LwwUpdate> {
        // Stamps advance past the locally visible maximum, like a
        // Lamport clock, so writes from a live workload keep winning.
        let base = state.map(|(s, _)| s.time).unwrap_or(0);
        Some(LwwUpdate::Write {
            stamp: Stamp { time: base + 1 + seq % 3, node: node as u64 },
            value: rng.gen_range(0..1_000),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::relations::BoundedRelations;

    fn w(time: u64, node: u64, value: u64) -> LwwUpdate {
        LwwUpdate::Write { stamp: Stamp { time, node }, value }
    }

    #[test]
    fn writes_commute() {
        let reg = LwwRegister::default();
        let r = BoundedRelations::new(&reg, 3, 200);
        assert!(r.s_commute(&w(5, 0, 1), &w(5, 1, 2)));
        assert!(!r.conflict(&w(1, 0, 1), &w(9, 3, 2)));
    }

    #[test]
    fn summary_keeps_winner() {
        let reg = LwwRegister::default();
        assert_eq!(reg.summarize(&w(1, 0, 10), &w(2, 0, 20)), Some(w(2, 0, 20)));
        assert_eq!(reg.summarize(&w(3, 1, 10), &w(2, 0, 20)), Some(w(3, 1, 10)));
        // Node id breaks timestamp ties deterministically.
        assert_eq!(reg.summarize(&w(2, 1, 10), &w(2, 0, 20)), Some(w(2, 1, 10)));
    }

    #[test]
    fn write_is_reducible() {
        let reg = LwwRegister::default();
        assert!(reg.coord_spec().category(WRITE).is_reducible());
    }

    #[test]
    fn stale_write_is_ignored() {
        let reg = LwwRegister::default();
        let s = reg.apply(&reg.initial(), &w(5, 0, 50));
        let s2 = reg.apply(&s, &w(3, 1, 30));
        assert_eq!(reg.query(&s2, &LwwQuery::Read), 50);
    }

    #[test]
    fn unwritten_register_reads_zero() {
        let reg = LwwRegister::default();
        assert_eq!(reg.query(&reg.initial(), &LwwQuery::Read), 0);
    }

    #[test]
    fn workload_stamps_advance() {
        use rand::SeedableRng;
        let reg = LwwRegister::default();
        let mut rng = StdRng::seed_from_u64(0);
        let state = Some((Stamp { time: 10, node: 0 }, 5));
        let Some(LwwUpdate::Write { stamp, .. }) = reg.gen_update(&state, 2, 0, WRITE, &mut rng)
        else {
            panic!("write expected")
        };
        assert!(stamp.time > 10);
        assert_eq!(stamp.node, 2);
    }
}
