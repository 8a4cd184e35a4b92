//! The observed-remove set CRDT (§5).
//!
//! The op-based OR-set tags every insertion with a unique
//! `(node, seq)` tag; `remove` deletes exactly the tags its issuer
//! *observed*. Under causal delivery — which Hamband enforces through
//! the dependency maps accompanying buffered calls — concurrent `add`
//! and `remove` never race on the same tag, so the type is
//! **conflict-free**; `remove`'s need to see its observed adds first is
//! declared as a dependency `remove → add`. Neither method is
//! summarizable, so both are **irreducible conflict-free** and flow
//! through the `F` buffers, exactly as Fig. 9 evaluates.
//!
//! Note on sampling: state-oblivious samplers draw `add` and `remove`
//! tags from disjoint tag spaces. Calls where a `remove` targets the
//! tag of a *concurrent* `add` are unreachable in real executions (a
//! remove can only name tags it observed), and including them would
//! make the bounded analysis report a spurious conflict that the
//! paper's reachability-aware analysis also excludes.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{KeySkew, ObjectSpec, WorkloadSupport};

/// A unique insertion tag `(node, seq)`.
pub type Tag = (u64, u64);

/// The OR-set state: element → set of live insertion tags.
pub type OrSetState = BTreeMap<u64, BTreeSet<Tag>>;

/// An update call on the OR-set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OrSetUpdate {
    /// `add(element, tag)`: insert with a fresh unique tag.
    Add {
        /// The element.
        element: u64,
        /// The fresh tag.
        tag: Tag,
    },
    /// `remove(element, tags)`: delete the observed tags of an element.
    Remove {
        /// The element.
        element: u64,
        /// The tags the issuer observed for it.
        tags: Vec<Tag>,
    },
}

hamband_core::calls! {
    OrSetUpdate {
        ADD = "add" => Add { element, tag },
        REMOVE = "remove" => Remove { element, tags },
    }
}

/// A query call on the OR-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrSetQuery {
    /// `contains(element)`.
    Contains(u64),
    /// `size()` — number of present elements.
    Size,
}

/// The observed-remove set.
///
/// ```
/// use hamband_core::ObjectSpec;
/// use hamband_types::orset::{OrSet, OrSetUpdate, OrSetQuery};
///
/// let o = OrSet::default();
/// let add = OrSetUpdate::Add { element: 9, tag: (0, 1) };
/// let s = o.apply(&o.initial(), &add);
/// assert_eq!(o.query(&s, &OrSetQuery::Contains(9)), 1);
/// // A remove that observed tag (0,1) deletes it...
/// let rm = OrSetUpdate::Remove { element: 9, tags: vec![(0, 1)] };
/// let s2 = o.apply(&s, &rm);
/// assert_eq!(o.query(&s2, &OrSetQuery::Contains(9)), 0);
/// // ...but a concurrent re-add with a fresh tag survives it (add wins).
/// let readd = OrSetUpdate::Add { element: 9, tag: (1, 1) };
/// let s3 = o.apply(&o.apply(&s, &readd), &rm);
/// assert_eq!(o.query(&s3, &OrSetQuery::Contains(9)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OrSet {
    element_space: u64,
}

impl OrSet {
    /// An OR-set whose sampler draws elements from `0..element_space`.
    pub fn new(element_space: u64) -> Self {
        assert!(element_space > 0);
        OrSet { element_space }
    }

    /// Coordination: both methods conflict-free and unsummarizable;
    /// `remove` causally depends on `add`.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(2).depends(REMOVE.index(), ADD.index()).build()
    }
}

impl Default for OrSet {
    fn default() -> Self {
        OrSet::new(64)
    }
}

impl ObjectSpec for OrSet {
    type State = OrSetState;
    type Update = OrSetUpdate;
    type Query = OrSetQuery;
    type Reply = u64;

    fn name(&self) -> &str {
        "orset"
    }

    fn initial(&self) -> OrSetState {
        BTreeMap::new()
    }

    fn invariant(&self, _state: &OrSetState) -> bool {
        true
    }

    fn permissible(&self, _state: &OrSetState, _call: &OrSetUpdate) -> bool {
        true // the invariant is constant: no post-state to build
    }

    fn query(&self, state: &OrSetState, query: &OrSetQuery) -> u64 {
        match query {
            OrSetQuery::Contains(e) => u64::from(state.contains_key(e)),
            OrSetQuery::Size => state.len() as u64,
        }
    }

    fn apply_mut(&self, state: &mut OrSetState, call: &OrSetUpdate) {
        match call {
            OrSetUpdate::Add { element, tag } => {
                state.entry(*element).or_default().insert(*tag);
            }
            OrSetUpdate::Remove { element, tags } => {
                if let Some(live) = state.get_mut(element) {
                    for t in tags {
                        live.remove(t);
                    }
                    if live.is_empty() {
                        state.remove(element);
                    }
                }
            }
        }
    }

    /// Every OR-set call touches exactly one element's tag set, so the
    /// element is the shard key. The type is conflict-free (no sync
    /// groups), so sharding is structurally a no-op here — the
    /// declaration documents the partitioning and keeps the analysis
    /// honest for variants that do declare conflicts.
    fn shard_key(&self, call: &OrSetUpdate) -> Option<u64> {
        match call {
            OrSetUpdate::Add { element, .. } | OrSetUpdate::Remove { element, .. } => {
                Some(*element)
            }
        }
    }
}

impl WorkloadSupport for OrSet {
    fn sample_state(&self, rng: &mut StdRng) -> OrSetState {
        let n = rng.gen_range(0..10);
        let mut s = OrSetState::new();
        for _ in 0..n {
            let e = rng.gen_range(0..self.element_space);
            let tags: BTreeSet<Tag> = (0..rng.gen_range(1..3u32))
                .map(|_| (rng.gen_range(0..8), rng.gen_range(0..1_000_000)))
                .collect();
            s.insert(e, tags);
        }
        s
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> OrSetUpdate {
        let element = rng.gen_range(0..self.element_space);
        match method {
            // Disjoint tag spaces (see module docs): sampled adds use
            // even sequence numbers, sampled removes odd ones.
            ADD => OrSetUpdate::Add {
                element,
                tag: (rng.gen_range(0..8), rng.gen_range(0..500_000) * 2),
            },
            REMOVE => OrSetUpdate::Remove {
                element,
                tags: vec![(rng.gen_range(0..8), rng.gen_range(0..500_000) * 2 + 1)],
            },
            other => panic!("orset has no method {other}"),
        }
    }

    fn sample_query(&self, rng: &mut StdRng) -> OrSetQuery {
        if rng.gen_bool(0.5) {
            OrSetQuery::Contains(rng.gen_range(0..self.element_space))
        } else {
            OrSetQuery::Size
        }
    }

    fn gen_update(
        &self,
        state: &OrSetState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        skew: KeySkew,
    ) -> Option<OrSetUpdate> {
        match method {
            ADD => Some(OrSetUpdate::Add {
                element: skew.sample(rng, self.element_space),
                tag: (node as u64, seq),
            }),
            REMOVE => {
                // Remove an element this replica actually observes.
                if state.is_empty() {
                    return None;
                }
                let idx = skew.sample_index(rng, state.len());
                let (element, tags) = state.iter().nth(idx).expect("index in range");
                Some(OrSetUpdate::Remove {
                    element: *element,
                    tags: tags.iter().copied().collect(),
                })
            }
            other => panic!("orset has no method {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::relations::BoundedRelations;
    use rand::SeedableRng;

    #[test]
    fn add_wins_over_concurrent_remove() {
        let o = OrSet::default();
        let s = o.apply(&o.initial(), &OrSetUpdate::Add { element: 1, tag: (0, 0) });
        // remove observed only tag (0,0); concurrent add has tag (1,0).
        let rm = OrSetUpdate::Remove { element: 1, tags: vec![(0, 0)] };
        let add2 = OrSetUpdate::Add { element: 1, tag: (1, 0) };
        let a = o.apply(&o.apply(&s, &rm), &add2);
        let b = o.apply(&o.apply(&s, &add2), &rm);
        assert_eq!(a, b, "concurrent add/remove commute on distinct tags");
        assert_eq!(o.query(&a, &OrSetQuery::Contains(1)), 1);
    }

    #[test]
    fn both_methods_are_irreducible_free_and_remove_depends_on_add() {
        let o = OrSet::default();
        let c = o.coord_spec();
        assert!(c.category(ADD).is_irreducible_free());
        assert!(c.category(REMOVE).is_irreducible_free());
        assert_eq!(c.dependencies(REMOVE), &[ADD]);
    }

    #[test]
    fn distinct_tag_calls_commute() {
        let o = OrSet::default();
        let r = BoundedRelations::new(&o, 11, 100);
        let add = OrSetUpdate::Add { element: 5, tag: (0, 2) };
        let rm = OrSetUpdate::Remove { element: 5, tags: vec![(1, 3)] };
        assert!(r.s_commute(&add, &rm));
        assert!(!r.conflict(&add, &rm));
    }

    #[test]
    fn same_tag_add_remove_do_not_commute() {
        // The unreachable pair the dependency declaration protects
        // against: a remove of the very tag a concurrent add inserts.
        let o = OrSet::default();
        let add = OrSetUpdate::Add { element: 5, tag: (0, 2) };
        let rm = OrSetUpdate::Remove { element: 5, tags: vec![(0, 2)] };
        let s = o.initial();
        let a = o.apply(&o.apply(&s, &add), &rm);
        let b = o.apply(&o.apply(&s, &rm), &add);
        assert_ne!(a, b);
    }

    #[test]
    fn remove_of_absent_element_is_noop() {
        let o = OrSet::default();
        let s = o.apply(&o.initial(), &OrSetUpdate::Remove { element: 3, tags: vec![(0, 0)] });
        assert_eq!(s, o.initial());
    }

    #[test]
    fn workload_remove_targets_observed_state() {
        let o = OrSet::default();
        let mut rng = StdRng::seed_from_u64(4);
        let uni = KeySkew::Uniform;
        assert_eq!(o.gen_update(&o.initial(), 0, 0, REMOVE, &mut rng, uni), None);
        let s = o.apply(&o.initial(), &OrSetUpdate::Add { element: 7, tag: (0, 0) });
        let rm = o.gen_update(&s, 1, 5, REMOVE, &mut rng, uni).expect("non-empty state");
        assert_eq!(rm, OrSetUpdate::Remove { element: 7, tags: vec![(0, 0)] });
    }
}
