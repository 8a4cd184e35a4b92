//! Method-level coordination relations and the three method categories
//! of §3.3.
//!
//! A [`CoordSpec`] declares, per object class:
//!
//! * the **conflict** relation between methods (symmetric) — inducing the
//!   conflict graph whose connected components are the *synchronization
//!   groups*;
//! * the **dependency** relation `Dep(u)` — which methods a method's
//!   calls may depend on;
//! * the **summarization groups** — sets of methods whose calls are
//!   closed under [`crate::object::ObjectSpec::summarize`].
//!
//! From these it derives each method's [`MethodCategory`]:
//!
//! * **Reducible** — conflict-free, dependence-free, and summarizable;
//!   propagated as a single remotely written summary call (rule REDUCE).
//! * **Irreducible conflict-free** — conflict-free but dependent or not
//!   summarizable; propagated through the per-source `F` buffers (rule
//!   FREE).
//! * **Conflicting** — member of a synchronization group; ordered by the
//!   group's leader into the `L` buffers (rule CONF).
//!
//! A synchronization group can additionally be *key-sharded*: when the
//! object declares a shard key per conflicting call
//! ([`crate::object::ObjectSpec::shard_key`]), a [`GroupMapper`] splits
//! each synchronization group into N per-key shards, each served by its
//! own consensus log. Same-key calls always land in the same shard
//! (Lemma 1 applies per shard); cross-key calls commute by the shard-key
//! declaration, so they may safely serialize in different shards.

use std::collections::BTreeSet;
use std::fmt;

use crate::graph::UndirectedGraph;
use crate::ids::{GroupId, MethodId, Pid};

/// splitmix64 finalizer: a full-avalanche 64-bit mix. Used to hash
/// shard keys onto shards and to derive per-session RNG seeds — places
/// where the XOR-of-affine-terms shortcuts this replaced allowed
/// distinct inputs to collide.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The category of a method (§3.3), derived from a [`CoordSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodCategory {
    /// Conflict-free, dependence-free, and summarizable: propagated by a
    /// single remote write of the updated summary (rule REDUCE).
    Reducible {
        /// The summarization group the method belongs to.
        sum_group: GroupId,
    },
    /// Conflict-free but dependent or not summarizable: propagated
    /// through the conflict-free buffers `F` (rule FREE).
    IrreducibleFree,
    /// Conflicting: ordered by the leader of its synchronization group
    /// into the conflicting buffers `L` (rule CONF).
    Conflicting {
        /// The synchronization group (connected component of the
        /// conflict graph) the method belongs to.
        sync_group: GroupId,
    },
}

impl fmt::Display for MethodCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodCategory::Reducible { sum_group } => write!(f, "reducible({sum_group})"),
            MethodCategory::IrreducibleFree => write!(f, "irreducible conflict-free"),
            MethodCategory::Conflicting { sync_group } => write!(f, "conflicting({sync_group})"),
        }
    }
}

/// Declared method-level coordination relations of an object class, plus
/// everything derived from them (conflict graph, synchronization groups,
/// categories, leader assignment).
///
/// Build one with [`CoordSpecBuilder`]:
///
/// ```
/// use hamband_core::coord::CoordSpec;
/// use hamband_core::ids::MethodId;
///
/// // The bank account: methods 0 = deposit, 1 = withdraw.
/// let coord = CoordSpec::builder(2)
///     .conflict(1, 1)          // withdraw 𝒫-conflicts with withdraw
///     .depends(1, 0)           // withdraw depends on deposit
///     .summarization_group([0]) // deposits summarize
///     .build();
/// assert!(coord.category(MethodId(0)).is_reducible());
/// assert!(coord.category(MethodId(1)).is_conflicting());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordSpec {
    n_methods: usize,
    conflicts: BTreeSet<(usize, usize)>,
    depends: Vec<Vec<MethodId>>,
    sum_group_of: Vec<Option<GroupId>>,
    sum_groups: Vec<Vec<MethodId>>,
    sync_group_of: Vec<Option<GroupId>>,
    sync_groups: Vec<Vec<MethodId>>,
    categories: Vec<MethodCategory>,
}

impl MethodCategory {
    /// Whether this is the reducible category.
    pub fn is_reducible(self) -> bool {
        matches!(self, MethodCategory::Reducible { .. })
    }

    /// Whether this is the irreducible conflict-free category.
    pub fn is_irreducible_free(self) -> bool {
        matches!(self, MethodCategory::IrreducibleFree)
    }

    /// Whether this is the conflicting category.
    pub fn is_conflicting(self) -> bool {
        matches!(self, MethodCategory::Conflicting { .. })
    }
}

impl CoordSpec {
    /// Start building a specification for an object with `n_methods`
    /// update methods.
    pub fn builder(n_methods: usize) -> CoordSpecBuilder {
        CoordSpecBuilder {
            n_methods,
            conflicts: BTreeSet::new(),
            depends: vec![BTreeSet::new(); n_methods],
            sum_groups: Vec::new(),
        }
    }

    /// Number of update methods covered.
    pub fn method_count(&self) -> usize {
        self.n_methods
    }

    /// Whether methods `a` and `b` conflict (symmetric).
    pub fn methods_conflict(&self, a: MethodId, b: MethodId) -> bool {
        let (x, y) = if a.index() <= b.index() { (a.index(), b.index()) } else { (b.index(), a.index()) };
        self.conflicts.contains(&(x, y))
    }

    /// `Dep(u)`: the methods `u` is dependent on, sorted ascending.
    pub fn dependencies(&self, u: MethodId) -> &[MethodId] {
        &self.depends[u.index()]
    }

    /// Whether `u` is dependence-free (`Dep(u) = ∅`).
    pub fn is_dependence_free(&self, u: MethodId) -> bool {
        self.depends[u.index()].is_empty()
    }

    /// `SumGroup(u)`: the summarization group of `u`, or `None` (⊥).
    pub fn sum_group(&self, u: MethodId) -> Option<GroupId> {
        self.sum_group_of[u.index()]
    }

    /// `SyncGroup(u)`: the synchronization group of `u`, or `None` (⊥)
    /// if `u` is conflict-free.
    pub fn sync_group(&self, u: MethodId) -> Option<GroupId> {
        self.sync_group_of[u.index()]
    }

    /// The derived category of method `u`.
    pub fn category(&self, u: MethodId) -> MethodCategory {
        self.categories[u.index()]
    }

    /// All synchronization groups (connected components of the conflict
    /// graph), each a sorted list of methods.
    pub fn sync_groups(&self) -> &[Vec<MethodId>] {
        &self.sync_groups
    }

    /// All summarization groups, each a sorted list of methods.
    pub fn sum_groups(&self) -> &[Vec<MethodId>] {
        &self.sum_groups
    }

    /// Default leader assignment: synchronization group `g` is led by
    /// process `g mod n`, spreading groups across the cluster
    /// round-robin (this is what gives the Movie schema its two leaders
    /// in Fig. 10).
    pub fn default_leaders(&self, processes: usize) -> Vec<Pid> {
        assert!(processes > 0, "cluster must be non-empty");
        (0..self.sync_groups.len()).map(|g| Pid(g % processes)).collect()
    }
}

/// Maps `(synchronization group, shard key)` onto a *mapped group* —
/// the index of the consensus engine / `L` ring that serializes the
/// call. With `shards == 1` this is the identity on synchronization
/// groups (the paper's layout); with `shards == N` every
/// synchronization group becomes `N` independent consensus logs, CNR
/// `LogMapper`-style, and a call's shard is chosen by hashing its
/// declared key ([`crate::object::ObjectSpec::shard_key`]).
///
/// Safety argument (DESIGN.md §4a): the mapper is a pure function of
/// `(group, key)`, so two conflicting calls on the same key always map
/// to the same shard, where the shard's leader totally orders them —
/// Lemma 1 holds per shard. Calls with *different* keys commute by the
/// shard-key declaration (validated by the bounded analysis), so
/// serializing them in different shards is sound. Keyless calls
/// (`shard_key == None`) conflict with every call of their group and
/// are pinned to shard 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMapper {
    base_groups: usize,
    shards: usize,
}

impl GroupMapper {
    /// A mapper splitting each of `coord`'s synchronization groups into
    /// `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(coord: &CoordSpec, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard per synchronization group");
        GroupMapper { base_groups: coord.sync_groups().len(), shards }
    }

    /// The unsharded identity mapper (one shard per group).
    pub fn identity(coord: &CoordSpec) -> Self {
        GroupMapper::new(coord, 1)
    }

    /// Shards per synchronization group.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total mapped groups: one consensus engine / `L` ring each.
    pub fn group_count(&self) -> usize {
        self.base_groups * self.shards
    }

    /// The shard a key hashes to. `None` (a keyless call, conflicting
    /// with *all* calls of its group) pins to shard 0.
    pub fn shard_of(&self, key: Option<u64>) -> usize {
        match key {
            Some(k) => (mix64(k) % self.shards as u64) as usize,
            None => 0,
        }
    }

    /// The mapped group of a call in synchronization group `sync_group`
    /// with shard key `key`.
    pub fn group_of(&self, sync_group: GroupId, key: Option<u64>) -> usize {
        debug_assert!(sync_group.index() < self.base_groups);
        sync_group.index() * self.shards + self.shard_of(key)
    }

    /// The mapped groups (shards) of synchronization group `sync_group`,
    /// as a contiguous range.
    pub fn shard_range(&self, sync_group: GroupId) -> std::ops::Range<usize> {
        let base = sync_group.index() * self.shards;
        base..base + self.shards
    }

    /// The synchronization group a mapped group belongs to.
    pub fn sync_group_of(&self, mapped: usize) -> GroupId {
        debug_assert!(mapped < self.group_count());
        GroupId(mapped / self.shards)
    }

    /// Default leader assignment over *mapped* groups: shard `g` led by
    /// process `g mod n`. At `shards == 1` this coincides with
    /// [`CoordSpec::default_leaders`]; with more shards it spreads the
    /// shards of every group across the cluster so sharding actually
    /// buys parallel leaders.
    pub fn default_leaders(&self, processes: usize) -> Vec<Pid> {
        assert!(processes > 0, "cluster must be non-empty");
        (0..self.group_count()).map(|g| Pid(g % processes)).collect()
    }
}

/// Builder for [`CoordSpec`].
#[derive(Debug, Clone)]
pub struct CoordSpecBuilder {
    n_methods: usize,
    conflicts: BTreeSet<(usize, usize)>,
    depends: Vec<BTreeSet<usize>>,
    sum_groups: Vec<BTreeSet<usize>>,
}

impl CoordSpecBuilder {
    /// Declare that methods `a` and `b` conflict (symmetric; `a == b`
    /// declares a self-conflict such as withdraw/withdraw).
    ///
    /// # Panics
    ///
    /// Panics if a method index is out of range.
    pub fn conflict(mut self, a: usize, b: usize) -> Self {
        assert!(a < self.n_methods && b < self.n_methods, "method out of range");
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.conflicts.insert((x, y));
        self
    }

    /// Declare that method `dependent` is dependent on method `on`
    /// (`on ∈ Dep(dependent)`).
    ///
    /// # Panics
    ///
    /// Panics if a method index is out of range.
    pub fn depends(mut self, dependent: usize, on: usize) -> Self {
        assert!(dependent < self.n_methods && on < self.n_methods, "method out of range");
        self.depends[dependent].insert(on);
        self
    }

    /// Declare a summarization group: a set of methods whose calls are
    /// closed under summarization.
    ///
    /// # Panics
    ///
    /// Panics if a method index is out of range or already belongs to a
    /// summarization group.
    pub fn summarization_group(mut self, methods: impl IntoIterator<Item = usize>) -> Self {
        let set: BTreeSet<usize> = methods.into_iter().collect();
        for &m in &set {
            assert!(m < self.n_methods, "method out of range");
            assert!(
                !self.sum_groups.iter().any(|g| g.contains(&m)),
                "method already in a summarization group"
            );
        }
        self.sum_groups.push(set);
        self
    }

    /// Finish building, deriving synchronization groups and categories.
    pub fn build(self) -> CoordSpec {
        let n = self.n_methods;
        let mut graph = UndirectedGraph::new(n);
        for &(a, b) in &self.conflicts {
            graph.add_edge(a, b);
        }
        let comps = graph.components_with_edges();
        let mut sync_group_of = vec![None; n];
        let mut sync_groups = Vec::new();
        for (gi, comp) in comps.iter().enumerate() {
            for &m in comp {
                sync_group_of[m] = Some(GroupId(gi));
            }
            sync_groups.push(comp.iter().map(|&m| MethodId(m)).collect());
        }

        let mut sum_group_of = vec![None; n];
        let mut sum_groups = Vec::new();
        for (gi, grp) in self.sum_groups.iter().enumerate() {
            for &m in grp {
                sum_group_of[m] = Some(GroupId(gi));
            }
            sum_groups.push(grp.iter().map(|&m| MethodId(m)).collect());
        }

        let depends: Vec<Vec<MethodId>> = self
            .depends
            .iter()
            .map(|set| set.iter().map(|&m| MethodId(m)).collect())
            .collect();

        let categories = (0..n)
            .map(|m| match sync_group_of[m] {
                Some(g) => MethodCategory::Conflicting { sync_group: g },
                None => match (depends[m].is_empty(), sum_group_of[m]) {
                    (true, Some(g)) => MethodCategory::Reducible { sum_group: g },
                    _ => MethodCategory::IrreducibleFree,
                },
            })
            .collect();

        CoordSpec {
            n_methods: n,
            conflicts: self.conflicts,
            depends,
            sum_group_of,
            sum_groups,
            sync_group_of,
            sync_groups,
            categories,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account_coord() -> CoordSpec {
        // 0 = deposit, 1 = withdraw.
        CoordSpec::builder(2)
            .conflict(1, 1)
            .depends(1, 0)
            .summarization_group([0])
            .build()
    }

    #[test]
    fn account_categories() {
        let c = account_coord();
        assert_eq!(
            c.category(MethodId(0)),
            MethodCategory::Reducible { sum_group: GroupId(0) }
        );
        assert_eq!(
            c.category(MethodId(1)),
            MethodCategory::Conflicting { sync_group: GroupId(0) }
        );
        assert!(c.category(MethodId(0)).is_reducible());
        assert!(!c.category(MethodId(0)).is_conflicting());
        assert!(c.category(MethodId(1)).is_conflicting());
    }

    #[test]
    fn account_relations() {
        let c = account_coord();
        assert!(c.methods_conflict(MethodId(1), MethodId(1)));
        assert!(!c.methods_conflict(MethodId(0), MethodId(1)));
        assert_eq!(c.dependencies(MethodId(1)), &[MethodId(0)]);
        assert!(c.is_dependence_free(MethodId(0)));
        assert!(!c.is_dependence_free(MethodId(1)));
        assert_eq!(c.sync_groups().len(), 1);
        assert_eq!(c.sum_groups(), &[vec![MethodId(0)]]);
    }

    #[test]
    fn dependent_summarizable_method_is_irreducible() {
        // A method that is summarizable but dependent must not be
        // reducible (§2 "Method categories").
        let c = CoordSpec::builder(2)
            .depends(0, 1)
            .summarization_group([0])
            .build();
        assert_eq!(c.category(MethodId(0)), MethodCategory::IrreducibleFree);
        assert_eq!(c.category(MethodId(1)), MethodCategory::IrreducibleFree);
    }

    #[test]
    fn unsummarizable_free_method_is_irreducible() {
        let c = CoordSpec::builder(1).build();
        assert_eq!(c.category(MethodId(0)), MethodCategory::IrreducibleFree);
        assert!(c.category(MethodId(0)).is_irreducible_free());
    }

    #[test]
    fn movie_schema_has_two_sync_groups_and_two_leaders() {
        // 0 = addCustomer, 1 = deleteCustomer, 2 = addMovie, 3 = deleteMovie.
        let c = CoordSpec::builder(4)
            .conflict(0, 1)
            .conflict(1, 1)
            .conflict(2, 3)
            .conflict(3, 3)
            .build();
        assert_eq!(c.sync_groups().len(), 2);
        assert_eq!(c.sync_group(MethodId(0)), Some(GroupId(0)));
        assert_eq!(c.sync_group(MethodId(3)), Some(GroupId(1)));
        let leaders = c.default_leaders(4);
        assert_eq!(leaders, vec![Pid(0), Pid(1)]);
    }

    #[test]
    fn conflict_chain_merges_groups() {
        let c = CoordSpec::builder(3).conflict(0, 1).conflict(1, 2).build();
        assert_eq!(c.sync_groups().len(), 1);
        assert_eq!(c.sync_groups()[0], vec![MethodId(0), MethodId(1), MethodId(2)]);
    }

    #[test]
    #[should_panic(expected = "method already in a summarization group")]
    fn duplicate_sum_group_membership_panics() {
        let _ = CoordSpec::builder(2)
            .summarization_group([0])
            .summarization_group([0, 1]);
    }

    #[test]
    #[should_panic(expected = "method out of range")]
    fn out_of_range_conflict_panics() {
        let _ = CoordSpec::builder(1).conflict(0, 1);
    }

    #[test]
    fn leaders_round_robin() {
        let c = CoordSpec::builder(6)
            .conflict(0, 0)
            .conflict(1, 1)
            .conflict(2, 2)
            .build();
        assert_eq!(c.default_leaders(2), vec![Pid(0), Pid(1), Pid(0)]);
    }

    #[test]
    fn mix64_avalanches_low_entropy_inputs() {
        // Nearby inputs (the session/node counters fed to the seeder)
        // must land far apart; the old affine XOR mix failed this.
        let outs: BTreeSet<u64> = (0..10_000).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn identity_mapper_matches_unsharded_layout() {
        let c = account_coord();
        let m = GroupMapper::identity(&c);
        assert_eq!(m.shards(), 1);
        assert_eq!(m.group_count(), 1);
        for key in [None, Some(0), Some(17), Some(u64::MAX)] {
            assert_eq!(m.group_of(GroupId(0), key), 0);
        }
        assert_eq!(m.default_leaders(4), c.default_leaders(4));
    }

    #[test]
    fn mapper_is_deterministic_and_in_range() {
        let c = account_coord();
        for shards in [1usize, 2, 3, 4, 8, 32] {
            let m = GroupMapper::new(&c, shards);
            assert_eq!(m.group_count(), shards);
            for k in 0..1_000u64 {
                let g = m.group_of(GroupId(0), Some(k));
                assert!(m.shard_range(GroupId(0)).contains(&g));
                // Same key, same shard — every time.
                assert_eq!(g, m.group_of(GroupId(0), Some(k)));
                assert_eq!(m.sync_group_of(g), GroupId(0));
            }
            assert_eq!(m.group_of(GroupId(0), None), 0, "keyless pins to shard 0");
        }
    }

    #[test]
    fn mapper_keeps_sync_groups_disjoint() {
        // Movie-style spec: two sync groups; their shard ranges must
        // never overlap, so per-group elections/quotas stay independent.
        let c = CoordSpec::builder(4)
            .conflict(0, 1)
            .conflict(1, 1)
            .conflict(2, 3)
            .conflict(3, 3)
            .build();
        for shards in [1usize, 4, 7] {
            let m = GroupMapper::new(&c, shards);
            assert_eq!(m.group_count(), 2 * shards);
            let r0 = m.shard_range(GroupId(0));
            let r1 = m.shard_range(GroupId(1));
            assert_eq!(r0.end, r1.start);
            for k in 0..500u64 {
                assert!(r0.contains(&m.group_of(GroupId(0), Some(k))));
                assert!(r1.contains(&m.group_of(GroupId(1), Some(k))));
            }
        }
    }

    #[test]
    fn mapper_spreads_keys_across_shards() {
        let c = account_coord();
        let m = GroupMapper::new(&c, 8);
        let mut hits = vec![0u32; 8];
        for k in 0..4_096u64 {
            hits[m.group_of(GroupId(0), Some(k))] += 1;
        }
        // A full-avalanche hash over 4096 keys should touch every shard
        // with a reasonably even load (expected 512 per shard).
        assert!(hits.iter().all(|&h| h > 256), "uneven shard load: {hits:?}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = GroupMapper::new(&account_coord(), 0);
    }

    #[test]
    fn sharded_default_leaders_round_robin_over_mapped_groups() {
        let c = account_coord();
        let m = GroupMapper::new(&c, 4);
        assert_eq!(m.default_leaders(3), vec![Pid(0), Pid(1), Pid(2), Pid(0)]);
    }
}
