//! Set helpers shared by the types: [`RankSet`], the ordered `u64` set
//! with rank select, the union behind the grow-only batch calls
//! (`OpenAccounts`, `RegisterStudents`, `AddEmployees`, `AddAll`), the
//! generators' pick of one element, and the cascade that drops one key
//! of a pair relation.
//!
//! A generator draws the k-th smallest element of a set that grows with
//! the run (Courseware's students take one per `register_students`
//! call), so every set a generator picks from (Courseware, Movie,
//! Project) is a [`RankSet`], which answers [`RankSet::nth`] in
//! O(log n): sorted blocks of at most 512 elements, plus a Fenwick tree
//! over the blocks' lengths. Walking a `BTreeSet` to the k-th element
//! instead made host time per simulated call grow with the run's
//! length. GSet and Bank never pick, and keep `BTreeSet`s.
//!
//! A grow-only summary reaches a replica as a log of deltas (the calls
//! its source folded in between two flushes) and, after a compaction,
//! once whole on top of a state that already holds all but its newest
//! elements. So a batch is either a few elements spread over a large
//! set or most of the set, and [`insert_missing`] (and
//! [`RankSet::insert_missing`] alike) prices the two apart.

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

/// Most elements a block holds; a block that grows past it splits in
/// halves, and one that shrinks under a quarter of it joins a neighbour
/// when the two fit in one.
const BLOCK: usize = 512;

/// An ordered set of `u64` with rank select: [`nth`](RankSet::nth)
/// costs O(log n), as do [`insert`](RankSet::insert),
/// [`remove`](RankSet::remove) and [`contains`](RankSet::contains)
/// (amortised over block splits and joins).
///
/// Two sets are equal when they hold the same elements, however their
/// blocks fell: replicas that applied the same calls in different
/// orders compare equal, and `Debug` prints the elements alone, like a
/// `BTreeSet`.
#[derive(Clone, Default)]
pub struct RankSet {
    /// Sorted, non-empty, at most `BLOCK` long, and every element of a
    /// block below every element of the next.
    blocks: Vec<Vec<u64>>,
    /// Fenwick tree over the blocks' lengths, 1-based (`tree[0]` is
    /// unused).
    tree: Vec<usize>,
    len: usize,
}

impl RankSet {
    /// An empty set.
    pub fn new() -> Self {
        RankSet::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = &u64> + '_ {
        self.blocks.iter().flatten()
    }

    /// Whether `x` is an element.
    pub fn contains(&self, x: &u64) -> bool {
        self.blocks.get(self.block_for(*x)).is_some_and(|b| b.binary_search(x).is_ok())
    }

    /// The `k`-th smallest element (0-based), `None` when `k >= len`.
    pub fn nth(&self, k: usize) -> Option<u64> {
        if k >= self.len {
            return None;
        }
        // Fenwick descent: the largest prefix of blocks holding at most
        // `k` elements; the element is at offset `rest` of the next.
        let (mut block, mut rest) = (0, k);
        let mut step = self.blocks.len().next_power_of_two();
        while step > 0 {
            let next = block + step;
            if next <= self.blocks.len() && self.tree[next] <= rest {
                block = next;
                rest -= self.tree[next];
            }
            step /= 2;
        }
        Some(self.blocks[block][rest])
    }

    /// Add `x`; whether it was absent.
    pub fn insert(&mut self, x: u64) -> bool {
        if self.blocks.is_empty() {
            self.blocks.push(vec![x]);
            self.len = 1;
            self.reindex();
            return true;
        }
        let at = self.block_for(x).min(self.blocks.len() - 1);
        let block = &mut self.blocks[at];
        let Err(pos) = block.binary_search(&x) else { return false };
        block.insert(pos, x);
        self.len += 1;
        if block.len() > BLOCK {
            let upper = block.split_off(block.len() / 2);
            self.blocks.insert(at + 1, upper);
            self.reindex();
        } else {
            self.adjust(at, 1);
        }
        true
    }

    /// Drop `x`; whether it was present.
    pub fn remove(&mut self, x: &u64) -> bool {
        let at = self.block_for(*x);
        let Some(block) = self.blocks.get_mut(at) else { return false };
        let Ok(pos) = block.binary_search(x) else { return false };
        block.remove(pos);
        self.len -= 1;
        let short = block.len();
        if short == 0 {
            self.blocks.remove(at);
            self.reindex();
        } else if short < BLOCK / 4 {
            self.join_neighbour(at);
        } else {
            self.adjust(at, -1);
        }
        true
    }

    /// `self ∪= items`, touching the blocks only for the elements they
    /// lack. A batch under an eighth of the set (a delta), or an
    /// unsorted one, is inserted one element at a time; a larger sorted
    /// one (a compaction's whole summary) is checked against one
    /// in-order walk over the blocks between its first and last
    /// element, and only the missing elements are then inserted.
    pub fn insert_missing(&mut self, items: &[u64]) {
        if items.len() < self.len / 8 || !items.is_sorted() {
            self.extend(items.iter().copied());
            return;
        }
        let (Some(&lo), Some(&hi)) = (items.first(), items.last()) else { return };
        let (first, end) = (self.block_for(lo), self.blocks.partition_point(|b| b[0] <= hi));
        let missing = missing(self.blocks[first..end].iter().flatten(), items);
        self.extend(missing);
    }

    /// The block `x` belongs in: the first whose last element is not
    /// below `x` (`blocks.len()` when `x` is above them all).
    fn block_for(&self, x: u64) -> usize {
        self.blocks.partition_point(|b| b[b.len() - 1] < x)
    }

    /// Fold block `at`, now short, into a neighbour when the two fit in
    /// one block.
    fn join_neighbour(&mut self, at: usize) {
        let fits = |i: usize| self.blocks[i].len() + self.blocks[i + 1].len() <= BLOCK;
        let pair = if at + 1 < self.blocks.len() && fits(at) {
            at
        } else if at > 0 && fits(at - 1) {
            at - 1
        } else {
            self.adjust(at, -1);
            return;
        };
        let upper = self.blocks.remove(pair + 1);
        self.blocks[pair].extend(upper);
        self.reindex();
    }

    /// Block `at` gained or lost `delta` elements.
    fn adjust(&mut self, at: usize, delta: isize) {
        let mut i = at + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Rebuild the Fenwick tree after the blocks were split, joined,
    /// dropped or replaced: O(blocks).
    fn reindex(&mut self) {
        let n = self.blocks.len();
        self.tree.clear();
        self.tree.resize(n + 1, 0);
        for i in 1..=n {
            self.tree[i] += self.blocks[i - 1].len();
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

impl PartialEq for RankSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for RankSet {}

impl fmt::Debug for RankSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl IntoIterator for RankSet {
    type Item = u64;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<u64>>>;

    /// The elements in increasing order.
    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().flatten()
    }
}

impl Extend<u64> for RankSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, items: I) {
        for x in items {
            self.insert(x);
        }
    }
}

impl FromIterator<u64> for RankSet {
    /// Sorts once and cuts half-full blocks, so later inserts split
    /// none for a while.
    fn from_iter<I: IntoIterator<Item = u64>>(items: I) -> Self {
        let mut sorted: Vec<u64> = items.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut set = RankSet {
            len: sorted.len(),
            blocks: sorted.chunks(BLOCK / 2).map(<[u64]>::to_vec).collect(),
            tree: Vec::new(),
        };
        set.reindex();
        set
    }
}

/// `set ∪= items`, touching the tree only for the elements it lacks.
///
/// A batch under an eighth of the set (a delta) is inserted one element
/// at a time, a lookup each. A larger sorted one (what [`sorted_union`]
/// produces, such as a compaction's whole summary) is checked against
/// one in-order walk over the part of `set` between its first and last
/// element, and only the missing elements are then inserted; a walk
/// that per-element lookups would beat, were the batch sparse. Unsorted
/// `items` are inserted one by one.
pub(crate) fn insert_missing(set: &mut BTreeSet<u64>, items: &[u64]) {
    if items.len() < set.len() / 8 || !items.is_sorted() {
        set.extend(items.iter().copied());
        return;
    }
    let (Some(&lo), Some(&hi)) = (items.first(), items.last()) else { return };
    let missing = missing(set.range(lo..=hi), items);
    set.extend(missing);
}

/// The elements of the sorted `items` that the in-order walk `present`
/// does not meet.
fn missing<'a>(present: impl Iterator<Item = &'a u64>, items: &[u64]) -> Vec<u64> {
    let mut present = present.copied().peekable();
    items
        .iter()
        .copied()
        .filter(|&item| {
            while present.next_if(|&p| p < item).is_some() {}
            present.peek() != Some(&item)
        })
        .collect()
}

/// The union of two batches as a sorted, duplicate-free vector: a merge
/// when both are already that (summaries always are), a sort otherwise.
pub(crate) fn sorted_union(a: &[u64], b: &[u64]) -> Vec<u64> {
    let strictly_sorted = |s: &[u64]| s.windows(2).all(|w| w[0] < w[1]);
    let mut out = Vec::with_capacity(a.len() + b.len());
    if !(strictly_sorted(a) && strictly_sorted(b)) {
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        out.sort_unstable();
        out.dedup();
        return out;
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A uniformly drawn element of `set`: the k-th smallest for one
/// `gen_range(0..len)` draw; `None`, and no draw, when the set is
/// empty.
pub(crate) fn pick(set: &RankSet, rng: &mut StdRng) -> Option<u64> {
    if set.is_empty() {
        return None;
    }
    set.nth(rng.gen_range(0..set.len()))
}

/// Drop every pair of `relation` whose first component is `key`: one
/// range, since the relation is ordered by that component first.
pub(crate) fn remove_key(relation: &mut BTreeSet<(u64, u64)>, key: u64) {
    relation.extract_if((key, 0)..=(key, u64::MAX), |_| true).for_each(drop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    const CASES: &[(&[u64], &[u64])] = &[
        (&[], &[]),
        (&[], &[3, 1, 2]),
        (&[1, 2, 3], &[]),
        (&[1, 2, 3], &[4]),
        (&[1, 2, 3], &[0]),
        (&[1, 5, 9], &[2, 5, 7, 9, 11]),
        (&[1, 5, 9], &[5]),
        (&[1, 5, 9], &[1, 5, 9]),
        (&[1, 5, 9], &[9, 1, 5, 4]),
        (&[1, 5, 9], &[4, 4, 6, 6]),
        (&[1, 5, 9], &[7, 7, 3]),
        (&[10, 20, 30, 40], &[15, 20, 25, 30, 35]),
        (&[10, 20, 30, 40], &[50, 60]),
        (&[3, 1, 2], &[2, 3, 4]),
    ];

    /// Every element, its rank and its absence in between, against the
    /// reference.
    fn assert_agrees(set: &RankSet, reference: &BTreeSet<u64>) {
        assert_eq!(set.len(), reference.len());
        assert!(set.iter().eq(reference.iter()));
        for (k, &x) in reference.iter().enumerate() {
            assert_eq!(set.nth(k), Some(x), "rank {k}");
            assert!(set.contains(&x));
            assert!(!set.contains(&(x + 1)) || reference.contains(&(x + 1)));
        }
        assert_eq!(set.nth(reference.len()), None);
        assert_eq!(set, &reference.iter().copied().collect::<RankSet>());
    }

    #[test]
    fn insert_missing_equals_extend() {
        for &(have, add) in CASES {
            let mut ranked: RankSet = have.iter().copied().collect();
            let mut merged: BTreeSet<u64> = have.iter().copied().collect();
            let mut extended = merged.clone();
            ranked.insert_missing(add);
            insert_missing(&mut merged, add);
            extended.extend(add.iter().copied());
            assert_eq!(merged, extended, "{have:?} ∪ {add:?}");
            assert_agrees(&ranked, &extended);
        }
    }

    #[test]
    fn a_sparse_delta_into_a_large_set_equals_extend() {
        let have: BTreeSet<u64> = (0..1_000).map(|i| i * 3).collect();
        for add in [&[7u64, 1_500, 2_998, 5_000][..], &[3, 4], &[], &[2_999]] {
            let mut ranked: RankSet = have.iter().copied().collect();
            let mut merged = have.clone();
            let mut extended = have.clone();
            ranked.insert_missing(add);
            insert_missing(&mut merged, add);
            extended.extend(add.iter().copied());
            assert_eq!(merged, extended);
            assert_agrees(&ranked, &extended);
        }
    }

    /// A compaction's batch spans many blocks: the walk finds what is
    /// missing across them, and a batch already held moves nothing.
    #[test]
    fn a_large_sorted_batch_walks_many_blocks() {
        let mut reference: BTreeSet<u64> = (0..5_000).map(|i| i * 2).collect();
        let mut set: RankSet = reference.iter().copied().collect();
        let held: Vec<u64> = (1_000..3_000).map(|i| i * 2).collect();
        let blocks = set.blocks.clone();
        set.insert_missing(&held);
        assert_eq!(set.blocks, blocks, "a batch already held rebuilt blocks");
        let batch: Vec<u64> = (2_000..4_000).collect();
        set.insert_missing(&batch);
        reference.extend(batch);
        assert_agrees(&set, &reference);
        assert!(set.blocks.iter().all(|b| !b.is_empty() && b.len() <= BLOCK));
    }

    #[test]
    fn sorted_union_equals_the_set_union() {
        for &(a, b) in CASES {
            let reference: BTreeSet<u64> = a.iter().chain(b).copied().collect();
            let expected: Vec<u64> = reference.into_iter().collect();
            assert_eq!(sorted_union(a, b), expected, "{a:?} ∪ {b:?}");
            assert_eq!(sorted_union(b, a), expected, "{b:?} ∪ {a:?}");
        }
    }

    /// The walk `pick` replaced: the k-th element of a `BTreeSet` for
    /// the same single draw.
    fn walking_pick(set: &BTreeSet<u64>, rng: &mut StdRng) -> Option<u64> {
        if set.is_empty() {
            return None;
        }
        set.iter().nth(rng.gen_range(0..set.len())).copied()
    }

    #[test]
    fn pick_draws_what_the_walk_drew() {
        let mut rng = StdRng::seed_from_u64(0x5e7);
        let mut reference = BTreeSet::new();
        let mut set = RankSet::new();
        for size in 0..4 * BLOCK + 3 {
            for _ in 0..3 {
                let mut walked = rng.clone();
                assert_eq!(
                    pick(&set, &mut rng),
                    walking_pick(&reference, &mut walked),
                    "size {size}"
                );
                assert_eq!(rng.next_u64(), walked.next_u64(), "draws diverged at size {size}");
            }
            let x = rng.gen_range(0..1_000_000);
            reference.insert(x);
            set.insert(x);
        }
    }

    #[test]
    fn sets_built_in_different_orders_are_equal() {
        let items: Vec<u64> = (0..3 * BLOCK as u64).map(|i| i * 7 % 1_531).collect();
        let forward: RankSet = items.iter().copied().collect();
        let mut backward = RankSet::new();
        backward.extend(items.iter().rev().copied());
        let mut interleaved = RankSet::new();
        interleaved.extend(items.iter().step_by(2).copied());
        interleaved.insert_missing(&sorted_union(&[], &items));
        assert_ne!(forward.blocks, backward.blocks, "the layouts should differ");
        assert_eq!(forward, backward);
        assert_eq!(forward, interleaved);
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        backward.remove(&items[0]);
        assert_ne!(forward, backward);
    }

    #[test]
    fn remove_key_drops_exactly_one_key() {
        let mut relation: BTreeSet<(u64, u64)> =
            [(0, 9), (1, 0), (1, 5), (1, u64::MAX), (2, 0), (u64::MAX, 1)].into();
        let mut retained = relation.clone();
        for key in [1, 3, u64::MAX] {
            remove_key(&mut relation, key);
            retained.retain(|&(k, _)| k != key);
            assert_eq!(relation, retained, "key {key}");
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        Remove(u64),
        /// Remove a run of 300 ids, emptying or shortening blocks.
        Drain(u64),
        Batch(Vec<u64>),
    }

    fn op() -> impl Strategy<Value = Op> {
        // A narrow id range makes removes hit and batches overlap;
        // inserts come twice as often as each other kind.
        prop_oneof![
            (0..4_000u64).prop_map(Op::Insert),
            (0..4_000u64).prop_map(Op::Insert),
            (0..4_000u64).prop_map(Op::Remove),
            (0..4_000u64).prop_map(Op::Drain),
            proptest::collection::vec(0..4_000u64, 0..600).prop_map(|mut v| {
                v.sort_unstable();
                Op::Batch(v)
            }),
        ]
    }

    #[test]
    fn blocks_split_and_join() {
        let mut set: RankSet = (0..3 * BLOCK as u64).collect();
        let cut = set.blocks.len();
        set.extend(3 * BLOCK as u64..6 * BLOCK as u64);
        assert!(set.blocks.len() > cut, "no block split");
        let grown = set.blocks.len();
        for x in 0..5 * BLOCK as u64 {
            set.remove(&x);
        }
        assert!(set.blocks.len() < grown / 2, "{} blocks left of {grown}", set.blocks.len());
        let reference: BTreeSet<u64> = (5 * BLOCK as u64..6 * BLOCK as u64).collect();
        assert_agrees(&set, &reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Long enough runs that blocks split, join and empty.
        #[test]
        fn agrees_with_a_btreeset(ops in proptest::collection::vec(op(), 0..1_500)) {
            let mut set = RankSet::new();
            let mut reference = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(x) => prop_assert_eq!(set.insert(x), reference.insert(x)),
                    Op::Remove(x) => prop_assert_eq!(set.remove(&x), reference.remove(&x)),
                    Op::Drain(start) => {
                        for x in start..start + 300 {
                            prop_assert_eq!(set.remove(&x), reference.remove(&x));
                        }
                    }
                    Op::Batch(items) => {
                        set.insert_missing(&items);
                        reference.extend(items);
                    }
                }
                prop_assert_eq!(set.len(), reference.len());
            }
            assert_agrees(&set, &reference);
            prop_assert!(set.blocks.iter().all(|b| !b.is_empty() && b.len() <= BLOCK));
        }
    }
}
