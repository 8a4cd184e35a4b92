//! Set helpers shared by the types: the union behind the grow-only
//! batch calls (`OpenAccounts`, `RegisterStudents`, `AddEmployees`,
//! `AddAll`) and the generators' pick of one element.
//!
//! A grow-only summary reaches a replica as a log of deltas (the calls
//! its source folded in between two flushes) and, after a compaction,
//! once whole on top of a state that already holds all but its newest
//! elements. So a batch is either a few elements spread over a large
//! set or most of the set, and [`insert_missing`] prices the two apart.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;

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
    let mut present = set.range(lo..=hi).copied().peekable();
    let missing: Vec<u64> = items
        .iter()
        .copied()
        .filter(|&item| {
            while present.next_if(|&p| p < item).is_some() {}
            present.peek() != Some(&item)
        })
        .collect();
    set.extend(missing);
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

/// A uniformly drawn element of `set` (one `gen_range(0..len)` draw),
/// reached through the iterator instead of copying the set out; `None`,
/// and no draw, when the set is empty.
pub(crate) fn pick(set: &BTreeSet<u64>, rng: &mut StdRng) -> Option<u64> {
    if set.is_empty() {
        return None;
    }
    set.iter().nth(rng.gen_range(0..set.len())).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn insert_missing_equals_extend() {
        for &(have, add) in CASES {
            let mut merged: BTreeSet<u64> = have.iter().copied().collect();
            let mut extended = merged.clone();
            insert_missing(&mut merged, add);
            extended.extend(add.iter().copied());
            assert_eq!(merged, extended, "{have:?} ∪ {add:?}");
        }
    }

    #[test]
    fn a_sparse_delta_into_a_large_set_equals_extend() {
        let have: BTreeSet<u64> = (0..1_000).map(|i| i * 3).collect();
        for add in [&[7u64, 1_500, 2_998, 5_000][..], &[3, 4], &[], &[2_999]] {
            let mut merged = have.clone();
            let mut extended = have.clone();
            insert_missing(&mut merged, add);
            extended.extend(add.iter().copied());
            assert_eq!(merged, extended, "{add:?}");
        }
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
}
