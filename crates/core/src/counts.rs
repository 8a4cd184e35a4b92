//! Applied-call and dependency count maps.
//!
//! Fig. 6 of the paper defines the *applied calls* map
//! `A : P → U → Nat` (how many calls on each update method from each
//! process have been applied locally) and the *dependency* map
//! `D : P → U → Nat` that accompanies a propagated call. A call may be
//! applied at a process only once the local applied map is pointwise
//! ahead of the call's dependency map (`D ≤ A`).
//!
//! Both are represented as a dense matrix of counters indexed by process
//! and method, exactly matching the runtime representation described in
//! §4 of the paper ("an integer array that is indexed by method
//! identifiers" per node). A [`DepMap`] is a *sparse projection* of a
//! [`CountMap`] over the methods a call depends on.

use std::fmt;

use crate::ids::{MethodId, Pid};

/// The applied-calls map `A : P → U → Nat` of Fig. 6.
///
/// ```
/// use hamband_core::counts::CountMap;
/// use hamband_core::ids::{MethodId, Pid};
///
/// let mut a = CountMap::new(2, 3);
/// a.increment(Pid(1), MethodId(2));
/// assert_eq!(a.get(Pid(1), MethodId(2)), 1);
/// assert_eq!(a.get(Pid(0), MethodId(0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CountMap {
    processes: usize,
    methods: usize,
    counts: Vec<u64>,
}

impl CountMap {
    /// An all-zero map for a cluster of `processes` replicas of an object
    /// with `methods` update methods.
    pub fn new(processes: usize, methods: usize) -> Self {
        CountMap { processes, methods, counts: vec![0; processes * methods] }
    }

    /// Number of processes this map covers.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// Number of update methods this map covers.
    pub fn methods(&self) -> usize {
        self.methods
    }

    fn idx(&self, p: Pid, u: MethodId) -> usize {
        debug_assert!(p.index() < self.processes && u.index() < self.methods);
        p.index() * self.methods + u.index()
    }

    /// The count `A(p, u)`.
    pub fn get(&self, p: Pid, u: MethodId) -> u64 {
        self.counts[self.idx(p, u)]
    }

    /// Set `A(p, u)` to `n`, returning the previous value.
    pub fn set(&mut self, p: Pid, u: MethodId, n: u64) -> u64 {
        let i = self.idx(p, u);
        std::mem::replace(&mut self.counts[i], n)
    }

    /// Advance `A(p, u)` by one, returning the new value.
    pub fn increment(&mut self, p: Pid, u: MethodId) -> u64 {
        let i = self.idx(p, u);
        self.counts[i] += 1;
        self.counts[i]
    }

    /// The projection `A | {ū}` of this map over the methods `deps`,
    /// used by rules FREE and CONF to ship a call's dependencies.
    pub fn project(&self, deps: &[MethodId]) -> DepMap {
        let mut entries = Vec::new();
        for p in 0..self.processes {
            for &u in deps {
                let n = self.get(Pid(p), u);
                if n > 0 {
                    entries.push((Pid(p), u, n));
                }
            }
        }
        DepMap { entries }
    }

    /// Whether the dependency map `d` is satisfied: `d ≤ self` pointwise.
    pub fn satisfies(&self, d: &DepMap) -> bool {
        d.entries.iter().all(|&(p, u, n)| self.get(p, u) >= n)
    }

    /// The first unsatisfied entry of `d`, if any (for diagnostics).
    pub fn first_unsatisfied(&self, d: &DepMap) -> Option<(Pid, MethodId, u64)> {
        d.entries.iter().copied().find(|&(p, u, n)| self.get(p, u) < n)
    }

    /// Pointwise `≤` against another full map.
    pub fn le(&self, other: &CountMap) -> bool {
        debug_assert_eq!(self.processes, other.processes);
        debug_assert_eq!(self.methods, other.methods);
        self.counts.iter().zip(&other.counts).all(|(a, b)| a <= b)
    }

    /// Total number of applied calls recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl fmt::Display for CountMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A[")?;
        for p in 0..self.processes {
            if p > 0 {
                write!(f, "; ")?;
            }
            write!(f, "p{p}:")?;
            for u in 0..self.methods {
                if u > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.get(Pid(p), MethodId(u)))?;
            }
        }
        write!(f, "]")
    }
}

/// The dependency map `D : P → U → Nat` of Fig. 6, shipped with a call.
///
/// Stored sparsely: only non-zero entries over the methods the call's
/// method depends on. §4 of the paper notes the runtime equivalent is a
/// variable-sized array per call, sized by the method's dependency set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DepMap {
    entries: Vec<(Pid, MethodId, u64)>,
}

impl DepMap {
    /// The empty dependency map (for dependence-free calls).
    pub fn empty() -> Self {
        DepMap::default()
    }

    /// Build a dependency map from explicit entries.
    ///
    /// Zero-count entries are dropped since they are trivially satisfied.
    pub fn from_entries(entries: impl IntoIterator<Item = (Pid, MethodId, u64)>) -> Self {
        DepMap { entries: entries.into_iter().filter(|&(_, _, n)| n > 0).collect() }
    }

    /// Whether the map has no constraints.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over the non-zero entries `(p, u, D(p, u))`.
    pub fn iter(&self) -> impl Iterator<Item = (Pid, MethodId, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of non-zero entries (the shipped array length).
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

impl fmt::Display for DepMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{{")?;
        for (i, (p, u, n)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}.{u}≥{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_zero() {
        let a = CountMap::new(3, 2);
        for p in Pid::all(3) {
            for u in 0..2 {
                assert_eq!(a.get(p, MethodId(u)), 0);
            }
        }
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn increment_and_set() {
        let mut a = CountMap::new(2, 2);
        assert_eq!(a.increment(Pid(0), MethodId(1)), 1);
        assert_eq!(a.increment(Pid(0), MethodId(1)), 2);
        assert_eq!(a.set(Pid(0), MethodId(1), 10), 2);
        assert_eq!(a.get(Pid(0), MethodId(1)), 10);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn projection_keeps_only_dependency_methods() {
        let mut a = CountMap::new(2, 3);
        a.set(Pid(0), MethodId(0), 5);
        a.set(Pid(0), MethodId(1), 7);
        a.set(Pid(1), MethodId(2), 2);
        let d = a.project(&[MethodId(1), MethodId(2)]);
        let entries: Vec<_> = d.iter().collect();
        assert_eq!(entries, vec![(Pid(0), MethodId(1), 7), (Pid(1), MethodId(2), 2)]);
    }

    #[test]
    fn satisfies_is_pointwise() {
        let mut a = CountMap::new(2, 2);
        a.set(Pid(0), MethodId(0), 3);
        let ok = DepMap::from_entries([(Pid(0), MethodId(0), 3)]);
        let too_high = DepMap::from_entries([(Pid(0), MethodId(0), 4)]);
        let elsewhere = DepMap::from_entries([(Pid(1), MethodId(1), 1)]);
        assert!(a.satisfies(&ok));
        assert!(!a.satisfies(&too_high));
        assert!(!a.satisfies(&elsewhere));
        assert!(a.satisfies(&DepMap::empty()));
        assert_eq!(a.first_unsatisfied(&too_high), Some((Pid(0), MethodId(0), 4)));
        assert_eq!(a.first_unsatisfied(&ok), None);
    }

    #[test]
    fn zero_entries_are_dropped() {
        let d = DepMap::from_entries([(Pid(0), MethodId(0), 0), (Pid(1), MethodId(0), 1)]);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        assert!(DepMap::empty().is_empty());
    }

    #[test]
    fn le_compares_whole_maps() {
        let mut a = CountMap::new(2, 2);
        let mut b = CountMap::new(2, 2);
        a.set(Pid(0), MethodId(0), 1);
        b.set(Pid(0), MethodId(0), 2);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(a.le(&a));
    }

    #[test]
    fn display_formats() {
        let mut a = CountMap::new(2, 2);
        a.set(Pid(1), MethodId(0), 4);
        assert_eq!(a.to_string(), "A[p0:0,0; p1:4,0]");
        let d = DepMap::from_entries([(Pid(1), MethodId(0), 4)]);
        assert_eq!(d.to_string(), "D{p1.u0≥4}");
    }
}
