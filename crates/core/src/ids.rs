//! Identifier newtypes shared across the model: processes, requests,
//! methods, and groups.
//!
//! These correspond to the basic syntax of Fig. 3 in the paper: a process
//! `p : P`, a request identifier `r : R`, an update method `u : U`, and —
//! for the concrete semantics of Fig. 7 — a method group `g : G`.

use std::fmt;

/// A replica process identifier (`p : P` in the paper).
///
/// Processes are numbered densely from `0` to `|P| - 1`.
///
/// ```
/// use hamband_core::ids::Pid;
/// let p = Pid(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "p2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub usize);

impl Pid {
    /// The dense index of this process, usable for `Vec` indexing.
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterate over all process identifiers of a cluster of size `n`.
    ///
    /// ```
    /// use hamband_core::ids::Pid;
    /// let all: Vec<Pid> = Pid::all(3).collect();
    /// assert_eq!(all, vec![Pid(0), Pid(1), Pid(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = Pid> {
        (0..n).map(Pid)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for Pid {
    fn from(i: usize) -> Self {
        Pid(i)
    }
}

/// A globally unique request identifier (`r : R` in the paper).
///
/// Uniqueness is achieved by pairing the issuing process with a local
/// sequence number, so replicas can mint identifiers without
/// coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    /// The process that issued the request.
    pub issuer: Pid,
    /// The issuer-local sequence number.
    pub seq: u64,
}

impl Rid {
    /// Create a request identifier for the `seq`-th request of `issuer`.
    pub fn new(issuer: Pid, seq: u64) -> Self {
        Rid { issuer, seq }
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.issuer, self.seq)
    }
}

/// An update-method identifier (`u : U` in the paper).
///
/// Methods of an object are numbered densely in the order returned by
/// [`crate::object::ObjectSpec::method_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MethodId(pub usize);

impl MethodId {
    /// The dense index of this method.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<usize> for MethodId {
    fn from(i: usize) -> Self {
        MethodId(i)
    }
}

/// A method-group identifier (`g : G` in Fig. 6).
///
/// Identifies either a *synchronization group* (a connected component of
/// the conflict graph) or a *summarization group*, depending on context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub usize);

impl GroupId {
    /// The dense index of this group.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<usize> for GroupId {
    fn from(i: usize) -> Self {
        GroupId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_roundtrip_and_display() {
        let p: Pid = 4.into();
        assert_eq!(p.index(), 4);
        assert_eq!(format!("{p}"), "p4");
    }

    #[test]
    fn pid_all_enumerates_cluster() {
        assert_eq!(Pid::all(0).count(), 0);
        assert_eq!(Pid::all(5).count(), 5);
        assert_eq!(Pid::all(2).collect::<Vec<_>>(), vec![Pid(0), Pid(1)]);
    }

    #[test]
    fn rid_uniqueness_by_pair() {
        let a = Rid::new(Pid(0), 1);
        let b = Rid::new(Pid(1), 1);
        let c = Rid::new(Pid(0), 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Rid::new(Pid(0), 1));
        assert_eq!(format!("{a}"), "p0#1");
    }

    #[test]
    fn rid_orders_by_issuer_then_seq() {
        let mut v = vec![Rid::new(Pid(1), 0), Rid::new(Pid(0), 9), Rid::new(Pid(0), 1)];
        v.sort();
        assert_eq!(v, vec![Rid::new(Pid(0), 1), Rid::new(Pid(0), 9), Rid::new(Pid(1), 0)]);
    }

    #[test]
    fn method_and_group_display() {
        assert_eq!(MethodId(3).to_string(), "u3");
        assert_eq!(GroupId(0).to_string(), "g0");
        assert_eq!(MethodId::from(7).index(), 7);
        assert_eq!(GroupId::from(7).index(), 7);
    }
}
