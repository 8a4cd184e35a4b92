//! The abstract operational semantics of well-coordinated replicated
//! data types — Fig. 5 of the paper (rules CALL, PROP, QUERY).
//!
//! The semantic state is `W = ⟨ss, xs⟩`: the replicated state `ss`
//! (a state `σ` per process) and the replicated execution `xs`
//! (a history — a sequence of update calls — per process).
//!
//! The rules enforce the three well-coordination conditions of §2:
//!
//! 1. **local permissibility** — rule CALL checks `𝒫(σ, c)`;
//! 2. **conflict synchronization** — conditions `CallConfSync` /
//!    `PropConfSync` keep every pair of conflicting calls in the same
//!    order across processes;
//! 3. **dependency preservation** — condition `PropDep` applies a call
//!    only after the calls it depends on (and succeeded in its issuing
//!    process) have been applied.
//!
//! The struct [`AbstractWrdt`] is an *executable, checked* version of the
//! semantics: attempting a transition whose side conditions fail returns
//! a [`SemError`] and leaves the state unchanged. The paper's guarantees
//! are exposed as runtime checkers: [`AbstractWrdt::check_integrity`]
//! (Lemma 1) and [`AbstractWrdt::check_convergence`] (Lemma 2).

use std::collections::BTreeSet;

use crate::coord::CoordSpec;
use crate::error::SemError;
use crate::ids::{Pid, Rid};
use crate::object::ObjectSpec;
use crate::trace::{Label, Trace};

/// An update call together with its decorations `u(v)_{p,r}` (Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecoratedCall<U> {
    /// The unique request identifier (which also names the issuer).
    pub rid: Rid,
    /// The call `u(v)`.
    pub update: U,
}

/// The abstract WRDT semantics of Fig. 5, replicated over `n` processes.
///
/// See the [crate-level example](crate) for typical usage.
pub struct AbstractWrdt<'a, O: ObjectSpec> {
    spec: &'a O,
    coord: &'a CoordSpec,
    states: Vec<O::State>,
    histories: Vec<Vec<DecoratedCall<O::Update>>>,
    applied: Vec<BTreeSet<Rid>>,
    next_seq: Vec<u64>,
    trace: Trace<O::Update>,
}

impl<'a, O: ObjectSpec> AbstractWrdt<'a, O> {
    /// The initial configuration `W₀`: every process holds the initial
    /// state `σ₀` and an empty history.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if the coordination spec does not cover the
    /// object's methods, or if `σ₀` violates the invariant.
    pub fn new(spec: &'a O, coord: &'a CoordSpec, n: usize) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        assert_eq!(
            coord.method_count(),
            spec.method_count(),
            "coordination spec must cover all methods"
        );
        let sigma0 = spec.initial();
        assert!(spec.invariant(&sigma0), "initial state must satisfy the invariant");
        AbstractWrdt {
            spec,
            coord,
            states: vec![sigma0; n],
            histories: vec![Vec::new(); n],
            applied: vec![BTreeSet::new(); n],
            next_seq: vec![0; n],
            trace: Vec::new(),
        }
    }

    /// Number of processes `|P|`.
    pub fn processes(&self) -> usize {
        self.states.len()
    }

    /// The current state `ss(p)` of a process.
    pub fn state(&self, p: Pid) -> &O::State {
        &self.states[p.index()]
    }

    /// The execution history `xs(p)` of a process.
    pub fn history(&self, p: Pid) -> &[DecoratedCall<O::Update>] {
        &self.histories[p.index()]
    }

    /// The recorded trace of all transitions so far.
    pub fn trace(&self) -> &Trace<O::Update> {
        &self.trace
    }

    /// Whether the call identified by `rid` has been applied at `p`.
    pub fn has_applied(&self, p: Pid, rid: Rid) -> bool {
        self.applied[p.index()].contains(&rid)
    }

    fn conflict(&self, c1: &DecoratedCall<O::Update>, c2: &DecoratedCall<O::Update>) -> bool {
        self.coord
            .methods_conflict(self.spec.method_of(&c1.update), self.spec.method_of(&c2.update))
    }

    fn depends(&self, c2: &DecoratedCall<O::Update>, c1: &DecoratedCall<O::Update>) -> bool {
        self.coord
            .dependencies(self.spec.method_of(&c2.update))
            .contains(&self.spec.method_of(&c1.update))
    }

    /// Rule CALL: accept and execute the update call `u(v)` at `p`.
    ///
    /// Checks local permissibility `𝒫(σ, c)` and `CallConfSync`: every
    /// call executed anywhere that conflicts with the new call must
    /// already be applied at `p`.
    ///
    /// # Errors
    ///
    /// [`SemError::NotPermissible`] or
    /// [`SemError::ConflictSyncViolation`] when a side condition fails;
    /// the state is unchanged.
    pub fn call(&mut self, p: impl Into<Pid>, update: O::Update) -> Result<Rid, SemError> {
        let p = p.into();
        self.check_pid(p)?;
        let method = self.spec.method_of(&update);
        if !self.spec.permissible(&self.states[p.index()], &update) {
            return Err(SemError::NotPermissible { process: p, method });
        }
        let rid = Rid::new(p, self.next_seq[p.index()]);
        let call = DecoratedCall { rid, update };
        // CallConfSync(xs, p, c).
        for p2 in 0..self.processes() {
            for c2 in &self.histories[p2] {
                if self.conflict(c2, &call) && !self.applied[p.index()].contains(&c2.rid) {
                    return Err(SemError::ConflictSyncViolation { process: p, pending: c2.rid });
                }
            }
        }
        self.next_seq[p.index()] += 1;
        self.states[p.index()] = self.spec.apply(&self.states[p.index()], &call.update);
        self.applied[p.index()].insert(rid);
        self.trace.push(Label::Call { process: p, rid, update: call.update.clone() });
        self.histories[p.index()].push(call);
        Ok(rid)
    }

    /// Rule PROP: propagate the call `rid` from process `from` to
    /// process `p`.
    ///
    /// Checks `PropConfSync` (conflicting predecessors anywhere are
    /// already applied at `p`) and `PropDep` (dependencies preceding the
    /// call in its issuing process are already applied at `p`).
    ///
    /// # Errors
    ///
    /// [`SemError::UnknownCall`] if `from` has not executed `rid`,
    /// [`SemError::AlreadyApplied`], [`SemError::ConflictSyncViolation`],
    /// or [`SemError::DependencyViolation`]; the state is unchanged.
    pub fn propagate(
        &mut self,
        p: impl Into<Pid>,
        from: impl Into<Pid>,
        rid: Rid,
    ) -> Result<(), SemError> {
        let p = p.into();
        let from = from.into();
        self.check_pid(p)?;
        self.check_pid(from)?;
        let call = self.histories[from.index()]
            .iter()
            .find(|c| c.rid == rid)
            .cloned()
            .ok_or(SemError::UnknownCall { process: from, rid })?;
        if self.applied[p.index()].contains(&rid) {
            return Err(SemError::AlreadyApplied { process: p, rid });
        }
        // PropConfSync(xs, p, c): if a conflicting c' precedes c in any
        // process, then c' is already applied at p.
        for p2 in 0..self.processes() {
            if !self.applied[p2].contains(&rid) {
                continue;
            }
            for c2 in &self.histories[p2] {
                if c2.rid == rid {
                    break; // only calls preceding c in xs(p2) constrain
                }
                if self.conflict(c2, &call) && !self.applied[p.index()].contains(&c2.rid) {
                    return Err(SemError::ConflictSyncViolation { process: p, pending: c2.rid });
                }
            }
        }
        // PropDep(xs, p, c): dependencies of c preceding it at its
        // issuing process must be applied at p.
        let issuer = rid.issuer;
        for c2 in &self.histories[issuer.index()] {
            if c2.rid == rid {
                break;
            }
            if self.depends(&call, c2) && !self.applied[p.index()].contains(&c2.rid) {
                return Err(SemError::DependencyViolation { process: p, missing: c2.rid });
            }
        }
        self.states[p.index()] = self.spec.apply(&self.states[p.index()], &call.update);
        self.applied[p.index()].insert(rid);
        self.histories[p.index()].push(call);
        self.trace.push(Label::Prop { process: p, rid });
        Ok(())
    }

    /// Propagate the call `rid` to `p` from any process that has executed
    /// it (used by the refinement replayer, where the source process is
    /// immaterial).
    ///
    /// # Errors
    ///
    /// As [`AbstractWrdt::propagate`]; [`SemError::UnknownCall`] if no
    /// process has executed `rid`.
    pub fn propagate_rid(&mut self, p: impl Into<Pid>, rid: Rid) -> Result<(), SemError> {
        let p = p.into();
        let from = (0..self.processes())
            .map(Pid)
            .find(|q| *q != p && self.applied[q.index()].contains(&rid))
            .ok_or(SemError::UnknownCall { process: p, rid })?;
        self.propagate(p, from, rid)
    }

    /// Rule QUERY: execute a query call at `p` against its current state.
    pub fn query(&mut self, p: impl Into<Pid>, q: &O::Query) -> O::Reply {
        let p = p.into();
        self.trace.push(Label::Query { process: p });
        self.spec.query(&self.states[p.index()], q)
    }

    /// All propagations currently enabled at `p`: calls executed
    /// elsewhere, not yet applied at `p`, whose side conditions hold.
    pub fn enabled_propagations(&self, p: Pid) -> Vec<Rid> {
        let mut rids = BTreeSet::new();
        for p2 in 0..self.processes() {
            if p2 == p.index() {
                continue;
            }
            for c in &self.histories[p2] {
                if !self.applied[p.index()].contains(&c.rid) {
                    rids.insert(c.rid);
                }
            }
        }
        rids.into_iter()
            .filter(|&rid| {
                let mut probe = self.clone_for_probe();
                probe.propagate_rid(p, rid).is_ok()
            })
            .collect()
    }

    fn clone_for_probe(&self) -> AbstractWrdt<'a, O> {
        AbstractWrdt {
            spec: self.spec,
            coord: self.coord,
            states: self.states.clone(),
            histories: self.histories.clone(),
            applied: self.applied.clone(),
            next_seq: self.next_seq.clone(),
            trace: Vec::new(),
        }
    }

    /// Propagate every call everywhere, in dependency-respecting order,
    /// until a fixpoint. Returns the number of propagation steps taken.
    pub fn propagate_all(&mut self) -> usize {
        let mut steps = 0;
        loop {
            let mut progressed = false;
            for p in 0..self.processes() {
                let enabled = self.enabled_propagations(Pid(p));
                for rid in enabled {
                    if self.propagate_rid(Pid(p), rid).is_ok() {
                        steps += 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                return steps;
            }
        }
    }

    /// Lemma 1 (Integrity): the invariant holds at every process.
    pub fn check_integrity(&self) -> bool {
        self.states.iter().all(|s| self.spec.invariant(s))
    }

    /// Lemma 2 (Convergence): processes with equivalent histories
    /// (the same set of calls) have equal states.
    pub fn check_convergence(&self) -> bool {
        for p in 0..self.processes() {
            for q in (p + 1)..self.processes() {
                if self.applied[p] == self.applied[q] && self.states[p] != self.states[q] {
                    return false;
                }
            }
        }
        true
    }

    /// Whether every call has been applied at every process.
    pub fn fully_propagated(&self) -> bool {
        let all: BTreeSet<Rid> = self.applied.iter().flatten().copied().collect();
        self.applied.iter().all(|a| *a == all)
    }

    fn check_pid(&self, p: Pid) -> Result<(), SemError> {
        if p.index() < self.processes() {
            Ok(())
        } else {
            Err(SemError::NoSuchProcess { process: p, cluster: self.processes() })
        }
    }
}

impl<'a, O: ObjectSpec> Clone for AbstractWrdt<'a, O> {
    fn clone(&self) -> Self {
        AbstractWrdt {
            spec: self.spec,
            coord: self.coord,
            states: self.states.clone(),
            histories: self.histories.clone(),
            applied: self.applied.clone(),
            next_seq: self.next_seq.clone(),
            trace: self.trace.clone(),
        }
    }
}

impl<O: ObjectSpec> std::fmt::Debug for AbstractWrdt<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbstractWrdt")
            .field("object", &self.spec.name())
            .field("states", &self.states)
            .field("history_lens", &self.histories.iter().map(Vec::len).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::Account;

    fn setup(_n: usize) -> (Account, CoordSpec) {
        let acc = Account::default();
        let coord = acc.coord_spec();
        (acc, coord)
    }

    #[test]
    fn call_applies_locally() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        let rid = w.call(0, Account::deposit(5)).unwrap();
        assert_eq!(*w.state(Pid(0)), 5);
        assert_eq!(*w.state(Pid(1)), 0);
        assert!(w.has_applied(Pid(0), rid));
        assert!(!w.has_applied(Pid(1), rid));
    }

    #[test]
    fn impermissible_call_rejected() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        let err = w.call(0, Account::withdraw(1)).unwrap_err();
        assert!(matches!(err, SemError::NotPermissible { .. }));
        assert_eq!(*w.state(Pid(0)), 0);
    }

    #[test]
    fn conflicting_calls_must_synchronize() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        // Fund both replicas.
        let d0 = w.call(0, Account::deposit(10)).unwrap();
        w.propagate(1, 0, d0).unwrap();
        // A withdraw at p0...
        w.call(0, Account::withdraw(1)).unwrap();
        // ...blocks a concurrent conflicting withdraw at p1.
        let err = w.call(1, Account::withdraw(1)).unwrap_err();
        assert!(matches!(err, SemError::ConflictSyncViolation { .. }));
    }

    #[test]
    fn propagation_respects_dependencies() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        let d = w.call(0, Account::deposit(10)).unwrap();
        let wd = w.call(0, Account::withdraw(10)).unwrap();
        // withdraw depends on the preceding deposit: cannot overtake it.
        let err = w.propagate(1, 0, wd).unwrap_err();
        assert!(matches!(err, SemError::DependencyViolation { .. }));
        w.propagate(1, 0, d).unwrap();
        w.propagate(1, 0, wd).unwrap();
        assert_eq!(*w.state(Pid(1)), 0);
        assert!(w.check_integrity());
    }

    #[test]
    fn double_propagation_rejected() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        let d = w.call(0, Account::deposit(10)).unwrap();
        w.propagate(1, 0, d).unwrap();
        assert!(matches!(w.propagate(1, 0, d).unwrap_err(), SemError::AlreadyApplied { .. }));
    }

    #[test]
    fn unknown_call_rejected() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        let bogus = Rid::new(Pid(0), 99);
        assert!(matches!(w.propagate(1, 0, bogus).unwrap_err(), SemError::UnknownCall { .. }));
    }

    #[test]
    fn propagate_all_converges() {
        let (acc, coord) = setup(3);
        let mut w = AbstractWrdt::new(&acc, &coord, 3);
        w.call(0, Account::deposit(5)).unwrap();
        w.call(1, Account::deposit(7)).unwrap();
        w.call(2, Account::deposit(11)).unwrap();
        let steps = w.propagate_all();
        assert_eq!(steps, 6);
        assert!(w.fully_propagated());
        assert!(w.check_convergence());
        for p in Pid::all(3) {
            assert_eq!(*w.state(p), 23);
        }
    }

    #[test]
    fn query_reads_local_state() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        w.call(0, Account::deposit(5)).unwrap();
        assert_eq!(w.query(0, &crate::demo::AccountQuery::Balance), 5);
        assert_eq!(w.query(1, &crate::demo::AccountQuery::Balance), 0);
    }

    #[test]
    fn enabled_propagations_excludes_blocked_dependents() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        let d = w.call(0, Account::deposit(10)).unwrap();
        let wd = w.call(0, Account::withdraw(10)).unwrap();
        let enabled = w.enabled_propagations(Pid(1));
        assert!(enabled.contains(&d));
        assert!(!enabled.contains(&wd));
    }

    #[test]
    fn trace_records_labels_in_order() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        let d = w.call(0, Account::deposit(5)).unwrap();
        w.propagate(1, 0, d).unwrap();
        w.query(1, &crate::demo::AccountQuery::Balance);
        assert_eq!(w.trace().len(), 3);
        assert!(matches!(w.trace()[0], Label::Call { process: Pid(0), .. }));
        assert!(matches!(w.trace()[1], Label::Prop { process: Pid(1), .. }));
        assert!(matches!(w.trace()[2], Label::Query { process: Pid(1) }));
    }

    #[test]
    fn out_of_range_process_rejected() {
        let (acc, coord) = setup(2);
        let mut w = AbstractWrdt::new(&acc, &coord, 2);
        assert!(matches!(
            w.call(5, Account::deposit(1)).unwrap_err(),
            SemError::NoSuchProcess { .. }
        ));
    }
}
