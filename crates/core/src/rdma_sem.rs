//! The concrete operational semantics of RDMA WRDTs — Fig. 6/7 of the
//! paper (rules REDUCE, FREE, CONF, FREE-APP, CONF-APP, QUERY).
//!
//! A configuration `K` maps each process to a tuple ⟨σ, A, S, F, L⟩:
//!
//! * `σ` — the stored state (result of applying conflicting and
//!   irreducible conflict-free calls);
//! * `A` — the applied-calls count map ([`CountMap`]);
//! * `S` — the summarized call per (summarization group, process);
//! * `F` — a buffer of irreducible conflict-free calls per source
//!   process, each entry shipped with its dependency map `D`;
//! * `L` — a buffer of conflicting calls per synchronization group.
//!
//! Remote writes are modelled exactly as in Fig. 7: a REDUCE step
//! updates the summary slot at *every* process in one transition
//! (the batch of independent one-sided writes), and FREE/CONF steps
//! append to the buffers of every other process. The buffered calls are
//! applied later, by the *internal* transitions FREE-APP and CONF-APP,
//! which model the periodic local buffer traversals of §4.
//!
//! Every transition records a [`Label`], so a complete run yields a
//! trace that [`crate::refinement`] replays against the abstract
//! semantics — the executable counterpart of Lemma 3.

use std::collections::VecDeque;

use crate::coord::{CoordSpec, MethodCategory};
use crate::counts::{CountMap, DepMap};
use crate::error::SemError;
use crate::ids::{GroupId, Pid, Rid};
use crate::object::ObjectSpec;
use crate::trace::{Label, Trace};

/// A buffered call: the call, its identifier, and the dependency map it
/// was shipped with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferedCall<U> {
    /// The unique request identifier.
    pub rid: Rid,
    /// The call `u(v)`.
    pub update: U,
    /// The dependency map `D` shipped alongside (rule FREE/CONF).
    pub deps: DepMap,
}

/// Per-process component of the configuration `K` (Fig. 6).
#[derive(Debug)]
struct ProcState<O: ObjectSpec> {
    /// The stored state `σ`.
    sigma: O::State,
    /// The applied calls `A`.
    applied: CountMap,
    /// The summarized calls `S : G → P → C` (`None` = no calls yet).
    summaries: Vec<Vec<Option<O::Update>>>,
    /// The conflict-free buffers `F : P → List (C × D)`.
    free_bufs: Vec<VecDeque<BufferedCall<O::Update>>>,
    /// The conflicting buffers `L : G → List (C × D)`.
    conf_bufs: Vec<VecDeque<BufferedCall<O::Update>>>,
}

impl<O: ObjectSpec> Clone for ProcState<O> {
    fn clone(&self) -> Self {
        ProcState {
            sigma: self.sigma.clone(),
            applied: self.applied.clone(),
            summaries: self.summaries.clone(),
            free_bufs: self.free_bufs.clone(),
            conf_bufs: self.conf_bufs.clone(),
        }
    }
}

/// The executable RDMA WRDT semantics of Fig. 7.
///
/// ```
/// use hamband_core::demo::{Account, AccountQuery};
/// use hamband_core::rdma_sem::RdmaWrdt;
/// use hamband_core::ids::Pid;
///
/// let acc = Account::default();
/// let coord = acc.coord_spec();
/// let mut k = RdmaWrdt::new(&acc, &coord, 3);
/// // deposit is reducible: a single step updates summaries everywhere.
/// k.reduce(1, Account::deposit(10)).unwrap();
/// assert_eq!(k.query(0, &AccountQuery::Balance), 10);
/// // withdraw is conflicting: the leader (p0) orders it.
/// k.conf(0, Account::withdraw(4)).unwrap();
/// // other processes apply it from their L buffers.
/// assert!(k.conf_app(Pid(1), 0.into()).is_ok());
/// ```
pub struct RdmaWrdt<'a, O: ObjectSpec> {
    spec: &'a O,
    coord: &'a CoordSpec,
    leaders: Vec<Pid>,
    procs: Vec<ProcState<O>>,
    next_seq: Vec<u64>,
    trace: Trace<O::Update>,
}

impl<'a, O: ObjectSpec> RdmaWrdt<'a, O> {
    /// The initial configuration `K₀` with the default round-robin
    /// leader assignment.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`crate::AbstractWrdt::new`].
    pub fn new(spec: &'a O, coord: &'a CoordSpec, n: usize) -> Self {
        let leaders = coord.default_leaders(n);
        Self::with_leaders(spec, coord, n, leaders)
    }

    /// The initial configuration with an explicit leader per
    /// synchronization group.
    ///
    /// # Panics
    ///
    /// Panics if `leaders` does not name one in-range process per
    /// synchronization group.
    pub fn with_leaders(spec: &'a O, coord: &'a CoordSpec, n: usize, leaders: Vec<Pid>) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        assert_eq!(
            coord.method_count(),
            spec.method_count(),
            "coordination spec must cover all methods"
        );
        assert_eq!(leaders.len(), coord.sync_groups().len(), "one leader per sync group");
        assert!(leaders.iter().all(|l| l.index() < n), "leader out of range");
        let sigma0 = spec.initial();
        assert!(spec.invariant(&sigma0), "initial state must satisfy the invariant");
        let methods = spec.method_count();
        let procs = (0..n)
            .map(|_| ProcState {
                sigma: sigma0.clone(),
                applied: CountMap::new(n, methods),
                summaries: vec![vec![None; n]; coord.sum_groups().len()],
                free_bufs: vec![VecDeque::new(); n],
                conf_bufs: vec![VecDeque::new(); coord.sync_groups().len()],
            })
            .collect();
        RdmaWrdt { spec, coord, leaders, procs, next_seq: vec![0; n], trace: Vec::new() }
    }

    /// Number of processes `|P|`.
    pub fn processes(&self) -> usize {
        self.procs.len()
    }

    /// The leader of synchronization group `g`.
    pub fn leader(&self, g: GroupId) -> Pid {
        self.leaders[g.index()]
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace<O::Update> {
        &self.trace
    }

    /// `Apply(S_p)(σ_p)`: the current state of a process — its stored
    /// state with all summarized calls applied (in any order; they are
    /// conflict-free).
    pub fn current_state(&self, p: Pid) -> O::State {
        let proc = &self.procs[p.index()];
        let mut sigma = proc.sigma.clone();
        for group in &proc.summaries {
            for slot in group.iter().flatten() {
                sigma = self.spec.apply(&sigma, slot);
            }
        }
        sigma
    }

    /// The applied-calls map `A` of a process.
    pub fn applied(&self, p: Pid) -> &CountMap {
        &self.procs[p.index()].applied
    }

    /// The conflict-free buffer `F_p(src)`.
    pub fn free_buffer(&self, p: Pid, src: Pid) -> &VecDeque<BufferedCall<O::Update>> {
        &self.procs[p.index()].free_bufs[src.index()]
    }

    /// The conflicting buffer `L_p(g)`.
    pub fn conf_buffer(&self, p: Pid, g: GroupId) -> &VecDeque<BufferedCall<O::Update>> {
        &self.procs[p.index()].conf_bufs[g.index()]
    }

    fn mint_rid(&mut self, p: Pid) -> Rid {
        let rid = Rid::new(p, self.next_seq[p.index()]);
        self.next_seq[p.index()] += 1;
        rid
    }

    fn check_pid(&self, p: Pid) -> Result<(), SemError> {
        if p.index() < self.processes() {
            Ok(())
        } else {
            Err(SemError::NoSuchProcess { process: p, cluster: self.processes() })
        }
    }

    /// Rule REDUCE: a reducible call `u(v)` at process `p`.
    ///
    /// Summarizes the call into `p`'s summary slot for its summarization
    /// group and writes the new summary (and advanced applied count) to
    /// every process — the batch of independent one-sided remote writes.
    ///
    /// # Errors
    ///
    /// [`SemError::WrongCategory`] for non-reducible methods,
    /// [`SemError::NotPermissible`] if the call would violate the
    /// invariant, [`SemError::NotSummarizable`] if summarization fails
    /// (a violated closure declaration).
    pub fn reduce(&mut self, p: impl Into<Pid>, update: O::Update) -> Result<Rid, SemError> {
        let p = p.into();
        self.check_pid(p)?;
        let method = self.spec.method_of(&update);
        let g = match self.coord.category(method) {
            MethodCategory::Reducible { sum_group } => sum_group,
            _ => return Err(SemError::WrongCategory { method, rule: "REDUCE" }),
        };
        // 𝒫: I(u(v)(Apply(S_p)(σ_p))).
        let sigma = self.current_state(p);
        let post = self.spec.apply(&sigma, &update);
        if !self.spec.invariant(&post) {
            return Err(SemError::NotPermissible { process: p, method });
        }
        // Summarize(u'(v'), u(v)) = u''(v'').
        let new_summary = match &self.procs[p.index()].summaries[g.index()][p.index()] {
            None => update.clone(),
            Some(prev) => {
                self.spec.summarize(prev, &update).ok_or(SemError::NotSummarizable { method })?
            }
        };
        let rid = self.mint_rid(p);
        let n_applied = self.procs[p.index()].applied.get(p, method) + 1;
        // Local and remote writes of the summary and the applied count.
        for q in 0..self.processes() {
            self.procs[q].summaries[g.index()][p.index()] = Some(new_summary.clone());
            self.procs[q].applied.set(p, method, n_applied);
        }
        self.trace.push(Label::Call { process: p, rid, update: update.clone() });
        for q in Pid::all(self.processes()).filter(|&q| q != p) {
            self.trace.push(Label::Prop { process: q, rid });
        }
        Ok(rid)
    }

    /// Rule FREE: an irreducible conflict-free call `u(v)` at `p`.
    ///
    /// Applies the call locally and appends it, with its dependency
    /// map, to the conflict-free buffer for `p` at every other process.
    ///
    /// # Errors
    ///
    /// [`SemError::WrongCategory`] or [`SemError::NotPermissible`].
    pub fn free(&mut self, p: impl Into<Pid>, update: O::Update) -> Result<Rid, SemError> {
        let p = p.into();
        self.check_pid(p)?;
        let method = self.spec.method_of(&update);
        if !self.coord.category(method).is_irreducible_free() {
            return Err(SemError::WrongCategory { method, rule: "FREE" });
        }
        self.issue_buffered(p, method, update, None)
    }

    /// Rule CONF: a conflicting call `u(v)` at the leader of its
    /// synchronization group.
    ///
    /// # Errors
    ///
    /// [`SemError::WrongCategory`], [`SemError::NotLeader`], or
    /// [`SemError::NotPermissible`].
    pub fn conf(&mut self, p: impl Into<Pid>, update: O::Update) -> Result<Rid, SemError> {
        let p = p.into();
        self.check_pid(p)?;
        let method = self.spec.method_of(&update);
        let g = match self.coord.category(method) {
            MethodCategory::Conflicting { sync_group } => sync_group,
            _ => return Err(SemError::WrongCategory { method, rule: "CONF" }),
        };
        let leader = self.leaders[g.index()];
        if leader != p {
            return Err(SemError::NotLeader { process: p, group: g, leader });
        }
        self.issue_buffered(p, method, update, Some(g))
    }

    /// Shared body of FREE and CONF: check permissibility against
    /// `Apply(S)(u(v)(σ))`, apply locally, advance `A`, and append the
    /// call with its dependency projection to the remote buffers.
    fn issue_buffered(
        &mut self,
        p: Pid,
        method: crate::ids::MethodId,
        update: O::Update,
        conf_group: Option<GroupId>,
    ) -> Result<Rid, SemError> {
        let sigma_post = self.spec.apply(&self.procs[p.index()].sigma, &update);
        // I(Apply(S_j)(σ'_j)).
        let mut check = sigma_post.clone();
        for group in &self.procs[p.index()].summaries {
            for slot in group.iter().flatten() {
                check = self.spec.apply(&check, slot);
            }
        }
        if !self.spec.invariant(&check) {
            return Err(SemError::NotPermissible { process: p, method });
        }
        // D = A_j | Dep(u), projected before advancing A for this call.
        let deps = self.procs[p.index()].applied.project(self.coord.dependencies(method));
        let rid = self.mint_rid(p);
        self.procs[p.index()].sigma = sigma_post;
        self.procs[p.index()].applied.increment(p, method);
        let entry = BufferedCall { rid, update: update.clone(), deps };
        for q in 0..self.processes() {
            if q == p.index() {
                continue;
            }
            match conf_group {
                None => self.procs[q].free_bufs[p.index()].push_back(entry.clone()),
                Some(g) => self.procs[q].conf_bufs[g.index()].push_back(entry.clone()),
            }
        }
        self.trace.push(Label::Call { process: p, rid, update });
        Ok(rid)
    }

    /// Rule FREE-APP: apply the head of the conflict-free buffer that
    /// `p` stores for `src`, provided its dependency map is satisfied
    /// (`D ≤ A`).
    ///
    /// # Errors
    ///
    /// [`SemError::EmptyBuffer`] or
    /// [`SemError::DependencyNotSatisfied`].
    pub fn free_app(&mut self, p: Pid, src: Pid) -> Result<Rid, SemError> {
        self.check_pid(p)?;
        self.check_pid(src)?;
        let proc = &mut self.procs[p.index()];
        let entry = proc.free_bufs[src.index()]
            .front()
            .cloned()
            .ok_or(SemError::EmptyBuffer { process: p })?;
        Self::apply_buffered(self.spec, proc, p, &entry)?;
        self.procs[p.index()].free_bufs[src.index()].pop_front();
        self.trace.push(Label::Prop { process: p, rid: entry.rid });
        Ok(entry.rid)
    }

    /// Rule CONF-APP: apply the head of the conflicting buffer for
    /// synchronization group `g` at `p`, provided `D ≤ A`.
    ///
    /// # Errors
    ///
    /// [`SemError::EmptyBuffer`] or
    /// [`SemError::DependencyNotSatisfied`].
    pub fn conf_app(&mut self, p: Pid, g: GroupId) -> Result<Rid, SemError> {
        self.check_pid(p)?;
        let proc = &mut self.procs[p.index()];
        let entry = proc.conf_bufs[g.index()]
            .front()
            .cloned()
            .ok_or(SemError::EmptyBuffer { process: p })?;
        Self::apply_buffered(self.spec, proc, p, &entry)?;
        self.procs[p.index()].conf_bufs[g.index()].pop_front();
        self.trace.push(Label::Prop { process: p, rid: entry.rid });
        Ok(entry.rid)
    }

    fn apply_buffered(
        spec: &O,
        proc: &mut ProcState<O>,
        p: Pid,
        entry: &BufferedCall<O::Update>,
    ) -> Result<(), SemError> {
        if let Some((dp, du, _)) = proc.applied.first_unsatisfied(&entry.deps) {
            return Err(SemError::DependencyNotSatisfied {
                process: p,
                dep_process: dp,
                dep_method: du,
            });
        }
        proc.sigma = spec.apply(&proc.sigma, &entry.update);
        proc.applied.increment(entry.rid.issuer, spec.method_of(&entry.update));
        Ok(())
    }

    /// Rule QUERY: execute a query at `p` against `Apply(S_p)(σ_p)`.
    pub fn query(&mut self, p: impl Into<Pid>, q: &O::Query) -> O::Reply {
        let p = p.into();
        let sigma = self.current_state(p);
        self.trace.push(Label::Query { process: p });
        self.spec.query(&sigma, q)
    }

    /// Issue a call through whichever rule its category demands; for
    /// conflicting methods the call is redirected to the group leader,
    /// as the runtime does (§5 "Platform and setup").
    ///
    /// # Errors
    ///
    /// As the underlying rule.
    pub fn issue(&mut self, p: impl Into<Pid>, update: O::Update) -> Result<Rid, SemError> {
        let p = p.into();
        let method = self.spec.method_of(&update);
        match self.coord.category(method) {
            MethodCategory::Reducible { .. } => self.reduce(p, update),
            MethodCategory::IrreducibleFree => self.free(p, update),
            MethodCategory::Conflicting { sync_group } => {
                let leader = self.leaders[sync_group.index()];
                self.conf(leader, update)
            }
        }
    }

    /// Drain every buffer at every process, applying entries whose
    /// dependencies are satisfied, until a fixpoint. Returns the number
    /// of calls applied.
    pub fn drain(&mut self) -> usize {
        let mut applied = 0;
        loop {
            let mut progressed = false;
            for p in 0..self.processes() {
                for src in 0..self.processes() {
                    while self.free_app(Pid(p), Pid(src)).is_ok() {
                        applied += 1;
                        progressed = true;
                    }
                }
                for g in 0..self.coord.sync_groups().len() {
                    while self.conf_app(Pid(p), GroupId(g)).is_ok() {
                        applied += 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                return applied;
            }
        }
    }

    /// Whether all `F` and `L` buffers are empty at every process.
    pub fn buffers_empty(&self) -> bool {
        self.procs.iter().all(|pr| {
            pr.free_bufs.iter().all(VecDeque::is_empty)
                && pr.conf_bufs.iter().all(VecDeque::is_empty)
        })
    }

    /// Corollary 1 (Integrity): `I(Apply(S_i)(σ_i))` for every process.
    pub fn check_integrity(&self) -> bool {
        (0..self.processes()).all(|p| self.spec.invariant(&self.current_state(Pid(p))))
    }

    /// Corollary 2 (Convergence): with all buffers empty, the current
    /// states of all processes coincide.
    ///
    /// Returns `true` vacuously when buffers are non-empty.
    pub fn check_convergence(&self) -> bool {
        if !self.buffers_empty() {
            return true;
        }
        let s0 = self.current_state(Pid(0));
        (1..self.processes()).all(|p| self.current_state(Pid(p)) == s0)
    }
}

impl<'a, O: ObjectSpec> Clone for RdmaWrdt<'a, O> {
    fn clone(&self) -> Self {
        RdmaWrdt {
            spec: self.spec,
            coord: self.coord,
            leaders: self.leaders.clone(),
            procs: self.procs.clone(),
            next_seq: self.next_seq.clone(),
            trace: self.trace.clone(),
        }
    }
}

impl<O: ObjectSpec> std::fmt::Debug for RdmaWrdt<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaWrdt")
            .field("object", &self.spec.name())
            .field("processes", &self.processes())
            .field("leaders", &self.leaders)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{Account, AccountQuery};

    fn setup() -> (Account, CoordSpec) {
        let acc = Account::default();
        let coord = acc.coord_spec();
        (acc, coord)
    }

    #[test]
    fn reduce_updates_all_summaries_atomically() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 3);
        k.reduce(1, Account::deposit(5)).unwrap();
        k.reduce(1, Account::deposit(7)).unwrap();
        for p in Pid::all(3) {
            assert_eq!(k.current_state(p), 12);
        }
        // Two calls collapsed into one summary slot.
        assert!(k.buffers_empty());
    }

    #[test]
    fn reduce_rejects_wrong_category() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 2);
        assert!(matches!(
            k.reduce(0, Account::withdraw(1)).unwrap_err(),
            SemError::WrongCategory { rule: "REDUCE", .. }
        ));
    }

    #[test]
    fn conf_requires_leader() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 3);
        k.reduce(0, Account::deposit(10)).unwrap();
        let err = k.conf(1, Account::withdraw(5)).unwrap_err();
        assert!(matches!(err, SemError::NotLeader { leader: Pid(0), .. }));
        k.conf(0, Account::withdraw(5)).unwrap();
    }

    #[test]
    fn conf_app_applies_ordered_calls() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 2);
        k.reduce(0, Account::deposit(10)).unwrap();
        k.conf(0, Account::withdraw(4)).unwrap();
        assert_eq!(k.conf_buffer(Pid(1), GroupId(0)).len(), 1);
        k.conf_app(Pid(1), GroupId(0)).unwrap();
        assert_eq!(k.current_state(Pid(1)), 6);
        assert!(k.buffers_empty());
        assert!(k.check_convergence());
    }

    #[test]
    fn dependency_blocks_buffer_application() {
        // A withdraw shipped with a dependency on deposits cannot be
        // applied before those deposits are visible. With reducible
        // deposits the summary write is atomic in this semantics, so
        // force the scenario through the dependency map directly: issue
        // deposits as summaries, then tamper-check via an account where
        // deposit is buffered. Here we exercise the simpler direction:
        // the dependency map of a withdraw covering prior deposits is
        // satisfied because REDUCE advanced A everywhere.
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 2);
        k.reduce(0, Account::deposit(10)).unwrap();
        k.conf(0, Account::withdraw(10)).unwrap();
        // The withdraw depends on one deposit from p0; p1 has it.
        assert!(k.conf_app(Pid(1), GroupId(0)).is_ok());
        assert_eq!(k.current_state(Pid(1)), 0);
        assert!(k.check_integrity());
    }

    #[test]
    fn impermissible_conf_rejected_at_leader() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 2);
        assert!(matches!(
            k.conf(0, Account::withdraw(1)).unwrap_err(),
            SemError::NotPermissible { .. }
        ));
    }

    #[test]
    fn query_sees_summaries() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 2);
        k.reduce(1, Account::deposit(9)).unwrap();
        assert_eq!(k.query(0, &AccountQuery::Balance), 9);
    }

    #[test]
    fn issue_routes_by_category() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 3);
        k.issue(2, Account::deposit(10)).unwrap();
        // withdraw issued anywhere lands at the leader (p0).
        k.issue(2, Account::withdraw(3)).unwrap();
        k.drain();
        for p in Pid::all(3) {
            assert_eq!(k.current_state(p), 7);
        }
        assert!(k.check_convergence());
        assert!(k.check_integrity());
    }

    #[test]
    fn drain_reaches_convergence() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 4);
        for p in 0..4 {
            k.reduce(p, Account::deposit(5)).unwrap();
        }
        k.conf(0, Account::withdraw(20)).unwrap();
        let applied = k.drain();
        assert_eq!(applied, 3); // withdraw applied at 3 followers
        assert!(k.buffers_empty());
        for p in Pid::all(4) {
            assert_eq!(k.current_state(p), 0);
        }
    }

    #[test]
    fn empty_buffer_app_rejected() {
        let (acc, coord) = setup();
        let mut k = RdmaWrdt::new(&acc, &coord, 2);
        assert!(matches!(k.free_app(Pid(0), Pid(1)).unwrap_err(), SemError::EmptyBuffer { .. }));
        assert!(matches!(
            k.conf_app(Pid(0), GroupId(0)).unwrap_err(),
            SemError::EmptyBuffer { .. }
        ));
    }

    #[test]
    fn with_leaders_validates() {
        let (acc, coord) = setup();
        let k = RdmaWrdt::with_leaders(&acc, &coord, 3, vec![Pid(2)]);
        assert_eq!(k.leader(GroupId(0)), Pid(2));
    }

    #[test]
    #[should_panic(expected = "one leader per sync group")]
    fn wrong_leader_count_panics() {
        let (acc, coord) = setup();
        let _ = RdmaWrdt::with_leaders(&acc, &coord, 3, vec![]);
    }
}
