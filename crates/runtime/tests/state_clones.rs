//! The runtime's call path never copies the object state: the number
//! of state clones a run performs does not depend on how many calls it
//! issues.
//!
//! `Counting<O>` wraps a shipped type: its state is a newtype whose
//! `Clone` bumps a counter, everything else delegates. The counter sees
//! every copy the *runtime* takes of a view (σ, `mat`, `spec_mat`) and
//! every copy a provided trait method takes of the wrapper's state. It
//! cannot see inside the wrapped type, so that `Bank` and `Courseware`
//! answer `permissible` without building the post-state is pinned by
//! `semantics_cross_type.rs::permissible_reads_only_the_footprint`.
//! What stays is constant per run: the views built at construction, one
//! `spec_mat` seed per leadership, and the harness's end-of-run
//! snapshots. The MSG baseline is held to the same rule.
//!
//! The wrapper counts `apply_mut` calls too: a replica keeps one
//! committed state unless its type's summaries replace, so a type with
//! no summaries applies each call once per replica.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{ObjectSpec, WorkloadSupport};
use hamband_runtime::{RunConfig, Runner, System, WorkloadSpec};
use hamband_types::{Bank, Cart, Courseware, GSet, OrSet};
use rand::rngs::StdRng;

#[derive(Debug)]
struct Counted<S> {
    state: S,
    clones: Arc<AtomicUsize>,
}

impl<S: Clone> Clone for Counted<S> {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Counted { state: self.state.clone(), clones: Arc::clone(&self.clones) }
    }
}

impl<S: PartialEq> PartialEq for Counted<S> {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
    }
}

#[derive(Debug, Clone)]
struct Counting<O> {
    inner: O,
    clones: Arc<AtomicUsize>,
    applies: Arc<AtomicUsize>,
}

impl<O: ObjectSpec> ObjectSpec for Counting<O> {
    type State = Counted<O::State>;
    type Update = O::Update;
    type Query = O::Query;
    type Reply = O::Reply;

    fn name(&self) -> &str {
        self.inner.name()
    }
    fn initial(&self) -> Self::State {
        Counted { state: self.inner.initial(), clones: Arc::clone(&self.clones) }
    }
    fn invariant(&self, s: &Self::State) -> bool {
        self.inner.invariant(&s.state)
    }
    fn apply_mut(&self, s: &mut Self::State, call: &Self::Update) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_mut(&mut s.state, call);
    }
    fn query(&self, s: &Self::State, q: &Self::Query) -> Self::Reply {
        self.inner.query(&s.state, q)
    }
    fn summarize(&self, a: &Self::Update, b: &Self::Update) -> Option<Self::Update> {
        self.inner.summarize(a, b)
    }
    fn summaries_monotone(&self) -> bool {
        self.inner.summaries_monotone()
    }
    fn shard_key(&self, call: &Self::Update) -> Option<u64> {
        self.inner.shard_key(call)
    }
    fn permissible(&self, s: &Self::State, call: &Self::Update) -> bool {
        self.inner.permissible(&s.state, call)
    }
}

impl<O: WorkloadSupport> WorkloadSupport for Counting<O> {
    fn sample_state(&self, rng: &mut StdRng) -> Self::State {
        Counted { state: self.inner.sample_state(rng), clones: Arc::clone(&self.clones) }
    }
    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> Self::Update {
        self.inner.sample_update_of(method, rng)
    }
    fn sample_query(&self, rng: &mut StdRng) -> Self::Query {
        self.inner.sample_query(rng)
    }
    fn gen_update(
        &self,
        s: &Self::State,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
    ) -> Option<Self::Update> {
        self.inner.gen_update(&s.state, node, seq, method, rng)
    }
}

/// State clones of one converged 4-node simulator run of `system` over
/// `total_ops` calls, and the updates it acknowledged.
fn clones_of_a_run<O>(system: System, inner: &O, coord: &CoordSpec, total_ops: u64) -> (usize, u64)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let (clones, _, updates) = counted_run(system, inner, coord, total_ops);
    (clones, updates)
}

/// State clones and `apply_mut` calls of one converged 4-node simulator
/// run of `system` over `total_ops` calls, and the updates it
/// acknowledged.
fn counted_run<O>(
    system: System,
    inner: &O,
    coord: &CoordSpec,
    total_ops: u64,
) -> (usize, usize, u64)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let clones = Arc::new(AtomicUsize::new(0));
    let applies = Arc::new(AtomicUsize::new(0));
    let spec = Counting {
        inner: inner.clone(),
        clones: Arc::clone(&clones),
        applies: Arc::clone(&applies),
    };
    // Window 1: the leader's pipeline drains after every conflicting
    // call, the case in which a per-drain copy would be a per-call copy.
    let workload = WorkloadSpec::ops(total_ops).with_update_ratio(0.5).with_window(1);
    let config = RunConfig::new(4, workload);
    let report = Runner::new(system, config).run(&spec, coord).report;
    assert!(report.converged, "{report}");
    (clones.load(Ordering::Relaxed), applies.load(Ordering::Relaxed), report.total_updates)
}

fn clone_count_is_independent_of_run_length<O>(system: System, inner: &O, coord: &CoordSpec)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let (short, short_updates) = clones_of_a_run(system, inner, coord, 2_000);
    let (long, long_updates) = clones_of_a_run(system, inner, coord, 8_000);
    assert!(long_updates > 3 * short_updates, "{short_updates} vs {long_updates} updates");
    assert_eq!(
        short,
        long,
        "{}: {short} state clones over {short_updates} updates, {long} over {long_updates}",
        inner.name()
    );
    // 4 nodes: `mat` at construction, the harness's convergence
    // comparison and end states, one `spec_mat` seed at the leader.
    assert!(long <= 16, "{}: {long} state clones in one run", inner.name());
}

#[test]
fn bank_run_clones_state_a_constant_number_of_times() {
    let bank = Bank::default();
    clone_count_is_independent_of_run_length(System::Hamband, &bank, &bank.coord_spec());
}

#[test]
fn courseware_run_clones_state_a_constant_number_of_times() {
    let cw = Courseware::default();
    clone_count_is_independent_of_run_length(System::Hamband, &cw, &cw.coord_spec());
}

/// The MSG baseline checks a call with `permissible` and applies it in
/// place, as Hamband's `issue` does: no copy of the state per call.
#[test]
fn msg_gset_run_clones_state_a_constant_number_of_times() {
    let g = GSet::default();
    clone_count_is_independent_of_run_length(System::Msg, &g, &g.coord_spec());
}

/// A type with no summaries keeps one committed state per replica, so
/// every acknowledged update is applied exactly once at each of the 4
/// nodes — not once to σ and once more to `mat`.
fn each_call_is_applied_once_per_replica<O>(inner: &O, coord: &CoordSpec)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let (_, applies, updates) = counted_run(System::Hamband, inner, coord, 2_000);
    assert!(updates > 0);
    assert_eq!(applies as u64, 4 * updates, "{}: applies over {updates} updates", inner.name());
}

#[test]
fn orset_run_applies_each_call_once_per_replica() {
    let o = OrSet::default();
    each_call_is_applied_once_per_replica(&o, &o.coord_spec());
}

#[test]
fn cart_run_applies_each_call_once_per_replica() {
    let c = Cart::default();
    each_call_is_applied_once_per_replica(&c, &c.coord_spec());
}
