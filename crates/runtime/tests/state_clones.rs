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
//! snapshots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{KeySkew, ObjectSpec, WorkloadSupport};
use hamband_runtime::{RunConfig, Runner, System, WorkloadSpec};
use hamband_types::{Bank, Courseware};
use rand::rngs::StdRng;

#[derive(Debug)]
struct Counted<S> {
    state: S,
    clones: Arc<AtomicUsize>,
}

impl<S: Clone> Clone for Counted<S> {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Counted {
            state: self.state.clone(),
            clones: Arc::clone(&self.clones),
        }
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
        Counted {
            state: self.inner.initial(),
            clones: Arc::clone(&self.clones),
        }
    }
    fn invariant(&self, s: &Self::State) -> bool {
        self.inner.invariant(&s.state)
    }
    fn apply_mut(&self, s: &mut Self::State, call: &Self::Update) {
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
        Counted {
            state: self.inner.sample_state(rng),
            clones: Arc::clone(&self.clones),
        }
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
        skew: KeySkew,
    ) -> Option<Self::Update> {
        self.inner
            .gen_update(&s.state, node, seq, method, rng, skew)
    }
}

/// State clones of one converged 4-node simulator run of `total_ops`
/// calls, and the updates it acknowledged.
fn clones_of_a_run<O>(inner: &O, coord: &CoordSpec, total_ops: u64) -> (usize, u64)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let clones = Arc::new(AtomicUsize::new(0));
    let spec = Counting {
        inner: inner.clone(),
        clones: Arc::clone(&clones),
    };
    // Window 1: the leader's pipeline drains after every conflicting
    // call, the case in which a per-drain copy would be a per-call copy.
    let workload = WorkloadSpec::ops(total_ops)
        .with_update_ratio(0.5)
        .with_window(1);
    let config = RunConfig::new(4, workload);
    let report = Runner::new(System::Hamband, config)
        .run(&spec, coord)
        .report;
    assert!(report.converged, "{report}");
    (clones.load(Ordering::Relaxed), report.total_updates)
}

fn clone_count_is_independent_of_run_length<O>(inner: &O, coord: &CoordSpec)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let (short, short_updates) = clones_of_a_run(inner, coord, 2_000);
    let (long, long_updates) = clones_of_a_run(inner, coord, 8_000);
    assert!(
        long_updates > 3 * short_updates,
        "{short_updates} vs {long_updates} updates"
    );
    assert_eq!(
        short,
        long,
        "{}: {short} state clones over {short_updates} updates, {long} over {long_updates}",
        inner.name()
    );
    // 4 nodes: `mat` at construction, the harness's convergence
    // comparison and end states, one `spec_mat` seed at the leader.
    assert!(
        long <= 16,
        "{}: {long} state clones in one run",
        inner.name()
    );
}

#[test]
fn bank_run_clones_state_a_constant_number_of_times() {
    let bank = Bank::default();
    clone_count_is_independent_of_run_length(&bank, &bank.coord_spec());
}

#[test]
fn courseware_run_clones_state_a_constant_number_of_times() {
    let cw = Courseware::default();
    clone_count_is_independent_of_run_length(&cw, &cw.coord_spec());
}
