//! The replica's object views, and every apply to them: one function
//! per rule, each reaching every view that exists once.
//!
//! * **mat** — the committed view: buffered (ring-delivered and own
//!   conflict-free) calls, own REDUCE calls and adopted summary records.
//!   Queries read it (`calls.rs::query`);
//! * **σ** (`sigma`) — buffered calls only. It exists only for an object
//!   with a summarization group whose summaries replace
//!   (`summaries_monotone()` false: `Counter`, `Account`), whose old
//!   summary cannot be taken back out of `mat`: `mat` is then marked
//!   dirty and rebuilt lazily as σ plus every cached summary. A monotone
//!   summary is a join, so every other type keeps `mat` alone;
//! * **spec_mat** — the speculative view a group leader checks
//!   permissibility against: `mat` plus its own uncommitted conflicting
//!   calls. `None` until the node first issues a conflicting call (the
//!   check view *is* `mat`); from then on it is kept while the node
//!   leads — every call that reaches `mat` reaches it too, so whenever
//!   nothing is uncommitted it equals `mat` and needs no re-seeding.
//!
//! Copying a view is the only O(|σ|) step on the call path, in three
//! places only: `state_snapshot` (a refresh of a dirty `mat`, and the
//! harness's end-of-run comparison), the seeding of `spec_mat` (once per
//! leadership), and `rebuild_spec_mat` (a replacing summary arriving
//! over uncommitted calls, or a deposition while other groups' are).
//!
//! Lemma 1 (§3.3) needs permissibility checked against a view that
//! contains every earlier call of the same synchronization group —
//! that is exactly `spec_mat`'s contract. The leader's own calls in
//! `spec_mat` but not yet in `mat` need no list of their own: they are
//! its entries past both its reader and the tail it adopted
//! (`GroupEngine::own_unapplied`), whose payloads its local `L`-ring
//! copy holds from issue on, so the view is rebuilt from there.

use hamband_core::object::WorkloadSupport;

use crate::codec::Entry;
use crate::replica::HambandNode;
use crate::transport::Transport;

impl<O: WorkloadSupport> HambandNode<O> {
    /// The node's current (committed) object state.
    pub fn state_snapshot(&self) -> O::State {
        let Some(sigma) = &self.sigma else { return self.mat.clone() };
        let mut s = sigma.clone();
        for sum in self.sum_cache.iter().flatten().flat_map(|cache| &cache.records) {
            self.spec.apply_mut(&mut s, sum);
        }
        s
    }

    pub(crate) fn refresh_mat(&mut self) {
        if self.mat_dirty {
            self.mat = self.state_snapshot();
            self.mat_dirty = false;
        }
    }

    /// The view used for permissibility checks and call generation.
    pub(crate) fn check_view(&self) -> &O::State {
        self.spec_mat.as_ref().unwrap_or(&self.mat)
    }

    /// A committed call (ring-delivered, own FREE, or replayed by a
    /// rejoin) reaches σ, `mat` and `spec_mat` — the last unless
    /// `in_spec`: a leader's own conflicting call is there since issue.
    pub(crate) fn apply_committed(&mut self, call: &O::Update, in_spec: bool) {
        if let Some(sigma) = self.sigma.as_mut() {
            self.spec.apply_mut(sigma, call);
        }
        if !self.mat_dirty {
            self.spec.apply_mut(&mut self.mat, call);
        }
        if let Some(sm) = self.spec_mat.as_mut().filter(|_| !in_spec) {
            self.spec.apply_mut(sm, call);
        }
    }

    /// A leader's own conflicting call at issue reaches `spec_mat` alone;
    /// the first of a leadership seeds it from `mat` (refreshed by the
    /// permissibility check), so the clone is per leadership.
    pub(crate) fn apply_speculative(&mut self, call: &O::Update) {
        let sm = self.spec_mat.get_or_insert_with(|| self.mat.clone());
        self.spec.apply_mut(sm, call);
    }

    /// An own REDUCE call reaches `mat` and `spec_mat`, never σ: the own
    /// summary cache carries it.
    pub(crate) fn apply_summarized(&mut self, call: &O::Update) {
        if !self.mat_dirty {
            self.spec.apply_mut(&mut self.mat, call);
        }
        if let Some(sm) = self.spec_mat.as_mut() {
            self.spec.apply_mut(sm, call);
        }
    }

    /// The records `src`'s cache of group `g` gained from index `new`
    /// on. Monotone ones reach `mat` and `spec_mat` once each (what a
    /// compaction record repeats is harmless to re-apply); replacing
    /// ones dirty `mat` and rebuild `spec_mat`, which a stale summary
    /// would corrupt (a no-op unless calls are uncommitted).
    pub(crate) fn adopt_records<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        src: usize,
        new: usize,
    ) {
        if self.sigma.is_some() {
            self.mat_dirty = true;
            return self.rebuild_spec_mat(ctx);
        }
        for sum in &self.sum_cache[g][src].records[new..] {
            self.spec.apply_mut(&mut self.mat, sum);
            if let Some(sm) = self.spec_mat.as_mut() {
                self.spec.apply_mut(sm, sum);
            }
        }
    }

    /// Whether `update` would keep the object invariant, judged against
    /// the current check view.
    pub(crate) fn permissible_now(&mut self, update: &O::Update) -> bool {
        self.refresh_mat();
        self.spec.permissible(self.check_view(), update)
    }

    /// Rebuild the speculative view: `mat` plus every own entry a group
    /// this node still leads has not yet applied
    /// (`GroupEngine::own_unapplied`), decoded from that group's local
    /// `L`-ring copy. Called after a replacing summary change and after
    /// a deposition. Summaries are conflict-free by construction, so
    /// they commute with the replayed conflicting calls, and so do calls
    /// of different groups. With nothing unapplied the view is `mat`
    /// itself: it is dropped (the next conflicting call re-seeds it) and
    /// `mat` stays lazily dirty.
    pub(crate) fn rebuild_spec_mat<T: Transport>(&mut self, ctx: &mut T) {
        if self.engines.iter().all(|e| e.own_unapplied().is_empty()) {
            self.spec_mat = None;
            return;
        }
        self.refresh_mat();
        let mut view = self.mat.clone();
        for e in self.engines.iter() {
            for seq in e.own_unapplied() {
                let entry = Entry::<O::Update>::from_slot(e.reader.raw_slot(ctx, seq), seq)
                    .expect("a led group's unapplied entry is in its local ring copy");
                self.spec.apply_mut(&mut view, &entry.update);
            }
        }
        self.spec_mat = Some(view);
    }
}
