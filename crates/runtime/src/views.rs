//! The replica's three object views and the rules for keeping them
//! consistent.
//!
//! * **σ** (`sigma`) — the stored state: buffered (ring-delivered and
//!   own conflict-free) calls only, never summaries;
//! * **mat** — the materialized committed view: σ with every cached
//!   summary applied, refreshed lazily via a dirty bit (non-monotone
//!   summaries invalidate it wholesale). Queries read it
//!   (`calls.rs::query`);
//! * **spec_mat** — the speculative view a group leader checks
//!   permissibility against: `mat` plus its own uncommitted conflicting
//!   calls. `None` until the node first issues a conflicting call (the
//!   check view *is* `mat`); from then on it is kept while the node
//!   leads — every call that reaches `mat` reaches it too, so whenever
//!   nothing is uncommitted it equals `mat` and needs no re-seeding.
//!
//! Each view is a full copy of the object state, so copying one is the
//! only O(|σ|) step on the call path and happens in three places only:
//! `state_snapshot` (a refresh of `mat` after a non-monotone summary or
//! a rejoin, and the harness's end-of-run comparison), the seeding of
//! `spec_mat` (once per leadership), and `rebuild_spec_mat` (a
//! non-monotone summary arriving while calls are uncommitted, or a
//! deposition while other groups' calls are).
//!
//! Lemma 1 (§3.3) needs permissibility checked against a view that
//! contains every earlier call of the same synchronization group —
//! that is exactly `spec_mat`'s contract. The uncommitted payloads need
//! no copy of their own: each led group's local `L`-ring copy holds
//! them from issue to commit, so the view is rebuilt from there.

use hamband_core::object::WorkloadSupport;

use crate::codec::Entry;
use crate::replica::HambandNode;
use crate::transport::Transport;

impl<O: WorkloadSupport> HambandNode<O> {
    /// The node's current (committed) object state.
    pub fn state_snapshot(&self) -> O::State {
        let mut s = self.sigma.clone();
        for group in &self.sum_cache {
            for sum in group.iter().flat_map(|cache| &cache.records) {
                self.spec.apply_mut(&mut s, sum);
            }
        }
        s
    }

    pub(crate) fn refresh_mat(&mut self) {
        if !self.mat_dirty {
            return;
        }
        self.mat = self.state_snapshot();
        self.mat_dirty = false;
    }

    /// The view used for permissibility checks and call generation.
    pub(crate) fn check_view(&self) -> &O::State {
        self.spec_mat.as_ref().unwrap_or(&self.mat)
    }

    /// Apply a call to the committed views (σ stays per caller choice).
    pub(crate) fn apply_to_views(&mut self, call: &O::Update) {
        if !self.mat_dirty {
            self.spec.apply_mut(&mut self.mat, call);
        }
        if let Some(sm) = self.spec_mat.as_mut() {
            self.spec.apply_mut(sm, call);
        }
    }

    /// Whether `update` would keep the object invariant, judged against
    /// the current check view.
    pub(crate) fn permissible_now(&mut self, update: &O::Update) -> bool {
        self.refresh_mat();
        self.spec.permissible(self.check_view(), update)
    }

    /// Rebuild the speculative view: `mat` plus every entry a group
    /// this node still leads has not committed, decoded from that
    /// group's local `L`-ring copy. Called after a non-monotone summary
    /// change and after a deposition. Summaries are conflict-free by
    /// construction, so they commute with the replayed conflicting
    /// calls, and so do calls of different groups. With nothing
    /// uncommitted the view is `mat` itself: it is dropped (the next
    /// conflicting call re-seeds it) and `mat` stays lazily dirty.
    pub(crate) fn rebuild_spec_mat<T: Transport>(&mut self, ctx: &mut T) {
        if self.engines.iter().filter_map(|e| e.leader()).all(|l| l.uncommitted.is_empty()) {
            self.spec_mat = None;
            return;
        }
        self.refresh_mat();
        let mut view = self.mat.clone();
        for e in self.engines.iter() {
            for &seq in e.leader().map_or(&[][..], |l| &l.uncommitted) {
                let entry = Entry::<O::Update>::from_slot(e.reader.raw_slot(ctx, seq), seq)
                    .expect("a led group's uncommitted entry is in its local ring copy");
                self.spec.apply_mut(&mut view, &entry.update);
            }
        }
        self.spec_mat = Some(view);
    }
}
