//! The replica's three object views and the rules for keeping them
//! consistent.
//!
//! * **σ** (`sigma`) — the stored state: buffered (ring-delivered and
//!   own conflict-free) calls only, never summaries;
//! * **mat** — the materialized committed view: σ with every cached
//!   summary applied, refreshed lazily via a dirty bit (non-monotone
//!   summaries invalidate it wholesale);
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
//! non-monotone summary arriving while calls are uncommitted).
//!
//! Lemma 1 (§3.3) needs permissibility checked against a view that
//! contains every earlier call of the same synchronization group —
//! that is exactly `spec_mat`'s contract; the uncommitted payloads are
//! retained in `speculative_store` so the view can be rebuilt after a
//! non-monotone summary refresh.

use hamband_core::object::WorkloadSupport;

use crate::replica::HambandNode;

impl<O: WorkloadSupport> HambandNode<O> {
    /// The node's current (committed) object state.
    pub fn state_snapshot(&self) -> O::State {
        let mut s = self.sigma.clone();
        for group in &self.sum_cache {
            for cache in group {
                if let Some(sum) = &cache.summary {
                    self.spec.apply_mut(&mut s, sum);
                }
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

    /// Rebuild the speculative view after a non-monotone summary
    /// change: committed snapshot + replay of uncommitted own entries.
    /// Uncommitted conflicting entries are kept by each group, but the
    /// update payloads are no longer at hand; since non-monotone
    /// summaries and uncommitted entries can only coexist for objects
    /// whose conflicting methods commute with summaries (summaries are
    /// conflict-free by construction), replaying is legal — we keep the
    /// payloads for exactly this purpose. With nothing uncommitted the
    /// view is `mat` itself: it is dropped (the next conflicting call
    /// re-seeds it) and `mat` stays lazily dirty.
    pub(crate) fn rebuild_spec_mat(&mut self) {
        if self.speculative_store.is_empty() {
            self.spec_mat = None;
            return;
        }
        self.refresh_mat();
        let mut view = self.mat.clone();
        for u in &self.speculative_store {
            self.spec.apply_mut(&mut view, u);
        }
        self.spec_mat = Some(view);
    }
}
