//! Structured replica status for harness diagnostics.
//!
//! Replaces the old stringly `debug_status()`: a [`NodeStatus`] is a
//! typed snapshot of the replica's observable progress, and its
//! [`Display`](std::fmt::Display) renders the familiar one-line form
//! used by harness debug output and chaos failure reports. Structured
//! fields mean a failing chaos case can be inspected programmatically
//! (e.g. "which group still has uncommitted entries?") instead of by
//! string-grepping.

use std::fmt;

use hamband_core::ids::Pid;
use hamband_core::object::WorkloadSupport;

use crate::conf::Role;
use crate::replica::HambandNode;

/// Which role a node holds for one synchronization group (the
/// discriminant of [`Role`], without the role's payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleKind {
    /// Applying committed entries, following the recognized leader.
    Follower,
    /// Tallying `LeaderAck`s for an in-flight candidacy.
    Candidate,
    /// Won an election, still catching up the ring suffix.
    TakingOver,
    /// Leading the group.
    Leader,
}

impl fmt::Display for RoleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RoleKind::Follower => "follower",
            RoleKind::Candidate => "candidate",
            RoleKind::TakingOver => "takeover",
            RoleKind::Leader => "leader",
        };
        f.write_str(s)
    }
}

impl From<&Role> for RoleKind {
    fn from(role: &Role) -> Self {
        match role {
            Role::Follower => RoleKind::Follower,
            Role::Candidate { .. } => RoleKind::Candidate,
            Role::TakingOver { .. } => RoleKind::TakingOver,
            Role::Leader(_) => RoleKind::Leader,
        }
    }
}

/// One synchronization group's consensus progress as seen by one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupStatus {
    /// Group ordinal.
    pub group: usize,
    /// The leader this node currently recognizes.
    pub leader_view: Pid,
    /// This node's role in the group.
    pub role: RoleKind,
    /// Highest epoch this node promised.
    pub promised: u64,
    /// The highest sequence number this node appended as the group's
    /// leader (the ring's tail while it leads).
    pub tail: u64,
    /// Commit index as this node knows it: advanced by the leader,
    /// learnt by everyone else from the entries that carry it or from
    /// the commit cell — never behind `applied`.
    pub commit: u64,
    /// Ring entries this node's reader has applied.
    pub applied: u64,
    /// Own entries not yet applied (leader only; 0 otherwise): those it
    /// appended itself past its reader.
    pub uncommitted: usize,
}

impl fmt::Display for GroupStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "g{}[ldr={} role={} ep={} tail={} com={} rd={} unc={}]",
            self.group,
            self.leader_view,
            self.role,
            self.promised,
            self.tail,
            self.commit,
            self.applied,
            self.uncommitted,
        )
    }
}

/// A typed snapshot of one replica's observable progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// Node index.
    pub node: usize,
    /// Whether the local workload is fully issued and acknowledged.
    pub done: bool,
    /// Whether the client ingress has planned out its whole quota.
    pub driver_done: bool,
    /// Client calls still awaiting acknowledgement.
    pub outstanding: usize,
    /// Whether the node halted (heartbeat suspended).
    pub halted: bool,
    /// Total update calls applied locally (own and remote).
    pub applied: u64,
    /// Peers this node's failure detector currently suspects.
    pub suspected: Vec<usize>,
    /// Per-synchronization-group progress.
    pub groups: Vec<GroupStatus>,
}

impl fmt::Display for NodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n{} done={} drv_done={} out={} halt={} applied={} susp={:?}",
            self.node,
            self.done,
            self.driver_done,
            self.outstanding,
            self.halted,
            self.applied,
            self.suspected,
        )?;
        for g in &self.groups {
            write!(f, " {g}")?;
        }
        Ok(())
    }
}

impl<O: WorkloadSupport> HambandNode<O> {
    /// The applied-calls map `A`.
    pub fn applied_map(&self) -> &hamband_core::counts::CountMap {
        &self.applied
    }

    /// Whether the local workload is fully issued and acknowledged.
    ///
    /// Conflicting quota is judged only by the node that leads the
    /// (mapped) group: the quota follows leadership, its leader knows
    /// the ring's tail exactly, and a quota the leader forfeited as
    /// ungeneratable is thereby forfeited for everyone. Its verdict
    /// includes the commit index being on its way to the followers —
    /// carried by an entry or written to their commit cells: the last
    /// commits of a run ride nothing, and until the next plan posts
    /// them a leader that stopped there would leave the followers short
    /// with every node reporting done. A follower
    /// answers for a group only that its leader is not suspected and no
    /// election or takeover is in flight here — until then the quota is
    /// about to move. Between a leader's failure and its suspicion a
    /// follower cannot know; whoever declares a *cluster* done must
    /// check that every recognized leader is alive and leading (the
    /// harness does), and that applied maps agree, which covers
    /// follower catch-up.
    pub fn workload_done(&self) -> bool {
        if self.halted {
            return self.calls_in_flight() == 0;
        }
        let conf_done = self.engines.iter().enumerate().all(|(g, e)| match &e.role {
            Role::Candidate { .. } | Role::TakingOver { .. } => false,
            Role::Leader(_) => {
                self.ingress.conf_remaining(g, e.tail) == 0 && e.commit_written >= e.commit
            }
            Role::Follower => !self.fd.is_suspected(rdma_sim::NodeId(e.leader_view.index())),
        });
        self.ingress.local_done() && self.calls_in_flight() == 0 && conf_done
    }

    /// The leader this node currently recognizes for group `g`.
    pub fn leader_view(&self, g: usize) -> Pid {
        self.engines[g].leader_view
    }

    /// Whether this node halted (its heartbeat was suspended).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Total update calls applied locally (own and remote).
    pub fn applied_updates(&self) -> u64 {
        self.applied.total()
    }

    /// Per-session completion stats from the client ingress (for
    /// harness fairness accounting).
    pub fn session_stats(&self) -> Vec<crate::ingress::SessionStats> {
        self.ingress.session_stats()
    }

    /// A structured diagnostic snapshot (replaces `debug_status()`;
    /// render with `Display` for the one-line form).
    pub fn status(&self) -> NodeStatus {
        NodeStatus {
            node: self.me.index(),
            done: self.workload_done(),
            driver_done: self.ingress.local_done(),
            outstanding: self.calls_in_flight(),
            halted: self.halted,
            applied: self.applied.total(),
            suspected: self.fd.suspected().iter().map(|p| p.index()).collect(),
            groups: self
                .engines
                .iter()
                .enumerate()
                .map(|(g, e)| GroupStatus {
                    group: g,
                    leader_view: e.leader_view,
                    role: RoleKind::from(&e.role),
                    promised: e.promised,
                    tail: e.tail,
                    commit: e.commit,
                    applied: e.reader.applied(),
                    uncommitted: e.own_unapplied().count(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::WorkloadSpec;
    use crate::harness::{assemble, RunConfig};
    use crate::verdict::drive;
    use hamband_types::Bank;
    use rdma_sim::{NodeId, Simulator};

    fn settled_bank() -> Simulator<HambandNode<Bank>> {
        let b = Bank::default();
        let run = RunConfig::new(4, WorkloadSpec::ops(800).with_update_ratio(0.5).with_seed(3));
        let (mut sim, _layout) = assemble(&b, &b.coord_spec(), &run);
        assert!(drive(&mut sim, run.max_time).1, "the run converges");
        sim
    }

    /// `com=` is true on every role: a node that never led has learnt
    /// the index it applied up to.
    #[test]
    fn a_follower_reports_the_commit_index_it_applied_under() {
        let sim = settled_bank();
        let leader = &sim.app(NodeId(0)).status().groups[0];
        assert_eq!(leader.role, RoleKind::Leader);
        assert!(leader.commit > 0, "Bank's withdrawals went through the log");
        for i in 1..4 {
            let g = &sim.app(NodeId(i)).status().groups[0];
            assert_eq!(g.role, RoleKind::Follower);
            assert!(g.commit >= g.applied, "node {i} shows {g}");
            assert_eq!(g.applied, leader.commit, "node {i} shows {g}");
        }
    }

    /// A leader whose commit index is ahead of everything it sent is
    /// not done: the followers cannot finish until its next plan posts
    /// the commit-cell round.
    #[test]
    fn a_leader_is_not_done_until_its_commit_index_is_on_its_way() {
        let mut sim = settled_bank();
        assert!(sim.app(NodeId(0)).workload_done());
        sim.app_mut(NodeId(0)).engines[0].commit_written = 0;
        assert!(!sim.app(NodeId(0)).workload_done(), "nothing carries the index");
        sim.with_app_ctx(NodeId(0), |node, ctx| node.pump(ctx));
        assert!(sim.app(NodeId(0)).workload_done(), "the plan's flush posted the round");
    }
}
