//! Spans and counts paired from a collected trace.
//!
//! The runtime emits point events ([`TraceRecord`]s stamped with
//! virtual time); the benchmark pairs them into spans from outside:
//!
//! * `free.append_to_apply` — follower lag: `RingAppend{Free}` →
//!   `RingApply{Free}` of the same (writer, reader, seq);
//! * `conf.append_to_commit` → `conf.commit_to_ack` — a conflicting
//!   call's two stages: the leader's first `RingAppend{Conf}` of a
//!   sequence number → the `CommitAdvance` that covers it → its `Ack`;
//!   the second span names the first as its parent and both share the
//!   (group, seq) identifier;
//! * `fabric.write_post_to_complete` — `VerbPosted{Write}` →
//!   `VerbCompleted` of the same (issuer, wr).
//!
//! Conflicting appends carry no group, so they are matched to the
//! `CommitAdvance` of the node that appended them — exact while a node
//! leads at most one group, which holds for every workload here.

use std::collections::HashMap;

use rdma_sim::{NodeId, Phase, RingKind, TraceEvent, TraceRecord, VerbKind};

use crate::measure::Metrics;
use crate::stats::percentile;

/// Which pairing produced a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `RingAppend{Free}` → `RingApply{Free}`.
    FreeAppendToApply,
    /// Leader's `RingAppend{Conf}` → covering `CommitAdvance`.
    ConfAppendToCommit,
    /// `CommitAdvance` → the call's `Ack`.
    ConfCommitToAck,
    /// `VerbPosted{Write}` → `VerbCompleted`.
    WritePostToComplete,
}

impl SpanKind {
    /// Every kind, in reporting order.
    pub const ALL: [SpanKind; 4] = [
        SpanKind::FreeAppendToApply,
        SpanKind::ConfAppendToCommit,
        SpanKind::ConfCommitToAck,
        SpanKind::WritePostToComplete,
    ];

    /// The span's name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FreeAppendToApply => "free.append_to_apply",
            SpanKind::ConfAppendToCommit => "conf.append_to_commit",
            SpanKind::ConfCommitToAck => "conf.commit_to_ack",
            SpanKind::WritePostToComplete => "fabric.write_post_to_complete",
        }
    }

    /// The kind of the span that caused this one, if any.
    pub fn parent(self) -> Option<SpanKind> {
        (self == SpanKind::ConfCommitToAck).then_some(SpanKind::ConfAppendToCommit)
    }
}

/// One paired span, virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which pairing.
    pub kind: SpanKind,
    /// Identifier shared by the spans of one request: (writer, reader,
    /// seq) for ring spans, (group, 0, seq) for conf spans, (issuer, 0,
    /// wr) for verbs.
    pub id: (usize, usize, u64),
    /// Start, virtual ns.
    pub start: u64,
    /// End, virtual ns.
    pub end: u64,
}

/// The leader failure's time without service, split into stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Fault → first `FdSuspect` naming the failed node.
    pub detect_ns: u64,
    /// First suspicion → first `LeaderChange`.
    pub elect_ns: u64,
    /// `LeaderChange` → next CONF `Ack`.
    pub resume_ns: u64,
    /// Fault → that CONF `Ack`: the time conflicting calls went
    /// without service. The stages partition this interval.
    pub total_ns: u64,
    /// The CONF `Ack` before that one → that CONF `Ack`: the gap as a
    /// client counting acknowledgements sees it.
    pub ack_gap_ns: u64,
}

/// Everything read out of one trace.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Records in the trace.
    pub events: u64,
    /// Paired spans, in completion order.
    pub spans: Vec<Span>,
    /// `RingAppend` records.
    pub appends: u64,
    /// `RingApply` records.
    pub applies: u64,
    /// `RingBatch` records (WRITEs spanning more than one slot).
    pub batches: u64,
    /// `SummaryWrite` records.
    pub summary_writes: u64,
    /// `Ack` records of REDUCE calls.
    pub reduce_acks: u64,
    /// `Ack` records of CONF calls.
    pub conf_acks: u64,
    /// `CommitAdvance` records.
    pub commit_advances: u64,
    /// `LeaderChange` records.
    pub leader_changes: u64,
    /// `Deposed` records.
    pub deposed: u64,
    /// `FdSuspect` records.
    pub fd_suspects: u64,
    /// The outage split (only with a fault, and only if every stage's
    /// event was found in order).
    pub outage: Option<Outage>,
}

/// Pair `events` into spans and counts. `fault` is the injected leader
/// failure (virtual ns, failed node), if the run had one.
pub fn analyze(events: &[TraceRecord], fault: Option<(u64, NodeId)>) -> TraceSummary {
    let mut t = TraceSummary {
        events: events.len() as u64,
        ..TraceSummary::default()
    };
    let mut free_appended: HashMap<(usize, usize, u64), u64> = HashMap::new();
    let mut conf_appended: HashMap<(usize, u64), u64> = HashMap::new();
    let mut committed: HashMap<(usize, u64), u64> = HashMap::new();
    let mut commit_index: HashMap<usize, u64> = HashMap::new();
    let mut posted: HashMap<(usize, u64), u64> = HashMap::new();
    // Outage stages, found in order.
    let (mut detected, mut elected, mut resumed) = (None, None, None);
    let mut last_conf_ack = 0;

    for rec in events {
        let at = rec.at.0;
        match &rec.event {
            TraceEvent::RingAppend {
                ring: RingKind::Free,
                writer,
                reader,
                seq,
            } => {
                t.appends += 1;
                free_appended.insert((writer.index(), reader.index(), *seq), at);
            }
            TraceEvent::RingAppend {
                ring: RingKind::Conf,
                writer,
                seq,
                ..
            } => {
                t.appends += 1;
                conf_appended.entry((writer.index(), *seq)).or_insert(at);
            }
            TraceEvent::RingApply {
                ring,
                reader,
                writer,
                seq,
            } => {
                t.applies += 1;
                let id = (writer.index(), reader.index(), *seq);
                if *ring == RingKind::Free {
                    if let Some(start) = free_appended.remove(&id) {
                        t.spans.push(Span {
                            kind: SpanKind::FreeAppendToApply,
                            id,
                            start,
                            end: at,
                        });
                    }
                }
            }
            TraceEvent::RingBatch { .. } => t.batches += 1,
            TraceEvent::SummaryWrite { .. } => t.summary_writes += 1,
            TraceEvent::CommitAdvance {
                node,
                group,
                commit,
            } => {
                t.commit_advances += 1;
                let from = commit_index.get(group).copied().unwrap_or(0);
                for seq in from + 1..=*commit {
                    committed.insert((*group, seq), at);
                    if let Some(start) = conf_appended.remove(&(node.index(), seq)) {
                        let id = (*group, 0, seq);
                        t.spans.push(Span {
                            kind: SpanKind::ConfAppendToCommit,
                            id,
                            start,
                            end: at,
                        });
                    }
                }
                commit_index.insert(*group, from.max(*commit));
            }
            TraceEvent::Ack {
                phase, group, seq, ..
            } => match phase {
                Phase::Reduce => t.reduce_acks += 1,
                Phase::Conf => {
                    t.conf_acks += 1;
                    if let (Some(g), Some(s)) = (group, seq) {
                        if let Some(start) = committed.remove(&(*g, *s)) {
                            let id = (*g, 0, *s);
                            t.spans.push(Span {
                                kind: SpanKind::ConfCommitToAck,
                                id,
                                start,
                                end: at,
                            });
                        }
                    }
                    if elected.is_some() && resumed.is_none() {
                        resumed = Some((at, at - last_conf_ack));
                    }
                    last_conf_ack = at;
                }
                Phase::Free | Phase::Query => {}
            },
            TraceEvent::VerbPosted {
                issuer,
                kind: VerbKind::Write,
                wr,
                ..
            } => {
                posted.insert((issuer.index(), wr.0), at);
            }
            TraceEvent::VerbCompleted {
                issuer,
                kind: VerbKind::Write,
                wr,
                ..
            } => {
                if let Some(start) = posted.remove(&(issuer.index(), wr.0)) {
                    let id = (issuer.index(), 0, wr.0);
                    t.spans.push(Span {
                        kind: SpanKind::WritePostToComplete,
                        id,
                        start,
                        end: at,
                    });
                }
            }
            TraceEvent::LeaderChange { .. } => {
                t.leader_changes += 1;
                if detected.is_some() && elected.is_none() {
                    elected = Some(at);
                }
            }
            TraceEvent::Deposed { .. } => t.deposed += 1,
            TraceEvent::FdSuspect { suspect, .. } => {
                t.fd_suspects += 1;
                if let Some((fault_at, failed)) = fault {
                    if detected.is_none() && *suspect == failed && at >= fault_at {
                        detected = Some(at);
                    }
                }
            }
            _ => {}
        }
    }
    if let (Some((fault_at, _)), Some(d), Some(e), Some((r, ack_gap_ns))) =
        (fault, detected, elected, resumed)
    {
        t.outage = Some(Outage {
            detect_ns: d - fault_at,
            elect_ns: e - d,
            resume_ns: r - e,
            total_ns: r - fault_at,
            ack_gap_ns,
        });
    }
    t
}

impl TraceSummary {
    /// Durations of the spans of `kind`, virtual ns.
    pub fn durations(&self, kind: SpanKind) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end - s.start)
            .collect()
    }

    fn p(&self, kind: SpanKind, q: f64) -> f64 {
        percentile(&mut self.durations(kind), q) as f64 / 1_000.0
    }

    /// The per-layer metrics of the traced run. `nodes` is the cluster
    /// size (each REDUCE call owes a summary to `nodes - 1` peers).
    pub fn metrics(&self, nodes: usize) -> Metrics {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let outage = self.outage.unwrap_or(Outage {
            detect_ns: 0,
            elect_ns: 0,
            resume_ns: 0,
            total_ns: 0,
            ack_gap_ns: 0,
        });
        let us = |ns: u64| ns as f64 / 1_000.0;
        vec![
            ("trace.events", self.events as f64),
            ("rings.appends", self.appends as f64),
            ("rings.applies", self.applies as f64),
            ("rings.batches", self.batches as f64),
            ("reduce.summary_writes", self.summary_writes as f64),
            (
                "reduce.folds_per_write",
                ratio(self.reduce_acks * (nodes as u64 - 1), self.summary_writes),
            ),
            ("conf.commit_advances", self.commit_advances as f64),
            (
                "conf.acks_per_commit",
                ratio(self.conf_acks, self.commit_advances),
            ),
            ("election.leader_changes", self.leader_changes as f64),
            ("election.deposed", self.deposed as f64),
            ("heartbeat.fd_suspects", self.fd_suspects as f64),
            (
                "free.append_to_apply_p50_vus",
                self.p(SpanKind::FreeAppendToApply, 0.50),
            ),
            (
                "free.append_to_apply_p99_vus",
                self.p(SpanKind::FreeAppendToApply, 0.99),
            ),
            (
                "conf.append_to_commit_p50_vus",
                self.p(SpanKind::ConfAppendToCommit, 0.50),
            ),
            (
                "conf.commit_to_ack_p50_vus",
                self.p(SpanKind::ConfCommitToAck, 0.50),
            ),
            (
                "fabric.write_post_to_complete_p50_vus",
                self.p(SpanKind::WritePostToComplete, 0.50),
            ),
            ("heartbeat.detect_vus", us(outage.detect_ns)),
            ("election.elect_vus", us(outage.elect_ns)),
            ("conf.resume_vus", us(outage.resume_ns)),
            ("conf.outage_vus", us(outage.total_ns)),
        ]
    }

    /// The trace file: run identity, counts, the outage split, each
    /// span kind's population and quantiles, and the first
    /// `max_spans_per_kind` spans of each kind (name, id, start, end,
    /// parent) in completion order.
    pub fn to_json(
        &self,
        workload: &str,
        seed: u64,
        fingerprint: u64,
        max_spans_per_kind: usize,
    ) -> String {
        let mut s = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"fingerprint\":\"{fingerprint:016x}\",\
             \"clock\":\"virtual ns\",\"events\":{},\n\"counts\":{{\"ring_appends\":{},\
             \"ring_applies\":{},\"ring_batches\":{},\"summary_writes\":{},\"reduce_acks\":{},\
             \"conf_acks\":{},\"commit_advances\":{},\"leader_changes\":{},\"deposed\":{},\
             \"fd_suspects\":{}}},\n\"outage\":",
            self.events,
            self.appends,
            self.applies,
            self.batches,
            self.summary_writes,
            self.reduce_acks,
            self.conf_acks,
            self.commit_advances,
            self.leader_changes,
            self.deposed,
            self.fd_suspects,
        );
        match self.outage {
            Some(o) => s.push_str(&format!(
                "{{\"detect_ns\":{},\"elect_ns\":{},\"resume_ns\":{},\"total_ns\":{},\"ack_gap_ns\":{}}}",
                o.detect_ns, o.elect_ns, o.resume_ns, o.total_ns, o.ack_gap_ns
            )),
            None => s.push_str("null"),
        }
        s.push_str(",\n\"span_kinds\":[");
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            let mut d = self.durations(kind);
            let parent = kind
                .parent()
                .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
            s.push_str(&format!(
                "{}\n{{\"name\":\"{}\",\"parent\":{parent},\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                if i > 0 { "," } else { "" },
                kind.name(),
                d.len(),
                percentile(&mut d, 0.50),
                percentile(&mut d, 0.99),
                percentile(&mut d, 1.0),
            ));
        }
        s.push_str(&format!(
            "],\n\"spans_written_per_kind\":{max_spans_per_kind},\n\"spans\":["
        ));
        let mut written = [0usize; 4];
        let mut first = true;
        for span in &self.spans {
            let k = SpanKind::ALL
                .iter()
                .position(|k| *k == span.kind)
                .expect("listed kind");
            if written[k] == max_spans_per_kind {
                continue;
            }
            written[k] += 1;
            s.push_str(&format!(
                "{}\n{{\"name\":\"{}\",\"id\":[{},{},{}],\"start_ns\":{},\"end_ns\":{}}}",
                if first { "" } else { "," },
                span.kind.name(),
                span.id.0,
                span.id.1,
                span.id.2,
                span.start,
                span.end,
            ));
            first = false;
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::{CompletionStatus, SimTime, WrId};

    fn rec(at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime(at),
            event,
        }
    }

    fn conf_ack(at: u64, node: usize, seq: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::Ack {
                node: NodeId(node),
                method: 2,
                phase: Phase::Conf,
                group: Some(0),
                seq: Some(seq),
            },
        )
    }

    #[test]
    fn pairs_a_hand_written_trace() {
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        let free = RingKind::Free;
        let conf = RingKind::Conf;
        let events = vec![
            // A WRITE carrying free entry 1 from n0 to n1 and n2.
            rec(
                100,
                TraceEvent::RingAppend {
                    ring: free,
                    writer: n0,
                    reader: n1,
                    seq: 1,
                },
            ),
            rec(
                100,
                TraceEvent::RingAppend {
                    ring: free,
                    writer: n0,
                    reader: n2,
                    seq: 1,
                },
            ),
            rec(
                110,
                TraceEvent::VerbPosted {
                    issuer: n0,
                    kind: VerbKind::Write,
                    target: n1,
                    wr: WrId(7),
                    bytes: 64,
                },
            ),
            // Same wr id on another node is another request.
            rec(
                115,
                TraceEvent::VerbPosted {
                    issuer: n1,
                    kind: VerbKind::Write,
                    target: n0,
                    wr: WrId(7),
                    bytes: 8,
                },
            ),
            rec(
                900,
                TraceEvent::VerbCompleted {
                    issuer: n0,
                    kind: VerbKind::Write,
                    wr: WrId(7),
                    status: CompletionStatus::Success,
                },
            ),
            rec(
                1_000,
                TraceEvent::RingApply {
                    ring: free,
                    reader: n1,
                    writer: n0,
                    seq: 1,
                },
            ),
            rec(
                1_700,
                TraceEvent::RingApply {
                    ring: free,
                    reader: n2,
                    writer: n0,
                    seq: 1,
                },
            ),
            // The leader n0 appends conf entries 1 and 2 to both peers;
            // one CommitAdvance covers both, acks follow.
            rec(
                2_000,
                TraceEvent::RingAppend {
                    ring: conf,
                    writer: n0,
                    reader: n1,
                    seq: 1,
                },
            ),
            rec(
                2_005,
                TraceEvent::RingAppend {
                    ring: conf,
                    writer: n0,
                    reader: n2,
                    seq: 1,
                },
            ),
            rec(
                2_100,
                TraceEvent::RingAppend {
                    ring: conf,
                    writer: n0,
                    reader: n1,
                    seq: 2,
                },
            ),
            rec(
                2_100,
                TraceEvent::RingBatch {
                    ring: conf,
                    writer: n0,
                    reader: n1,
                    first_seq: 1,
                    count: 2,
                },
            ),
            rec(
                3_000,
                TraceEvent::CommitAdvance {
                    node: n0,
                    group: 0,
                    commit: 2,
                },
            ),
            conf_ack(3_050, 0, 1),
            conf_ack(3_090, 0, 2),
            rec(
                3_100,
                TraceEvent::SummaryWrite {
                    issuer: n1,
                    target: n0,
                    method: 0,
                    version: 4,
                },
            ),
            rec(
                3_100,
                TraceEvent::Ack {
                    node: n1,
                    method: 0,
                    phase: Phase::Reduce,
                    group: None,
                    seq: None,
                },
            ),
            rec(
                3_200,
                TraceEvent::Ack {
                    node: n1,
                    method: 0,
                    phase: Phase::Reduce,
                    group: None,
                    seq: None,
                },
            ),
            // An append whose apply never shows up pairs with nothing.
            rec(
                3_300,
                TraceEvent::RingAppend {
                    ring: free,
                    writer: n1,
                    reader: n0,
                    seq: 9,
                },
            ),
        ];
        let t = analyze(&events, None);
        assert_eq!(t.events, events.len() as u64);
        assert_eq!((t.appends, t.applies, t.batches), (6, 2, 1));
        assert_eq!(
            (
                t.summary_writes,
                t.reduce_acks,
                t.conf_acks,
                t.commit_advances
            ),
            (1, 2, 2, 1)
        );
        assert_eq!(t.durations(SpanKind::FreeAppendToApply), vec![900, 1_600]);
        assert_eq!(t.durations(SpanKind::WritePostToComplete), vec![790]);
        // First append of each seq starts the span; one advance ends both.
        assert_eq!(t.durations(SpanKind::ConfAppendToCommit), vec![1_000, 900]);
        assert_eq!(t.durations(SpanKind::ConfCommitToAck), vec![50, 90]);
        let ack_span = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::ConfCommitToAck)
            .unwrap();
        let commit_span = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::ConfAppendToCommit)
            .unwrap();
        assert_eq!(
            ack_span.id, commit_span.id,
            "spans of one call share an identifier"
        );
        assert_eq!(
            ack_span.start, commit_span.end,
            "the child starts where its parent ends"
        );
        assert!(t.outage.is_none());

        let m: HashMap<_, _> = t.metrics(3).into_iter().collect();
        assert_eq!(m["conf.acks_per_commit"], 2.0);
        // Two REDUCE calls owe 2 peers each; one summary write went out.
        assert_eq!(m["reduce.folds_per_write"], 4.0);
        assert_eq!(m["free.append_to_apply_p50_vus"], 0.9);
        assert_eq!(m["free.append_to_apply_p99_vus"], 1.6);
        assert_eq!(m["conf.outage_vus"], 0.0);

        let json = t.to_json("hand", 1, 0xabc, 1);
        assert!(json.contains("\"fingerprint\":\"0000000000000abc\""));
        assert!(json.contains(
            "\"name\":\"free.append_to_apply\",\"parent\":null,\"count\":2,\"p50_ns\":900"
        ));
        assert_eq!(
            json.matches("\"start_ns\"").count(),
            4,
            "one span per kind written"
        );
    }

    #[test]
    fn outage_stages_partition_the_time_without_service() {
        let failed = NodeId(0);
        let events = vec![
            conf_ack(900, 0, 1),
            conf_ack(990, 0, 2),
            // Fault at 1000. An unrelated suspicion does not count.
            rec(
                5_000,
                TraceEvent::FdSuspect {
                    node: NodeId(1),
                    suspect: NodeId(3),
                },
            ),
            rec(
                27_000,
                TraceEvent::FdSuspect {
                    node: NodeId(1),
                    suspect: failed,
                },
            ),
            rec(
                27_500,
                TraceEvent::FdSuspect {
                    node: NodeId(2),
                    suspect: failed,
                },
            ),
            rec(
                80_000,
                TraceEvent::LeaderChange {
                    group: 0,
                    leader: NodeId(1),
                    epoch: 2,
                },
            ),
            rec(
                80_100,
                TraceEvent::Deposed {
                    group: 0,
                    node: failed,
                    epoch: 2,
                },
            ),
            conf_ack(86_000, 1, 3),
            conf_ack(87_000, 1, 4),
        ];
        let t = analyze(&events, Some((1_000, failed)));
        let o = t.outage.expect("every stage found");
        assert_eq!(
            (o.detect_ns, o.elect_ns, o.resume_ns),
            (26_000, 53_000, 6_000)
        );
        assert_eq!(o.total_ns, 85_000);
        assert_eq!(o.detect_ns + o.elect_ns + o.resume_ns, o.total_ns);
        assert_eq!(o.ack_gap_ns, 86_000 - 990);
        assert_eq!((t.fd_suspects, t.leader_changes, t.deposed), (3, 1, 1));
        // Without the election the split is absent, not partial.
        assert!(analyze(&events[..5], Some((1_000, failed)))
            .outage
            .is_none());
    }
}
