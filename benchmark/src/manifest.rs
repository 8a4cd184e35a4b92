//! The metric tables: every metric's name, unit, direction and (end to
//! end) regression bound. `BENCHMARK.json` at the repository root is
//! this module rendered by `hamband-benchmark manifest`; a test keeps
//! the two equal.

use crate::workloads::WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

use Better::{Higher, Lower};

/// An end-to-end metric: (name, unit, direction, bound). The bound is
/// the share of the parent's median by which the metric may worsen
/// before a change counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    // calls ÷ virtual time until every update is applied everywhere (paper §5)
    ("tput_ops_per_vus", "ops/vus", Higher, 0.02),
    // mean response time over all calls, virtual µs (paper §5)
    ("rt_mean_vus", "vus", Lower, 0.02),
    // mean response time over update calls only, virtual µs
    ("rt_update_mean_vus", "vus", Lower, 0.02),
    // calls ÷ wall time of Runner::run, fastest repetition
    ("host_ops_per_s", "ops/s", Higher, 0.25),
    // child process start → ready for the first timed repetition, median of 11
    ("setup_s", "s", Lower, 0.25),
];

/// A per-layer metric: (name, unit, direction). Layer = module name.
pub const PER_LAYER: [(&str, &str, Better); 77] = [
    // From the untraced run's RunOutcome (exact, virtual clock).
    ("reduce.calls", "count", Higher),
    ("reduce.rt_mean_vus", "vus", Lower),
    ("reduce.rt_p50_vus", "vus", Lower),
    ("reduce.rt_p99_vus", "vus", Lower),
    ("free.calls", "count", Higher),
    ("free.rt_mean_vus", "vus", Lower),
    ("free.rt_p50_vus", "vus", Lower),
    ("free.rt_p99_vus", "vus", Lower),
    ("conf.calls", "count", Higher),
    ("conf.rt_mean_vus", "vus", Lower),
    ("conf.rt_p50_vus", "vus", Lower),
    ("conf.rt_p99_vus", "vus", Lower),
    ("calls.update_rt_p50_vus", "vus", Lower),
    ("calls.update_rt_p99_vus", "vus", Lower),
    ("calls.query_rt_mean_vus", "vus", Lower),
    ("calls.rejected", "count", Lower),
    ("calls.rt_max_vus", "vus", Lower),
    ("fabric.writes_per_update", "ratio", Lower),
    ("fabric.bytes_per_update", "bytes", Lower),
    ("fabric.reads", "count", Lower),
    ("fabric.cas", "count", Lower),
    ("fabric.messages", "count", Lower),
    ("rings.writes", "count", Lower),
    ("rings.batch_factor", "ratio", Higher),
    ("ingress.jain", "ratio", Higher),
    ("ingress.session_rt_p99_vus", "vus", Lower),
    ("ingress.min_session_ops_per_s", "ops/s", Higher),
    ("harness.virt_us", "vus", Lower),
    ("harness.host_s", "s", Lower),
    // From the traced run (TraceMode::Collect).
    ("trace.events", "count", Lower),
    ("trace.overhead_frac", "ratio", Lower),
    ("rings.appends", "count", Lower),
    ("rings.applies", "count", Lower),
    ("rings.batches", "count", Higher),
    ("reduce.summary_writes", "count", Lower),
    ("reduce.folds_per_write", "ratio", Higher),
    ("conf.commit_advances", "count", Lower),
    ("conf.acks_per_commit", "ratio", Higher),
    ("election.leader_changes", "count", Lower),
    ("election.deposed", "count", Lower),
    ("heartbeat.fd_suspects", "count", Lower),
    ("free.append_to_apply_p50_vus", "vus", Lower),
    ("free.append_to_apply_p99_vus", "vus", Lower),
    ("conf.append_to_commit_p50_vus", "vus", Lower),
    ("conf.commit_to_ack_p50_vus", "vus", Lower),
    ("fabric.write_post_to_complete_p50_vus", "vus", Lower),
    ("heartbeat.detect_vus", "vus", Lower),
    ("election.elect_vus", "vus", Lower),
    ("conf.resume_vus", "vus", Lower),
    ("conf.outage_vus", "vus", Lower),
    // Host-time probes (median of 15 batches).
    ("codec.entry_encode_ns", "ns", Lower),
    ("codec.entry_decode_ns", "ns", Lower),
    ("codec.slot_ready_ns", "ns", Lower),
    ("codec.summary_encode_ns", "ns", Lower),
    ("codec.summary_decode_ns", "ns", Lower),
    ("codec.summary_encode_64k_ns", "ns", Lower),
    ("wire.update_roundtrip_ns", "ns", Lower),
    ("rings.append_flush_ns", "ns", Lower),
    ("rings.poll_empty_ns", "ns", Lower),
    ("rings.peek_advance_ns", "ns", Lower),
    ("sim.events_per_s", "events/s", Higher),
    ("sim.write_ns", "ns", Lower),
    ("conf.engine_commit_ns", "ns", Lower),
    ("persist.encode_record_ns", "ns", Lower),
    ("persist.decode_record_ns", "ns", Lower),
    ("metrics.hist_record_ns", "ns", Lower),
    ("types.bank_apply_ns", "ns", Lower),
    ("types.orset_apply_ns", "ns", Lower),
    ("types.counter_summarize_ns", "ns", Lower),
    ("types.courseware_summarize_ns", "ns", Lower),
    // Threaded backend, wall clock (0 on the simulator workloads).
    ("threaded.rt_p50_us", "us", Lower),
    ("threaded.rt_p99_us", "us", Lower),
    ("threaded.rt_max_us", "us", Lower),
    ("threaded.achieved_frac", "ratio", Higher),
    ("threaded.span_over_ideal", "ratio", Lower),
    ("threaded.capacity_ops_per_s", "ops/s", Higher),
    ("threaded.writes_per_update", "ratio", Lower),
];

/// The one run command, as `BENCHMARK.json` lists it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 15;

/// The unit of metric `name`, if the tables list it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

fn better(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// `BENCHMARK.json`, rendered.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|&(n, u, b, bound)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\", \"bound\": {bound}}}",
                better(b)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}",
                better(b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(well_formed_name(n), "name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}: why",
                w.name
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {u}"
            );
        }
        for (n, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{n}: bound {bound}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", Lower, 0.25)));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `hamband-benchmark manifest`"
        );
    }
}
