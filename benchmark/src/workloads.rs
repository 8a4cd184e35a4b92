//! The five workloads: what runs, at what size, and why it is here.
//!
//! Every field a result depends on is set here explicitly — nothing is
//! left to `RuntimeConfig::default()`'s or `WorkloadSpec::ops`'s
//! reading of `HAMBAND_*` environment variables (which `main` clears
//! anyway), so numbers cannot shift with the caller's environment.

use hamband_runtime::persist::DurabilityMode;
use hamband_runtime::{Backend, RunConfig, RuntimeConfig, TraceMode, WorkloadSpec};
use hamband_types::{Bank, Counter, Courseware, OrSet};
use rdma_sim::{Fault, FaultPlan, NodeId, SimTime};

use crate::measure::{run_rep, Rep};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while the benchmark or a change under test was
/// written: claims must also hold on it.
pub const HOLDOUT_SEED: u64 = 0x5eed_cafe;

/// Offered load of the open-loop workload, operations per second
/// cluster-wide (about 15 % of closed-loop capacity on two cores).
pub const OPEN_LOOP_RATE: f64 = 100_000.0;

/// Which object a workload replicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    /// `hamband_types::Bank`: open = REDUCE, deposit = FREE, withdraw = CONF.
    Bank,
    /// `hamband_types::Counter`: REDUCE only.
    Counter,
    /// `hamband_types::OrSet`: FREE only, removes depend on adds.
    OrSet,
    /// `hamband_types::Courseware`: REDUCE (grow-only) and CONF, one conflicting group.
    Courseware,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// The replicated object.
    pub object: Object,
    /// Cluster size.
    pub nodes: usize,
    /// Calls per simulator repetition at scale 1, chosen so a
    /// repetition takes about a second of host time and every quota
    /// divides evenly over methods and nodes.
    pub calls: u64,
    /// Share of calls that are updates.
    pub update_ratio: f64,
    /// Client sessions per node.
    pub sessions: usize,
    /// Whether the summary slot keeps the fixed 4 KiB payload cap
    /// (`false`: `RunConfig::new`'s cap scaled to the call budget).
    pub fixed_summary_cap: bool,
    /// Virtual time at scale 1 at which node 0's heartbeat is
    /// suspended, if the workload injects the leader failure.
    pub fault_at_ns: Option<u64>,
    /// Whether the wall-clock part runs: the same object on
    /// `Backend::Threaded` under open-loop Poisson arrivals.
    pub threaded_open_loop: bool,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bank-mixed",
        why: "Paper's headline mix: REDUCE, FREE and CONF updates plus queries, so conf, rings, codec and the simulator loop all carry load",
        object: Object::Bank,
        nodes: 4,
        calls: 240_000,
        update_ratio: 0.5,
        sessions: 1,
        fixed_summary_cap: true,
        fault_at_ns: None,
        threaded_open_loop: false,
    },
    Workload {
        name: "counter-reduce",
        why: "REDUCE only: summary slots and write-combining do all the work, rings and consensus none, so a ring or conf change must show no change here",
        object: Object::Counter,
        nodes: 4,
        calls: 806_400,
        update_ratio: 1.0,
        sessions: 1,
        fixed_summary_cap: true,
        fault_at_ns: None,
        threaded_open_loop: false,
    },
    Workload {
        name: "orset-sessions",
        why: "FREE path with dependencies, 64 sessions per node on 6 nodes, 3:1 reads: deep ingress queues, 5-peer ring fan-out, reader polling; bypasses summaries and consensus",
        object: Object::OrSet,
        nodes: 6,
        calls: 72_000,
        update_ratio: 0.25,
        sessions: 64,
        fixed_summary_cap: true,
        fault_at_ns: None,
        threaded_open_loop: false,
    },
    Workload {
        name: "courseware-leaderfail",
        why: "Fig. 13: the leader's heartbeat stops mid-run, so detection, election and resumed CONF service are timed; grow-only summaries in large scaled slots",
        object: Object::Courseware,
        nodes: 4,
        calls: 32_256,
        update_ratio: 0.5,
        sessions: 1,
        fixed_summary_cap: false,
        fault_at_ns: Some(3_000_000),
        threaded_open_loop: false,
    },
    Workload {
        name: "thr-counter-open",
        why: "Real threads, open-loop Poisson arrivals at 100k ops/s timed from arrival: the only wall-clock latency; its simulator twin prices the same mix in verbs",
        object: Object::Counter,
        nodes: 2,
        calls: 403_200,
        update_ratio: 0.5,
        sessions: 8,
        fixed_summary_cap: true,
        fault_at_ns: None,
        threaded_open_loop: true,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

impl Workload {
    /// Calls of one simulator repetition at `scale`, kept a multiple of
    /// 48 × nodes so every per-method and per-node quota stays whole.
    pub fn sim_calls(&self, scale: f64) -> u64 {
        let unit = 48 * self.nodes as u64;
        (scaled(self.calls, scale) / unit).max(1) * unit
    }

    /// Virtual time of the injected leader failure at `scale`.
    pub fn fault_at(&self, scale: f64) -> Option<u64> {
        self.fault_at_ns.map(|at| scaled(at, scale))
    }

    fn runtime(&self, calls: u64) -> RuntimeConfig {
        let cap = if self.fixed_summary_cap {
            4096
        } else {
            // What `RunConfig::new` would choose for this budget.
            4096.max(calls as usize * 16)
        };
        RuntimeConfig::default()
            .with_summary_payload_cap(cap)
            .with_window(8)
            .with_max_batch(16)
            .with_sync_shards(1)
            .with_durability(DurabilityMode::Off)
    }

    fn spec(&self, calls: u64, seed: u64) -> WorkloadSpec {
        WorkloadSpec::ops(calls)
            .with_update_ratio(self.update_ratio)
            .with_sessions(self.sessions)
            .with_window(8)
            .with_seed(seed)
            .closed_loop()
    }

    /// The simulator configuration of one repetition of `calls` calls:
    /// closed loop, `Backend::Sim`, workload and fabric both seeded
    /// from `seed`.
    pub fn sim_config(&self, calls: u64, scale: f64, seed: u64, trace: TraceMode) -> RunConfig {
        let mut faults = FaultPlan::new();
        if let Some(at) = self.fault_at(scale) {
            faults = faults.at(SimTime(at), Fault::SuspendHeartbeat(NodeId(0)));
        }
        RunConfig::new(self.nodes, self.spec(calls, seed))
            .with_runtime(self.runtime(calls))
            .with_seed(seed)
            .with_faults(faults)
            .with_trace(trace)
            .with_backend(Backend::Sim)
            // Virtual cap: ten times what the largest workload needs.
            .with_max_time(SimTime(1_000_000_000))
    }

    /// The threaded configuration: `calls` calls, open loop at `rate`
    /// ops/s (closed loop when `None`), wall cap `cap_s` seconds.
    pub fn threaded_config(
        &self,
        calls: u64,
        seed: u64,
        rate: Option<f64>,
        cap_s: u64,
    ) -> RunConfig {
        let mut spec = self.spec(calls, seed);
        if let Some(rate) = rate {
            spec = spec.with_offered_load(rate);
        }
        RunConfig::new(self.nodes, spec)
            .with_runtime(self.runtime(calls))
            .with_seed(seed)
            .with_backend(Backend::Threaded)
            .with_max_time(SimTime(cap_s * 1_000_000_000))
    }

    /// Run `config` against this workload's object and check it.
    pub fn run(&self, config: RunConfig) -> Rep {
        match self.object {
            Object::Bank => {
                let o = Bank::default();
                run_rep(&o, &o.coord_spec(), config)
            }
            Object::Counter => {
                let o = Counter::default();
                run_rep(&o, &o.coord_spec(), config)
            }
            Object::OrSet => {
                let o = OrSet::default();
                run_rep(&o, &o.coord_spec(), config)
            }
            Object::Courseware => {
                let o = Courseware::default();
                run_rep(&o, &o.coord_spec(), config)
            }
        }
    }

    /// A run of the same configuration with the smallest whole budget
    /// (48 calls per node, under a millisecond of work): prices layout
    /// planning, region allocation and cluster construction. No fault
    /// is injected: the run is over long before one would fire.
    pub fn run_minimal(&self, mut config: RunConfig) -> Rep {
        config.workload.total_ops = 48 * self.nodes as u64;
        config.faults = FaultPlan::new();
        self.run(config)
    }

    /// The resolved configuration, for the record.
    pub fn describe(&self, config: &RunConfig) -> String {
        format!(
            "{}: object={:?} backend={} nodes={} seed={} faults={:?} max_time_ns={} workload={:?} runtime={:?}",
            self.name,
            self.object,
            config.backend.label(),
            config.nodes,
            config.seed,
            config.faults.entries(),
            config.max_time.0,
            config.workload,
            config.runtime,
        )
    }
}
