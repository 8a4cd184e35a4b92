//! The per-figure experiment drivers.
//!
//! Each `figN` function reproduces the workloads of the corresponding
//! figure of the paper's §5 and returns a [`FigOutcome`]: the rendered
//! table plus a list of *shape checks* — the qualitative claims the
//! paper makes about the figure (who wins, roughly by how much, which
//! trends hold). The `figures` binary evaluates every check; the integration
//! tests run scaled-down versions and assert they pass.

use std::fmt::Write as _;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::Pid;
use hamband_core::object::WorkloadSupport;
use hamband_runtime::{RunConfig, RunReport, Runner, System, WorkloadSpec};
use hamband_types::{Cart, Counter, Courseware, GSet, LwwRegister, Movie, OrSet, Project};
use rdma_sim::{Fault, FaultPlan, NodeId, SimTime};

/// Experiment scaling options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Calls per data point (paper: 4M; default here: 2000).
    pub ops: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { ops: 2_000, seed: 0x5eed }
    }
}

/// A named qualitative check over an experiment's results.
#[derive(Debug, Clone)]
pub struct Check {
    /// What the paper claims.
    pub claim: String,
    /// Whether this run exhibits it.
    pub holds: bool,
    /// Supporting numbers.
    pub detail: String,
}

/// The output of one figure reproduction.
#[derive(Debug, Clone)]
pub struct FigOutcome {
    /// Figure identifier ("Figure 8", …).
    pub name: String,
    /// Rendered result table.
    pub table: String,
    /// Shape checks against the paper's claims.
    pub checks: Vec<Check>,
}

impl FigOutcome {
    /// Whether every shape check holds.
    pub fn all_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }
}

impl std::fmt::Display for FigOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "==== {} ====", self.name)?;
        writeln!(f, "{}", self.table)?;
        for c in &self.checks {
            writeln!(f, "  [{}] {} — {}", if c.holds { "ok" } else { "!!" }, c.claim, c.detail)?;
        }
        Ok(())
    }
}

pub(crate) fn check(claim: &str, holds: bool, detail: String) -> Check {
    Check { claim: claim.to_string(), holds, detail }
}

/// Virtual time a run may take per call before `drive` gives up: the
/// MSG baseline at 25 % updates needs about 1.05 µs a call (210 ms at
/// 200 000 calls), so twice that.
const MAX_TIME_PER_CALL_NS: u64 = 2_000;

/// A figure run's configuration, its `max_time` [`scaled`].
fn cfg(nodes: usize, ops: u64, ratio: f64, seed: u64) -> RunConfig {
    scaled(
        RunConfig::new(nodes, WorkloadSpec::ops(ops).with_update_ratio(ratio).with_seed(seed))
            .with_seed(seed ^ 0xfab),
    )
}

/// `rc` with a `max_time` that scales with its call budget and never
/// falls below `RunConfig`'s default.
pub(crate) fn scaled(rc: RunConfig) -> RunConfig {
    let max_time = rc.max_time.max(SimTime(rc.workload.total_ops * MAX_TIME_PER_CALL_NS));
    rc.with_max_time(max_time)
}

/// One run of `system` on `spec`. Mu-SMR substitutes the complete
/// conflict relation for `coord` and reads only its method count.
pub(crate) fn run<O>(system: System, spec: &O, coord: &CoordSpec, rc: &RunConfig) -> RunReport
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    Runner::new(system, rc.clone()).run(spec, coord).report
}

/// Geometric mean of positive ratios.
pub(crate) fn gmean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Update ratios of the Fig. 8 and Fig. 9 sweeps.
const SWEEP_RATIOS: [f64; 3] = [0.25, 0.15, 0.05];
/// Node counts of the Fig. 8 and Fig. 9 sweeps.
const SWEEP_NODES: [usize; 5] = [3, 4, 5, 6, 7];

/// The systems a Fig. 8 / Fig. 9 sweep and the headline compare, in
/// the order their rows are printed.
const SYSTEMS: [System; 3] = [System::Hamband, System::Msg, System::MuSmr];

/// One system's runs at one update ratio of a sweep.
struct SweepRow {
    /// Throughput at each of [`SWEEP_NODES`].
    tput: Vec<f64>,
    /// Mean response time on four nodes.
    rt4: f64,
}

/// The Fig. 8 / Fig. 9 sweep of one type: every ratio of
/// [`SWEEP_RATIOS`] at every node count `n` of [`SWEEP_NODES`] on the
/// three [`SYSTEMS`], seeded `seed + n` and rendered into `table`; a
/// run that does not converge clears `converged`. Returns each ratio's
/// three rows.
fn sweep<O>(
    name: &str,
    spec: &O,
    coord: &CoordSpec,
    ops: u64,
    seed: u64,
    table: &mut String,
    converged: &mut bool,
) -> Vec<[SweepRow; 3]>
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let mut rows = Vec::new();
    for &ratio in &SWEEP_RATIOS {
        let _ = writeln!(table, "{name}, {}% updates:", (ratio * 100.0) as u32);
        let _ = write!(table, "  {:>8}", "system");
        for &n in &SWEEP_NODES {
            let _ = write!(table, "  n={n:<7}");
        }
        let _ = writeln!(table, "  rt@4 (us)");
        rows.push(std::array::from_fn(|i| {
            let _ = write!(table, "  {:>8}", SYSTEMS[i].label());
            let mut row = SweepRow { tput: Vec::new(), rt4: 0.0 };
            for &n in &SWEEP_NODES {
                let rep = run(SYSTEMS[i], spec, coord, &cfg(n, ops, ratio, seed + n as u64));
                *converged &= rep.converged;
                let _ = write!(table, "  {:<9.2}", rep.throughput_ops_per_us);
                row.tput.push(rep.throughput_ops_per_us);
                if n == 4 {
                    row.rt4 = rep.mean_rt_us;
                }
            }
            let _ = writeln!(table, "  {:<9.2}", row.rt4);
            row
        }));
        let _ = writeln!(table);
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 8: effect of summarization and remote writes (reducible)
// ---------------------------------------------------------------------

/// Figure 8 — Counter, LWW, GSet (reducible); Hamband vs MSG vs Mu.
/// (a) throughput scaling over node counts and update ratios,
/// (b) response time on four nodes.
pub fn fig8(opts: &ExpOptions) -> FigOutcome {
    let mut table = String::new();
    let mut all_converged = true;
    // Per type, then per update ratio: the three systems' rows.
    let mut sweeps = Vec::new();
    let (c, l, g) = (Counter::default(), LwwRegister::default(), GSet::default());
    let (t, ok) = (&mut table, &mut all_converged);
    sweeps.extend(sweep("Counter", &c, &c.coord_spec(), opts.ops, opts.seed, t, ok));
    sweeps.extend(sweep("LWW", &l, &l.coord_spec(), opts.ops, opts.seed, t, ok));
    sweeps.extend(sweep("GSet", &g, &g.coord_spec(), opts.ops, opts.seed, t, ok));

    // Ratios at 4 nodes (index 1).
    let hb_over_msg: Vec<f64> =
        sweeps.iter().map(|[hb, msg, _]| hb.tput[1] / msg.tput[1].max(1e-9)).collect();
    let hb_over_mu: Vec<f64> =
        sweeps.iter().map(|[hb, _, mu]| hb.tput[1] / mu.tput[1].max(1e-9)).collect();
    // Hamband scales with node count at low update ratios.
    let scaling_ok = SWEEP_RATIOS
        .iter()
        .cycle()
        .zip(&sweeps)
        .all(|(&ratio, [hb, ..])| ratio > 0.15 || hb.tput[4] > hb.tput[0]);
    let rt_hb: Vec<f64> = sweeps.iter().map(|[hb, ..]| hb.rt4).collect();
    let rt_mu: Vec<f64> = sweeps.iter().map(|[.., mu]| mu.rt4).collect();
    // Response-time ratio msg/hamband at 4 nodes, on Counter.
    let rt_msg_over_hb: Vec<f64> = sweeps[..SWEEP_RATIOS.len()]
        .iter()
        .map(|[hb, msg, _]| msg.rt4 / hb.rt4.max(1e-9))
        .collect();

    let checks = vec![
        check("all runs converged", all_converged, String::new()),
        check(
            "Hamband outperforms MSG throughput by a large factor (paper: 18.4x)",
            gmean(&hb_over_msg) > 5.0,
            format!("geomean {:.1}x", gmean(&hb_over_msg)),
        ),
        check(
            "Hamband outperforms Mu throughput (paper: 4.1x)",
            gmean(&hb_over_mu) > 1.8,
            format!("geomean {:.1}x", gmean(&hb_over_mu)),
        ),
        check(
            "Hamband throughput grows with node count at low update ratios",
            scaling_ok,
            String::new(),
        ),
        check(
            "Hamband response time far below MSG (paper: 21x)",
            gmean(&rt_msg_over_hb) > 5.0,
            format!("geomean {:.1}x", gmean(&rt_msg_over_hb)),
        ),
        check(
            "Hamband response time comparable to Mu",
            gmean(&rt_hb) < 2.5 * gmean(&rt_mu).max(1e-9),
            format!("hamband {:.2} us vs mu {:.2} us", gmean(&rt_hb), gmean(&rt_mu)),
        ),
    ];
    FigOutcome { name: "Figure 8 — effect of reduction (reducible methods)".into(), table, checks }
}

// ---------------------------------------------------------------------
// Figure 9: effect of remote buffering (irreducible conflict-free)
// ---------------------------------------------------------------------

/// Figure 9 — ORSet, GSet (buffered), Shopping cart; Hamband vs MSG vs
/// Mu on irreducible conflict-free workloads.
pub fn fig9(opts: &ExpOptions) -> FigOutcome {
    let mut table = String::new();
    let mut all_converged = true;
    let seed = opts.seed + 31;
    // Per type, then per update ratio: the three systems' rows.
    let mut sweeps = Vec::new();
    let (o, g, cart) = (OrSet::default(), GSet::default(), Cart::default());
    let (t, ok) = (&mut table, &mut all_converged);
    sweeps.extend(sweep("ORSet", &o, &o.coord_spec(), opts.ops, seed, t, ok));
    sweeps.extend(sweep("GSet(buffered)", &g, &g.coord_spec_buffered(), opts.ops, seed, t, ok));
    sweeps.extend(sweep("Cart", &cart, &cart.coord_spec(), opts.ops, seed, t, ok));
    let hb_over_msg: Vec<f64> =
        sweeps.iter().map(|[hb, msg, _]| hb.tput[1] / msg.tput[1].max(1e-9)).collect();
    let hb_over_mu: Vec<f64> =
        sweeps.iter().map(|[hb, _, mu]| hb.tput[1] / mu.tput[1].max(1e-9)).collect();
    let rt_ratio: Vec<f64> =
        sweeps.iter().map(|[hb, msg, _]| msg.rt4 / hb.rt4.max(1e-9)).collect();

    let checks = vec![
        check("all runs converged", all_converged, String::new()),
        check(
            "Hamband outperforms MSG throughput (paper: 17x)",
            gmean(&hb_over_msg) > 5.0,
            format!("geomean {:.1}x", gmean(&hb_over_msg)),
        ),
        check(
            "Hamband outperforms Mu throughput (paper: 3x)",
            gmean(&hb_over_mu) > 1.5,
            format!("geomean {:.1}x", gmean(&hb_over_mu)),
        ),
        check(
            "Hamband response time far below MSG (paper: 24.3x)",
            gmean(&rt_ratio) > 5.0,
            format!("geomean {:.1}x", gmean(&rt_ratio)),
        ),
    ];
    FigOutcome {
        name: "Figure 9 — effect of remote buffering (irreducible conflict-free)".into(),
        table,
        checks,
    }
}

// ---------------------------------------------------------------------
// Figure 10: effect of synchronization groups (Movie, two leaders)
// ---------------------------------------------------------------------

/// Figure 10 — Movie schema (two synchronization groups) on four
/// nodes, update-only workloads of growing size: Hamband's two leaders
/// vs Mu's single leader, plus a single-leader Hamband ablation.
pub fn fig10(opts: &ExpOptions) -> FigOutcome {
    let m = Movie::default();
    let coord = m.coord_spec();
    let sizes = [opts.ops, opts.ops * 2, opts.ops * 4];
    let mut table = String::new();
    let _ = writeln!(
        table,
        "  {:>10}  {:>12}  {:>12}  {:>16}  {:>12}",
        "ops", "hamband t", "mu-smr t", "hamband(1ldr) t", "gain hb/mu"
    );
    let mut gains = Vec::new();
    let mut rt_pairs = Vec::new();
    let mut all_converged = true;
    for (i, &ops) in sizes.iter().enumerate() {
        let rc = cfg(4, ops, 1.0, opts.seed + 100 + i as u64);
        let hb = run(System::Hamband, &m, &coord, &rc);
        let mu = run(System::MuSmr, &m, &coord, &rc);
        let rc1 = rc.clone().with_leaders(vec![Pid(0), Pid(0)]);
        let hb1 = Runner::new(System::Hamband, rc1).with_label("hamband-1ldr").run(&m, &coord).report;
        all_converged &= hb.converged && mu.converged && hb1.converged;
        let gain = hb.throughput_ops_per_us / mu.throughput_ops_per_us.max(1e-9);
        gains.push(gain);
        rt_pairs.push((hb.mean_rt_us, mu.mean_rt_us));
        let _ = writeln!(
            table,
            "  {:>10}  {:>12.2}  {:>12.2}  {:>16.2}  {:>11.2}x",
            ops,
            hb.throughput_ops_per_us,
            mu.throughput_ops_per_us,
            hb1.throughput_ops_per_us,
            gain
        );
    }
    let mean_gain = gmean(&gains);
    let rt_close = rt_pairs
        .iter()
        .all(|&(h, m)| h < 2.0 * m.max(1e-9) + 1.0);
    let checks = vec![
        check("all runs converged", all_converged, String::new()),
        check(
            "two leaders beat single-leader Mu (paper: 1.4x-1.8x, limit 2x)",
            mean_gain > 1.2 && mean_gain < 2.3,
            format!("geomean {mean_gain:.2}x"),
        ),
        check(
            "response times statistically comparable (paper: negligible difference)",
            rt_close,
            format!("{rt_pairs:.2?}"),
        ),
    ];
    FigOutcome { name: "Figure 10 — effect of synchronization groups (Movie)".into(), table, checks }
}

// ---------------------------------------------------------------------
// Figure 11: mix of categories (project management)
// ---------------------------------------------------------------------

/// Figure 11 — project-management schema (all three categories) on
/// four nodes at 50/25/10 % update ratios: throughput vs Mu and
/// per-method response times.
pub fn fig11(opts: &ExpOptions) -> FigOutcome {
    let p = Project::default();
    let coord = p.coord_spec();
    let ratios = [0.5, 0.25, 0.10];
    let mut table = String::new();
    let mut gains = Vec::new();
    let mut all_converged = true;
    let mut last_hb: Option<RunReport> = None;
    let _ = writeln!(
        table,
        "  {:>7}  {:>12}  {:>12}  {:>10}",
        "updates", "hamband t", "mu-smr t", "gain"
    );
    for (i, &ratio) in ratios.iter().enumerate() {
        let rc = cfg(4, opts.ops, ratio, opts.seed + 200 + i as u64);
        let hb = run(System::Hamband, &p, &coord, &rc);
        let mu = run(System::MuSmr, &p, &coord, &rc);
        all_converged &= hb.converged && mu.converged;
        let gain = hb.throughput_ops_per_us / mu.throughput_ops_per_us.max(1e-9);
        gains.push(gain);
        let _ = writeln!(
            table,
            "  {:>6}%  {:>12.2}  {:>12.2}  {:>9.2}x",
            (ratio * 100.0) as u32,
            hb.throughput_ops_per_us,
            mu.throughput_ops_per_us,
            gain
        );
        last_hb = Some(hb);
    }
    let _ = writeln!(table, "\n  per-method response time (hamband, 10% updates):");
    if let Some(hb) = &last_hb {
        for (m, rt) in &hb.rt_per_method_us {
            let _ = writeln!(table, "    {m:<16} {rt:>8.2} us");
        }
    }
    let checks = vec![
        check("all runs converged", all_converged, String::new()),
        check(
            "Hamband at or above Mu on the mixed schema (paper: up to 21% higher)",
            gains.iter().all(|&g| g > 0.95),
            format!("gains {gains:.2?}"),
        ),
    ];
    FigOutcome { name: "Figure 11 — mix of categories (project management)".into(), table, checks }
}

// ---------------------------------------------------------------------
// Figure 12: failures on conflict-free use-cases
// ---------------------------------------------------------------------

/// Figure 12 — Counter and ORSet under a follower heartbeat
/// suspension, across update ratios.
pub fn fig12(opts: &ExpOptions) -> FigOutcome {
    let ratios = [0.25, 0.15, 0.05];
    let mut table = String::new();
    let mut drops = Vec::new();
    let mut rt_increases = Vec::new();
    let mut all_converged = true;

    let mut run_case = |name: &str,
                        f: &dyn Fn(&RunConfig) -> RunReport,
                        table: &mut String| {
        let _ = writeln!(
            table,
            "{name}:  {:>7}  {:>10}  {:>10}  {:>9}  {:>9}",
            "updates", "t normal", "t failure", "rt normal", "rt fail"
        );
        for (i, &ratio) in ratios.iter().enumerate() {
            // 4x volume so the detection window is amortized the way
            // the paper's 4M-op runs amortize it.
            let rc = cfg(4, opts.ops * 4, ratio, opts.seed + 300 + i as u64);
            let normal = f(&rc);
            // Inject mid-run, as a failure amid the paper's 4M-call
            // runs lands mid-run, not within the first percent.
            let mut rcf = rc.clone();
            rcf.faults = FaultPlan::new().at(
                SimTime(normal.completed_at.nanos() / 2),
                Fault::SuspendHeartbeat(NodeId(3)),
            );
            let failure = f(&rcf);
            all_converged &= normal.converged && failure.converged;
            drops.push(1.0 - failure.throughput_ops_per_us / normal.throughput_ops_per_us.max(1e-9));
            rt_increases
                .push(failure.mean_rt_us / normal.mean_rt_us.max(1e-9) - 1.0);
            let _ = writeln!(
                table,
                "        {:>6}%  {:>10.2}  {:>10.2}  {:>9.2}  {:>9.2}",
                (ratio * 100.0) as u32,
                normal.throughput_ops_per_us,
                failure.throughput_ops_per_us,
                normal.mean_rt_us,
                failure.mean_rt_us
            );
        }
        let _ = writeln!(table);
    };

    let (c, o) = (Counter::default(), OrSet::default());
    run_case("Counter", &|rc| run(System::Hamband, &c, &c.coord_spec(), rc), &mut table);
    run_case("ORSet", &|rc| run(System::Hamband, &o, &o.coord_spec(), rc), &mut table);

    let avg_drop = drops.iter().sum::<f64>() / drops.len() as f64;
    let avg_rt_inc = rt_increases.iter().sum::<f64>() / rt_increases.len() as f64;
    let checks = vec![
        check("all runs converged", all_converged, String::new()),
        check(
            "conflict-free throughput withstands follower failure (paper: ~5% drop)",
            avg_drop < 0.30,
            format!("avg drop {:.0}%", avg_drop * 100.0),
        ),
        check(
            "response time modestly affected (paper: 5-15% increase)",
            avg_rt_inc < 0.60,
            format!("avg increase {:.0}%", avg_rt_inc * 100.0),
        ),
    ];
    FigOutcome {
        name: "Figure 12 — failures on conflict-free use-cases (Counter, ORSet)".into(),
        table,
        checks,
    }
}

// ---------------------------------------------------------------------
// Figure 13: failures on courseware
// ---------------------------------------------------------------------

/// Figure 13 — Courseware under no failure, follower failure, and
/// leader failure: throughput and per-method response times.
pub fn fig13(opts: &ExpOptions) -> FigOutcome {
    let cw = Courseware::default();
    let coord = cw.coord_spec();
    let mut table = String::new();
    let mut reports = Vec::new();
    let scenarios: [(&str, Option<NodeId>); 3] = [
        ("normal", None),
        ("follower-fail", Some(NodeId(3))),
        ("leader-fail", Some(NodeId(0))),
    ];
    let mut all_converged = true;
    let _ = writeln!(table, "  {:>14}  {:>12}  {:>9}", "scenario", "tput", "mean rt");
    let mut normal_end: u64 = 100_000;
    for (i, (name, victim)) in scenarios.iter().enumerate() {
        let mut rc = cfg(4, opts.ops * 4, 0.5, opts.seed + 400 + i as u64);
        if let Some(v) = victim {
            rc.faults =
                FaultPlan::new().at(SimTime(normal_end / 2), Fault::SuspendHeartbeat(*v));
        }
        let rep = run(System::Hamband, &cw, &coord, &rc);
        if victim.is_none() {
            normal_end = rep.completed_at.nanos();
        }
        all_converged &= rep.converged;
        let _ = writeln!(
            table,
            "  {:>14}  {:>12.2}  {:>9.2}  conv={}",
            name, rep.throughput_ops_per_us, rep.mean_rt_us, rep.converged
        );
        reports.push(rep);
    }
    let _ = writeln!(table, "\n  per-method response time (us):");
    let _ = write!(table, "    {:<18}", "method");
    for (name, _) in &scenarios {
        let _ = write!(table, "  {name:>14}");
    }
    let _ = writeln!(table);
    let methods: Vec<String> = reports[0].rt_per_method_us.keys().cloned().collect();
    for m in &methods {
        let _ = write!(table, "    {m:<18}");
        for r in &reports {
            let _ = write!(table, "  {:>14.2}", r.rt_per_method_us.get(m).copied().unwrap_or(0.0));
        }
        let _ = writeln!(table);
    }

    let t = |i: usize| reports[i].throughput_ops_per_us;
    let follower_drop = 1.0 - t(1) / t(0).max(1e-9);
    let leader_drop = 1.0 - t(2) / t(0).max(1e-9);
    // Compared as printed: drops that round to the same percent are a
    // tie, and a tie is not "hurts more".
    let pct = |drop: f64| (drop * 100.0).round() as i64;
    let (leader_pct, follower_pct) = (pct(leader_drop), pct(follower_drop));
    let reg_rt_stable = {
        let normal = reports[0].rt_per_method_us.get("register_students").copied().unwrap_or(0.0);
        let leaderf = reports[2].rt_per_method_us.get("register_students").copied().unwrap_or(0.0);
        leaderf < 2.0 * normal.max(0.1)
    };
    let checks = vec![
        check("all runs converged", all_converged, String::new()),
        check(
            "follower failure barely hurts throughput (paper: 6% drop)",
            follower_drop < 0.30,
            format!("drop {:.0}%", follower_drop * 100.0),
        ),
        check(
            "leader failure hurts more than follower failure (paper: 53% vs 6%)",
            leader_pct > follower_pct,
            format!("leader {leader_pct}% vs follower {follower_pct}%"),
        ),
        check(
            "conflict-free register_students response time unaffected by leader failure",
            reg_rt_stable,
            String::new(),
        ),
    ];
    FigOutcome { name: "Figure 13 — failures on courseware".into(), table, checks }
}

// ---------------------------------------------------------------------
// Headline summary (§5 opening claims)
// ---------------------------------------------------------------------

/// The headline comparison of §5: average Hamband-vs-MSG and
/// Hamband-vs-Mu ratios over the conflict-free workloads.
pub fn headline(opts: &ExpOptions) -> FigOutcome {
    let mut tput_msg = Vec::new();
    let mut tput_mu = Vec::new();
    let mut rt_msg = Vec::new();
    let mut rt_mu = Vec::new();
    let mut all_converged = true;

    let mut add = |[hb, msg, mu]: [RunReport; 3]| {
        tput_msg.push(hb.throughput_ops_per_us / msg.throughput_ops_per_us.max(1e-9));
        tput_mu.push(hb.throughput_ops_per_us / mu.throughput_ops_per_us.max(1e-9));
        rt_msg.push(msg.mean_rt_us / hb.mean_rt_us.max(1e-9));
        rt_mu.push(hb.mean_rt_us / mu.mean_rt_us.max(1e-9));
        all_converged &= hb.converged && msg.converged && mu.converged;
    };

    for (i, ratio) in [0.25, 0.05].into_iter().enumerate() {
        let rc = cfg(4, opts.ops, ratio, opts.seed + 500 + i as u64);
        let (c, o) = (Counter::default(), OrSet::default());
        add(SYSTEMS.map(|system| run(system, &c, &c.coord_spec(), &rc)));
        add(SYSTEMS.map(|system| run(system, &o, &o.coord_spec(), &rc)));
    }

    let table = format!(
        "  throughput: hamband/msg = {:.1}x (paper: 17.7x), hamband/mu = {:.1}x (paper: 3.7x)\n  \
         response:   msg/hamband = {:.1}x (paper: 23x), hamband/mu = {:.2}x (paper: ~1x)",
        gmean(&tput_msg),
        gmean(&tput_mu),
        gmean(&rt_msg),
        gmean(&rt_mu)
    );
    let checks = vec![
        check("all runs converged", all_converged, String::new()),
        check(
            "Hamband beats MSG throughput by an order of magnitude",
            gmean(&tput_msg) > 8.0,
            format!("{:.1}x", gmean(&tput_msg)),
        ),
        check("Hamband beats Mu throughput", gmean(&tput_mu) > 1.5, format!("{:.1}x", gmean(&tput_mu))),
        check(
            "Hamband response time well below MSG",
            gmean(&rt_msg) > 5.0,
            format!("{:.1}x", gmean(&rt_msg)),
        ),
    ];
    FigOutcome { name: "Headline (§5 summary claims)".into(), table, checks }
}
