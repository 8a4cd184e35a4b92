//! Chaos campaigns on the command line: run N seeded randomized fault
//! schedules against a mix of objects (Counter, buffered GSet, Bank),
//! check convergence + integrity + trace invariants, and shrink any
//! failing schedule to a minimal paste-able repro.
//!
//! ```text
//! chaos [--seeds N] [--start S] [--nodes N] [--ops N] [--max-faults N]
//!       [--sync-shards N] [--seed S] [--restarts] [--canary]
//! ```
//!
//! * `--seeds N`     number of campaign cases (default 100)
//! * `--start S`     first seed (default 0)
//! * `--seed S`      run exactly one seed (overrides --seeds/--start)
//! * `--nodes N`     cluster size (default 4)
//! * `--ops N`       calls per case (default 300)
//! * `--max-faults N` schedule length cap (default 6)
//! * `--sync-shards N` key shards per synchronization group (default 1)
//! * `--restarts`    pair every generated crash with a later restart
//!   (half of them losing unfenced writes); such cases run with the
//!   persist log enabled and exercise crash-restart recovery + rejoin
//! * `--canary`      arm the deliberate checker bug: any schedule that
//!   silences a node is flagged, and the campaign must both catch it
//!   and shrink it to a repro of at most 3 entries. Exit code 0 then
//!   means the detection+shrinking machinery works end to end.
//!
//! Exit code: 0 iff the campaign is clean (or, with the canary armed,
//! iff the canary was caught and every repro shrank to <= 3 entries).

use hamband_bench::cli::{argv, bool_flag, num_flag};
use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use hamband_runtime::chaos::{run_seed, shrink_case, ChaosOptions};
use hamband_types::{Bank, Counter, GSet};

/// What one case contributed to the campaign tally.
struct CaseResult {
    failed: bool,
    /// Length of the shrunk repro, when the case failed.
    shrunk_len: Option<usize>,
}

fn run_one<O>(name: &str, spec: &O, coord: &CoordSpec, seed: u64, opts: &ChaosOptions) -> CaseResult
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let case = run_seed(spec, coord, seed, opts);
    if case.passed() {
        return CaseResult { failed: false, shrunk_len: None };
    }
    println!("seed {seed} ({name}): {} violation(s)", case.violations.len());
    for v in &case.violations {
        println!("  {v}");
    }
    let minimal = shrink_case(spec, coord, seed, &case.plan, opts);
    println!(
        "  shrunk {} -> {} entries; minimal repro (replay with --seed {seed}):",
        case.plan.len(),
        minimal.len()
    );
    for line in minimal.to_literal().lines() {
        println!("    {line}");
    }
    CaseResult { failed: true, shrunk_len: Some(minimal.len()) }
}

/// One seed against the seed-selected object: campaigns interleave a
/// reducible type (Counter), an irreducible conflict-free one
/// (buffered GSet), and a conflicting one (Bank) so all three issue
/// paths face the fault schedules.
fn dispatch(seed: u64, opts: &ChaosOptions) -> CaseResult {
    match seed % 3 {
        0 => {
            let c = Counter::default();
            run_one("counter", &c, &c.coord_spec(), seed, opts)
        }
        1 => {
            let g = GSet::default();
            run_one("gset-buffered", &g, &g.coord_spec_buffered(), seed, opts)
        }
        _ => {
            let b = Bank::default();
            run_one("bank", &b, &b.coord_spec(), seed, opts)
        }
    }
}

fn main() {
    let args = argv();
    let mut opts = ChaosOptions::default();
    if let Some(n) = num_flag(&args, "--nodes") {
        opts.nodes = n as usize;
    }
    if let Some(n) = num_flag(&args, "--ops") {
        opts.ops = n;
    }
    if let Some(n) = num_flag(&args, "--max-faults") {
        opts.max_faults = n as usize;
    }
    if let Some(n) = num_flag(&args, "--sync-shards") {
        assert!(n >= 1, "--sync-shards must be at least 1");
        opts.sync_shards = n as usize;
    }
    opts.restarts = bool_flag(&args, "--restarts");
    opts.canary = bool_flag(&args, "--canary");

    let (start, count) = match num_flag(&args, "--seed") {
        Some(s) => (s, 1),
        None => (num_flag(&args, "--start").unwrap_or(0), num_flag(&args, "--seeds").unwrap_or(100)),
    };

    println!(
        "chaos campaign: seeds {start}..{} | {} nodes, {} ops, <= {} faults, {} shard(s){}{}",
        start + count,
        opts.nodes,
        opts.ops,
        opts.max_faults,
        opts.sync_shards,
        if opts.restarts { " | restarts" } else { "" },
        if opts.canary { " | CANARY ARMED" } else { "" }
    );

    let wall = std::time::Instant::now();
    let mut failures = 0u64;
    let mut worst_repro = 0usize;
    for seed in start..start + count {
        let r = dispatch(seed, &opts);
        if r.failed {
            failures += 1;
            worst_repro = worst_repro.max(r.shrunk_len.unwrap_or(0));
        }
    }
    let secs = wall.elapsed().as_secs_f64();

    if opts.canary {
        // Self-test mode: success means the planted bug was caught at
        // least once and every repro shrank to a tiny schedule.
        let caught = failures > 0;
        let tiny = worst_repro <= 3;
        println!(
            "canary: {failures} case(s) caught, worst repro {worst_repro} entries \
             ({count} seeds in {secs:.1}s)"
        );
        if caught && tiny {
            println!("canary self-test PASSED (caught and shrunk)");
        } else {
            println!("canary self-test FAILED (caught={caught}, shrunk<=3={tiny})");
            std::process::exit(1);
        }
    } else if failures == 0 {
        println!("campaign clean: {count} seeds, 0 violations ({secs:.1}s)");
    } else {
        println!("campaign FAILED: {failures} of {count} seeds had violations ({secs:.1}s)");
        std::process::exit(1);
    }
}
