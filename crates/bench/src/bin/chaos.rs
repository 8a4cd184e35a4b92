//! Chaos campaigns on the command line: run N seeded randomized fault
//! schedules, dealt round-robin over every row of the shipped-type
//! registry (`hamband_types::for_each_shipped`; seed `S` runs row
//! `S mod rows`), check convergence + integrity + trace invariants +
//! the update budget, and shrink any failing schedule to a minimal
//! paste-able repro. The summary says what ran: per row, the cases, the
//! ones with violations, and the updates acknowledged against planned.
//!
//! ```text
//! chaos [--seeds N] [--start S] [--nodes N] [--ops N] [--max-faults N]
//!       [--sync-shards N] [--seed S] [--restarts] [--canary]
//! ```
//!
//! * `--seeds N`     number of campaign cases (default 100; `100 × rows`
//!   is a hundred per type — the header line prints `rows`, also with
//!   `--seeds 0`)
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
use hamband_runtime::chaos::{run_seed, shrink_case, ChaosOptions};
use hamband_types::{visit_shipped, Shipped, ShippedVisitor, SHIPPED_ROWS};

/// What the cases dealt to one registry row added up to.
#[derive(Default)]
struct RowTally {
    failed: u64,
    /// Updates acknowledged, one entry per case.
    acked: Vec<u64>,
    planned: u64,
}

/// The campaign: runs the case of `seed` on whichever row it is handed
/// and keeps the tallies.
struct Campaign {
    opts: ChaosOptions,
    seed: u64,
    rows: Vec<RowTally>,
    worst_repro: usize,
}

impl ShippedVisitor for Campaign {
    fn visit<O: Shipped>(&mut self, name: &'static str, spec: &O, coord: &CoordSpec) {
        let (seed, opts) = (self.seed, &self.opts);
        let case = run_seed(spec, coord, seed, opts);
        let row = &mut self.rows[seed as usize % SHIPPED_ROWS.len()];
        row.acked.push(case.updates_acked);
        row.planned = case.updates_planned;
        if case.passed() {
            return;
        }
        row.failed += 1;
        println!("seed {seed} ({name}): {} violation(s)", case.violations.len());
        for v in &case.violations {
            println!("  {v}");
        }
        let minimal = shrink_case(spec, coord, seed, &case.plan, opts);
        println!(
            "  shrunk {} -> {} entries; {} repro (replay with --seed {seed}):",
            case.plan.len(),
            minimal.len(),
            if minimal.is_empty() { "fault-free" } else { "minimal" }
        );
        for line in minimal.to_literal().lines() {
            println!("    {line}");
        }
        self.worst_repro = self.worst_repro.max(minimal.len());
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
        None => {
            (num_flag(&args, "--start").unwrap_or(0), num_flag(&args, "--seeds").unwrap_or(100))
        }
    };

    println!(
        "chaos campaign: seeds {start}..{} over {} rows | {} nodes, {} ops, \
         <= {} faults, {} shard(s){}{}",
        start + count,
        SHIPPED_ROWS.len(),
        opts.nodes,
        opts.ops,
        opts.max_faults,
        opts.sync_shards,
        if opts.restarts { " | restarts" } else { "" },
        if opts.canary { " | CANARY ARMED" } else { "" }
    );

    let wall = std::time::Instant::now();
    let canary = opts.canary;
    let rows = SHIPPED_ROWS.iter().map(|_| RowTally::default()).collect();
    let mut campaign = Campaign { opts, seed: start, rows, worst_repro: 0 };
    // Every seed is one case on one registry row, dealt round-robin: a
    // type added to the registry is under the campaign with no edit
    // here, and `--seed S` replays exactly the case a campaign ran.
    for seed in start..start + count {
        campaign.seed = seed;
        visit_shipped(seed as usize % SHIPPED_ROWS.len(), &mut campaign);
    }
    let secs = wall.elapsed().as_secs_f64();

    for (name, row) in SHIPPED_ROWS.iter().zip(&mut campaign.rows) {
        if row.acked.is_empty() {
            continue;
        }
        row.acked.sort_unstable();
        println!(
            "  {name:<14} {:>4} cases, {:>3} with violations | updates acked min {} / median {} \
             of {} planned",
            row.acked.len(),
            row.failed,
            row.acked[0],
            row.acked[row.acked.len() / 2],
            row.planned,
        );
    }
    let failures: u64 = campaign.rows.iter().map(|r| r.failed).sum();
    let worst_repro = campaign.worst_repro;

    if canary {
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
