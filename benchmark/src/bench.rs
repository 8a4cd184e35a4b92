//! One benchmark run, as the run command performs it: the children it
//! takes, what is printed, and the result line.

use std::time::Duration;

use hamband_runtime::TraceMode;

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::run::{planned_calls, Request};
use crate::stats::median;
use crate::supervise::{child_args, run_child, ChildReport, RunResult};
use crate::workloads::OPEN_LOOP_RATE;

/// Child processes an end-to-end run is spread over. Each sets up (one
/// `setup_s` sample) and measures for a fifth of the seconds.
///
/// `host_ops_per_s` is the fastest repetition of them all. On a shared
/// two-core box other tenants slow a repetition by up to a quarter for
/// tens of seconds at a time and never speed one up, so over ten runs
/// the fastest repetition spreads half as wide as the median one; and
/// host speed differs by a few percent from process to process (address
/// layout), which five processes even out.
pub const CHILDREN: u64 = 5;

/// Children of an end-to-end run that set up and stop, so that
/// `setup_s` is the median of eleven process starts: set-up lasts tens
/// of milliseconds, and five samples left the median of a run moving by
/// a third between runs.
pub const SETUP_ONLY: u64 = 6;

/// A child's hard wall cap: three times what it should take — set-up
/// and repetition overshoot (8 s), the probes and the two kinds of
/// repetition of a per-layer run (12 s), and the seconds it measures.
pub fn cap(req: &Request) -> Duration {
    let layers = if req.trace { 12 } else { 0 };
    Duration::from_secs(3 * (8 + layers + req.seconds))
}

fn print_config(req: &Request) {
    let w = req.workload;
    let calls = w.sim_calls(req.scale);
    println!(
        "config {}",
        w.describe(&w.sim_config(calls, req.scale, req.seed, TraceMode::Off))
    );
    if w.threaded_open_loop {
        let calls = crate::run::open_loop_calls(req.seconds, req.scale);
        println!(
            "config {}",
            w.describe(&w.threaded_config(calls, req.seed, Some(OPEN_LOOP_RATE), 60))
        );
    }
}

/// What the children of one run reported, put together.
#[derive(Debug, Default)]
struct Gathered {
    values: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
    fingerprint: String,
}

/// Run `req`'s children and gather their reports; `Err` says why a
/// child does not count.
fn gather(req: &Request) -> Result<Gathered, String> {
    // A per-layer run is one child; an end-to-end run is CHILDREN of
    // them, each measuring its share of the seconds, with SETUP_ONLY
    // that measure nothing in between — so the set-up samples span the
    // whole run and a slow spell of the box catches only some of them.
    let share = Request {
        seconds: req.seconds.div_ceil(CHILDREN).max(1),
        ..req.clone()
    };
    let only_set_up = Request {
        seconds: 0,
        ..req.clone()
    };
    let children: Vec<&Request> = if req.trace {
        vec![req]
    } else {
        (0..SETUP_ONLY.max(CHILDREN))
            .flat_map(|i| {
                [
                    (i < SETUP_ONLY).then_some(&only_set_up),
                    (i < CHILDREN).then_some(&share),
                ]
            })
            .flatten()
            .collect()
    };
    print_config(if req.trace { req } else { &share });
    let mut all = Gathered {
        correct: true,
        ..Gathered::default()
    };
    let (mut setup, mut host) = (Vec::new(), Vec::new());
    for each in children {
        let ChildReport {
            setup_s,
            metrics,
            host_samples,
            notes,
            verdict,
            died,
        } = run_child(&child_args(each), cap(each));
        for note in &notes {
            println!("note  {note}");
        }
        if let Some(why) = died {
            return Err(why);
        }
        setup.extend(setup_s);
        if each.seconds == 0 {
            continue;
        }
        let verdict = verdict.ok_or("ended without a verdict")?;
        host.extend(host_samples);
        all.attempted += verdict.attempted;
        all.failed += verdict.failed;
        all.correct &= verdict.correct;
        if all.values.is_empty() {
            (all.values, all.fingerprint) = (metrics, verdict.fingerprint);
        } else if all.values != metrics || all.fingerprint != verdict.fingerprint {
            println!("check FAILED: two children of one seed disagree on the virtual clock");
            all.correct = false;
        }
    }
    if !req.trace {
        let show = |v: &[f64], digits| {
            v.iter()
                .map(|s| format!("{s:.digits$}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("note  host_ops_per_s samples: {}", show(&host, 0));
        println!("note  setup_s samples: {}", show(&setup, 3));
        all.values.push((
            "host_ops_per_s".to_string(),
            host.iter().copied().fold(0.0, f64::max),
        ));
        all.values.push(("setup_s".to_string(), median(&setup)));
    }
    Ok(all)
}

/// Run `req` and print every metric by name with its unit. The result
/// carries the metrics of the list that matches `req.trace`, in the
/// list's order; a metric no child reported makes the run incorrect.
pub fn run(req: &Request) -> RunResult {
    println!(
        "run   workload={} seed={} seconds={} trace={} scale={}",
        req.workload.name,
        req.seed,
        req.seconds,
        u8::from(req.trace),
        req.scale
    );
    let result = match gather(req) {
        Ok(all) => {
            let wanted: Vec<(&'static str, &'static str)> = if req.trace {
                PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
            } else {
                END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
            };
            let mut metrics = Vec::new();
            let mut missing = Vec::new();
            for (name, unit) in wanted {
                match all.values.iter().find(|(n, v)| n == name && v.is_finite()) {
                    Some((_, value)) => {
                        println!("metric {name:<40} {value:>18.6} {unit}");
                        metrics.push((name, *value));
                    }
                    None => missing.push(name),
                }
            }
            println!(
                "check attempted={} failed={} correct={} fingerprint={}",
                all.attempted, all.failed, all.correct, all.fingerprint
            );
            if !missing.is_empty() {
                println!("check FAILED: metrics not reported: {}", missing.join(" "));
            }
            RunResult {
                correct: all.correct && missing.is_empty(),
                attempted: all.attempted,
                failed: all.failed,
                metrics,
            }
        }
        Err(why) => {
            // The whole budget counts as failed and no metric stands.
            println!("check FAILED: child {why}; the run's whole budget counts as failed");
            let children = if req.trace { 1 } else { CHILDREN };
            let budget = planned_calls(req) * children;
            RunResult {
                correct: false,
                attempted: budget,
                failed: budget,
                metrics: Vec::new(),
            }
        }
    };
    println!("{}", result.to_json());
    result
}
