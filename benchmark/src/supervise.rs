//! The supervising side: run a measurement in a child process of this
//! binary under a hard wall cap, so a hang or a panic costs one run,
//! not the benchmark.
//!
//! The child's stdout is read line by line on a helper thread; the
//! parent waits on a channel with the cap as its deadline. End of
//! output means the child is finishing and is reaped; a missed
//! deadline means it is killed. Either way the child has ended before
//! [`run_child`] returns.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::measure::Metrics;
use crate::run::Request;

/// What came back from one child.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// Process start → the child's `ready` line, seconds.
    pub setup_s: Option<f64>,
    /// `M` lines: metric name → value, in the order printed.
    pub metrics: Vec<(String, f64)>,
    /// `H` lines: `host_ops_per_s` samples.
    pub host_samples: Vec<f64>,
    /// `N` lines.
    pub notes: Vec<String>,
    /// The `R` line, if the child got that far.
    pub verdict: Option<Verdict>,
    /// Why the child does not count, if it does not (killed at its
    /// cap, exited non-zero, could not be started).
    pub died: Option<String>,
}

/// A child's own account of its run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Calls asked for.
    pub attempted: u64,
    /// Calls that did not complete correctly.
    pub failed: u64,
    /// Every check held.
    pub correct: bool,
    /// The repetitions' shared virtual fingerprint.
    pub fingerprint: String,
}

fn parse_verdict(line: &str) -> Option<Verdict> {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        correct: false,
        fingerprint: String::new(),
    };
    for field in line.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "attempted" => v.attempted = value.parse().ok()?,
            "failed" => v.failed = value.parse().ok()?,
            "correct" => v.correct = value == "1",
            "fingerprint" => v.fingerprint = value.to_string(),
            _ => return None,
        }
    }
    Some(v)
}

/// The arguments that make this binary run `req` as a child.
pub fn child_args(req: &Request) -> Vec<String> {
    vec![
        "child".to_string(),
        "--workload".to_string(),
        req.workload.name.to_string(),
        "--seed".to_string(),
        req.seed.to_string(),
        "--seconds".to_string(),
        req.seconds.to_string(),
        "--trace".to_string(),
        u8::from(req.trace).to_string(),
        "--scale".to_string(),
        req.scale.to_string(),
        "--out-dir".to_string(),
        req.out_dir.clone(),
    ]
}

/// Run this binary with `args` as a child, giving it `cap` to finish.
pub fn run_child(args: &[String], cap: Duration) -> ChildReport {
    let mut report = ChildReport::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            report.died = Some(format!("cannot find this executable: {e}"));
            return report;
        }
    };
    let start = Instant::now();
    let mut child = match Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            report.died = Some(format!("cannot start the child: {e}"));
            return report;
        }
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    loop {
        match rx.recv_timeout(cap.saturating_sub(start.elapsed())) {
            Ok(line) => {
                if line == "ready" {
                    report.setup_s = Some(start.elapsed().as_secs_f64());
                } else if let Some(note) = line.strip_prefix("N ") {
                    report.notes.push(note.to_string());
                } else if let Some(rest) = line.strip_prefix("M ") {
                    if let Some((name, value)) = rest.split_once(' ') {
                        if let Ok(value) = value.parse::<f64>() {
                            report.metrics.push((name.to_string(), value));
                        }
                    }
                } else if let Some(sample) = line.strip_prefix("H ") {
                    report.host_samples.extend(sample.parse::<f64>());
                } else if let Some(rest) = line.strip_prefix("R ") {
                    report.verdict = parse_verdict(rest);
                }
            }
            // End of output: the child closed stdout, so it is exiting.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                report.died = Some(format!("killed at its cap of {:.0} s", cap.as_secs_f64()));
                // Killing closes the pipe, which ends the reader.
                let _ = child.kill();
                break;
            }
        }
    }
    match child.wait() {
        Ok(status) if status.success() || report.died.is_some() => {}
        Ok(status) => report.died = Some(format!("exited with {status}")),
        Err(e) => report.died = Some(format!("could not be reaped: {e}")),
    }
    reader.join().expect("the reader thread only reads lines");
    if report.died.is_some() {
        // A dead child's partial output does not count.
        report.metrics.clear();
        report.host_samples.clear();
        report.verdict = None;
    }
    report
}

/// The result of one benchmark run, as the last output line reports it.
#[derive(Debug)]
pub struct RunResult {
    /// Every check held and no call failed.
    pub correct: bool,
    /// Calls asked for.
    pub attempted: u64,
    /// Calls that did not complete correctly.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: Metrics,
}

impl RunResult {
    /// The contract's result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = crate::manifest::unit_of(name).unwrap_or("");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_line_round_trips() {
        let v = parse_verdict("attempted=720000 failed=0 correct=1 fingerprint=00ff").unwrap();
        assert_eq!(
            v,
            Verdict {
                attempted: 720_000,
                failed: 0,
                correct: true,
                fingerprint: "00ff".into()
            }
        );
        assert!(parse_verdict("attempted=x").is_none());
        assert!(parse_verdict("surprise=1").is_none());
    }

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.25), ("host_ops_per_s", 200_000.5)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"host_ops_per_s\": {\"value\": 200000.5, \"unit\": \"ops/s\"}}}"
        );
    }
}
