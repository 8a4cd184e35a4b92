//! Bounded exhaustive exploration — small-scope model checking of the
//! paper's guarantees.
//!
//! The paper proves Lemmas 1–3 by hand. This module complements the
//! proofs with machine checking on small instances: given per-process
//! *scripts* of calls, it enumerates **every** interleaving of call
//! issuance, propagation (abstract semantics), and buffer application
//! (concrete semantics), asserting along every path that
//!
//! * integrity holds in every reachable configuration (Lemma 1),
//! * processes with equal call sets have equal states, and fully
//!   drained terminal configurations agree (Lemma 2), and
//! * every complete concrete path's trace replays in the abstract
//!   semantics (Lemma 3).
//!
//! States are deduplicated by their `Debug` rendering, which is exact
//! for the value-semantic states used here; exploration is bounded by
//! [`ExploreConfig`] and reports whether it was exhaustive.

use std::collections::HashSet;

use crate::abstract_sem::AbstractWrdt;
use crate::coord::CoordSpec;
use crate::ids::{GroupId, Pid};
use crate::object::ObjectSpec;
use crate::rdma_sem::RdmaWrdt;
use crate::refinement::replay_and_check;

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum distinct configurations to visit.
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_states: 200_000 }
    }
}

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct configurations visited.
    pub states: usize,
    /// Complete terminal configurations reached.
    pub terminals: usize,
    /// Whether the state space was fully explored within bounds.
    pub exhaustive: bool,
}

/// A property violation found during exploration.
#[derive(Debug, Clone)]
pub struct ExploreViolation {
    /// Which lemma failed.
    pub property: &'static str,
    /// Human-readable details.
    pub detail: String,
}

impl std::fmt::Display for ExploreViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated: {}", self.property, self.detail)
    }
}

impl std::error::Error for ExploreViolation {}

/// Exhaustively explore the **abstract** semantics (Fig. 5) for the
/// given per-process call scripts.
///
/// Every interleaving of scripted CALLs and enabled PROPs is visited.
/// Terminal configurations (no transition enabled) with all calls
/// issued and fully propagated must agree across processes.
///
/// # Errors
///
/// The first [`ExploreViolation`] found, if any.
pub fn explore_abstract<O: ObjectSpec>(
    spec: &O,
    coord: &CoordSpec,
    scripts: &[Vec<O::Update>],
    cfg: &ExploreConfig,
) -> Result<ExploreReport, ExploreViolation> {
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let w0 = AbstractWrdt::new(spec, coord, n);
    let mut seen: HashSet<String> = HashSet::new();
    let mut stack: Vec<(AbstractWrdt<'_, O>, Vec<usize>)> = vec![(w0, vec![0; n])];
    let mut terminals = 0usize;
    let mut exhaustive = true;

    while let Some((w, progress)) = stack.pop() {
        let key = format!("{:?}{:?}", keyed(&w), progress);
        if !seen.insert(key) {
            continue;
        }
        if seen.len() > cfg.max_states {
            exhaustive = false;
            break;
        }
        if !w.check_integrity() {
            return Err(ExploreViolation {
                property: "integrity (Lemma 1)",
                detail: format!("reachable state violates the invariant: {w:?}"),
            });
        }
        if !w.check_convergence() {
            return Err(ExploreViolation {
                property: "convergence (Lemma 2)",
                detail: format!("equal call sets, unequal states: {w:?}"),
            });
        }

        let mut advanced = false;
        // CALL transitions: each process may issue its next scripted call.
        for p in 0..n {
            if progress[p] < scripts[p].len() {
                let mut w2 = w.clone();
                if w2.call(p, scripts[p][progress[p]].clone()).is_ok() {
                    let mut pr = progress.clone();
                    pr[p] += 1;
                    stack.push((w2, pr));
                    advanced = true;
                }
            }
        }
        // PROP transitions: every enabled propagation.
        for p in 0..n {
            for rid in w.enabled_propagations(Pid(p)) {
                let mut w2 = w.clone();
                w2.propagate_rid(p, rid).expect("enabled propagation succeeds");
                stack.push((w2, progress.clone()));
                advanced = true;
            }
        }
        if !advanced {
            terminals += 1;
            // A terminal with all scripts issued must be fully
            // propagated and convergent.
            let all_issued = (0..n).all(|p| progress[p] == scripts[p].len());
            if all_issued {
                if !w.fully_propagated() {
                    return Err(ExploreViolation {
                        property: "progress",
                        detail: "terminal configuration with unpropagated calls".to_string(),
                    });
                }
                let s0 = w.state(Pid(0));
                for p in 1..n {
                    if w.state(Pid(p)) != s0 {
                        return Err(ExploreViolation {
                            property: "convergence (Lemma 2)",
                            detail: format!("terminal states differ: {w:?}"),
                        });
                    }
                }
            }
        }
    }
    Ok(ExploreReport { states: seen.len(), terminals, exhaustive })
}

fn keyed<O: ObjectSpec>(w: &AbstractWrdt<'_, O>) -> String {
    let mut s = String::new();
    for p in 0..w.processes() {
        s.push_str(&format!("{:?}|{:?};", w.state(Pid(p)), w.history(Pid(p))));
    }
    s
}

/// Exhaustively explore the **concrete RDMA** semantics (Fig. 7) for
/// the given per-process call scripts, checking integrity along every
/// path, convergence in every drained terminal, and refinement
/// (Lemma 3) of every terminal trace.
///
/// Conflicting calls in a script are issued through the group leader,
/// as the runtime redirects them.
///
/// # Errors
///
/// The first [`ExploreViolation`] found, if any.
pub fn explore_rdma<O: ObjectSpec>(
    spec: &O,
    coord: &CoordSpec,
    scripts: &[Vec<O::Update>],
    cfg: &ExploreConfig,
) -> Result<ExploreReport, ExploreViolation> {
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let k0 = RdmaWrdt::new(spec, coord, n);
    let mut seen: HashSet<String> = HashSet::new();
    let mut stack: Vec<(RdmaWrdt<'_, O>, Vec<usize>)> = vec![(k0, vec![0; n])];
    let mut terminals = 0usize;
    let mut exhaustive = true;

    while let Some((k, progress)) = stack.pop() {
        let key = format!("{}{:?}", rdma_key(&k, n, coord), progress);
        if !seen.insert(key) {
            continue;
        }
        if seen.len() > cfg.max_states {
            exhaustive = false;
            break;
        }
        if !k.check_integrity() {
            return Err(ExploreViolation {
                property: "integrity (Corollary 1)",
                detail: "reachable concrete state violates the invariant".to_string(),
            });
        }

        let mut advanced = false;
        // Issue transitions (REDUCE / FREE / CONF via routing).
        for p in 0..n {
            if progress[p] < scripts[p].len() {
                let mut k2 = k.clone();
                if k2.issue(p, scripts[p][progress[p]].clone()).is_ok() {
                    let mut pr = progress.clone();
                    pr[p] += 1;
                    stack.push((k2, pr));
                    advanced = true;
                }
            }
        }
        // FREE-APP / CONF-APP transitions.
        for p in 0..n {
            for src in 0..n {
                let mut k2 = k.clone();
                if k2.free_app(Pid(p), Pid(src)).is_ok() {
                    stack.push((k2, progress.clone()));
                    advanced = true;
                }
            }
            for g in 0..coord.sync_groups().len() {
                let mut k2 = k.clone();
                if k2.conf_app(Pid(p), GroupId(g)).is_ok() {
                    stack.push((k2, progress.clone()));
                    advanced = true;
                }
            }
        }
        if !advanced {
            terminals += 1;
            let all_issued = (0..n).all(|p| progress[p] == scripts[p].len());
            if all_issued {
                if !k.buffers_empty() {
                    return Err(ExploreViolation {
                        property: "progress",
                        detail: "terminal concrete configuration with pending buffers".to_string(),
                    });
                }
                if !k.check_convergence() {
                    return Err(ExploreViolation {
                        property: "convergence (Corollary 2)",
                        detail: "drained terminal states differ".to_string(),
                    });
                }
                // Lemma 3 on this complete path.
                if let Err(e) = replay_and_check(spec, coord, n, k.trace()) {
                    return Err(ExploreViolation { property: "refinement (Lemma 3)", detail: e });
                }
            }
        }
    }
    Ok(ExploreReport { states: seen.len(), terminals, exhaustive })
}

fn rdma_key<O: ObjectSpec>(k: &RdmaWrdt<'_, O>, n: usize, coord: &CoordSpec) -> String {
    let mut s = String::new();
    for p in 0..n {
        s.push_str(&format!("{:?}|{}|", k.current_state(Pid(p)), k.applied(Pid(p))));
        for src in 0..n {
            s.push_str(&format!("{:?}", k.free_buffer(Pid(p), Pid(src))));
        }
        for g in 0..coord.sync_groups().len() {
            s.push_str(&format!("{:?}", k.conf_buffer(Pid(p), GroupId(g))));
        }
        s.push(';');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::Account;

    #[test]
    fn account_two_processes_exhaustive() {
        let acc = Account::default();
        let coord = acc.coord_spec();
        // p0: deposit 5, withdraw 3; p1: deposit 2, withdraw 4.
        let scripts = vec![
            vec![Account::deposit(5), Account::withdraw(3)],
            vec![Account::deposit(2), Account::withdraw(4)],
        ];
        let report = explore_abstract(&acc, &coord, &scripts, &ExploreConfig::default())
            .expect("lemmas hold on all interleavings");
        assert!(report.exhaustive);
        assert!(report.states > 10, "nontrivial state space: {report:?}");
        assert!(report.terminals > 0);
    }

    #[test]
    fn account_rdma_exhaustive_and_refines() {
        let acc = Account::default();
        let coord = acc.coord_spec();
        let scripts =
            vec![vec![Account::deposit(5), Account::withdraw(3)], vec![Account::deposit(2)]];
        let report = explore_rdma(&acc, &coord, &scripts, &ExploreConfig::default())
            .expect("corollaries and refinement hold on all interleavings");
        assert!(report.exhaustive);
        assert!(report.terminals > 0);
    }

    #[test]
    fn bounded_exploration_reports_truncation() {
        let acc = Account::default();
        let coord = acc.coord_spec();
        let scripts = vec![
            vec![Account::deposit(1), Account::deposit(2), Account::deposit(3)],
            vec![Account::deposit(4), Account::deposit(5), Account::deposit(6)],
            vec![Account::deposit(7), Account::deposit(8)],
        ];
        let tight = ExploreConfig { max_states: 50 };
        let report = explore_abstract(&acc, &coord, &scripts, &tight).expect("no violation");
        assert!(!report.exhaustive, "tight bound must truncate: {report:?}");
    }

    /// A deliberately wrong coordination spec is caught: declaring
    /// withdraw conflict-free lets two concurrent overdrafts through,
    /// and the explorer finds the integrity violation.
    #[test]
    fn wrong_spec_is_refuted() {
        let acc = Account::default();
        let bad = CoordSpec::builder(2).summarization_group([0]).build();
        let scripts =
            vec![vec![Account::deposit(5), Account::withdraw(5)], vec![Account::withdraw(5)]];
        // p1's withdraw(5) is permissible after p0's deposit propagates;
        // with no conflict declared, both withdraws can execute and one
        // process ends up overdrafted.
        let err = explore_abstract(&acc, &bad, &scripts, &ExploreConfig::default())
            .expect_err("the explorer must refute the unsound spec");
        assert!(err.property.contains("integrity"), "{err}");
    }
}
