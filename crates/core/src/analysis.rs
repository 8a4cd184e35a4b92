//! Bounded coordination analysis: validating (and inferring) the
//! method-level relations a [`CoordSpec`] declares.
//!
//! The paper assumes the conflict and dependency relations are provided
//! by an upstream analysis ("the representation and automated checking
//! and inference of conflict and dependency relations is a topic of
//! active research", §3.2, citing Hamsaz). This module supplies the
//! practical counterpart for this reproduction:
//!
//! * [`validate`] — checks a *declared* [`CoordSpec`] against the
//!   executable object definition by sampling states and arguments.
//!   A declared-conflict-free pair that exhibits a sampled conflict
//!   witness, an undeclared dependency, or an unsound summarization is
//!   reported as a [`Violation`]. Witnesses are real counterexamples;
//!   absence of witnesses is bounded evidence.
//! * [`infer`] — infers a [`CoordSpec`] from scratch by sampling, useful
//!   as a starting point for a new data type.

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coord::CoordSpec;
use crate::ids::MethodId;
use crate::object::WorkloadSupport;
use crate::relations::BoundedRelations;

/// A discrepancy between a declared [`CoordSpec`] and sampled behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Methods `a` and `b` were declared conflict-free (and not in the
    /// same synchronization group) but a sampled pair of calls conflicts.
    UndeclaredConflict {
        /// First method of the conflicting pair.
        a: MethodId,
        /// Second method of the conflicting pair.
        b: MethodId,
        /// Debug rendering of the witnessing calls.
        witness: String,
    },
    /// Method `dependent` was not declared dependent on `on`, the pair
    /// is not synchronized by a common group, yet a sampled pair of
    /// calls is dependent.
    UndeclaredDependency {
        /// The dependent method.
        dependent: MethodId,
        /// The method it was found to depend on.
        on: MethodId,
        /// Debug rendering of the witnessing calls.
        witness: String,
    },
    /// Two calls on methods of a declared summarization group failed to
    /// summarize (the group is not closed).
    SummarizationNotClosed {
        /// Method of the first call.
        a: MethodId,
        /// Method of the second call.
        b: MethodId,
        /// Debug rendering of the witnessing calls.
        witness: String,
    },
    /// A produced summary disagrees with the composition of the calls on
    /// a sampled state.
    SummaryMismatch {
        /// Method of the first call.
        a: MethodId,
        /// Method of the second call.
        b: MethodId,
        /// Debug rendering of the witnessing calls.
        witness: String,
    },
    /// Two sampled calls of the same synchronization group with
    /// *distinct* declared shard keys conflict. The shard-key
    /// declaration ([`crate::object::ObjectSpec::shard_key`]) asserts
    /// cross-key calls commute — key-sharded groups rely on it to
    /// serialize only same-key calls through one shard, so a cross-key
    /// conflict witness makes sharding unsound for this object.
    CrossKeyConflict {
        /// Method of the first call.
        a: MethodId,
        /// Method of the second call.
        b: MethodId,
        /// Debug rendering of the witnessing calls (keys included).
        witness: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UndeclaredConflict { a, b, witness } => {
                write!(f, "undeclared conflict between {a} and {b}: {witness}")
            }
            Violation::UndeclaredDependency { dependent, on, witness } => {
                write!(f, "undeclared dependency of {dependent} on {on}: {witness}")
            }
            Violation::SummarizationNotClosed { a, b, witness } => {
                write!(f, "summarization group of {a}, {b} not closed: {witness}")
            }
            Violation::SummaryMismatch { a, b, witness } => {
                write!(f, "summary of {a}, {b} disagrees with composition: {witness}")
            }
            Violation::CrossKeyConflict { a, b, witness } => {
                write!(f, "cross-key conflict between {a} and {b}: {witness}")
            }
        }
    }
}

/// The result of [`validate`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All violations found, in method order.
    pub violations: Vec<Violation>,
}

impl AnalysisReport {
    /// Whether the declared spec survived the bounded validation.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "coordination spec validated (bounded)")
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Tuning for [`validate`] and [`infer`].
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// RNG seed for state and argument sampling.
    pub seed: u64,
    /// Sampled states per relation query.
    pub state_samples: usize,
    /// Sampled call pairs per method pair.
    pub call_samples: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { seed: 0x5eed, state_samples: 64, call_samples: 16 }
    }
}

fn sampled_calls<O: WorkloadSupport>(
    spec: &O,
    m: MethodId,
    cfg: &AnalysisConfig,
    salt: u64,
) -> Vec<O::Update> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..cfg.call_samples).map(|_| spec.sample_update_of(m, &mut rng)).collect()
}

/// Validate a declared [`CoordSpec`] against sampled behaviour.
///
/// Sound for refutation: every reported violation carries a concrete
/// witness. Passing is bounded evidence only (as with any testing-based
/// analysis).
pub fn validate<O: WorkloadSupport>(
    spec: &O,
    coord: &CoordSpec,
    cfg: &AnalysisConfig,
) -> AnalysisReport {
    let rel = BoundedRelations::new(spec, cfg.seed, cfg.state_samples);
    let n = coord.method_count();
    let mut report = AnalysisReport::default();

    // Two methods are synchronized if they share a synchronization
    // group: the group's leader totally orders their calls, whether or
    // not the pair is directly adjacent in the conflict graph.
    let same_group = |a: MethodId, b: MethodId| {
        matches!((coord.sync_group(a), coord.sync_group(b)), (Some(x), Some(y)) if x == y)
    };

    for a in 0..n {
        for b in a..n {
            let (ma, mb) = (MethodId(a), MethodId(b));
            let ca = sampled_calls(spec, ma, cfg, a as u64);
            let cb = sampled_calls(spec, mb, cfg, b as u64 + 1000);
            let synchronized = coord.methods_conflict(ma, mb) || same_group(ma, mb);
            // Conflicts: every semantic conflict must be declared.
            if !synchronized {
                'outer: for x in &ca {
                    for y in &cb {
                        if rel.conflict(x, y) {
                            report.violations.push(Violation::UndeclaredConflict {
                                a: ma,
                                b: mb,
                                witness: format!("{x:?} vs {y:?}"),
                            });
                            break 'outer;
                        }
                    }
                }
            }
            // Dependencies: a dependent pair must be declared or
            // synchronized by conflict (same order everywhere).
            for (m2, m1, c2s, c1s) in [(ma, mb, &ca, &cb), (mb, ma, &cb, &ca)] {
                if m2 == m1 && a == b && ca.is_empty() {
                    continue;
                }
                if coord.dependencies(m2).contains(&m1)
                    || coord.methods_conflict(m2, m1)
                    || same_group(m2, m1)
                {
                    continue;
                }
                'dep: for x in c2s {
                    for y in c1s {
                        if rel.dependent(x, y) {
                            report.violations.push(Violation::UndeclaredDependency {
                                dependent: m2,
                                on: m1,
                                witness: format!("{x:?} after {y:?}"),
                            });
                            break 'dep;
                        }
                    }
                }
            }
        }
    }

    // Shard-key soundness: within a synchronization group, sampled
    // call pairs whose declared shard keys are both present and
    // *different* must not conflict — that is exactly the commutation
    // the key-sharded GroupMapper relies on. Keyless calls are exempt
    // (they are pinned to one shard and may conflict with anything).
    for a in 0..n {
        for b in a..n {
            let (ma, mb) = (MethodId(a), MethodId(b));
            if !same_group(ma, mb) {
                continue;
            }
            let ca = sampled_calls(spec, ma, cfg, a as u64 + 31);
            let cb = sampled_calls(spec, mb, cfg, b as u64 + 1031);
            'shard: for x in &ca {
                for y in &cb {
                    let (kx, ky) = (spec.shard_key(x), spec.shard_key(y));
                    let (Some(kx), Some(ky)) = (kx, ky) else { continue };
                    if kx != ky && rel.conflict(x, y) {
                        report.violations.push(Violation::CrossKeyConflict {
                            a: ma,
                            b: mb,
                            witness: format!("{x:?} (key {kx}) vs {y:?} (key {ky})"),
                        });
                        break 'shard;
                    }
                }
            }
        }
    }

    // Summarization groups: closure and soundness.
    for group in coord.sum_groups() {
        for &ma in group {
            for &mb in group {
                let ca = sampled_calls(spec, ma, cfg, ma.index() as u64 + 7);
                let cb = sampled_calls(spec, mb, cfg, mb.index() as u64 + 77);
                'sum: for x in &ca {
                    for y in &cb {
                        match spec.summarize(x, y) {
                            None => {
                                report.violations.push(Violation::SummarizationNotClosed {
                                    a: ma,
                                    b: mb,
                                    witness: format!("{x:?} then {y:?}"),
                                });
                                break 'sum;
                            }
                            Some(_) => {
                                if !rel.summary_sound(x, y) {
                                    report.violations.push(Violation::SummaryMismatch {
                                        a: ma,
                                        b: mb,
                                        witness: format!("{x:?} then {y:?}"),
                                    });
                                    break 'sum;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    report
}

/// Infer a [`CoordSpec`] by sampling: conflict edges and dependency
/// edges are added wherever a witness is found; summarization groups are
/// the equivalence classes of methods whose sampled calls pairwise
/// summarize soundly.
pub fn infer<O: WorkloadSupport>(spec: &O, cfg: &AnalysisConfig) -> CoordSpec {
    let rel = BoundedRelations::new(spec, cfg.seed, cfg.state_samples);
    let n = spec.method_count();
    let mut builder = CoordSpec::builder(n);

    let calls: Vec<Vec<O::Update>> = (0..n)
        .map(|m| sampled_calls(spec, MethodId(m), cfg, m as u64))
        .collect();

    for a in 0..n {
        for b in a..n {
            if calls[a].iter().any(|x| calls[b].iter().any(|y| rel.conflict(x, y))) {
                builder = builder.conflict(a, b);
            }
        }
    }
    for d in 0..n {
        for on in 0..n {
            if calls[d].iter().any(|x| calls[on].iter().any(|y| rel.dependent(x, y))) {
                builder = builder.depends(d, on);
            }
        }
    }

    // Summarizable methods: closed and sound against every member of the
    // candidate group, grown greedily.
    let summarizes = |a: usize, b: usize| {
        calls[a].iter().all(|x| {
            calls[b]
                .iter()
                .all(|y| spec.summarize(x, y).is_some() && rel.summary_sound(x, y))
        })
    };
    let mut grouped: BTreeSet<usize> = BTreeSet::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for m in 0..n {
        if grouped.contains(&m) || !summarizes(m, m) {
            continue;
        }
        let mut group = vec![m];
        for m2 in (m + 1)..n {
            if grouped.contains(&m2) {
                continue;
            }
            let closed = group.iter().all(|&g| {
                summarizes(g, m2) && summarizes(m2, g) && summarizes(m2, m2)
            });
            if closed {
                group.push(m2);
            }
        }
        for &g in &group {
            grouped.insert(g);
        }
        groups.push(group);
    }
    for g in groups {
        builder = builder.summarization_group(g);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::MethodCategory;
    use crate::demo::Account;

    #[test]
    fn account_spec_validates() {
        let acc = Account::new(20);
        let coord = acc.coord_spec();
        let report = validate(&acc, &coord, &AnalysisConfig::default());
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.to_string(), "coordination spec validated (bounded)");
    }

    #[test]
    fn missing_conflict_is_detected() {
        let acc = Account::new(20);
        // Declare withdraw conflict-free: the checker must object.
        let bad = CoordSpec::builder(2).summarization_group([0]).build();
        let report = validate(&acc, &bad, &AnalysisConfig::default());
        assert!(!report.is_valid());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UndeclaredConflict { a, b, .. }
                if a.index() == 1 && b.index() == 1)));
        assert!(report.to_string().contains("undeclared conflict"));
    }

    #[test]
    fn missing_dependency_is_detected() {
        let acc = Account::new(20);
        let bad = CoordSpec::builder(2)
            .conflict(1, 1)
            .summarization_group([0])
            .build();
        let report = validate(&acc, &bad, &AnalysisConfig::default());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UndeclaredDependency { dependent, on, .. }
                if dependent.index() == 1 && on.index() == 0)));
    }

    #[test]
    fn bad_summarization_group_is_detected() {
        let acc = Account::new(20);
        // Withdrawals do not summarize: closure violation.
        let bad = CoordSpec::builder(2)
            .conflict(1, 1)
            .depends(1, 0)
            .summarization_group([0, 1])
            .build();
        let report = validate(&acc, &bad, &AnalysisConfig::default());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SummarizationNotClosed { .. })));
    }

    #[test]
    fn inference_recovers_account_structure() {
        let acc = Account::new(20);
        let inferred = infer(&acc, &AnalysisConfig::default());
        // deposit reducible, withdraw conflicting and dependent.
        assert!(matches!(
            inferred.category(MethodId(0)),
            MethodCategory::Reducible { .. }
        ));
        assert!(inferred.category(MethodId(1)).is_conflicting());
        assert!(inferred.dependencies(MethodId(1)).contains(&MethodId(0)));
        // And the inferred spec validates against the object.
        let report = validate(&acc, &inferred, &AnalysisConfig::default());
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn violation_display_mentions_methods() {
        let v = Violation::UndeclaredConflict {
            a: MethodId(0),
            b: MethodId(1),
            witness: "w".into(),
        };
        assert_eq!(v.to_string(), "undeclared conflict between u0 and u1: w");
        let v = Violation::CrossKeyConflict {
            a: MethodId(1),
            b: MethodId(1),
            witness: "w".into(),
        };
        assert_eq!(v.to_string(), "cross-key conflict between u1 and u1: w");
    }

    /// The single-balance account with a bogus shard-key declaration:
    /// `withdraw(v)` keyed by its *amount*. Withdrawals with different
    /// amounts still race on the one shared balance, so the cross-key
    /// commutation the declaration asserts is false.
    #[derive(Debug, Clone)]
    struct MiskeyedAccount(Account);

    impl crate::object::ObjectSpec for MiskeyedAccount {
        type State = i128;
        type Update = crate::demo::AccountUpdate;
        type Query = crate::demo::AccountQuery;
        type Reply = i128;

        fn name(&self) -> &str {
            "miskeyed-account"
        }
        fn initial(&self) -> i128 {
            self.0.initial()
        }
        fn invariant(&self, state: &i128) -> bool {
            self.0.invariant(state)
        }
        fn apply_mut(&self, state: &mut i128, call: &Self::Update) {
            self.0.apply_mut(state, call)
        }
        fn query(&self, state: &i128, query: &Self::Query) -> i128 {
            self.0.query(state, query)
        }
        fn summarize(&self, a: &Self::Update, b: &Self::Update) -> Option<Self::Update> {
            self.0.summarize(a, b)
        }
        fn shard_key(&self, call: &Self::Update) -> Option<u64> {
            match *call {
                crate::demo::AccountUpdate::Withdraw(v) => Some(v),
                crate::demo::AccountUpdate::Deposit(_) => None,
            }
        }
    }

    impl WorkloadSupport for MiskeyedAccount {
        fn sample_state(&self, rng: &mut rand::rngs::StdRng) -> i128 {
            self.0.sample_state(rng)
        }
        fn sample_query(&self, rng: &mut rand::rngs::StdRng) -> Self::Query {
            self.0.sample_query(rng)
        }
        fn sample_update_of(
            &self,
            method: MethodId,
            rng: &mut rand::rngs::StdRng,
        ) -> Self::Update {
            self.0.sample_update_of(method, rng)
        }
    }

    #[test]
    fn cross_key_conflict_is_detected() {
        let bad = MiskeyedAccount(Account::new(20));
        let report = validate(&bad, &bad.0.coord_spec(), &AnalysisConfig::default());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CrossKeyConflict { a, b, .. }
                if a.index() == 1 && b.index() == 1)));
        assert!(report.to_string().contains("cross-key conflict"));
    }

    #[test]
    fn keyless_objects_pass_the_shard_key_check_vacuously() {
        // The plain Account declares no shard keys: the cross-key pass
        // has nothing to check and must stay silent.
        let acc = Account::new(20);
        let report = validate(&acc, &acc.coord_spec(), &AnalysisConfig::default());
        assert!(report.is_valid(), "{report}");
    }
}
