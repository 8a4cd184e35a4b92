//! Executable refinement checking — Lemma 3 of the paper.
//!
//! The lemma states that the concrete RDMA WRDT semantics (Fig. 7)
//! refines the abstract WRDT semantics (Fig. 5): for every concrete
//! trace there is an abstract execution with the same trace. The
//! concrete rules map to abstract steps as follows:
//!
//! * REDUCE at `p` ↦ CALL at `p` followed by a PROP at every other
//!   process (the rule writes the summary everywhere in one step, and
//!   reducible methods are conflict- and dependence-free, so the PROPs
//!   are always enabled);
//! * FREE / CONF at `p` ↦ CALL at `p`;
//! * FREE-APP / CONF-APP at `p` ↦ PROP at `p`;
//! * QUERY ↦ QUERY.
//!
//! [`replay`] re-executes a recorded concrete trace against a fresh
//! [`AbstractWrdt`] and reports the first abstract side condition that
//! fails, if any. Running it after a concrete execution is the
//! executable counterpart of the refinement proof — used extensively by
//! the property tests.

use crate::abstract_sem::AbstractWrdt;
use crate::coord::CoordSpec;
use crate::error::SemError;
use crate::object::ObjectSpec;
use crate::trace::{Label, Trace};

/// A refinement failure: the `index`-th label of the concrete trace was
/// not enabled in the abstract semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementError {
    /// Position in the trace of the offending label.
    pub index: usize,
    /// The abstract side condition that failed.
    pub cause: SemError,
}

impl std::fmt::Display for RefinementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace label {} not abstractly enabled: {}", self.index, self.cause)
    }
}

impl std::error::Error for RefinementError {}

/// Replay a concrete trace in the abstract semantics (Lemma 3, checked).
///
/// Returns the final abstract configuration on success, so callers can
/// additionally compare abstract and concrete states.
///
/// # Errors
///
/// [`RefinementError`] naming the first label whose abstract transition
/// was not enabled.
pub fn replay<'a, O: ObjectSpec>(
    spec: &'a O,
    coord: &'a CoordSpec,
    n: usize,
    trace: &Trace<O::Update>,
) -> Result<AbstractWrdt<'a, O>, RefinementError> {
    let mut w = AbstractWrdt::new(spec, coord, n);
    for (index, label) in trace.iter().enumerate() {
        let result = match label {
            Label::Call { process, update, .. } => w.call(*process, update.clone()).map(|_| ()),
            Label::Prop { process, rid } => w.propagate_rid(*process, *rid),
            Label::Query { process } => {
                // Queries have no side conditions; they only read. The
                // abstract rule needs a query value, which traces do not
                // carry, so replay records the process touch only.
                let _ = process;
                Ok(())
            }
        };
        if let Err(cause) = result {
            return Err(RefinementError { index, cause });
        }
    }
    Ok(w)
}

/// Replay a trace and additionally check the abstract integrity and
/// convergence lemmas on the resulting configuration.
///
/// # Errors
///
/// As [`replay`], plus a synthesized error if an abstract guarantee
/// fails (which would indicate an unsound coordination spec rather than
/// a refinement failure).
pub fn replay_and_check<'a, O: ObjectSpec>(
    spec: &'a O,
    coord: &'a CoordSpec,
    n: usize,
    trace: &Trace<O::Update>,
) -> Result<AbstractWrdt<'a, O>, String> {
    let w = replay(spec, coord, n, trace).map_err(|e| e.to_string())?;
    if !w.check_integrity() {
        return Err("abstract integrity violated after replay".to_string());
    }
    if !w.check_convergence() {
        return Err("abstract convergence violated after replay".to_string());
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{Account, AccountQuery};
    use crate::ids::{Pid, Rid};
    use crate::rdma_sem::RdmaWrdt;

    #[test]
    fn concrete_account_run_refines() {
        let acc = Account::default();
        let coord = acc.coord_spec();
        let mut k = RdmaWrdt::new(&acc, &coord, 3);
        k.reduce(1, Account::deposit(10)).unwrap();
        k.reduce(2, Account::deposit(5)).unwrap();
        k.conf(0, Account::withdraw(12)).unwrap();
        k.drain();
        k.query(1, &AccountQuery::Balance);
        let w = replay(&acc, &coord, 3, k.trace()).expect("refinement holds");
        assert!(w.check_integrity());
        assert!(w.check_convergence());
        // Final abstract states match the concrete current states.
        for p in Pid::all(3) {
            assert_eq!(*w.state(p), k.current_state(p));
        }
    }

    #[test]
    fn fabricated_ill_trace_is_rejected() {
        let acc = Account::default();
        let coord = acc.coord_spec();
        // A withdraw with no prior deposit is not abstractly enabled.
        let trace = vec![Label::Call {
            process: Pid(0),
            rid: Rid::new(Pid(0), 0),
            update: Account::withdraw(1),
        }];
        let err = replay(&acc, &coord, 2, &trace).unwrap_err();
        assert_eq!(err.index, 0);
        assert!(matches!(err.cause, SemError::NotPermissible { .. }));
        assert!(err.to_string().contains("label 0"));
    }

    #[test]
    fn prop_of_unknown_call_is_rejected() {
        let acc = Account::default();
        let coord = acc.coord_spec();
        let trace = vec![Label::Prop { process: Pid(0), rid: Rid::new(Pid(1), 7) }];
        let err = replay(&acc, &coord, 2, &trace).unwrap_err();
        assert!(matches!(err.cause, SemError::UnknownCall { .. }));
    }

    #[test]
    fn replay_and_check_passes_on_good_run() {
        let acc = Account::default();
        let coord = acc.coord_spec();
        let mut k = RdmaWrdt::new(&acc, &coord, 2);
        k.reduce(0, Account::deposit(3)).unwrap();
        k.drain();
        assert!(replay_and_check(&acc, &coord, 2, k.trace()).is_ok());
    }
}
