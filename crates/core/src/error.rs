//! Error types reported by the executable semantics.

use std::error::Error;
use std::fmt;

use crate::ids::{GroupId, MethodId, Pid, Rid};

/// Why a transition of the abstract (Fig. 5) or concrete (Fig. 7)
/// semantics is not enabled.
///
/// The executable semantics are *checked*: attempting a transition whose
/// side conditions fail returns one of these variants instead of silently
/// corrupting the replicated state. Tests use the variants to assert that
/// ill-coordinated schedules are rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemError {
    /// The call is not locally permissible: applying it would violate the
    /// integrity invariant `I` (condition `𝒫(σ, c)` of rule CALL).
    NotPermissible {
        /// The process at which the call was attempted.
        process: Pid,
        /// The method of the offending call.
        method: MethodId,
    },
    /// Condition `CallConfSync` of rule CALL failed: a conflicting call
    /// executed elsewhere has not yet been applied locally.
    ConflictSyncViolation {
        /// The process at which the call was attempted.
        process: Pid,
        /// The pending conflicting call.
        pending: Rid,
    },
    /// Condition `PropDep` of rule PROP failed: a dependency of the call
    /// has not yet been applied at the receiving process.
    DependencyViolation {
        /// The receiving process.
        process: Pid,
        /// The missing dependency.
        missing: Rid,
    },
    /// The call to propagate was not found in the source history.
    UnknownCall {
        /// The process whose history was searched.
        process: Pid,
        /// The request that was not found.
        rid: Rid,
    },
    /// The call was already applied at the receiving process.
    AlreadyApplied {
        /// The receiving process.
        process: Pid,
        /// The duplicated request.
        rid: Rid,
    },
    /// A category-specific rule was invoked on a method of a different
    /// category (e.g. REDUCE on a conflicting method).
    WrongCategory {
        /// The offending method.
        method: MethodId,
        /// The rule that was attempted.
        rule: &'static str,
    },
    /// Rule CONF was attempted at a process that is not the leader of the
    /// method's synchronization group.
    NotLeader {
        /// The process that attempted the call.
        process: Pid,
        /// The synchronization group of the method.
        group: GroupId,
        /// The actual leader of that group.
        leader: Pid,
    },
    /// Rules FREE-APP / CONF-APP: the buffer to apply from is empty.
    EmptyBuffer {
        /// The process whose buffer was traversed.
        process: Pid,
    },
    /// Rules FREE-APP / CONF-APP: the head call's dependency map `D` is
    /// not yet satisfied by the local applied map `A` (`D ≰ A`).
    DependencyNotSatisfied {
        /// The process whose buffer was traversed.
        process: Pid,
        /// The source process of the unsatisfied dependency entry.
        dep_process: Pid,
        /// The method of the unsatisfied dependency entry.
        dep_method: MethodId,
    },
    /// Two calls of a summarization group failed to summarize, violating
    /// the group's closure property.
    NotSummarizable {
        /// The method whose call failed to summarize.
        method: MethodId,
    },
    /// A process identifier was out of range for the cluster.
    NoSuchProcess {
        /// The offending identifier.
        process: Pid,
        /// The cluster size.
        cluster: usize,
    },
}

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemError::NotPermissible { process, method } => {
                write!(f, "call on {method} not permissible at {process}")
            }
            SemError::ConflictSyncViolation { process, pending } => write!(
                f,
                "conflict synchronization violated at {process}: {pending} not yet applied"
            ),
            SemError::DependencyViolation { process, missing } => write!(
                f,
                "dependency preservation violated at {process}: {missing} not yet applied"
            ),
            SemError::UnknownCall { process, rid } => {
                write!(f, "call {rid} not found in history of {process}")
            }
            SemError::AlreadyApplied { process, rid } => {
                write!(f, "call {rid} already applied at {process}")
            }
            SemError::WrongCategory { method, rule } => {
                write!(f, "rule {rule} not applicable to method {method}")
            }
            SemError::NotLeader { process, group, leader } => {
                write!(f, "{process} is not the leader of {group} (leader is {leader})")
            }
            SemError::EmptyBuffer { process } => {
                write!(f, "no applicable buffered call at {process}")
            }
            SemError::DependencyNotSatisfied { process, dep_process, dep_method } => write!(
                f,
                "dependency on {dep_method} from {dep_process} not satisfied at {process}"
            ),
            SemError::NotSummarizable { method } => {
                write!(f, "calls on {method} failed to summarize")
            }
            SemError::NoSuchProcess { process, cluster } => {
                write!(f, "{process} out of range for cluster of {cluster}")
            }
        }
    }
}

impl Error for SemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let errors = [
            SemError::NotPermissible { process: Pid(0), method: MethodId(1) },
            SemError::ConflictSyncViolation { process: Pid(0), pending: Rid::new(Pid(1), 3) },
            SemError::DependencyViolation { process: Pid(2), missing: Rid::new(Pid(0), 1) },
            SemError::UnknownCall { process: Pid(0), rid: Rid::new(Pid(0), 0) },
            SemError::AlreadyApplied { process: Pid(0), rid: Rid::new(Pid(0), 0) },
            SemError::WrongCategory { method: MethodId(0), rule: "REDUCE" },
            SemError::NotLeader { process: Pid(1), group: GroupId(0), leader: Pid(0) },
            SemError::EmptyBuffer { process: Pid(0) },
            SemError::DependencyNotSatisfied {
                process: Pid(0),
                dep_process: Pid(1),
                dep_method: MethodId(0),
            },
            SemError::NotSummarizable { method: MethodId(0) },
            SemError::NoSuchProcess { process: Pid(9), cluster: 3 },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing punctuation: {s}");
        }
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SemError>();
    }
}
