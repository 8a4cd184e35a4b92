//! Shared command-line plumbing for the bench binaries: positional
//! `--flag value` scanning.
//!
//! This is also the only file in the workspace that reads the
//! environment: `HAMBAND_OPS` and `HAMBAND_SEED`
//! ([`ExpOptions::from_env`]) scale a bench binary's op budget.
//! Everything else a run depends on is set through the `RunConfig` /
//! `RuntimeConfig` / `WorkloadSpec` builders.

use crate::experiments::ExpOptions;

/// Collected argv, minus the program name.
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The value following `--flag`, parsed as a number. Panics with a
/// usable message on garbage — a typo'd seed count must not
/// silently fall back to a default.
pub fn num_flag(args: &[String], flag: &str) -> Option<u64> {
    let v = args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))?;
    Some(v.parse().unwrap_or_else(|_| panic!("{flag} wants a number, got {v:?}")))
}

/// Whether the bare switch `--flag` is present.
pub fn bool_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The environment variable `name` parsed as a number; unset or
/// unparseable means `None` (the caller keeps its default).
fn env_num(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl ExpOptions {
    /// Defaults overridden by `HAMBAND_OPS` (calls per data point) and
    /// `HAMBAND_SEED` (base RNG seed).
    pub fn from_env() -> Self {
        let d = ExpOptions::default();
        ExpOptions {
            ops: env_num("HAMBAND_OPS").unwrap_or(d.ops),
            seed: env_num("HAMBAND_SEED").unwrap_or(d.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_parse_positionally() {
        let a = args(&["--seeds", "16", "--canary"]);
        assert_eq!(num_flag(&a, "--seeds"), Some(16));
        assert!(bool_flag(&a, "--canary"));
        assert_eq!(num_flag(&a, "--ops"), None);
        assert!(!bool_flag(&a, "--verbose"));
    }

    #[test]
    #[should_panic(expected = "--seeds wants a number")]
    fn garbage_numeric_flag_panics() {
        num_flag(&args(&["--seeds", "lots"]), "--seeds");
    }
}
