//! Shared command-line plumbing for the bench binaries.
//!
//! Every gate binary (`headline`, `ingress`, `shards`, `chaos`,
//! `load`) grew the same three fragments independently: positional
//! `--flag value` scanning, the no-dependency `"key": <number>`
//! extractor for committed baseline JSON, and the write-the-report
//! epilogue. They live here once; the binaries keep only their
//! actual experiment logic and gate arithmetic.
//!
//! This is also the only file in the workspace that reads the
//! environment: `HAMBAND_OPS`, `HAMBAND_SEED` ([`ExpOptions::from_env`])
//! and `HAMBAND_LOAD_OPS` ([`LoadOptions::from_env`]) scale a bench
//! binary's op budget. Everything else a run depends on is set through
//! the `RunConfig` / `RuntimeConfig` / `WorkloadSpec` builders.

use crate::experiments::ExpOptions;
use crate::load::LoadOptions;

/// Collected argv, minus the program name.
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The value following `--flag`, as a string (e.g. a baseline path).
pub fn str_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// The value following `--flag`, parsed as a number. Panics with a
/// usable message on garbage — a typo'd gate threshold must not
/// silently fall back to a default.
pub fn num_flag(args: &[String], flag: &str) -> Option<u64> {
    str_flag(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} wants a number, got {v:?}")))
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

impl LoadOptions {
    /// Defaults with the op budget per sweep point overridden by a
    /// positive `HAMBAND_LOAD_OPS` (default one million — CI passes a
    /// small value so the shape gate stays cheap).
    pub fn from_env() -> Self {
        let d = LoadOptions::default();
        LoadOptions { ops: env_num("HAMBAND_LOAD_OPS").filter(|&n| n > 0).unwrap_or(d.ops), ..d }
    }
}

/// Pull the first `"key": <number>` after `anchor` out of `json`
/// (enough structure awareness for our own stable-key-order reports —
/// no JSON parser in the tree).
pub fn extract_f64(json: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = json.find(anchor)?;
    let tail = &json[start..];
    let at = tail.find(key)? + key.len();
    let rest = tail[at..].trim_start_matches([':', ' ']);
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Write a machine-readable report next to the working directory,
/// printing the outcome either way (a failed write is a diagnostic,
/// not a gate failure — the human-readable table already printed).
pub fn write_report(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
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
        let a = args(&["--baseline", "b.json", "--seeds", "16", "--canary"]);
        assert_eq!(str_flag(&a, "--baseline").as_deref(), Some("b.json"));
        assert_eq!(num_flag(&a, "--seeds"), Some(16));
        assert!(bool_flag(&a, "--canary"));
        assert_eq!(str_flag(&a, "--headline"), None);
        assert_eq!(num_flag(&a, "--ops"), None);
        assert!(!bool_flag(&a, "--verbose"));
    }

    #[test]
    #[should_panic(expected = "--seeds wants a number")]
    fn garbage_numeric_flag_panics() {
        num_flag(&args(&["--seeds", "lots"]), "--seeds");
    }

    #[test]
    fn extractor_finds_number_after_anchor() {
        let json = r#"{"a": {"tput": 1.5, "n": 4}, "b": {"tput": 2.25}}"#;
        assert_eq!(extract_f64(json, "\"b\"", "\"tput\""), Some(2.25));
        assert_eq!(extract_f64(json, "\"a\"", "\"tput\""), Some(1.5));
        assert_eq!(extract_f64(json, "\"a\"", "\"n\""), Some(4.0));
        assert_eq!(extract_f64(json, "\"c\"", "\"tput\""), None);
        assert_eq!(extract_f64(json, "\"a\"", "\"missing\""), None);
    }
}
