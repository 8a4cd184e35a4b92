//! Adversarial audit of [`RunReport::to_json`]'s hand-rolled encoder.
//!
//! External tooling parses the report with real JSON parsers — so the
//! encoder must emit strictly well-formed JSON for
//! *any* system label or method name an object spec might carry:
//! quotes, backslashes, control characters, astral-plane unicode. The
//! tree has no JSON dependency, so this test carries its own strict
//! recursive-descent validator (which doubles as a string decoder so
//! escaping can be checked for round-tripping, not just validity).

use std::collections::BTreeMap;

use hamband_runtime::metrics::{FairnessSummary, LatencySummary, RunReport};
use proptest::prelude::*;
use rdma_sim::SimTime;

/// Strict JSON validator/decoder: returns the decoded string values
/// encountered (in document order) iff the input is one well-formed
/// JSON value with no trailing garbage.
fn validate_json(s: &str) -> Result<Vec<String>, String> {
    let b: Vec<char> = s.chars().collect();
    let mut strings = Vec::new();
    let mut i = 0usize;
    value(&b, &mut i, &mut strings)?;
    skip_ws(&b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at char {i}"));
    }
    Ok(strings)
}

fn skip_ws(b: &[char], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], ' ' | '\t' | '\n' | '\r') {
        *i += 1;
    }
}

fn value(b: &[char], i: &mut usize, out: &mut Vec<String>) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some('{') => object(b, i, out),
        Some('[') => array(b, i, out),
        Some('"') => string(b, i).map(|s| out.push(s)),
        Some('t') => literal(b, i, "true"),
        Some('f') => literal(b, i, "false"),
        Some('n') => literal(b, i, "null"),
        Some(c) if *c == '-' || c.is_ascii_digit() => number(b, i),
        other => Err(format!("unexpected {other:?} at {i:?}")),
    }
}

fn literal(b: &[char], i: &mut usize, word: &str) -> Result<(), String> {
    for w in word.chars() {
        if b.get(*i) != Some(&w) {
            return Err(format!("broken literal {word} at {i:?}"));
        }
        *i += 1;
    }
    Ok(())
}

fn number(b: &[char], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&'-') {
        *i += 1;
    }
    let digits = |b: &[char], i: &mut usize| {
        let from = *i;
        while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
            *i += 1;
        }
        *i > from
    };
    let int_from = *i;
    if !digits(b, i) {
        return Err(format!("number without integer part at {start}"));
    }
    if b[int_from] == '0' && *i - int_from > 1 {
        return Err(format!("leading zero at {start}"));
    }
    if b.get(*i) == Some(&'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("number without fraction digits at {start}"));
        }
    }
    if matches!(b.get(*i), Some('e') | Some('E')) {
        *i += 1;
        if matches!(b.get(*i), Some('+') | Some('-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("number without exponent digits at {start}"));
        }
    }
    Ok(())
}

fn string(b: &[char], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&'"') {
        return Err(format!("expected string at {i:?}"));
    }
    *i += 1;
    let mut s = String::new();
    loop {
        match b.get(*i) {
            None => return Err("unterminated string".into()),
            Some('"') => {
                *i += 1;
                return Ok(s);
            }
            Some('\\') => {
                *i += 1;
                match b.get(*i) {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let hex: String = b.get(*i + 1..*i + 5).unwrap_or(&[]).iter().collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        s.push(
                            char::from_u32(code).ok_or(format!("\\u{hex} is not a scalar"))?,
                        );
                        *i += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *i += 1;
            }
            Some(c) if (*c as u32) < 0x20 => {
                return Err(format!("raw control character {:#x} in string", *c as u32));
            }
            Some(c) => {
                s.push(*c);
                *i += 1;
            }
        }
    }
}

fn object(b: &[char], i: &mut usize, out: &mut Vec<String>) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        let key = string(b, i)?;
        out.push(key);
        skip_ws(b, i);
        if b.get(*i) != Some(&':') {
            return Err(format!("missing ':' at {i:?}"));
        }
        *i += 1;
        value(b, i, out)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(',') => *i += 1,
            Some('}') => {
                *i += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

fn array(b: &[char], i: &mut usize, out: &mut Vec<String>) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&']') {
        *i += 1;
        return Ok(());
    }
    loop {
        value(b, i, out)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(',') => *i += 1,
            Some(']') => {
                *i += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

/// Strings drawn to hit the escaper where it hurts: quotes,
/// backslashes, every control character, multi-byte and astral
/// unicode, plus benign filler.
fn adversarial_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('"' as u32),
            Just('\\' as u32),
            0u32..0x20,              // all raw controls, incl. \n \r \t
            0x20u32..0x7f,           // printable ASCII
            0xa0u32..0x2000,         // multi-byte BMP
            0x1f300u32..0x1f600,     // astral plane (emoji block)
        ],
        0..24,
    )
    .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

fn report_with(system: String, methods: Vec<String>, phase: String) -> RunReport {
    let mut per_method = BTreeMap::new();
    for (i, m) in methods.into_iter().enumerate() {
        per_method.insert(m, i as f64 * 1.5);
    }
    let mut phases = BTreeMap::new();
    phases.insert(
        phase,
        LatencySummary { count: 2, mean_us: 1.0, p50_us: 1.0, p90_us: 2.0, p99_us: 2.0, max_us: 2.5 },
    );
    RunReport {
        system,
        nodes: 3,
        total_calls: 9,
        total_updates: 4,
        forfeited: 1,
        completed_at: SimTime(1_234),
        throughput_ops_per_us: 1.25,
        mean_rt_us: f64::INFINITY, // encoder must still emit a number
        writes_posted: 7,
        bytes_written: 700,
        writes_per_op: 1.75,
        cpu_busy_ns: vec![1_200, 0, u64::MAX],
        cpu_post_ns: vec![60, 0, 0],
        isolated_busy_ns: vec![0, 60, 0],
        nic_busy_ns: Vec::new(),
        summary_adoptions: vec![0, 7, u64::MAX],
        per_method_rt_us: per_method,
        phases,
        converged: true,
        fairness: Some(FairnessSummary::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_json_is_well_formed_for_adversarial_names(
        system in adversarial_string(),
        methods in proptest::collection::vec(adversarial_string(), 0..4),
        phase in adversarial_string(),
    ) {
        let report = report_with(system.clone(), methods.clone(), phase.clone());
        let json = report.to_json();
        let decoded = validate_json(&json)
            .map_err(|e| TestCaseError::fail(format!("{e}\njson: {json}")))?;
        // Escaping must round-trip: every name fed in comes back out
        // of a strict decoder unchanged.
        prop_assert!(
            decoded.contains(&system),
            "system label lost in encoding: {system:?}"
        );
        for m in &methods {
            prop_assert!(decoded.contains(m), "method name lost in encoding: {m:?}");
        }
        prop_assert!(decoded.contains(&phase), "phase label lost in encoding: {phase:?}");
        // Per-node busy times and adoption counts are integer arrays:
        // exact at u64::MAX (no float round trip), and `[]` for a
        // cluster of none.
        prop_assert!(
            json.contains(
                "\"cpu_busy_ns\":[1200,0,18446744073709551615],\"nic_busy_ns\":[],\
                 \"isolated_busy_ns\":[0,60,0],\"summary_adoptions\":[0,7,18446744073709551615],"
            ),
            "busy arrays missing or misencoded: {json}"
        );
    }
}

#[test]
fn validator_rejects_malformed_documents() {
    for bad in [
        "{", "}", "{\"a\":}", "{\"a\":1,}", "[1,]", "{\"a\" 1}", "\"\\x\"",
        "\"unterminated", "{\"a\":1}extra", "01", "1.", "1e", "\"\u{1}\"", "nul",
    ] {
        assert!(validate_json(bad).is_err(), "accepted malformed {bad:?}");
    }
}

#[test]
fn validator_accepts_and_decodes_escapes() {
    let got = validate_json(r#"{"k\n\"\\\u0041": [1.5, -2e-3, true, null, "v"]}"#).unwrap();
    assert_eq!(got, vec!["k\n\"\\A".to_string(), "v".to_string()]);
}
