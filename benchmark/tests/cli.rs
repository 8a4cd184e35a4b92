//! The benchmark binary, driven the way the run command drives it.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hamband-benchmark");

/// The self-check subcommand: fingerprints repeat, differ by seed and
/// survive tracing on every workload; outage stages sum; a hung child
/// and a panicking child are reported dead within their cap and the
/// checks after them still run.
#[test]
fn self_check_passes() {
    let out = Command::new(BIN)
        .arg("self-check")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-check failed:\n{stdout}");
    assert!(stdout.contains("a hung child and a panicking child are contained"));
}

/// A whole run at a hundredth of the scale prints every end-to-end
/// metric and a correct result as its last line — with the caller's
/// environment full of `HAMBAND_*` settings that would change or (the
/// backend) abort a run that read them.
#[test]
fn a_run_ignores_ambient_configuration_and_prints_its_result_last() {
    let out_dir =
        std::env::temp_dir().join(format!("hamband-benchmark-test-{}", std::process::id()));
    let out = Command::new(BIN)
        .args([
            "--workload",
            "courseware-leaderfail",
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--scale", "0.05", "--out-dir"])
        .arg(&out_dir)
        .env("HAMBAND_BACKEND", "no-such-backend")
        .env("HAMBAND_MAX_BATCH", "1")
        .env("HAMBAND_SYNC_SHARDS", "4")
        .env("HAMBAND_DURABILITY", "fenced")
        .env("HAMBAND_OFFERED_LOAD", "5")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "run failed:\n{stdout}");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "last line: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "last line: {last}");
    for metric in [
        "tput_ops_per_vus",
        "rt_mean_vus",
        "rt_update_mean_vus",
        "host_ops_per_s",
        "setup_s",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric} missing: {last}"
        );
    }
    assert!(
        stdout.contains("max_batch: 16") && stdout.contains("sync_shards: 1"),
        "resolved config not printed"
    );
}

/// An unknown workload is refused with a non-zero code and no result.
#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(BIN)
        .args(["--workload", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
