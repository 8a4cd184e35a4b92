//! Command line of the benchmark. See `README.md` beside this crate.

use std::process::ExitCode;

use hamband_benchmark::run::Request;
use hamband_benchmark::workloads::{by_name, DEFAULT_SEED, WORKLOADS};
use hamband_benchmark::{bench, manifest, run, selfcheck};

const USAGE: &str = "\
usage: hamband-benchmark --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
       hamband-benchmark suite [--seed <n>] [--seconds <n>]
       hamband-benchmark self-check
       hamband-benchmark manifest
workloads: bank-mixed counter-reduce orset-sessions courseware-leaderfail thr-counter-open";

/// The value of `--<flag>` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn request(args: &[String], workload: &str) -> Result<Request, String> {
    Ok(Request {
        workload: by_name(workload).ok_or_else(|| format!("no workload named {workload:?}"))?,
        seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: flag(args, "--seconds")?.unwrap_or(manifest::RUN_SECONDS),
        trace: flag::<u8>(args, "--trace")?.unwrap_or(0) != 0,
        scale: flag(args, "--scale")?.unwrap_or(1.0),
        out_dir: flag(args, "--out-dir")?.unwrap_or_else(|| "benchmark/out".to_string()),
    })
}

fn child(args: &[String]) -> Result<(), String> {
    match flag::<String>(args, "--workload")?.as_deref() {
        // The two children the self-check needs: one that never
        // finishes, one that dies.
        Some("test-hang") => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
        Some("test-panic") => panic!("self-check: this child panics on purpose"),
        Some(name) => {
            run::child(&request(args, name)?);
            Ok(())
        }
        None => Err("child needs --workload".to_string()),
    }
}

fn suite(args: &[String]) -> Result<bool, String> {
    let start = std::time::Instant::now();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let mut one = args.to_vec();
            one.extend(["--trace".to_string(), trace.to_string()]);
            let result = bench::run(&request(&one, w.name)?);
            println!("RESULT {} {trace} {}", w.name, result.to_json());
            all_correct &= result.correct;
        }
    }
    println!(
        "suite wall time {:.1} s, every run correct: {all_correct}",
        start.elapsed().as_secs_f64()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    // Ambient configuration must not reach a measurement: the runtime
    // reads HAMBAND_* variables behind its builders' backs.
    let ambient: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("HAMBAND_"))
        .collect();
    for key in ambient {
        std::env::remove_var(key);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args).map(|()| true),
        Some("suite") => suite(&args),
        Some("self-check") => selfcheck::run_all().map(|()| true),
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        _ => match flag::<String>(&args, "--workload") {
            Ok(Some(name)) => request(&args, &name).map(|req| {
                // A run that printed its result line has done its job;
                // the line carries the verdict.
                bench::run(&req);
                true
            }),
            Ok(None) => Err(USAGE.to_string()),
            Err(e) => Err(e),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
