//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload discover|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the metrics — the end-to-end set with
//! `--trace 0`, the per-layer set with `--trace 1`. Progress goes to
//! standard error.

use std::process::ExitCode;

use achilles_benchmark::expected::Expected;
use achilles_benchmark::{discover, serve, RunConfig};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: achilles-benchmark --workload discover|serve --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload") else {
        return usage("--workload is required");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed takes a whole number");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("--seconds takes a positive number");
    };
    let traced = match value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return usage("--trace takes 0 or 1"),
    };
    if std::env::var_os("ACHILLES_CHECK_PROOFS").is_some() {
        // The proof audit would time the certificate checker, not the
        // pipeline users run.
        return usage(
            "unset ACHILLES_CHECK_PROOFS: the benchmark measures with the proof audit off",
        );
    }
    let run = match workload {
        "discover" => discover::run,
        "serve" => serve::run,
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let config = RunConfig {
        seed,
        seconds,
        traced,
    };
    eprintln!(
        "{workload}: seed {seed}, {seconds} s, trace {}, {} host cores",
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = run(&config, &Expected::registry_default());
    eprintln!(
        "{workload}: {} of {} operations failed",
        outcome.failed, outcome.attempted
    );
    println!("{}", outcome.to_json(traced));
    ExitCode::SUCCESS
}
