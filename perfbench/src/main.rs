//! `qbism-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones.

use qbism_perfbench::workload::Workload;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: qbism-perfbench --workload <atlas_lookup|population_study|compressed_fold> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => Workload::parse(value).map(|w| workload = Some(w)).is_some(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v: f64| seconds = v).is_ok() && seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage(&format!("bad argument {flag} {value}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    match qbism_perfbench::run(workload, seed, seconds, trace) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
