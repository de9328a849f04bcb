//! `gwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints `key=value` lines about the run, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 0 only
//! when every output checked out; 1 when a check failed; 2 on bad usage.

use canal_gwbench::{run, to_json, RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: gwbench --workload <l4_conn_churn|l7_api|tenant_churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    Ok(RunConfig {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes: None,
        span_file: trace
            .then(|| format!(".gwbench-trace/{}-seed{seed}.jsonl", workload.name()).into()),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gwbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gwbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !report.layer_table.is_empty() {
        eprint!("{}", report.layer_table);
    }
    if let Some(f) = &report.first_failure {
        eprintln!("gwbench: check failed: {f}");
    }
    for line in &report.info {
        println!("{line}");
    }
    println!("{}", to_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
