//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload, prints every metric of the mode by
//! name with its unit, and ends with one JSON result line. Exits 1
//! (printing no result) when the run cannot be set up or measured, 2
//! on bad arguments. Run it through `python3 perfbench/run.py`, which
//! builds it first.

use perfbench::{run, RunConfig, WorkloadKind, DEFAULT_SEED, REFERENCE_CYCLES};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: WorkloadKind::Table2Cold,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        cycles: REFERENCE_CYCLES,
        work_dir: PathBuf::from(".perfbench"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| bad("one of table2-cold, hierarchy-cold, serve-mixed"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <table2-cold|hierarchy-cold|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!(
        "{} seed={} seconds={} trace={}: {} operations, {} failed",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in outcome.table(cfg.trace) {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("{}", outcome.to_json(cfg.trace));
    ExitCode::SUCCESS
}
