//! The multihonest benchmark binary. One process runs one workload,
//! either timed with tracing off (end-to-end metrics) or as the traced
//! per-layer breakdown (`--trace 1`). `run.py` builds this crate, runs
//! it, and prints the result line; README.md says why each workload
//! exists and what every metric means.
//!
//! Stdout carries exactly one JSON line (the workload's outcome);
//! progress and check failures go to stderr.

mod campaign;
mod forkflow;
mod horizon;
mod measure;
mod table1;

use std::path::PathBuf;

use measure::Outcome;

const USAGE: &str = "perfbench <table1|campaign|horizon|forkflow> --seed <n> --seconds <s> \
                     --trace <0|1> --workdir <dir>";

/// The command line of one workload process.
pub struct Args {
    /// Seed every input of the workload is generated from.
    pub seed: u64,
    /// Wall-time budget of the measured phase.
    pub seconds: f64,
    /// Fresh directory for WAL, checkpoint and trace files.
    pub workdir: PathBuf,
}

fn parse(argv: &[String]) -> Result<(String, bool, Args), String> {
    let workload = argv.first().ok_or("missing workload")?.clone();
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = None;
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds takes a non-negative number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--workdir" => workdir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
    };
    if !args.workdir.is_dir() {
        return Err(format!(
            "--workdir {} is not a directory",
            args.workdir.display()
        ));
    }
    Ok((workload, trace.ok_or("--trace is required")?, args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, trace, args) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {USAGE}");
        std::process::exit(2);
    });
    let mut out = Outcome::default();
    match (workload.as_str(), trace) {
        ("table1", false) => table1::timed(&args, &mut out),
        ("table1", true) => table1::traced(&args, &mut out),
        ("campaign", false) => campaign::timed(&args, &mut out),
        ("campaign", true) => campaign::traced(&args, &mut out),
        ("horizon", false) => horizon::timed(&args, &mut out),
        ("horizon", true) => horizon::traced(&args, &mut out),
        ("forkflow", false) => forkflow::timed(&args, &mut out),
        ("forkflow", true) => forkflow::traced(&args, &mut out),
        _ => {
            eprintln!("error: unknown workload {workload}\nusage: {USAGE}");
            std::process::exit(2);
        }
    }
    println!("{}", out.to_json());
}
