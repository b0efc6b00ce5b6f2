//! `servebench --workload <dashboard|explore|ingest> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload and print a report,
//! then one JSON result line. Exits non-zero when an answer is wrong, a
//! self-check fails, or the run cannot complete.

use servebench::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: servebench --workload <dashboard|explore|ingest> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let mut cfg = Config::new(
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(1),
        seconds,
        trace.unwrap_or(false),
    );
    cfg.spans_dir = Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"));
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    for problem in &outcome.problems {
        eprintln!("servebench: FAILED: {problem}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
