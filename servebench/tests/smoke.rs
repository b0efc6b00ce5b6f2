//! Tiny-size smoke test: every workload in both modes completes, passes
//! its correctness gate and self-checks, and reports exactly the metrics
//! `BENCHMARK.json` names for that mode.

use servebench::{run, Config, Workload};
use std::path::PathBuf;
use std::time::Duration;

fn tiny(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 3, 1.0, trace);
    cfg.rows = 20_000;
    cfg.hoods = 24;
    cfg.rebuild_every = 50;
    cfg.setups = 1;
    cfg.min_epochs = 20;
    cfg.update_period = Duration::from_millis(25);
    cfg.sample_every = 16;
    cfg.spans_dir = Some(PathBuf::from(env!("CARGO_TARGET_TMPDIR")));
    cfg
}

/// The metric names listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn every_workload_runs_checks_and_reports_its_metrics() {
    for trace in [false, true] {
        let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
        want.sort();
        for workload in Workload::ALL {
            let outcome = run(&tiny(workload, trace)).expect("run completes");
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.problems
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let mut got: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
            got.sort();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            let json = outcome.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}
