//! **Scenario smoke gate** — runs committed `scenarios/*.scn` files
//! end-to-end through the unified Runner and gates on **report
//! determinism**: every spec is executed twice and the two structured
//! reports must be equal (and their markdown renderings byte-identical).
//!
//! Usage: `scenario_smoke [file.scn ...]` — defaults to the two CI specs
//! (`scenarios/ci_clustering.scn`, `scenarios/ci_maintenance.scn`).
//! Exits non-zero on a parse error, a failed workload, a spec whose
//! round-trip through the text format is not the identity, or any
//! determinism violation.
//!
//! The gate also runs each spec **with a JSONL tracer attached** and
//! checks (a) the traced report renders byte-identically to the untraced
//! one (observability must be inert), and (b) two traced runs produce
//! byte-identical trace files.

use dcluster_bench::{or_exit, resolver_flag, Runner, ScenarioSpec};
use std::fs;

fn main() {
    let mut files: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--") && a.ends_with(".scn"))
        .collect();
    if files.is_empty() {
        files = vec![
            "scenarios/ci_clustering.scn".into(),
            "scenarios/ci_maintenance.scn".into(),
        ];
    }
    let mut failures = 0u32;
    for file in &files {
        let spec = match ScenarioSpec::load(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL: --scenario {e}");
                failures += 1;
                continue;
            }
        };
        // The text format must be a lossless encoding of the spec.
        match ScenarioSpec::parse(&spec.to_text()) {
            Ok(rt) if rt == spec => {}
            Ok(_) => {
                eprintln!("FAIL: {file}: parse(to_text(spec)) != spec");
                failures += 1;
            }
            Err(e) => {
                eprintln!("FAIL: {file}: canonical text does not re-parse: {e}");
                failures += 1;
            }
        }
        let runner = Runner::new(spec).with_resolver_override(resolver_flag());
        let first = or_exit(runner.run_default());
        let second = or_exit(runner.run_default());
        first.print();
        if first != second {
            eprintln!(
                "FAIL: {file}: reruns of scenario '{}' differ",
                first.scenario
            );
            failures += 1;
        }
        if first.to_markdown() != second.to_markdown() {
            eprintln!("FAIL: {file}: rendered reports differ across reruns");
            failures += 1;
        }
        if !first.ok() {
            eprintln!(
                "FAIL: {file}: workload '{}' did not complete",
                first.workload
            );
            failures += 1;
        }

        // Trace gate: tracing must be observationally inert, and traces
        // themselves must be deterministic.
        let trace_a = std::env::temp_dir().join(format!("smoke_{}_a.jsonl", first.scenario));
        let trace_b = std::env::temp_dir().join(format!("smoke_{}_b.jsonl", first.scenario));
        let traced = or_exit(
            runner
                .clone()
                .with_trace(Some(trace_a.clone()))
                .run_default(),
        );
        if traced.to_markdown() != first.to_markdown() {
            eprintln!("FAIL: {file}: attaching a tracer changed the rendered report");
            failures += 1;
        }
        let _ = or_exit(
            runner
                .clone()
                .with_trace(Some(trace_b.clone()))
                .run_default(),
        );
        match (fs::read(&trace_a), fs::read(&trace_b)) {
            (Ok(a), Ok(b)) if a == b && !a.is_empty() => {}
            (Ok(a), Ok(b)) => {
                eprintln!(
                    "FAIL: {file}: trace reruns differ ({} vs {} bytes)",
                    a.len(),
                    b.len()
                );
                failures += 1;
            }
            (ra, rb) => {
                eprintln!("FAIL: {file}: trace files unreadable: {ra:?} / {rb:?}");
                failures += 1;
            }
        }
        let _ = fs::remove_file(&trace_a);
        let _ = fs::remove_file(&trace_b);

        eprintln!(
            "done: {file} ({}, workload {}, {} rounds)",
            first.scenario, first.workload, first.rounds
        );
    }
    if failures > 0 {
        eprintln!("FAIL: {failures} scenario smoke failure(s)");
        std::process::exit(1);
    }
    println!(
        "\nci gate: OK ({} scenario file(s), byte-identical reports across reruns)",
        files.len()
    );
}
