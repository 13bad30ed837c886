//! # dcluster-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §2 for the
//! full index and EXPERIMENTS.md for recorded results):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — local broadcast comparison |
//! | `table2` | Table 2 — global broadcast comparison |
//! | `fig1_phases` | Figure 1 — a phase of SMSBroadcast |
//! | `fig2_proximity` | Figure 2 — proximity-graph construction |
//! | `fig3_sparsify` | Figure 3 — sparsification (clustered/unclustered) |
//! | `fig4_full_sparsify` | Figure 4 — full sparsification levels |
//! | `fig5_lowerbound_gadget` | Figures 5–6 + Lemma 13 |
//! | `fig7_lowerbound_chain` | Figure 7 + Theorem 6 |
//! | `thm1_clustering` | Theorem 1 scaling |
//! | `thm45_wakeup_leader` | Theorems 4–5 |
//! | `selector_sizes` | Lemmas 2–3 selector sizes |
//! | `ablation_wss` | why *witnessed* selection matters (Lemma 7) |
//! | `scenario_smoke` | determinism gate over committed `scenarios/*.scn` |
//!
//! Every network-driven binary builds its world through the **Scenario
//! API** (`dcluster-scenario`): sweep points are [`ScenarioSpec`]s run by
//! a [`Runner`], and `--scenario <file>.scn` replaces the built-in sweep
//! with a spec file. `--resolver KIND` pins the SINR backend everywhere.
//! Each binary prints markdown tables and writes CSV under
//! `$DCLUSTER_RESULTS_DIR` (default `results/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcluster_scenario::{
    connected_deployment, epoch_row, format_table, full_scale, print_table, scale, write_csv,
    DeployLayer, DynamicsSpec, Report, Runner, Scale, ScenarioSpec, Workload, WorkloadOutcome,
    EPOCH_HEADERS,
};

/// Prints a harness-level error and exits with status 1 — for CLI/env
/// mistakes, which should read as diagnostics, not panics with backtraces.
pub fn or_exit<T>(result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// The `--resolver=KIND` / `--resolver KIND` CLI flag. The binaries pass
/// it to [`Runner::with_resolver_override`]; `DCLUSTER_RESOLVER` is read
/// by [`Runner::resolver_for`] alone, after the spec's `resolver` line.
/// Unknown kinds exit with the parse error, which lists every valid
/// backend (a typo must not silently fall back).
pub fn resolver_flag() -> Option<dcluster_sim::ResolverKind> {
    flag_value("--resolver").map(|v| {
        or_exit(
            v.parse::<dcluster_sim::ResolverKind>()
                .map_err(|e| format!("--resolver: {e}")),
        )
    })
}

/// A `--flag value` / `--flag=value` string option from the command line
/// (shared by the scenario flags of the experiment binaries).
pub fn flag_value(flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if arg == flag {
            return Some(or_exit(args.next().ok_or(format!("{flag} needs a value"))));
        }
    }
    None
}

/// The JSONL trace destination for workload binaries: the `--trace
/// <file>` flag, else the `DCLUSTER_TRACE` env var. `None` (the default)
/// disables the sink; tracing never changes results, only records them.
/// An unwritable destination exits with an error naming the path — same
/// policy as `DCLUSTER_RESULTS_DIR`.
pub fn trace_flag() -> Option<std::path::PathBuf> {
    flag_value("--trace")
        .or_else(|| {
            std::env::var("DCLUSTER_TRACE")
                .ok()
                .filter(|v| !v.is_empty())
        })
        .map(std::path::PathBuf::from)
}

/// The spec named by `--scenario <file>.scn`, if given; read and parse
/// errors exit with status 1 ([`or_exit`]), naming the file and line.
pub fn scenario_override() -> Option<ScenarioSpec> {
    flag_value("--scenario")
        .map(|path| or_exit(ScenarioSpec::load(&path).map_err(|e| format!("--scenario: {e}"))))
}

/// The standard `--scenario` entry point for workload binaries: when the
/// flag is present, runs the spec (its own `workload` line, else
/// `default`) through a [`Runner`] honoring `--resolver`, prints the
/// report and writes its CSV, and returns `true` — the binary should then
/// skip its built-in sweep. Exits non-zero if the workload's success
/// criterion fails.
pub fn run_scenario_flag(default: Workload) -> bool {
    let Some(spec) = scenario_override() else {
        return false;
    };
    let workload = spec.workload.clone().unwrap_or(default);
    // A spec's pinned `resolver` line outranks the ambient
    // DCLUSTER_RESOLVER env, but never an explicit flag.
    let runner = Runner::new(spec)
        .with_resolver_override(resolver_flag())
        .with_trace(trace_flag());
    let report = or_exit(runner.run(&workload));
    report.print();
    report.write_csv();
    if !report.ok() {
        eprintln!("FAIL: scenario '{}' did not complete", report.scenario);
        std::process::exit(1);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_deployment_is_connected() {
        let net = connected_deployment(60, 8, 3).unwrap();
        assert!(net.comm_graph().is_connected());
        assert_eq!(net.len(), 60);
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["a", "b"], &[vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn scale_tiers_are_ordered_ci_to_full() {
        assert!(Scale::Ci < Scale::Quick);
        assert!(Scale::Quick < Scale::Full);
    }

    #[test]
    fn runner_built_engine_matches_the_scale_aware_default() {
        let spec = ScenarioSpec::degree("t", 11, 40, 6);
        let runner = Runner::new(spec);
        let net = runner.build_network().unwrap();
        let engine = runner.engine(&net).unwrap();
        assert_eq!(engine.round(), 0);
        assert_eq!(
            engine.resolver_kind(),
            dcluster_sim::ResolverKind::default()
        );
    }
}
