//! **Figure 4** — full sparsification: the level sets `A_0 ⊇ A_1 ⊇ …` and
//! their (3/4)^i density decay (Lemma 10).
//!
//! A sub-protocol probe over a scenario-spec deployment (the committed
//! `scenarios/fig4_levels.scn` is this exact spec; `--scenario` swaps it).

use dcluster_bench::{
    or_exit, print_table, resolver_flag, scenario_override, write_csv, Runner, ScenarioSpec,
};
use dcluster_core::sparsify::{full_sparsification, max_cluster_size};
use dcluster_core::SeedSeq;

fn main() {
    let spec =
        scenario_override().unwrap_or_else(|| ScenarioSpec::uniform("fig4-levels", 44, 70, 1.6));
    let params = spec.params;
    let runner = Runner::new(spec).with_resolver_override(resolver_flag());
    let net = runner.build_network().expect("sweep spec is valid");
    let mut seeds = SeedSeq::new(params.seed);
    let mut engine = or_exit(runner.engine(&net));
    let all: Vec<usize> = (0..net.len()).collect();
    let gamma = net.density();
    let clusters = vec![1u64; net.len()];
    let out = full_sparsification(&mut engine, &params, &mut seeds, gamma, &all, &clusters);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, level) in out.levels.iter().enumerate() {
        let bound = (gamma as f64 * 0.75f64.powi(i as i32)).ceil();
        rows.push(vec![
            format!("A_{i}"),
            level.len().to_string(),
            max_cluster_size(level, &clusters).to_string(),
            format!("{bound}"),
        ]);
    }
    print_table(
        &format!("Figure 4 — FullSparsification levels (Γ = {gamma}, one cluster)"),
        &["level", "|A_i|", "cluster density", "Lemma 10 bound ¾^i·Γ"],
        &rows,
    );
    println!(
        "\nlinks: {}, units: {}, rounds: {}",
        out.links.len(),
        out.units.len(),
        engine.stats().rounds
    );
    write_csv(
        "fig4_full_sparsify",
        &["level", "size", "density", "bound"],
        &rows,
    );
}
