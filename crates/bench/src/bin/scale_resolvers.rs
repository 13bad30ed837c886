//! **Resolver scaling sweep** — wall clock and agreement of the two
//! SINR resolver backends on uniform deployments, up to 10⁵ nodes.
//!
//! Two timed sweep modes per network size:
//!
//! * **few** — rotating sets of exactly `DIRECT_MAX_TX` and
//!   `4·DIRECT_MAX_TX` transmitters, one on each side of the threshold
//!   where `aggregated` switches from the direct sum to its field;
//! * **rotate** — deterministic rotating transmitter sets at two
//!   densities, consecutive rounds unrelated.
//!
//! Every mode audits that both backends return identical receptions
//! (the naive oracle joins only at sizes where its `O(n·|T|)` cost stays
//! reasonable); the audit reuses one resolver instance per backend
//! across rounds. A third, untimed **evolve** set joins the audit only: a
//! saturated membership (99.95% transmit, the busy-tone/wake-up-storm
//! regime, where nearly every listener is a field-path candidate) churned
//! by ~0.01% of the nodes per round.
//!
//! Scale tiers (`DCLUSTER_SCALE`):
//!
//! * `ci` — n up to ≈2·10³; additionally acts as the CI gate: exits
//!   non-zero if the backends disagree anywhere or `aggregated`'s total
//!   few- and rotate-mode wall clock exceeds 2× of `naive`'s.
//! * `quick` (default) — n up to 2·10⁴.
//! * `full` — n up to 10⁵ (the ROADMAP scale target).
//!
//! Deployments are scenario specs; `--scenario <file>.scn` sweeps that
//! one deployment instead of the size ladder.
//!
//! Output: markdown table, `results/scale_resolvers.csv`, and
//! `BENCH_resolvers.json` (committed reference numbers).

use dcluster_bench::{
    print_table, scale, scenario_override, write_csv, Runner, Scale, ScenarioSpec,
};
use dcluster_core::check::audit_resolver_equivalence;
use dcluster_sim::{rng::Rng64, Network, ResolverKind, DIRECT_MAX_TX};
use std::time::Instant;

/// Rounds resolved per (n, density) configuration.
const ROUNDS: usize = 8;
/// Naive oracle joins the audit only up to this size.
const NAIVE_CAP: usize = 4_000;
/// Transmit fraction of the evolve audit set (saturated: almost everyone
/// transmits).
const EVOLVE_FRAC: f64 = 0.9995;
/// Fraction of nodes whose membership flips per evolve round. Kept
/// sparse (0.01%) so churn does not accumulate a listener pool across
/// rounds and the regime stays saturated.
const EVOLVE_CHURN: f64 = 0.000_1;

struct Row {
    mode: &'static str,
    n: usize,
    tx_frac: f64,
    tx_avg: usize,
    resolver: &'static str,
    millis: f64,
    receptions: u64,
}

/// Times `ROUNDS` resolves of `tx_sets` through one instance of `kind`.
fn time_kind(net: &Network, kind: ResolverKind, tx_sets: &[Vec<usize>]) -> (f64, u64) {
    let mut resolver = kind.build();
    let mut out = Vec::new();
    let mut receptions = 0u64;
    let start = Instant::now();
    for tx in tx_sets {
        resolver.resolve_into(net, tx, &mut out);
        receptions += out.len() as u64;
    }
    (start.elapsed().as_secs_f64() * 1e3, receptions)
}

/// Audits the backends in `audited` against each other over `tx_sets`,
/// reporting a disagreement on stderr; returns whether they agreed.
fn audit(net: &Network, tx_sets: &[Vec<usize>], audited: &[ResolverKind], label: &str) -> bool {
    match audit_resolver_equivalence(net, tx_sets, audited) {
        None => true,
        Some(d) => {
            eprintln!(
                "DISAGREEMENT at n={}, {label}: {} vs {} in audited round {} \
                 ({} vs {} receptions)",
                net.len(),
                d.disagreeing,
                d.reference,
                d.round,
                d.got.len(),
                d.expected.len()
            );
            false
        }
    }
}

fn main() {
    let tier = scale();
    let ns: &[usize] = match tier {
        Scale::Ci => &[500, 1_000, 2_000],
        Scale::Quick => &[1_000, 4_000, 20_000],
        Scale::Full => &[1_000, 10_000, 100_000],
    };
    let tx_fracs = [0.05f64, 0.3];
    // Constant node density (≈40 per unit ball) so |T| — not the geometry —
    // is what grows along the sweep.
    let side_of = |n: usize| (n as f64 / 40.0).sqrt() * 2.0;
    let specs: Vec<ScenarioSpec> = match scenario_override() {
        Some(spec) => vec![spec],
        None => ns
            .iter()
            .map(|&n| {
                ScenarioSpec::uniform(format!("scale-n{n}"), 0x5ca1e + n as u64, n, side_of(n))
            })
            .collect(),
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut disagreements = 0u32;
    for spec in specs {
        let net: Network = Runner::new(spec)
            .build_network()
            .expect("sweep spec is valid");
        let n = net.len();

        // The backends timed and audited at this size: the oracle joins
        // only where its O(n·|T|) cost stays reasonable.
        let kinds: Vec<ResolverKind> = if n <= NAIVE_CAP {
            ResolverKind::ALL.to_vec()
        } else {
            vec![ResolverKind::Aggregated]
        };

        // Modes 1 and 2: rotating, unrelated transmitter sets, of a fixed
        // size around the direct-sum threshold or a fixed fraction of n.
        let mut rotating: Vec<(&'static str, f64, Vec<Vec<usize>>)> = Vec::new();
        for count in [DIRECT_MAX_TX, 4 * DIRECT_MAX_TX] {
            let tx_sets: Vec<Vec<usize>> = (0..ROUNDS)
                .map(|r| {
                    let mut rr = Rng64::new((n as u64) << 8 | r as u64);
                    let mut order: Vec<usize> = (0..n).collect();
                    rr.shuffle(&mut order);
                    order.truncate(count.min(n));
                    order.sort_unstable();
                    order
                })
                .collect();
            rotating.push(("few", count as f64 / n as f64, tx_sets));
        }
        for &frac in &tx_fracs {
            // Deterministic rotating transmitter sets: round r transmits the
            // nodes whose (index + r·stride) hashes under the fraction.
            let tx_sets: Vec<Vec<usize>> = (0..ROUNDS)
                .map(|r| {
                    let mut rr = Rng64::new((n as u64) << 8 | r as u64);
                    (0..n).filter(|_| rr.chance(frac)).collect()
                })
                .collect();
            rotating.push(("rotate", frac, tx_sets));
        }
        for (mode, frac, tx_sets) in rotating {
            let label = format!("{mode}, tx_frac={frac:.4}");
            if !audit(&net, &tx_sets, &kinds, &label) {
                disagreements += 1;
            }
            let tx_avg = tx_sets.iter().map(Vec::len).sum::<usize>() / tx_sets.len();
            for &kind in &kinds {
                let (millis, receptions) = time_kind(&net, kind, &tx_sets);
                rows.push(Row {
                    mode,
                    n,
                    tx_frac: frac,
                    tx_avg,
                    resolver: kind.name(),
                    millis,
                    receptions,
                });
            }
            eprintln!("done: n={n}, {label}");
        }

        // Evolve: saturated membership with sparse churn, audited only.
        {
            let mut rng = Rng64::new(0xE01_5E7 ^ n as u64);
            let mut member: Vec<bool> = (0..n).map(|_| rng.chance(EVOLVE_FRAC)).collect();
            let flips = ((n as f64 * EVOLVE_CHURN) as usize).max(1);
            let tx_sets: Vec<Vec<usize>> = (0..ROUNDS)
                .map(|_| {
                    for _ in 0..flips {
                        let v = rng.range_usize(n);
                        member[v] = !member[v];
                    }
                    (0..n).filter(|&v| member[v]).collect()
                })
                .collect();
            if !audit(&net, &tx_sets, &kinds, "evolve") {
                disagreements += 1;
            }
            eprintln!("done: n={n}, evolve (audit only)");
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.n.to_string(),
                format!("{:.2}", r.tx_frac),
                r.tx_avg.to_string(),
                r.resolver.to_string(),
                format!("{:.2}", r.millis),
                r.receptions.to_string(),
            ]
        })
        .collect();
    let headers = [
        "mode",
        "n",
        "tx_frac",
        "tx_avg",
        "resolver",
        "ms_total",
        "receptions",
    ];
    print_table(
        &format!("Resolver scaling sweep ({ROUNDS} rounds per config, tier {tier:?})"),
        &headers,
        &table,
    );
    write_csv("scale_resolvers", &headers, &table);
    write_json(&rows, tier);

    // CI gate: exact agreement plus bounded regression of the default
    // backend against the oracle, at the sizes where the oracle runs.
    if disagreements > 0 {
        eprintln!("FAIL: {disagreements} resolver disagreement(s)");
        std::process::exit(1);
    }
    if tier == Scale::Ci {
        let total = |k: ResolverKind| -> f64 {
            rows.iter()
                .filter(|r| r.resolver == k.name() && r.n <= NAIVE_CAP)
                .map(|r| r.millis)
                .sum::<f64>()
        };
        let (naive, agg) = (total(ResolverKind::Naive), total(ResolverKind::Aggregated));
        eprintln!("ci gate: naive {naive:.1} ms total, aggregated {agg:.1} ms total");
        if agg > 2.0 * naive {
            eprintln!(
                "FAIL: aggregated resolver regressed >2x vs naive ({agg:.1} ms vs {naive:.1} ms)"
            );
            std::process::exit(1);
        }
        println!("\nci gate: OK (agreement + wall clock within 2x of naive)");
    }
}

/// Writes the committed reference-number artifact (schema: one object per
/// (mode, n, tx_frac, resolver) with total milliseconds over the rounds).
fn write_json(rows: &[Row], tier: Scale) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"scale_resolvers\",\n  \"tier\": \"{tier:?}\",\n  \"rounds_per_config\": {ROUNDS},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"n\": {}, \"tx_frac\": {}, \"tx_avg\": {}, \"resolver\": \"{}\", \"ms_total\": {:.3}, \"receptions\": {}}}{}\n",
            r.mode,
            r.n,
            r.tx_frac,
            r.tx_avg,
            r.resolver,
            r.millis,
            r.receptions,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write("BENCH_resolvers.json", &out) {
        Ok(()) => println!("[json] wrote BENCH_resolvers.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_resolvers.json: {e}"),
    }
}
