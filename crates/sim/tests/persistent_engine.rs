//! The persistent resolution engine must be invisible: running an
//! [`Engine`] for N rounds over an evolving transmitter set, the
//! aggregated backend's sparsely-patched interference field must produce
//! receptions identical to the naive oracle, which keeps no state across
//! rounds — and the maintained field must
//! audit as structurally identical to a rebuild after every step
//! ([`Engine::audit_resolver`], the engine-level extension of the
//! dynamics subsystem's `World::audit_incremental` pattern).

use dcluster_sim::engine::FnBehavior;
use dcluster_sim::rng::Rng64;
use dcluster_sim::{
    Engine, Network, Point, Reception, ResolverKind, SinrParams, SinrResolver, DIRECT_MAX_TX,
};
use proptest::prelude::*;

/// Pre-computes an evolving transmitter schedule: a membership vector
/// mutated by `churn` random flips per round, so consecutive rounds differ
/// by a small sparse diff (the regime the field cache patches). Every
/// third round keeps only the first [`DIRECT_MAX_TX`] active nodes, so the
/// direct path runs between patched rounds.
fn evolving_schedule(n: usize, rounds: usize, churn: usize, rng: &mut Rng64) -> Vec<Vec<bool>> {
    let mut active: Vec<bool> = (0..n).map(|_| rng.chance(0.4)).collect();
    let mut schedule = Vec::with_capacity(rounds);
    for r in 0..rounds {
        for _ in 0..churn {
            let v = rng.range_usize(n);
            active[v] = !active[v];
        }
        let mut round = active.clone();
        if r % 3 == 2 {
            for (kept, a) in round.iter_mut().filter(|a| **a).enumerate() {
                *a = kept < DIRECT_MAX_TX;
            }
        }
        schedule.push(round);
    }
    schedule
}

/// Runs `rounds` engine steps with the given resolver, recording each
/// round's receptions and auditing the resolver's maintained state after
/// every step.
fn run_engine(
    net: &Network,
    resolver: Box<dyn SinrResolver>,
    schedule: &[Vec<bool>],
) -> Result<Vec<Vec<Reception>>, String> {
    let mut engine = Engine::with_resolver(net, resolver);
    let mut per_round = Vec::with_capacity(schedule.len());
    for (r, active) in schedule.iter().enumerate() {
        let mut b = FnBehavior {
            tx: |_: &Network, v: usize, _: u64| active[v].then_some(0u8),
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
        };
        per_round.push(engine.step(&mut b));
        engine
            .audit_resolver()
            .map_err(|e| format!("round {r}: resolver audit failed: {e}"))?;
    }
    Ok(per_round)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// N rounds of sparse field patching inside the engine equal the
    /// stateless oracle, round for round, on every backend.
    #[test]
    fn persistent_backends_equal_fresh_rebuild_over_engine_rounds(
        seed in 0u64..10_000,
        n in 30usize..150,
        churn in 1usize..8,
    ) {
        let mut rng = Rng64::new(seed ^ 0x9e37);
        let side = (n as f64 / 12.0).sqrt().max(1.0) * 1.5;
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
            .collect();
        let net = Network::builder(pts)
            .params(SinrParams::default())
            .build()
            .expect("nonempty deployment");
        let schedule = evolving_schedule(n, 12, churn, &mut rng);

        // The stateless reference, then every backend audited each round.
        let naive = run_engine(&net, ResolverKind::Naive.build(), &schedule)?;
        for kind in ResolverKind::ALL {
            let got = run_engine(&net, kind.build(), &schedule)?;
            prop_assert_eq!(&naive, &got, "{} diverged from naive", kind);
        }
    }
}
