//! A long-lived engine resolver must be invisible: running an [`Engine`]
//! for N rounds over an evolving transmitter set, the aggregated backend
//! (its scratch buffers reused round after round, switching between the
//! direct loop and a per-round interference field) must produce
//! receptions identical to the naive oracle, round for round.

use dcluster_sim::engine::FnBehavior;
use dcluster_sim::rng::Rng64;
use dcluster_sim::{
    Engine, Network, Point, Reception, ResolverKind, SinrParams, SinrResolver, DIRECT_MAX_TX,
};
use proptest::prelude::*;

/// Pre-computes an evolving transmitter schedule: a membership vector
/// mutated by `churn` random flips per round, so consecutive rounds differ
/// by a small sparse diff. Every third round keeps only the first
/// [`DIRECT_MAX_TX`] active nodes, so the direct path runs between
/// field-path rounds.
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

/// Runs one engine step per schedule entry with the given resolver,
/// recording each round's receptions.
fn run_engine(
    net: &Network,
    resolver: Box<dyn SinrResolver>,
    schedule: &[Vec<bool>],
) -> Vec<Vec<Reception>> {
    let mut engine = Engine::with_resolver(net, resolver);
    schedule
        .iter()
        .map(|active| {
            let mut b = FnBehavior {
                tx: |_: &Network, v: usize, _: u64| active[v].then_some(0u8),
                rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
            };
            engine.step(&mut b)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// N engine rounds with one long-lived resolver equal the stateless
    /// oracle, round for round, on every backend.
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

        // The stateless reference, then every backend.
        let naive = run_engine(&net, ResolverKind::Naive.build(), &schedule);
        for kind in ResolverKind::ALL {
            let got = run_engine(&net, kind.build(), &schedule);
            prop_assert_eq!(&naive, &got, "{} diverged from naive", kind);
        }
    }
}
