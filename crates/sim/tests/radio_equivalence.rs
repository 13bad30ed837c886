//! Every SINR resolver backend must return **exactly** the same receptions
//! as the naive oracle — the equivalence promised in `radio.rs`'s module
//! docs (for the aggregated backend: small rounds run the oracle's own
//! loop; on larger ones the cell sums are exact partial sums and the
//! residual bound is only used when conclusive, so the decisions coincide
//! with the full Eq. (1) sum). Property-tested over random, clumped and
//! grid-boundary deployments, transmitter sets on both sides of
//! `DIRECT_MAX_TX`, and SINR parameter regimes.

use dcluster_sim::rng::Rng64;
use dcluster_sim::{Network, Point, Reception, ResolverKind, SinrParams, DIRECT_MAX_TX};
use proptest::prelude::*;

/// Canonical ordering so resolver outputs compare as sets.
fn sorted(mut receptions: Vec<Reception>) -> Vec<Reception> {
    receptions.sort_by_key(|r| (r.receiver, r.sender));
    receptions
}

fn random_network(n: usize, side: f64, params: SinrParams, rng: &mut Rng64) -> Network {
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
        .collect();
    Network::builder(pts)
        .params(params)
        .build()
        .expect("nonempty deployment")
}

/// Checks every backend agrees with the oracle on one instance, and on
/// the instance cut to its first [`DIRECT_MAX_TX`] transmitters, so both
/// resolution paths of the aggregated backend are compared (error message
/// on disagreement, for `?`-chaining inside proptest cases).
fn assert_agrees_with_naive(net: &Network, tx: &[usize], label: &str) -> Result<(), String> {
    for tx in [tx, &tx[..tx.len().min(DIRECT_MAX_TX)]] {
        let naive = sorted(ResolverKind::Naive.build().resolve(net, tx));
        for kind in ResolverKind::ALL {
            let got = sorted(kind.build().resolve(net, tx));
            if got != naive {
                return Err(format!(
                    "{label}: {kind} and naive resolvers disagree (n={}, |T|={}): \
                     {kind} found {:?}, naive found {:?}",
                    net.len(),
                    tx.len(),
                    got,
                    naive
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Equivalence on uniform deployments across densities, transmitter
    /// fractions and (alpha, beta) regimes.
    #[test]
    fn backends_equal_naive_on_uniform_deployments(
        seed in 0u64..10_000,
        n in 2usize..120,
        side_tenths in 5u32..80,
        tx_permille in 1u32..1000,
        alpha_hundredths in 210u32..500,
        beta_hundredths in 110u32..400,
    ) {
        let params = SinrParams::normalized(
            alpha_hundredths as f64 / 100.0,
            beta_hundredths as f64 / 100.0,
            1.0,
            0.2,
        );
        let mut rng = Rng64::new(seed);
        let net = random_network(n, side_tenths as f64 / 10.0, params, &mut rng);
        let tx: Vec<usize> =
            (0..n).filter(|_| rng.chance(tx_permille as f64 / 1000.0)).collect();
        assert_agrees_with_naive(&net, &tx, "uniform")?;
    }

    /// Equivalence when every node transmits (nobody listens) and when a
    /// single node transmits (pure range test) — the two boundary regimes.
    #[test]
    fn backends_equal_naive_at_boundary_tx_sets(seed in 0u64..10_000, n in 1usize..60) {
        let mut rng = Rng64::new(seed);
        let net = random_network(n, 3.0, SinrParams::default(), &mut rng);

        let everyone: Vec<usize> = (0..n).collect();
        assert_agrees_with_naive(&net, &everyone, "everyone-transmits")?;

        let lone = vec![rng.range_usize(n)];
        assert_agrees_with_naive(&net, &lone, "lone-transmitter")?;
    }

    /// Clumped (near-duplicate) positions stress the grid bucketing, the
    /// short-circuit bound and the aggregated backend's ring cap (distant
    /// dense clumps make the occupied-cell set tiny but far apart);
    /// equivalence must survive them too.
    #[test]
    fn backends_equal_naive_on_clumped_deployments(seed in 0u64..10_000, n in 2usize..80) {
        let mut rng = Rng64::new(seed ^ 0xc1a9);
        let mut pts = Vec::with_capacity(n);
        let mut anchor = Point::new(0.0, 0.0);
        for i in 0..n {
            if i % 4 == 0 {
                anchor = Point::new(rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0));
            }
            pts.push(Point::new(
                anchor.x + rng.range_f64(-1e-3, 1e-3),
                anchor.y + rng.range_f64(-1e-3, 1e-3),
            ));
        }
        let net = Network::builder(pts).build().expect("nonempty");
        let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.4)).collect();
        assert_agrees_with_naive(&net, &tx, "clumped")?;
    }

    /// Nodes sitting *exactly* on grid-cell boundaries (integer and
    /// half-integer lattices, including negative coordinates) — the worst
    /// case for cell bucketing and for the aggregated backend's
    /// "everything outside ring k is farther than k·cell" argument, which
    /// must hold for points on cell edges too.
    #[test]
    fn backends_equal_naive_on_grid_boundary_deployments(
        seed in 0u64..10_000,
        rows in 2usize..9,
        cols in 2usize..9,
        half_step in 0u32..2,
        tx_permille in 50u32..950,
    ) {
        let mut rng = Rng64::new(seed ^ 0xb0b0);
        let step = if half_step == 1 { 0.5 } else { 1.0 };
        // Offset so part of the lattice has negative coordinates (floor()
        // cell keys change sign there).
        let mut pts = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                pts.push(Point::new(
                    j as f64 * step - 1.0,
                    i as f64 * step - 1.0,
                ));
            }
        }
        let net = Network::builder(pts).build().expect("nonempty");
        let tx: Vec<usize> =
            (0..rows * cols).filter(|_| rng.chance(tx_permille as f64 / 1000.0)).collect();
        assert_agrees_with_naive(&net, &tx, "grid-boundary")?;
    }
}
