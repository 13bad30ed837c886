//! # dcluster-sim — SINR wireless network simulator substrate
//!
//! This crate is the physical-layer and execution substrate on which the
//! algorithms of *Deterministic Digital Clustering of Wireless Ad Hoc
//! Networks* (Jurdziński, Kowalski, Różański, Stachowiak — PODC 2018) are
//! reproduced. It provides:
//!
//! * 2-D [`Point`] geometry, balls, and the packing function `χ(r1, r2)`
//!   ([`metrics`]);
//! * the SINR reception model of the paper's Eq. (1) ([`radio`]): a
//!   [`SinrResolver`] trait with two provably-equivalent backends — the
//!   naive oracle, and the default that adds grid short-circuits and a
//!   per-round cell-aggregated interference field ([`field`]) for rounds
//!   with more than [`radio::DIRECT_MAX_TX`] transmitters;
//! * a synchronous round [`engine`] executing [`engine::RoundBehavior`]
//!   protocols over a [`Network`];
//! * deployment generators for the paper's motivating scenarios
//!   ([`deploy`]);
//! * a deterministic [`rng`] (SplitMix64) so that every simulation is
//!   bit-for-bit reproducible (selector seeds are protocol constants).
//!
//! ## Model recap (paper §1.1)
//!
//! Nodes live in the Euclidean plane. A transmission from `v` is received by
//! `u` iff `v` transmits, `u` listens, and
//!
//! ```text
//! SINR(v, u, T) = (P / d(v,u)^α) / (noise + Σ_{w ∈ T\{v}} P / d(w,u)^α) ≥ β
//! ```
//!
//! with path loss `α > 2`, threshold `β > 1`, ambient noise `N > 0` and
//! uniform power `P = β·N`, so the transmission range is exactly 1. The
//! *communication graph* connects nodes at distance ≤ `1 − ε`.
//!
//! ## Quickstart
//!
//! ```
//! use dcluster_sim::{deploy, Network, SinrParams, rng::Rng64};
//!
//! let mut rng = Rng64::new(42);
//! let pts = deploy::uniform_square(200, 6.0, &mut rng);
//! let net = Network::builder(pts)
//!     .params(SinrParams::default())
//!     .seed(7)
//!     .build()
//!     .expect("valid deployment");
//! assert_eq!(net.len(), 200);
//! let g = net.comm_graph();
//! assert!(g.max_degree() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod engine;
pub mod field;
pub mod graph;
pub mod grid;
pub mod metrics;
pub mod network;
pub mod point;
pub mod radio;
pub mod rng;

pub use dcluster_obs::{
    CacheOp, Event as ObsEvent, PhaseSummary, PhaseTable, SharedTracer, Tracer,
};
pub use engine::{Engine, EngineStats, RoundBehavior, RoundStats};
pub use field::{FieldStats, InterferenceField};
pub use graph::Graph;
pub use grid::Grid;
pub use network::{Network, NetworkBuilder, NetworkError};
pub use point::Point;
pub use radio::{
    AggregatedResolver, NaiveResolver, Reception, ResolverKind, ResolverStats, SinrResolver,
    DIRECT_MAX_TX,
};
pub use rng::Rng64;

/// SINR model parameters (paper §1.1).
///
/// The paper normalizes the transmission range to 1 by fixing `P = β·noise`;
/// [`SinrParams::default`] follows that convention. `epsilon` is the
/// connectivity parameter defining the communication graph (edges at distance
/// ≤ `1 − ε`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrParams {
    /// Path-loss exponent `α > 2`.
    pub alpha: f64,
    /// SINR threshold `β > 1`.
    pub beta: f64,
    /// Ambient noise `N > 0` (the paper's `𝒩`).
    pub noise: f64,
    /// Uniform transmission power `P`.
    pub power: f64,
    /// Connectivity parameter `ε ∈ (0, 1)`.
    pub epsilon: f64,
}

impl Default for SinrParams {
    fn default() -> Self {
        // α = 3 (paper requires α > 2), β = 2 (> 1), range = (P/(β·noise))^{1/α} = 1.
        Self {
            alpha: 3.0,
            beta: 2.0,
            noise: 1.0,
            power: 2.0,
            epsilon: 0.2,
        }
    }
}

impl SinrParams {
    /// Creates parameters with the range normalized to 1 (`P = β·noise`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 2`, `beta <= 1`, `noise <= 0` or `epsilon` is
    /// outside `(0, 1)` — these are the model's standing assumptions.
    pub fn normalized(alpha: f64, beta: f64, noise: f64, epsilon: f64) -> Self {
        assert!(alpha > 2.0, "SINR model requires path loss alpha > 2");
        assert!(beta > 1.0, "SINR model requires threshold beta > 1");
        assert!(noise > 0.0, "SINR model requires positive ambient noise");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0,1)");
        Self {
            alpha,
            beta,
            noise,
            power: beta * noise,
            epsilon,
        }
    }

    /// Maximal distance at which a lone transmitter can be heard:
    /// `(P / (β·noise))^{1/α}`.
    pub fn range(&self) -> f64 {
        (self.power / (self.beta * self.noise)).powf(1.0 / self.alpha)
    }

    /// The communication-graph radius `range · (1 − ε)`.
    pub fn comm_radius(&self) -> f64 {
        self.range() * (1.0 - self.epsilon)
    }

    /// Received signal strength `P / d^α` at distance `d`.
    ///
    /// Distance 0 (a node "hearing itself") is meaningless in the model; we
    /// clamp to a tiny positive distance to keep arithmetic finite.
    pub fn signal(&self, d: f64) -> f64 {
        let d = d.max(1e-12);
        self.power / d.powf(self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_have_unit_range() {
        let p = SinrParams::default();
        assert!((p.range() - 1.0).abs() < 1e-12);
        assert!((p.comm_radius() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn normalized_constructor_sets_unit_range() {
        let p = SinrParams::normalized(4.0, 1.5, 0.5, 0.1);
        assert!((p.range() - 1.0).abs() < 1e-12);
        assert!((p.power - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha > 2")]
    fn alpha_must_exceed_two() {
        let _ = SinrParams::normalized(2.0, 1.5, 1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "beta > 1")]
    fn beta_must_exceed_one() {
        let _ = SinrParams::normalized(3.0, 1.0, 1.0, 0.1);
    }

    #[test]
    fn signal_decays_polynomially() {
        let p = SinrParams::default();
        let near = p.signal(0.5);
        let far = p.signal(1.0);
        assert!((near / far - 8.0).abs() < 1e-9, "alpha=3 => factor 2^3");
    }
}
