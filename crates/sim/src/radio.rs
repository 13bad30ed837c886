//! SINR reception resolution — the paper's Eq. (1) — behind pluggable
//! resolver backends.
//!
//! Given the set `T` of nodes transmitting in a round, node `u` (which must
//! itself be silent: half-duplex) receives the message of `v ∈ T` iff
//!
//! ```text
//! SINR(v, u, T) = signal(d(v,u)) / (noise + Σ_{w ∈ T, w≠v} signal(d(w,u))) ≥ β.
//! ```
//!
//! Because `β > 1`, at most one transmitter can be decoded by any receiver,
//! and it is necessarily the one with the strongest signal. Reception
//! resolution is the hot path of every experiment binary, so it sits
//! behind the [`SinrResolver`] trait with two interchangeable backends
//! ([`ResolverKind`]):
//!
//! * [`NaiveResolver`] — the oracle. Evaluates Eq. (1) literally in
//!   `O(n·|T|)`; the other backend must match it **exactly**.
//! * [`AggregatedResolver`] — the default. A round with at most
//!   [`DIRECT_MAX_TX`] transmitters runs the oracle's own direct loop
//!   (one shared function), which is the cheapest exact method for the
//!   small transmitter sets that dominate protocol rounds. Larger rounds
//!   use a cell-aggregated
//!   [`InterferenceField`](crate::field::InterferenceField):
//!   1. a decodable transmitter lies within its transmission range
//!      (`signal(d) ≥ β·noise` is necessary), so the decode candidate comes
//!      from a grid query of radius `max_range`;
//!   2. the second-strongest transmitter alone contributes `signal(d₂)`
//!      interference, so a receiver failing `s₁ ≥ β·(noise + s₂)` is
//!      skipped without any summing;
//!   3. survivors accumulate interference as exact cell-grouped partial
//!      sums ring by ring around the receiver, with everything farther
//!      than `k` cells covered by a single count-based residual bound.
//!      Because the reception test is monotone in the interference, a
//!      receiver is accepted or rejected as soon as the bound is
//!      conclusive; the rare inconclusive case falls back to the exact
//!      far-field sum (see [`crate::field`] for the full argument).
//!
//!   The field is built for the round and dropped after it; nothing
//!   carries over to the next round but scratch buffers. The protocols'
//!   selector schedules rarely repeat a large transmitter set in
//!   consecutive rounds, so a field kept across rounds would have little
//!   to reuse.
//!
//! **Heterogeneous power.** Nodes may transmit at per-node powers
//! ([`Network::powers`](crate::Network::powers)); signals are always
//! `P_w / d^α` via [`Network::signal_from`](crate::Network::signal_from),
//! and the paper's uniform power is the case where every `P_w` is equal.
//! The field path keeps its exactness: any decodable transmitter must
//! satisfy `P_w/d^α ≥ β·noise`, i.e. lie within
//! [`Network::max_range`](crate::Network::max_range) of the receiver, so
//! the candidate search is a bounded disk query that scans for the two
//! strongest signals. A tie for the strongest signal (exact lattices
//! under uniform power produce many) keeps the first-scanned sender; a
//! tied top signal is never decodable (`β > 1`), so the choice cannot
//! change a reception.
//!
//! Equivalence of both backends, on both sides of [`DIRECT_MAX_TX`], is
//! enforced by property tests on random, clumped, grid-boundary and
//! exact-tie lattice deployments (`crates/sim/tests/radio_equivalence.rs`).

use crate::field::{FieldStats, InterferenceField};
use crate::grid::Grid;
use crate::network::Network;
use dcluster_obs::CacheOp;
use std::fmt;
use std::str::FromStr;

/// Rounds with at most this many transmitters are resolved by the direct
/// `O(n·|T|)` loop in [`AggregatedResolver`] too: below it, building the
/// interference field and querying the transmitter grid cost
/// more than summing every signal at every listener. On uniform fields
/// of about 10 nodes per unit², the direct loop won up to about 10
/// transmitters at n = 10⁴ and past 24 at n ≤ 10³, so 8 is on the direct
/// loop's side at every size measured; raising it to 16 or 32 moved the
/// protocol workloads' end-to-end wall time by less than run-to-run noise.
pub const DIRECT_MAX_TX: usize = 8;

/// A successful reception in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reception {
    /// Receiving node (index).
    pub receiver: usize,
    /// Transmitting node (index).
    pub sender: usize,
    /// Position of `sender` in the round's transmitter slice (lets callers
    /// look up the transmitted message without a search).
    pub slot: usize,
}

/// The available [`SinrResolver`] backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ResolverKind {
    /// Literal Eq. (1): `O(n·|T|)` oracle.
    Naive,
    /// Direct sum for small rounds; otherwise grid short-circuit plus a
    /// per-round cell-aggregated interference field. The default.
    #[default]
    Aggregated,
}

impl ResolverKind {
    /// Every backend, oracle first.
    pub const ALL: [ResolverKind; 2] = [ResolverKind::Naive, ResolverKind::Aggregated];

    /// Stable lower-case name (CLI flags, traces, CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            ResolverKind::Naive => "naive",
            ResolverKind::Aggregated => "aggregated",
        }
    }

    /// Instantiates the backend.
    pub fn build(self) -> Box<dyn SinrResolver> {
        match self {
            ResolverKind::Naive => Box::new(NaiveResolver::new()),
            ResolverKind::Aggregated => Box::new(AggregatedResolver::new()),
        }
    }
}

impl fmt::Display for ResolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a backend name. `grid` is accepted as `aggregated`, so specs
/// written for the removed grid backend keep running.
impl FromStr for ResolverKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(ResolverKind::Naive),
            "aggregated" | "agg" | "grid" => Ok(ResolverKind::Aggregated),
            other => Err(format!(
                "unknown resolver '{other}' (expected naive|aggregated)"
            )),
        }
    }
}

/// Cumulative per-backend work counters.
///
/// A round resolved by the direct `O(n·|T|)` loop (every naive round, and
/// aggregated rounds with at most [`DIRECT_MAX_TX`] transmitters) adds one
/// exact sum per listener and one candidate per decoded receiver. A round
/// resolved through the interference field adds one candidate per receiver
/// with a transmitter in range, and each such candidate lands in exactly
/// one of `short_circuited`, `residual_decided` and `exact_fallbacks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Rounds resolved.
    pub rounds: u64,
    /// Decode candidates: receivers with some transmitter within range on
    /// the field path; decoded receivers on the direct path (which has no
    /// candidate search).
    pub candidates: u64,
    /// Field path: candidates killed by the second-strongest short-circuit.
    pub short_circuited: u64,
    /// Direct path: full-interference sums over all of `T`, one per
    /// listener (0 on the field path).
    pub exact_sums: u64,
    /// Field path: candidates decided by cell sums + residual bound.
    pub residual_decided: u64,
    /// Field path: candidates that needed the exact far-field fallback.
    pub exact_fallbacks: u64,
}

impl ResolverStats {
    /// Folds another backend's counters into this one (the maintenance
    /// driver sums per-epoch engines into run totals for the report).
    pub fn absorb(&mut self, other: &ResolverStats) {
        self.rounds += other.rounds;
        self.candidates += other.candidates;
        self.short_circuited += other.short_circuited;
        self.exact_sums += other.exact_sums;
        self.residual_decided += other.residual_decided;
        self.exact_fallbacks += other.exact_fallbacks;
    }
}

/// A reception-resolution backend: given a round's transmitter set,
/// produce the exact reception set of Eq. (1).
///
/// All backends are **observationally identical** — they differ only in
/// how much work they do. Implementations may keep scratch allocations
/// (hence `&mut self`) and must be deterministic: the same network and
/// transmitter slice always yield the same receptions in the same order
/// (sorted by receiver index).
pub trait SinrResolver: fmt::Debug {
    /// Which backend this is (recorded in traces and stats).
    fn kind(&self) -> ResolverKind;

    /// Resolves one round into `out` (cleared first), sorted by receiver.
    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>);

    /// Convenience wrapper allocating a fresh output vector.
    fn resolve(&mut self, net: &Network, transmitters: &[usize]) -> Vec<Reception> {
        let mut out = Vec::new();
        self.resolve_into(net, transmitters, &mut out);
        out
    }

    /// Cumulative work counters.
    fn stats(&self) -> ResolverStats;

    /// Verifies any state a backend keeps across rounds against a rebuild
    /// from scratch. Neither in-tree backend keeps such state (scratch
    /// buffers are overwritten every round), so both pass trivially; the
    /// hook stays for wrapping backends that forward it.
    fn audit(&self, net: &Network) -> Result<(), String> {
        let _ = net;
        Ok(())
    }

    /// `Some(CacheOp::Rebuilt)` when the most recent
    /// [`SinrResolver::resolve_into`] call resolved its round through an
    /// interference field built for that round; `None` otherwise (the
    /// direct loop, an empty round, or a backend without a field). Feeds
    /// the engine's per-round trace events.
    fn last_cache_op(&self) -> Option<CacheOp> {
        None
    }
}

/// Candidate sender at receiver position `u`: the strongest and
/// second-strongest received signals over the transmitters stored in
/// `grid`, scanning the disk of radius `r` (the network's
/// [`max_range`](Network::max_range), which contains every decodable
/// transmitter). Returns `(sender, s1, s2)` with `s2 = 0.0` when a single
/// candidate is in range. Ties keep the first-scanned transmitter — the
/// scan order is deterministic, and tied top signals can never be decoded
/// anyway (`β > 1`).
fn two_strongest_within(net: &Network, grid: &Grid, u: crate::Point, r: f64) -> CandidateSignals {
    let mut best: Option<(usize, f64)> = None;
    let mut second = 0.0f64;
    for w in grid.within(net.points(), u, r) {
        let s = net.signal_from(w, net.pos(w).dist(u));
        match best {
            None => best = Some((w, s)),
            Some((_, bs)) if s > bs => {
                second = bs;
                best = Some((w, s));
            }
            Some(_) => second = second.max(s),
        }
    }
    best.map(|(w, s1)| (w, s1, second))
}

/// `(sender, strongest signal, second-strongest signal)` or `None` when no
/// transmitter is in range.
type CandidateSignals = Option<(usize, f64, f64)>;

/// Marks `transmitters` in the reusable `is_tx`/`slot_of` scratch vectors.
fn mark_transmitters(
    n: usize,
    transmitters: &[usize],
    is_tx: &mut Vec<bool>,
    slot_of: &mut Vec<u32>,
) {
    is_tx.clear();
    is_tx.resize(n, false);
    slot_of.clear();
    slot_of.resize(n, u32::MAX);
    for (slot, &t) in transmitters.iter().enumerate() {
        debug_assert!(!is_tx[t], "node {t} listed twice as transmitter");
        is_tx[t] = true;
        slot_of[t] = slot as u32;
    }
}

/// The literal Eq. (1) loop, `O(n·|T|)`, shared by [`NaiveResolver`] and
/// the small rounds of [`AggregatedResolver`]. Each listener's signals are
/// computed once into `signals`, summed in transmitter order, and every
/// transmitter is tested against the total. `transmitters` must be
/// non-empty; `out` receives the receptions in ascending receiver order.
fn resolve_direct(
    net: &Network,
    transmitters: &[usize],
    is_tx: &mut Vec<bool>,
    signals: &mut Vec<f64>,
    stats: &mut ResolverStats,
    out: &mut Vec<Reception>,
) {
    let p = net.params();
    is_tx.clear();
    is_tx.resize(net.len(), false);
    for &t in transmitters {
        debug_assert!(!is_tx[t], "node {t} listed twice as transmitter");
        is_tx[t] = true;
    }
    for (u, _) in is_tx.iter().enumerate().filter(|&(_, &tx)| !tx) {
        stats.exact_sums += 1;
        let pu = net.pos(u);
        signals.clear();
        signals.extend(
            transmitters
                .iter()
                .map(|&w| net.signal_from(w, net.pos(w).dist(pu))),
        );
        let total: f64 = signals.iter().sum();
        let mut decoded: Option<(usize, usize)> = None;
        for (slot, (&v, &s)) in transmitters.iter().zip(signals.iter()).enumerate() {
            if s >= p.beta * (p.noise + (total - s)) {
                debug_assert!(decoded.is_none(), "beta > 1 forbids two decodable senders");
                decoded = Some((v, slot));
            }
        }
        if let Some((v, slot)) = decoded {
            stats.candidates += 1;
            out.push(Reception {
                receiver: u,
                sender: v,
                slot,
            });
        }
    }
}

/// Reference backend: evaluates Eq. (1) literally, `O(n·|T|)`, no
/// geometric shortcuts. The oracle the other backend is tested against.
#[derive(Debug, Default)]
pub struct NaiveResolver {
    is_tx: Vec<bool>,
    signals: Vec<f64>,
    stats: ResolverStats,
}

impl NaiveResolver {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SinrResolver for NaiveResolver {
    fn kind(&self) -> ResolverKind {
        ResolverKind::Naive
    }

    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>) {
        out.clear();
        self.stats.rounds += 1;
        if transmitters.is_empty() {
            return;
        }
        resolve_direct(
            net,
            transmitters,
            &mut self.is_tx,
            &mut self.signals,
            &mut self.stats,
            out,
        );
    }

    fn stats(&self) -> ResolverStats {
        self.stats
    }
}

/// The default backend: the direct loop for rounds with at most
/// [`DIRECT_MAX_TX`] transmitters, and otherwise an [`InterferenceField`]
/// built for the round, with exact cell-grouped partial sums and a global
/// residual bound (see the module docs). Scales to the 10⁵–10⁶-node
/// deployments where per-receiver `O(|T|)` sums cannot reach.
#[derive(Debug, Default)]
pub struct AggregatedResolver {
    is_tx: Vec<bool>,
    slot_of: Vec<u32>,
    signals: Vec<f64>,
    stats: ResolverStats,
    /// Whether the most recent round went through the field path.
    field_round: bool,
}

impl AggregatedResolver {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SinrResolver for AggregatedResolver {
    fn kind(&self) -> ResolverKind {
        ResolverKind::Aggregated
    }

    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>) {
        out.clear();
        self.stats.rounds += 1;
        self.field_round = transmitters.len() > DIRECT_MAX_TX;
        if transmitters.is_empty() {
            return;
        }
        if !self.field_round {
            resolve_direct(
                net,
                transmitters,
                &mut self.is_tx,
                &mut self.signals,
                &mut self.stats,
                out,
            );
            return;
        }
        let n = net.len();
        let p = net.params();
        mark_transmitters(n, transmitters, &mut self.is_tx, &mut self.slot_of);
        let field = InterferenceField::build(net.points(), net.powers(), transmitters, p.range());
        let mut fs = FieldStats::default();
        for u in 0..n {
            if self.is_tx[u] {
                continue; // half-duplex
            }
            let Some((v, s1, i_low)) =
                two_strongest_within(net, field.grid(), net.pos(u), net.max_range())
            else {
                continue;
            };
            self.stats.candidates += 1;
            // Short-circuit: interference ≥ the second-strongest signal.
            if s1 < p.beta * (p.noise + i_low) {
                self.stats.short_circuited += 1;
                continue;
            }
            if field.decide(net.points(), net.powers(), p, net.pos(u), v, s1, &mut fs) {
                out.push(Reception {
                    receiver: u,
                    sender: v,
                    slot: self.slot_of[v] as usize,
                });
            }
        }
        self.stats.residual_decided += fs.residual_decided + fs.exhausted;
        self.stats.exact_fallbacks += fs.exact_fallbacks;
    }

    fn stats(&self) -> ResolverStats {
        self.stats
    }

    fn last_cache_op(&self) -> Option<CacheOp> {
        self.field_round.then_some(CacheOp::Rebuilt)
    }
}

/// Resolves one round with the naive oracle (shorthand for tests and
/// auditing).
pub fn resolve_naive(net: &Network, transmitters: &[usize]) -> Vec<Reception> {
    NaiveResolver::new().resolve(net, transmitters)
}

/// Total received power (noise excluded) at every node for a transmitter
/// set — the quantity a **carrier-sensing** radio would measure. This is a
/// *model feature* the paper's pure setting forbids; it exists here for
/// the extension experiments (the paper's conclusion names carrier sensing
/// as an open direction).
pub fn sensed_power(net: &Network, transmitters: &[usize]) -> Vec<f64> {
    (0..net.len())
        .map(|u| {
            transmitters
                .iter()
                .filter(|&&w| w != u)
                .map(|&w| net.signal_from(w, net.pos(w).dist(net.pos(u))))
                .sum()
        })
        .collect()
}

/// Computes `SINR(v, u, T)` literally per Eq. (1) of the paper (diagnostic
/// helper; `v` must be in `transmitters`).
pub fn sinr(net: &Network, v: usize, u: usize, transmitters: &[usize]) -> f64 {
    let p = net.params();
    debug_assert!(transmitters.contains(&v));
    let s = net.signal_from(v, net.pos(v).dist(net.pos(u)));
    let interference: f64 = transmitters
        .iter()
        .filter(|&&w| w != v)
        .map(|&w| net.signal_from(w, net.pos(w).dist(net.pos(u))))
        .sum();
    s / (p.noise + interference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::rng::Rng64;
    use crate::SinrParams;

    fn net_of(points: Vec<Point>) -> Network {
        Network::builder(points).build().unwrap()
    }

    fn backends() -> Vec<Box<dyn SinrResolver>> {
        ResolverKind::ALL.iter().map(|k| k.build()).collect()
    }

    #[test]
    fn lone_transmitter_reaches_exactly_its_range() {
        let net = net_of(vec![
            Point::new(0.0, 0.0),   // transmitter
            Point::new(0.999, 0.0), // inside range
            Point::new(1.001, 0.0), // outside range
        ]);
        for r in &mut backends() {
            let got = r.resolve(&net, &[0]);
            assert_eq!(
                got,
                vec![Reception {
                    receiver: 1,
                    sender: 0,
                    slot: 0
                }],
                "backend {}",
                r.kind()
            );
        }
    }

    #[test]
    fn transmitters_do_not_receive() {
        let net = net_of(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]);
        for r in &mut backends() {
            let got = r.resolve(&net, &[0, 1]);
            assert!(
                got.is_empty(),
                "{}: both transmit, nobody listens",
                r.kind()
            );
        }
    }

    #[test]
    fn two_distant_transmitters_interfere_at_boundary() {
        // Receiver at midpoint of two transmitters 1.8 apart: each signal
        // arrives at distance 0.9; equal signals cannot beat beta > 1.
        let net = net_of(vec![
            Point::new(0.0, 0.0),
            Point::new(1.8, 0.0),
            Point::new(0.9, 0.0),
        ]);
        for r in &mut backends() {
            assert!(r.resolve(&net, &[0, 1]).is_empty(), "backend {}", r.kind());
        }
    }

    #[test]
    fn close_transmitter_beats_distant_interferer() {
        // Sender 0.1 from receiver, interferer 1.9 away: SINR is huge.
        let net = net_of(vec![
            Point::new(0.0, 0.0), // sender
            Point::new(2.0, 0.0), // interferer
            Point::new(0.1, 0.0), // receiver
        ]);
        for r in &mut backends() {
            let got = r.resolve(&net, &[0, 1]);
            assert_eq!(
                got,
                vec![Reception {
                    receiver: 2,
                    sender: 0,
                    slot: 0
                }],
                "backend {}",
                r.kind()
            );
        }
    }

    #[test]
    fn sinr_matches_reception_threshold() {
        let net = net_of(vec![
            Point::new(0.0, 0.0),
            Point::new(0.7, 0.0),
            Point::new(1.5, 0.0),
        ]);
        let tx = [0, 2];
        let s = sinr(&net, 0, 1, &tx);
        for r in &mut backends() {
            let received = r.resolve(&net, &tx).iter().any(|x| x.receiver == 1);
            assert_eq!(received, s >= net.params().beta, "backend {}", r.kind());
        }
    }

    #[test]
    fn all_backends_match_naive_on_random_instances() {
        let mut rng = Rng64::new(2024);
        for trial in 0..30 {
            let n = 20 + trial * 7;
            let side = 4.0;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
                .collect();
            let net = Network::builder(pts)
                .params(SinrParams::normalized(
                    2.5 + rng.next_f64() * 2.0,
                    1.2 + rng.next_f64(),
                    1.0,
                    0.2,
                ))
                .build()
                .unwrap();
            let k = 1 + rng.range_usize(n);
            let mut all: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut all);
            all.truncate(k);
            // The drawn set, and its prefix small enough for the direct path.
            for tx in [&all[..], &all[..k.min(DIRECT_MAX_TX)]] {
                let mut naive = resolve_naive(&net, tx);
                naive.sort_by_key(|r| r.receiver);
                let mut got = ResolverKind::Aggregated.build().resolve(&net, tx);
                got.sort_by_key(|r| r.receiver);
                assert_eq!(
                    got,
                    naive,
                    "trial {trial}, |T|={}: aggregated and naive resolvers disagree",
                    tx.len()
                );
            }
        }
    }

    #[test]
    fn all_backends_match_naive_under_heterogeneous_power() {
        let mut rng = Rng64::new(4040);
        for trial in 0..25 {
            let n = 15 + trial * 9;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0)))
                .collect();
            let base = SinrParams::default().power;
            // Power spread of up to 8x: ranges up to 2 under alpha = 3.
            let powers: Vec<f64> = (0..n)
                .map(|_| base * (1.0 + 7.0 * rng.next_f64()))
                .collect();
            let net = Network::builder(pts).powers(powers).build().unwrap();
            let tx: Vec<usize> = (0..n).filter(|_| rng.chance(0.25)).collect();
            for tx in [&tx[..], &tx[..tx.len().min(DIRECT_MAX_TX)]] {
                let mut naive = resolve_naive(&net, tx);
                naive.sort_by_key(|r| r.receiver);
                let mut got = ResolverKind::Aggregated.build().resolve(&net, tx);
                got.sort_by_key(|r| r.receiver);
                assert_eq!(
                    got,
                    naive,
                    "trial {trial}, |T|={}: aggregated disagrees with naive under heterogeneous power",
                    tx.len()
                );
            }
        }
    }

    #[test]
    fn strong_far_transmitter_beats_a_nearer_weak_one() {
        // Receiver at x=1.0; weak transmitter at 0.8 (d=0.2), strong one at
        // 2.0 (d=1.0) with 64x the power: the strong one's signal wins
        // 128/1 vs 2/0.008 = 250 — nearest still wins here, so instead make
        // the strong one the decodable sender by silencing geometry:
        // weak at d=0.9 → signal 2/0.729 ≈ 2.74; strong at d=1.0 → 128.
        let p = SinrParams::default();
        let net = Network::builder(vec![
            Point::new(0.1, 0.0), // weak tx, d = 0.9
            Point::new(2.0, 0.0), // strong tx, d = 1.0
            Point::new(1.0, 0.0), // receiver
        ])
        .powers(vec![p.power, 64.0 * p.power, p.power])
        .params(p)
        .build()
        .unwrap();
        // Strongest ≠ nearest: a nearest-first search would pick node 0
        // and reject; the strongest-signal scan must decode node 1.
        let naive = resolve_naive(&net, &[0, 1]);
        assert_eq!(naive.len(), 1);
        assert_eq!(naive[0].sender, 1, "the high-power transmitter decodes");
        for r in &mut backends() {
            assert_eq!(r.resolve(&net, &[0, 1]), naive, "backend {}", r.kind());
        }
    }

    #[test]
    fn at_most_one_sender_decoded_per_receiver() {
        let mut rng = Rng64::new(7);
        let pts: Vec<Point> = (0..120)
            .map(|_| Point::new(rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)))
            .collect();
        let net = net_of(pts);
        let tx: Vec<usize> = (0..120).filter(|_| rng.chance(0.3)).collect();
        for r in &mut backends() {
            let rec = r.resolve(&net, &tx);
            let mut seen = std::collections::HashSet::new();
            for x in &rec {
                assert!(
                    seen.insert(x.receiver),
                    "{}: receiver {} decoded twice",
                    r.kind(),
                    x.receiver
                );
                assert_eq!(tx[x.slot], x.sender, "slot must index the sender");
            }
        }
    }

    #[test]
    fn empty_transmitter_set_yields_no_receptions() {
        let net = net_of(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]);
        for r in &mut backends() {
            assert!(r.resolve(&net, &[]).is_empty(), "backend {}", r.kind());
        }
    }

    #[test]
    fn resolver_stats_track_work() {
        let mut rng = Rng64::new(11);
        let pts: Vec<Point> = (0..80)
            .map(|_| Point::new(rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)))
            .collect();
        let net = net_of(pts);
        let tx: Vec<usize> = (0..80).filter(|_| rng.chance(0.25)).collect();
        assert!(
            tx.len() > DIRECT_MAX_TX,
            "this instance takes the field path"
        );
        let mut agg = AggregatedResolver::new();
        let _ = agg.resolve(&net, &tx);
        let st = agg.stats();
        assert_eq!(st.rounds, 1);
        assert_eq!(st.exact_sums, 0, "the field path never does full sums");
        assert_eq!(
            st.candidates,
            st.short_circuited + st.residual_decided + st.exact_fallbacks,
            "every candidate is accounted for exactly once"
        );
        let mut naive = NaiveResolver::new();
        let got = naive.resolve(&net, &tx);
        let nst = naive.stats();
        assert_eq!(
            nst.exact_sums,
            (80 - tx.len()) as u64,
            "one sum per listener"
        );
        assert_eq!(nst.candidates, got.len() as u64, "one per decoded receiver");
    }

    #[test]
    fn resolver_kind_parses_and_prints() {
        for kind in ResolverKind::ALL {
            assert_eq!(kind.name().parse::<ResolverKind>().unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
            assert_eq!(kind.build().kind(), kind);
        }
        for alias in ["AGG", "grid", "Grid"] {
            assert_eq!(
                alias.parse::<ResolverKind>().unwrap(),
                ResolverKind::Aggregated,
                "{alias}"
            );
        }
        assert_eq!(ResolverKind::default(), ResolverKind::Aggregated);
        for gone in ["fft", "parallel", "par"] {
            let err = gone.parse::<ResolverKind>().unwrap_err();
            assert!(
                err.contains("naive|aggregated)"),
                "parse error must list the backends: {err}"
            );
        }
    }

    #[test]
    fn aggregated_matches_naive_on_both_sides_of_the_direct_threshold() {
        let mut rng = Rng64::new(808);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.range_f64(0.0, 5.0), rng.range_f64(0.0, 5.0)))
            .collect();
        let net = net_of(pts);
        let mut order: Vec<usize> = (0..300).collect();
        rng.shuffle(&mut order);
        let mut agg = AggregatedResolver::new();
        let mut before = agg.stats();
        for k in [DIRECT_MAX_TX, DIRECT_MAX_TX + 1, 90] {
            let mut tx = order[..k].to_vec();
            tx.sort_unstable();
            let mut naive = NaiveResolver::new();
            let want = naive.resolve(&net, &tx);
            assert_eq!(agg.resolve(&net, &tx), want, "|T|={k}");
            let st = agg.stats();
            let delta = |f: fn(&ResolverStats) -> u64| f(&st) - f(&before);
            if k <= DIRECT_MAX_TX {
                // The direct path: exactly the oracle's work, no field.
                let direct = naive.stats();
                assert_eq!(delta(|s| s.exact_sums), direct.exact_sums, "|T|={k}");
                assert_eq!(delta(|s| s.candidates), direct.candidates, "|T|={k}");
                assert_eq!(
                    delta(|s| s.short_circuited + s.residual_decided + s.exact_fallbacks),
                    0,
                    "|T|={k}: the direct path must not touch the field"
                );
                assert_eq!(agg.last_cache_op(), None, "|T|={k}");
            } else {
                assert_eq!(delta(|s| s.exact_sums), 0, "|T|={k}: no direct sums");
                assert!(
                    delta(|s| s.short_circuited + s.residual_decided) > 0,
                    "|T|={k}: the field path must decide candidates"
                );
                assert_eq!(agg.last_cache_op(), Some(CacheOp::Rebuilt), "|T|={k}");
            }
            before = st;
        }
    }

    #[test]
    fn persistent_aggregated_tracks_an_evolving_transmitter_set() {
        // Round after round with sparse churn, one long-lived resolver must
        // keep producing exactly the oracle's receptions: nothing from one
        // round's field or scratch buffers may leak into the next. Every
        // fifth round is small enough for the direct path.
        let mut rng = Rng64::new(4242);
        let pts: Vec<Point> = (0..250)
            .map(|_| Point::new(rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0)))
            .collect();
        let net = net_of(pts);
        let mut tx: Vec<usize> = (0..250).filter(|_| rng.chance(0.4)).collect();
        let mut agg = AggregatedResolver::new();
        for round in 0..25 {
            // ~4 joins and ~4 leaves per round, keeping the set sorted.
            for _ in 0..4 {
                if tx.len() > 8 {
                    tx.remove(rng.range_usize(tx.len()));
                }
                let joiner = rng.range_usize(250);
                if let Err(pos) = tx.binary_search(&joiner) {
                    tx.insert(pos, joiner);
                }
            }
            let this_round = if round % 5 == 4 {
                &tx[..DIRECT_MAX_TX]
            } else {
                &tx[..]
            };
            assert_eq!(
                agg.resolve(&net, this_round),
                resolve_naive(&net, this_round),
                "round {round}: persistent aggregated diverged"
            );
        }
    }

    #[test]
    fn persistent_field_survives_network_mutation() {
        // A network mutation between rounds must reach the next round's
        // field: nothing built against the old positions and powers may
        // survive into it.
        let mut rng = Rng64::new(99);
        let pts: Vec<Point> = (0..150)
            .map(|_| Point::new(rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)))
            .collect();
        let mut net = net_of(pts);
        let tx: Vec<usize> = (0..150).filter(|_| rng.chance(0.35)).collect();
        let mut agg = AggregatedResolver::new();
        let _ = agg.resolve(&net, &tx);
        net.move_node(3, Point::new(1.5, 1.5));
        net.set_power(7, 2.0 * net.params().power);
        assert_eq!(
            agg.resolve(&net, &tx),
            resolve_naive(&net, &tx),
            "stale state leaked across a network mutation"
        );
    }

    #[test]
    fn persistent_aggregated_matches_the_default_aggregated() {
        // A long-lived resolver (reusing its scratch buffers) against a
        // fresh one per round.
        let mut rng = Rng64::new(5150);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0)))
            .collect();
        let net = net_of(pts);
        let mut persistent = AggregatedResolver::new();
        for round in 0..10 {
            let tx: Vec<usize> = (0..200).filter(|_| rng.chance(0.3)).collect();
            assert_eq!(
                persistent.resolve(&net, &tx),
                AggregatedResolver::new().resolve(&net, &tx),
                "round {round}: reuse changed receptions"
            );
        }
    }

    #[test]
    fn unsorted_transmitter_slices_bypass_the_cache_soundly() {
        // Callers are allowed to pass unsorted sets (the equivalence suites
        // do); the fallback summation order must follow caller order
        // exactly, and the slot of each reception must index the caller's
        // slice.
        let mut rng = Rng64::new(31337);
        let pts: Vec<Point> = (0..180)
            .map(|_| Point::new(rng.range_f64(0.0, 3.5), rng.range_f64(0.0, 3.5)))
            .collect();
        let net = net_of(pts);
        let mut agg = AggregatedResolver::new();
        for round in 0..8 {
            let mut tx: Vec<usize> = (0..180).collect();
            rng.shuffle(&mut tx);
            tx.truncate(60 + round);
            assert_eq!(
                agg.resolve(&net, &tx),
                resolve_naive(&net, &tx),
                "round {round}: unsorted transmitter slice mishandled"
            );
        }
    }

    #[test]
    fn sensed_power_excludes_own_signal_and_decays() {
        let net = net_of(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(2.0, 0.0),
        ]);
        let p = sensed_power(&net, &[0]);
        assert_eq!(p[0], 0.0, "a node does not sense its own transmission");
        assert!(p[1] > p[2], "closer listener senses more power");
        let both = sensed_power(&net, &[0, 1]);
        assert!(both[2] > p[2], "more transmitters, more power");
    }
}
