//! Schedule execution and **replay units**.
//!
//! Every communication step in the paper is an execution of a combinatorial
//! schedule by a known participant set. Because everything is
//! deterministic, *re-running a schedule with the same participant set
//! reproduces the exact same receptions* — the paper exploits this
//! ("v and parent(v) exchange messages during an execution of S", later
//! replayed for tree communication in Lemma 11). [`ReplayUnit`] captures a
//! (schedule, participant snapshot) pair so it can be re-executed with
//! fresh payloads while preserving the interference pattern: each member's
//! transmit pattern is determined by its ID and its cluster *at snapshot
//! time* (a value the node remembers locally).
//!
//! The simulator skips the recomputation. Each unit carries a private
//! key, drawn from a process-global counter at [`ReplayUnit::snapshot`]
//! and shared by clones; [`ReplayUnit::run`] goes through
//! [`Engine::run_keyed`] under it. The schedule and members are private
//! (read through [`ReplayUnit::sched`] and [`ReplayUnit::members`]), so a
//! key always names one transmit pattern — the engine's key contract. The
//! engine keeps the tape of its most recent keyed run in one slot, so a
//! unit run again right after itself (Algorithm 1's κ confirmations) is
//! replayed from the tape without polling or resolving; any other unit
//! re-records the slot. No network-stamp check is needed: an engine
//! borrows its network immutably for its whole life. Replayed rounds are
//! counted in [`EngineStats::replayed_rounds`](dcluster_sim::EngineStats)
//! and carry `cache: None` in the trace.

use crate::msg::Msg;
use crate::params::ProtocolParams;
use dcluster_selectors::ssf::RandomSsf;
use dcluster_selectors::wcss::RandomWcss;
use dcluster_selectors::wss::RandomWss;
use dcluster_selectors::{ClusterSchedule, Schedule};
use dcluster_sim::engine::{Engine, RoundBehavior};
use dcluster_sim::network::Network;
use dcluster_sim::rng::hash64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic seed sequence: invocation `i` of any selector across the
/// whole protocol stack draws seed `hash(master, i)`. The invocation order
/// is globally known (the protocols are deterministic), so every node
/// derives the same families — the seeds are protocol constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSeq {
    master: u64,
    counter: u64,
}

impl SeedSeq {
    /// Starts the sequence from the protocol master seed.
    pub fn new(master: u64) -> Self {
        Self { master, counter: 0 }
    }

    /// Next fresh seed.
    pub fn next_seed(&mut self) -> u64 {
        let s = hash64(self.master, &[self.counter]);
        self.counter += 1;
        s
    }
}

/// A schedule of any of the three selector kinds, unified for storage in
/// replay units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedHandle {
    /// Strongly-selective family (cluster-oblivious).
    Ssf(RandomSsf),
    /// Witnessed strong selector (cluster-oblivious).
    Wss(RandomWss),
    /// Witnessed cluster-aware strong selector.
    Wcss(RandomWcss),
}

impl SchedHandle {
    /// Number of rounds.
    pub fn len(&self) -> u64 {
        match self {
            SchedHandle::Ssf(s) => Schedule::len(s),
            SchedHandle::Wss(s) => Schedule::len(s),
            SchedHandle::Wcss(s) => ClusterSchedule::len(s),
        }
    }

    /// True iff the schedule has no rounds (never, for valid selectors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership for `(id, cluster)` at `round` (cluster ignored by the
    /// cluster-oblivious kinds).
    #[inline]
    pub fn contains(&self, round: u64, id: u64, cluster: u64) -> bool {
        match self {
            SchedHandle::Ssf(s) => s.contains(round, id),
            SchedHandle::Wss(s) => s.contains(round, id),
            SchedHandle::Wcss(s) => s.contains(round, id, cluster),
        }
    }
}

/// A participant snapshot: node index plus the (id, cluster) pair that
/// determines its transmit pattern. The cluster is frozen at unit-creation
/// time — replaying later with updated clusters would change the pattern
/// and void the delivery guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// Node index in the network.
    pub node: usize,
    /// Paper ID.
    pub id: u64,
    /// Cluster at snapshot time (0 = unclustered).
    pub cluster: u64,
}

/// Source of replay keys: every snapshot draws a fresh one.
static UNIT_KEYS: AtomicU64 = AtomicU64::new(1);

/// A replayable (schedule, participants) pair. See module docs. Equality
/// compares the schedule and members, not the replay key.
#[derive(Debug, Clone)]
pub struct ReplayUnit {
    sched: SchedHandle,
    members: Vec<Member>,
    /// Replay key (module docs); clones share it.
    key: u64,
}

impl PartialEq for ReplayUnit {
    fn eq(&self, other: &Self) -> bool {
        self.sched == other.sched && self.members == other.members
    }
}

impl Eq for ReplayUnit {}

/// Provenance record of one (re-)execution of a [`ReplayUnit`]: which
/// resolver backend produced the trace, whether it was replayed, and its
/// extent. Replays are only guaranteed identical when the reception sets
/// are — which holds across backends by the resolver equivalence
/// contract, but recording the backend makes any violation attributable
/// when auditing a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitTrace {
    /// The engine's backend. It resolved every round of this execution
    /// unless `replayed`; then it resolved the taped earlier execution
    /// these rounds were replayed from.
    pub resolver: dcluster_sim::ResolverKind,
    /// Whether the engine served this execution from its replay memo
    /// (no resolver call) instead of resolving it.
    pub replayed: bool,
    /// Global engine round at which the execution started.
    pub start_round: u64,
    /// Rounds executed (= the schedule length).
    pub rounds: u64,
    /// Successful receptions delivered to `on_rx`.
    pub receptions: u64,
}

/// Delivery callback: `(receiver, local_round, sender, message)`.
pub type OnRx<'a> = &'a mut dyn FnMut(usize, u64, usize, &Msg);

struct UnitBehavior<'a, P: Fn(usize) -> Msg> {
    sched: &'a SchedHandle,
    member_of: &'a [Option<(u64, u64)>],
    start: u64,
    payload: P,
    on_rx: OnRx<'a>,
}

impl<P: Fn(usize) -> Msg> RoundBehavior<Msg> for UnitBehavior<'_, P> {
    fn transmit(&mut self, _net: &Network, v: usize, round: u64) -> Option<Msg> {
        let (id, cluster) = self.member_of[v]?;
        let lr = round - self.start;
        self.sched
            .contains(lr, id, cluster)
            .then(|| (self.payload)(v))
    }
    fn receive(&mut self, _net: &Network, v: usize, round: u64, sender: usize, msg: &Msg) {
        (self.on_rx)(v, round - self.start, sender, msg);
    }
}

impl ReplayUnit {
    /// Creates a unit from node indices, snapshotting `(id, cluster)` from
    /// the network and the supplied cluster view (0 = none).
    pub fn snapshot(
        net: &Network,
        sched: SchedHandle,
        nodes: &[usize],
        cluster_of: &[u64],
    ) -> Self {
        let members = nodes
            .iter()
            .map(|&v| Member {
                node: v,
                id: net.id(v),
                cluster: cluster_of[v],
            })
            .collect();
        Self {
            sched,
            members,
            key: UNIT_KEYS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The schedule.
    pub fn sched(&self) -> &SchedHandle {
        &self.sched
    }

    /// The participant snapshot.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Executes (or re-executes) the unit: every member transmits its
    /// pattern with the message given by `payload`; every reception is
    /// reported to `on_rx`. Costs `sched.len()` rounds, which the engine
    /// replays from its memo when this unit was its last keyed run.
    /// Returns the [`UnitTrace`] recording which resolver backend produced
    /// the trace and whether it was replayed.
    pub fn run<P>(&self, engine: &mut Engine<'_>, payload: P, on_rx: OnRx<'_>) -> UnitTrace
    where
        P: Fn(usize) -> Msg,
    {
        let n = engine.network().len();
        let mut member_of: Vec<Option<(u64, u64)>> = vec![None; n];
        for m in &self.members {
            member_of[m.node] = Some((m.id, m.cluster));
        }
        let start_round = engine.round();
        let before = engine.stats();
        let mut b = UnitBehavior {
            sched: &self.sched,
            member_of: &member_of,
            start: start_round,
            payload,
            on_rx,
        };
        engine.run_keyed(self.key, &mut b, self.sched.len());
        let after = engine.stats();
        UnitTrace {
            resolver: engine.resolver_kind(),
            replayed: after.replayed_rounds > before.replayed_rounds,
            start_round,
            rounds: self.sched.len(),
            receptions: after.receptions - before.receptions,
        }
    }

    /// Node indices of the members.
    pub fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|m| m.node)
    }
}

/// Builds a fresh `(N, κ)`-wss for this invocation (unclustered proximity
/// graphs).
pub fn fresh_wss(params: &ProtocolParams, seeds: &mut SeedSeq, n_univ: u64) -> RandomWss {
    let len = params.sched_len(RandomWss::recommended_len(n_univ, params.kappa));
    RandomWss::with_len(seeds.next_seed(), params.kappa, len)
}

/// Builds a fresh `(N, κ, ρ)`-wcss for this invocation (clustered proximity
/// graphs).
pub fn fresh_wcss(params: &ProtocolParams, seeds: &mut SeedSeq, n_univ: u64) -> RandomWcss {
    let len = params.sched_len(RandomWcss::recommended_len(
        n_univ,
        params.kappa,
        params.rho,
    ));
    RandomWcss::with_len(seeds.next_seed(), params.kappa, params.rho, len)
}

/// Builds a fresh Sparse-Network-Schedule ssf (Lemma 4's `L_γ`).
pub fn fresh_sns(params: &ProtocolParams, seeds: &mut SeedSeq, n_univ: u64) -> RandomSsf {
    let len = params.sched_len(RandomSsf::recommended_len(n_univ, params.sns_k));
    RandomSsf::with_len(seeds.next_seed(), params.sns_k, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::deploy;
    use dcluster_sim::rng::Rng64;

    fn small_net() -> Network {
        let mut rng = Rng64::new(1);
        Network::builder(deploy::uniform_square(30, 2.0, &mut rng))
            .build()
            .unwrap()
    }

    #[test]
    fn seed_seq_is_deterministic_and_fresh() {
        let mut a = SeedSeq::new(5);
        let mut b = SeedSeq::new(5);
        let s1 = a.next_seed();
        let s2 = a.next_seed();
        assert_ne!(s1, s2);
        assert_eq!(s1, b.next_seed());
        assert_eq!(s2, b.next_seed());
    }

    #[test]
    fn replay_reproduces_identical_receptions() {
        let net = small_net();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(3);
        let wss = fresh_wss(&params, &mut seeds, net.max_id());
        let nodes: Vec<usize> = (0..net.len()).collect();
        let unit = ReplayUnit::snapshot(&net, SchedHandle::Wss(wss), &nodes, &vec![0; net.len()]);
        let mut engine = Engine::new(&net);
        let mut first: Vec<(usize, u64, usize)> = Vec::new();
        let first_trace = unit.run(
            &mut engine,
            |v| Msg::Hello {
                id: net.id(v),
                cluster: 0,
            },
            &mut |r, lr, s, _| first.push((r, lr, s)),
        );
        let resolved = engine.resolver_stats().rounds;
        let mut second: Vec<(usize, u64, usize)> = Vec::new();
        // A clone shares the unit's replay key.
        let second_trace = unit.clone().run(
            &mut engine,
            |v| Msg::ClusterOf {
                id: net.id(v),
                cluster: 7,
            },
            &mut |r, lr, s, _| second.push((r, lr, s)),
        );
        assert_eq!(
            first, second,
            "same members + same schedule ⇒ same receptions"
        );
        assert!(
            !first.is_empty(),
            "some receptions should occur in a 30-node cloud"
        );
        assert!(!first_trace.replayed && second_trace.replayed);
        assert_eq!(
            engine.resolver_stats().rounds,
            resolved,
            "the second run is replayed without resolver rounds"
        );
        assert_eq!(engine.stats().replayed_rounds, unit.sched.len());
    }

    #[test]
    fn non_members_never_transmit() {
        let net = small_net();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(4);
        let wss = fresh_wss(&params, &mut seeds, net.max_id());
        // Only node 0 participates: nobody can receive (others silent, and
        // the sole member cannot receive its own transmissions).
        let unit = ReplayUnit::snapshot(&net, SchedHandle::Wss(wss), &[0], &vec![0; net.len()]);
        let mut engine = Engine::new(&net);
        let mut senders: Vec<usize> = Vec::new();
        unit.run(
            &mut engine,
            |v| Msg::Hello {
                id: net.id(v),
                cluster: 0,
            },
            &mut |_, _, s, _| senders.push(s),
        );
        assert!(
            senders.iter().all(|&s| s == 0),
            "only the member may be heard"
        );
    }

    #[test]
    fn unit_trace_records_backend_and_extent() {
        let net = small_net();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(6);
        let wss = fresh_wss(&params, &mut seeds, net.max_id());
        let nodes: Vec<usize> = (0..net.len()).collect();
        let unit = ReplayUnit::snapshot(&net, SchedHandle::Wss(wss), &nodes, &vec![0; net.len()]);
        for kind in dcluster_sim::ResolverKind::ALL {
            let mut engine = dcluster_sim::Engine::with_resolver_kind(&net, kind);
            let mut count = 0u64;
            let trace = unit.run(
                &mut engine,
                |v| Msg::Hello {
                    id: net.id(v),
                    cluster: 0,
                },
                &mut |_, _, _, _| count += 1,
            );
            assert_eq!(trace.resolver, kind);
            assert!(!trace.replayed, "a fresh engine resolves the first run");
            assert_eq!(trace.start_round, 0);
            assert_eq!(trace.rounds, unit.sched.len());
            assert_eq!(trace.receptions, count, "trace counts what on_rx saw");
        }
    }

    #[test]
    fn sched_handle_delegates_membership() {
        let ssf = RandomSsf::with_len(1, 3, 50);
        let h = SchedHandle::Ssf(ssf);
        assert_eq!(h.len(), 50);
        for r in 0..50 {
            assert_eq!(h.contains(r, 9, 0), ssf.contains(r, 9));
        }
        assert!(!h.is_empty());
    }

    #[test]
    fn fresh_selector_lengths_respect_params() {
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(9);
        let wss = fresh_wss(&params, &mut seeds, 10_000);
        let wcss = fresh_wcss(&params, &mut seeds, 10_000);
        let sns = fresh_sns(&params, &mut seeds, 10_000);
        assert!(Schedule::len(&wss) >= params.min_sched_len);
        assert!(ClusterSchedule::len(&wcss) >= params.min_sched_len);
        assert!(Schedule::len(&sns) >= params.min_sched_len);
    }
}
