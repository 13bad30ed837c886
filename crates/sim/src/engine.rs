//! Synchronous round execution engine.
//!
//! The paper's model (§1.1): algorithms work in synchronous rounds; in each
//! round a node either transmits or listens, receptions are resolved by the
//! SINR rule, and nodes perform local computation. [`RoundBehavior`] is the
//! protocol interface; the [`Engine`] drives it against a [`Network`].
//!
//! **Locality discipline.** A behavior's `transmit` decision for node `v`
//! must depend only on `v`'s own state, `v`'s id/parameters, and the current
//! round number (which is global knowledge in the synchronous model);
//! `receive` is the only channel through which information crosses nodes.
//! Behaviors in this workspace keep per-node state in indexed vectors and
//! touch only the entry of the node passed in.
//!
//! **Replay memo.** The paper's protocols re-execute one schedule with one
//! participant set many times (Lemma 11's tree communication, Algorithm
//! 1's κ confirmations), and on an unchanged network such a replay
//! reproduces the exact same receptions. [`Engine::run_keyed`] exploits
//! this. The caller passes a key with the **key contract**: two keyed
//! runs with the same key and the same round count have, round for round
//! counting from each run's first round, the same set of nodes whose
//! `transmit` returns `Some`. The engine keeps **one slot**: the tape of
//! the most recent keyed run. A run whose key and length match the slot
//! replays from the tape — it calls `transmit` only for the taped
//! transmitters (for fresh messages), delivers the taped receptions, and
//! calls `end_round` — and never polls all `n` nodes or calls the
//! resolver. Any other keyed run re-records the slot, reusing the
//! buffer's capacity. No network-stamp check is needed: the engine
//! borrows its [`Network`] immutably for its whole life, so the network
//! a tape was recorded on is the network it is replayed on.
//!
//! The **tape** is one `Vec<u8>` of LEB128 varints. Each round with at
//! least one transmitter is one record: the number of silent rounds since
//! the previous record (or the run's start), the transmitter count `k`,
//! the `k` ascending transmitter indices delta-coded (first absolute,
//! then differences), the reception count `m`, and `m` (receiver, slot)
//! pairs with the ascending receivers delta-coded the same way. Trailing
//! silent rounds are implied by the run length.
//!
//! A replayed round updates [`EngineStats`] (including
//! [`EngineStats::replayed_rounds`]), the last-round stats, the phase
//! spans and emits one tracer `Round` event, exactly as [`Engine::step`]
//! does, except that the event carries `cache: None` (no resolver ran).
//! In builds with debug assertions, the first replay of each tape instead
//! polls every node and re-resolves every round with a fresh naive
//! oracle, and asserts that both match the tape.

use crate::network::Network;
use crate::radio::{Reception, ResolverKind, ResolverStats, SinrResolver};
use dcluster_obs::{CacheOp, Event, PhaseTable, SharedTracer};

/// A synchronous per-node protocol executed by the [`Engine`].
///
/// `M` is the message type; the model limits messages to `O(log N)` bits,
/// so message types carry a constant number of IDs/labels.
pub trait RoundBehavior<M> {
    /// Decides whether node `node` transmits in `round`, and with what
    /// message. Returning `None` means the node listens.
    fn transmit(&mut self, net: &Network, node: usize, round: u64) -> Option<M>;

    /// Delivers a message received by `node` in `round` from `sender`.
    fn receive(&mut self, net: &Network, node: usize, round: u64, sender: usize, msg: &M);

    /// Hook invoked once per round after all deliveries (optional).
    fn end_round(&mut self, _net: &Network, _round: u64) {}
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Total transmissions (≈ energy).
    pub transmissions: u64,
    /// Total successful receptions.
    pub receptions: u64,
    /// Rounds served from the replay memo ([`Engine::run_keyed`]) without
    /// calling the resolver; every other round was resolved, so
    /// `rounds = resolver rounds + replayed_rounds`.
    pub replayed_rounds: u64,
}

/// Statistics of the most recently executed round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number that was executed.
    pub round: u64,
    /// Transmitters in that round.
    pub transmissions: u64,
    /// Successful receptions in that round.
    pub receptions: u64,
}

/// Drives [`RoundBehavior`]s over a network, maintaining a global round
/// counter across sequential protocol stages (deterministic protocols are
/// time-multiplexed by round number, so the counter must persist).
///
/// Reception resolution is delegated to a [`SinrResolver`] backend owned
/// by the engine; [`Engine::new`] picks the default
/// ([`ResolverKind::Aggregated`]), [`Engine::with_resolver_kind`] pins a
/// specific one. All backends produce identical receptions, so the choice
/// affects wall clock only — never protocol outcomes.
#[derive(Debug)]
pub struct Engine<'n> {
    net: &'n Network,
    resolver: Box<dyn SinrResolver>,
    round: u64,
    stats: EngineStats,
    last_round: RoundStats,
    tx_nodes: Vec<usize>,
    tx_msgs_scratch: usize,
    /// Optional event sink (`None` = tracing disabled; the per-round cost
    /// is then a single `Option` check).
    tracer: Option<SharedTracer>,
    /// Always-on per-phase aggregation (pays only at phase boundaries),
    /// so traced and untraced runs render byte-identical reports.
    phases: PhaseTable,
    /// Open [`Engine::begin_phase`] frames:
    /// `(phase, start_round, start_tx, start_rx)`.
    phase_stack: Vec<(&'static str, u64, u64, u64)>,
    /// The one-slot replay memo (see the module docs).
    memo: ReplayMemo,
}

/// The tape of the most recent keyed run.
#[derive(Debug, Default)]
struct ReplayMemo {
    /// Key of the taped run; `None` while the slot holds no whole tape.
    key: Option<u64>,
    /// Rounds of the taped run.
    rounds: u64,
    /// The encoded eventful rounds (format in the module docs).
    tape: Vec<u8>,
    /// Whether a replay of this tape has been audited.
    audited: bool,
}

impl<'n> Engine<'n> {
    /// Creates an engine over `net` starting at round 0, with the
    /// default resolver backend.
    pub fn new(net: &'n Network) -> Self {
        Self::with_resolver_kind(net, ResolverKind::default())
    }

    /// Creates an engine with an explicit resolver backend.
    pub fn with_resolver_kind(net: &'n Network, kind: ResolverKind) -> Self {
        Self::with_resolver(net, kind.build())
    }

    /// Creates an engine with a caller-constructed resolver backend.
    pub fn with_resolver(net: &'n Network, resolver: Box<dyn SinrResolver>) -> Self {
        Self {
            net,
            resolver,
            round: 0,
            stats: EngineStats::default(),
            last_round: RoundStats::default(),
            tx_nodes: Vec::new(),
            tx_msgs_scratch: 0,
            tracer: None,
            phases: PhaseTable::new(),
            phase_stack: Vec::new(),
            memo: ReplayMemo::default(),
        }
    }

    /// Attaches an event tracer; every subsequent round and phase span is
    /// emitted into it. Tracing never changes protocol outcomes — the
    /// tracer observes the event stream and nothing flows back.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Detaches the tracer (phase aggregation stays on).
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// Opens a named phase span. Spans nest; an inner phase's rounds also
    /// count toward its enclosing phases. Protocol code brackets its
    /// stages with this and [`Engine::end_phase`].
    pub fn begin_phase(&mut self, phase: &'static str) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().on_event(&Event::PhaseStart {
                phase,
                round: self.round,
            });
        }
        self.phase_stack.push((
            phase,
            self.round,
            self.stats.transmissions,
            self.stats.receptions,
        ));
    }

    /// Closes the innermost open phase span, folding its costs into the
    /// per-phase table ([`Engine::phase_table`]). A stray call with no
    /// open span is ignored (debug builds assert).
    pub fn end_phase(&mut self) {
        let Some((phase, round0, tx0, rx0)) = self.phase_stack.pop() else {
            debug_assert!(false, "end_phase with no open phase span");
            return;
        };
        let rounds = self.round - round0;
        let tx = self.stats.transmissions - tx0;
        let rx = self.stats.receptions - rx0;
        self.phases.record(phase, rounds, tx, rx);
        if let Some(t) = &self.tracer {
            t.borrow_mut().on_event(&Event::PhaseEnd {
                phase,
                round: self.round,
                rounds,
                tx,
                rx,
            });
        }
    }

    /// The per-phase cost table accumulated so far (always on, tracer or
    /// not). Rendered by the scenario `Report`.
    pub fn phase_table(&self) -> &PhaseTable {
        &self.phases
    }

    /// The network being simulated.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The backend resolving receptions.
    pub fn resolver_kind(&self) -> ResolverKind {
        self.resolver.kind()
    }

    /// The resolver backend's cumulative work counters.
    pub fn resolver_stats(&self) -> ResolverStats {
        self.resolver.stats()
    }

    /// Statistics of the most recently executed round (zeroed before the
    /// first [`Engine::step`]).
    pub fn last_round_stats(&self) -> RoundStats {
        self.last_round
    }

    /// Current global round number (next round to execute).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Runs `rounds` rounds of `behavior`. Returns the receptions of the
    /// *last* executed round (occasionally useful for single-round probes).
    pub fn run<M, B>(&mut self, behavior: &mut B, rounds: u64) -> Vec<Reception>
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let mut last = Vec::new();
        for _ in 0..rounds {
            last = self.step(behavior);
        }
        last
    }

    /// Executes a single round; returns its receptions.
    pub fn step<M, B>(&mut self, behavior: &mut B) -> Vec<Reception>
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let round = self.round;
        self.tx_nodes.clear();
        let mut msgs: Vec<M> = Vec::with_capacity(self.tx_msgs_scratch);
        for v in 0..self.net.len() {
            if let Some(m) = behavior.transmit(self.net, v, round) {
                self.tx_nodes.push(v);
                msgs.push(m);
            }
        }
        self.tx_msgs_scratch = msgs.len();
        let receptions = self.resolver.resolve(self.net, &self.tx_nodes);
        for r in &receptions {
            behavior.receive(self.net, r.receiver, round, r.sender, &msgs[r.slot]);
        }
        behavior.end_round(self.net, round);
        let cache = self.resolver.last_cache_op();
        self.finish_round(self.tx_nodes.len(), receptions.len(), cache);
        receptions
    }

    /// Books a finished round: stats, last-round stats, the trace event,
    /// and the round counter.
    fn finish_round(&mut self, tx: usize, rx: usize, cache: Option<CacheOp>) {
        let round = self.round;
        let (tx, rx) = (tx as u64, rx as u64);
        self.stats.rounds += 1;
        self.stats.transmissions += tx;
        self.stats.receptions += rx;
        self.last_round = RoundStats {
            round,
            transmissions: tx,
            receptions: rx,
        };
        if let Some(t) = &self.tracer {
            t.borrow_mut().on_event(&Event::Round {
                round,
                tx,
                rx,
                cache,
            });
        }
        self.round += 1;
    }

    /// Runs `rounds` rounds of `behavior` under the replay `key`: replays
    /// them from the memo when the previous keyed run had the same key and
    /// length, else runs them with [`Engine::step`] and tapes them. The
    /// caller must keep the key contract (module docs); the outcome —
    /// receptions, stats, phase table and trace rounds — is then that of
    /// `rounds` plain steps, except that replayed rounds skip the resolver.
    ///
    /// Should a taped transmitter's `transmit` return `None` (a broken
    /// contract), the memo is dropped and the run finishes with plain
    /// steps from that round on, which poll that round's nodes again.
    pub fn run_keyed<M, B>(&mut self, key: u64, behavior: &mut B, rounds: u64)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        if self.memo.key == Some(key) && self.memo.rounds == rounds {
            self.replay(behavior, rounds);
        } else {
            self.record(key, behavior, rounds);
        }
    }

    /// Runs `rounds` plain steps and tapes them into the memo slot.
    fn record<M, B>(&mut self, key: u64, behavior: &mut B, rounds: u64)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let mut tape = std::mem::take(&mut self.memo.tape);
        tape.clear();
        let mut gap = 0;
        for _ in 0..rounds {
            let receptions = self.step(behavior);
            if self.tx_nodes.is_empty() {
                gap += 1;
            } else {
                encode_round(&mut tape, gap, &self.tx_nodes, &receptions);
                gap = 0;
            }
        }
        self.memo = ReplayMemo {
            key: Some(key),
            rounds,
            tape,
            audited: false,
        };
    }

    /// Replays the memo's tape (whose key and length match the caller's).
    fn replay<M, B>(&mut self, behavior: &mut B, rounds: u64)
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let tape = std::mem::take(&mut self.memo.tape);
        let mut oracle =
            (cfg!(debug_assertions) && !self.memo.audited).then(|| ResolverKind::Naive.build());
        let mut tx = std::mem::take(&mut self.tx_nodes);
        let mut rx: Vec<Reception> = Vec::new();
        let mut msgs: Vec<M> = Vec::with_capacity(self.tx_msgs_scratch);
        let (mut pos, mut done) = (0, 0);
        let mut intact = true;
        while intact && done < rounds {
            let (gap, eventful) = if pos < tape.len() {
                (decode_round(&tape, &mut pos, &mut tx, &mut rx), true)
            } else {
                (rounds - done, false)
            };
            for _ in 0..gap {
                self.replay_round(behavior, &[], &[], &mut msgs, oracle.as_mut());
            }
            done += gap;
            if eventful {
                intact = self.replay_round(behavior, &tx, &rx, &mut msgs, oracle.as_mut());
                done += u64::from(intact);
            }
        }
        self.tx_nodes = tx;
        self.memo.tape = tape;
        self.memo.audited = true;
        if !intact {
            self.memo.key = None;
            for _ in done..rounds {
                self.step(behavior);
            }
        }
    }

    /// Replays one taped round. With an `oracle` (the audit), polls every
    /// node and re-resolves the round, asserting both match the tape.
    /// Returns false, with the round not executed, when a taped
    /// transmitter declines.
    fn replay_round<M, B>(
        &mut self,
        behavior: &mut B,
        tx: &[usize],
        rx: &[Reception],
        msgs: &mut Vec<M>,
        oracle: Option<&mut Box<dyn SinrResolver>>,
    ) -> bool
    where
        B: RoundBehavior<M> + ?Sized,
    {
        let round = self.round;
        msgs.clear();
        if let Some(oracle) = oracle {
            let mut polled = Vec::new();
            for v in 0..self.net.len() {
                if let Some(m) = behavior.transmit(self.net, v, round) {
                    polled.push(v);
                    msgs.push(m);
                }
            }
            assert_eq!(
                polled, tx,
                "round {round}: transmitters differ from the replay tape"
            );
            assert_eq!(
                oracle.resolve(self.net, tx),
                rx,
                "round {round}: the naive oracle disagrees with the replay tape"
            );
        } else {
            for &v in tx {
                let Some(m) = behavior.transmit(self.net, v, round) else {
                    return false;
                };
                msgs.push(m);
            }
        }
        for r in rx {
            behavior.receive(self.net, r.receiver, round, r.sender, &msgs[r.slot]);
        }
        behavior.end_round(self.net, round);
        self.stats.replayed_rounds += 1;
        self.finish_round(tx.len(), rx.len(), None);
        true
    }

    /// Runs `behavior` until `done` returns true or `max_rounds` elapse;
    /// returns the number of rounds executed in this call.
    ///
    /// The `done` predicate is a *harness* (observer) facility — e.g. "stop
    /// simulating once every node is awake"; per-node behavior must not rely
    /// on it.
    pub fn run_until<M, B, F>(&mut self, behavior: &mut B, max_rounds: u64, mut done: F) -> u64
    where
        B: RoundBehavior<M> + ?Sized,
        F: FnMut(&B) -> bool,
    {
        let start = self.round;
        while self.round - start < max_rounds {
            if done(behavior) {
                break;
            }
            self.step(behavior);
        }
        self.round - start
    }
}

/// Appends the LEB128 varint of `x` to `tape`.
fn put_varint(tape: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        tape.push((x as u8) | 0x80);
        x >>= 7;
    }
    tape.push(x as u8);
}

/// Reads the LEB128 varint at `*pos`, advancing `*pos` past it.
fn get_varint(tape: &[u8], pos: &mut usize) -> u64 {
    let (mut x, mut shift) = (0u64, 0);
    loop {
        let byte = tape[*pos];
        *pos += 1;
        x |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// Tapes one eventful round preceded by `gap` silent rounds. `tx` and the
/// receivers of `rx` must be ascending.
fn encode_round(tape: &mut Vec<u8>, gap: u64, tx: &[usize], rx: &[Reception]) {
    put_varint(tape, gap);
    put_varint(tape, tx.len() as u64);
    let mut prev = 0;
    for &v in tx {
        put_varint(tape, (v - prev) as u64);
        prev = v;
    }
    put_varint(tape, rx.len() as u64);
    prev = 0;
    for r in rx {
        put_varint(tape, (r.receiver - prev) as u64);
        put_varint(tape, r.slot as u64);
        prev = r.receiver;
    }
}

/// Reads the round record at `*pos` into `tx` and `rx` (both cleared
/// first); returns the silent rounds that precede it.
fn decode_round(tape: &[u8], pos: &mut usize, tx: &mut Vec<usize>, rx: &mut Vec<Reception>) -> u64 {
    let gap = get_varint(tape, pos);
    tx.clear();
    let mut v = 0;
    for _ in 0..get_varint(tape, pos) {
        v += get_varint(tape, pos) as usize;
        tx.push(v);
    }
    rx.clear();
    let mut receiver = 0;
    for _ in 0..get_varint(tape, pos) {
        receiver += get_varint(tape, pos) as usize;
        let slot = get_varint(tape, pos) as usize;
        rx.push(Reception {
            receiver,
            sender: tx[slot],
            slot,
        });
    }
    gap
}

/// A behavior defined by closures — handy for tests and tiny protocols.
pub struct FnBehavior<T, R> {
    /// Transmit decision closure.
    pub tx: T,
    /// Reception handler closure.
    pub rx: R,
}

impl<M, T, R> RoundBehavior<M> for FnBehavior<T, R>
where
    T: FnMut(&Network, usize, u64) -> Option<M>,
    R: FnMut(&Network, usize, u64, usize, &M),
{
    fn transmit(&mut self, net: &Network, node: usize, round: u64) -> Option<M> {
        (self.tx)(net, node, round)
    }
    fn receive(&mut self, net: &Network, node: usize, round: u64, sender: usize, msg: &M) {
        (self.rx)(net, node, round, sender, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn line(n: usize, spacing: f64) -> Network {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        Network::builder(pts).build().unwrap()
    }

    #[test]
    fn round_robin_flood_crosses_a_line() {
        // Node i transmits in rounds ≡ i (mod n) once it knows the token.
        let net = line(5, 0.7);
        let n = net.len();
        let mut knows = vec![false; n];
        knows[0] = true;
        let mut engine = Engine::new(&net);
        // Can't borrow `knows` in both closures at once; use a tiny struct.
        struct Flood {
            knows: Vec<bool>,
        }
        impl RoundBehavior<u8> for Flood {
            fn transmit(&mut self, net: &Network, v: usize, round: u64) -> Option<u8> {
                (self.knows[v] && round % net.len() as u64 == v as u64).then_some(1)
            }
            fn receive(&mut self, _net: &Network, v: usize, _r: u64, _s: usize, _m: &u8) {
                self.knows[v] = true;
            }
        }
        let mut flood = Flood { knows };
        let used = engine.run_until(&mut flood, 1000, |b| b.knows.iter().all(|&k| k));
        assert!(flood.knows.iter().all(|&k| k), "token reached everyone");
        assert!(used <= 5 * 5, "at most n rounds per hop, got {used}");
        assert_eq!(engine.stats().rounds, used);
    }

    #[test]
    fn engine_counts_transmissions_and_receptions() {
        let net = line(2, 0.5);
        let mut engine = Engine::new(&net);
        let mut b = FnBehavior {
            tx: |_: &Network, v: usize, _: u64| (v == 0).then_some(42u32),
            rx: |_: &Network, _: usize, _: u64, _: usize, m: &u32| assert_eq!(*m, 42),
        };
        engine.run(&mut b, 3);
        let s = engine.stats();
        assert_eq!(s.rounds, 3);
        assert_eq!(s.transmissions, 3);
        assert_eq!(s.receptions, 3);
        assert_eq!(engine.round(), 3);
    }

    #[test]
    fn backends_are_selectable_and_tracked() {
        let net = line(3, 0.6); // node 2 at 1.2 > range: exactly one hearer
        for kind in crate::radio::ResolverKind::ALL {
            let mut engine = Engine::with_resolver_kind(&net, kind);
            assert_eq!(engine.resolver_kind(), kind);
            let mut b = FnBehavior {
                tx: |_: &Network, v: usize, _: u64| (v == 0).then_some(1u8),
                rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
            };
            engine.run(&mut b, 2);
            assert_eq!(engine.resolver_stats().rounds, 2);
            let lr = engine.last_round_stats();
            assert_eq!(lr.round, 1);
            assert_eq!(lr.transmissions, 1);
            assert_eq!(lr.receptions, 1, "node 1 hears node 0 ({kind})");
        }
    }

    #[test]
    fn stats_accumulate_across_sequential_behaviors() {
        // The engine outlives individual behaviors: a protocol stack runs
        // stage after stage on one engine, and EngineStats / RoundStats /
        // the phase table must all account across that whole sequence.
        let net = line(2, 0.5);
        let mut engine = Engine::new(&net);
        let recorder = dcluster_obs::shared(dcluster_obs::Recorder::new());
        engine.set_tracer(recorder.clone());

        engine.begin_phase("chatter");
        let mut chatter = FnBehavior {
            tx: |_: &Network, v: usize, _: u64| (v == 0).then_some(7u8),
            rx: |_: &Network, _: usize, _: u64, _: usize, m: &u8| assert_eq!(*m, 7),
        };
        engine.run(&mut chatter, 3);
        engine.end_phase();

        engine.begin_phase("silence");
        let mut silence = FnBehavior {
            tx: |_: &Network, _: usize, _: u64| None::<u8>,
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
        };
        engine.run(&mut silence, 2);
        engine.end_phase();

        // Cumulative stats span both behaviors.
        let s = engine.stats();
        assert_eq!(s.rounds, 5);
        assert_eq!(s.transmissions, 3);
        assert_eq!(s.receptions, 3);
        assert_eq!(engine.round(), 5);
        // Last-round stats describe the final (silent) round only.
        let lr = engine.last_round_stats();
        assert_eq!(lr.round, 4);
        assert_eq!(lr.transmissions, 0);
        assert_eq!(lr.receptions, 0);
        // The phase table kept the two stages apart, in first-seen order.
        let phases = engine.phase_table().summaries();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            (phases[0].phase.as_str(), phases[0].rounds, phases[0].tx),
            ("chatter", 3, 3)
        );
        assert_eq!(
            (phases[1].phase.as_str(), phases[1].rounds, phases[1].tx),
            ("silence", 2, 0)
        );
        // The tracer saw every round plus both span brackets.
        let rec = recorder.borrow();
        let kinds: Vec<&str> = rec.events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "round").count(), 5);
        assert_eq!(kinds.iter().filter(|k| **k == "phase_start").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "phase_end").count(), 2);
    }

    #[test]
    fn run_until_stops_immediately_when_done() {
        let net = line(2, 0.5);
        let mut engine = Engine::new(&net);
        let mut b = FnBehavior {
            tx: |_: &Network, _: usize, _: u64| None::<u8>,
            rx: |_: &Network, _: usize, _: u64, _: usize, _: &u8| {},
        };
        let used = engine.run_until(&mut b, 100, |_| true);
        assert_eq!(used, 0);
    }

    /// Node `v` transmits in local round `lr = round mod len` when a hash
    /// of `(lr, v)` says so, except in every third round; a message
    /// carries its sender and the current `generation`. With `decline`
    /// set, even nodes never transmit. Logs every delivery and round end.
    struct Pattern {
        seed: u64,
        len: u64,
        generation: u32,
        decline: bool,
        log: Vec<(usize, u64, usize, (usize, u32))>,
        ends: Vec<u64>,
    }

    impl Pattern {
        fn new(seed: u64, len: u64) -> Self {
            Self {
                seed,
                len,
                generation: 0,
                decline: false,
                log: Vec::new(),
                ends: Vec::new(),
            }
        }
    }

    impl RoundBehavior<(usize, u32)> for Pattern {
        fn transmit(&mut self, _: &Network, v: usize, round: u64) -> Option<(usize, u32)> {
            let lr = round % self.len;
            let on =
                !lr.is_multiple_of(3) && crate::rng::hash_chance(self.seed, &[lr, v as u64], 0.4);
            (on && !(self.decline && v.is_multiple_of(2))).then_some((v, self.generation))
        }
        fn receive(&mut self, _: &Network, v: usize, round: u64, sender: usize, m: &(usize, u32)) {
            self.log.push((v, round, sender, *m));
        }
        fn end_round(&mut self, _: &Network, round: u64) {
            self.ends.push(round);
        }
    }

    /// 36 nodes on a 0.45-spaced grid: rounds of about 14 transmitters,
    /// so the aggregated backend takes its field path.
    fn grid36() -> Network {
        let pts: Vec<Point> = (0..36)
            .map(|i| Point::new((i % 6) as f64 * 0.45, (i / 6) as f64 * 0.45))
            .collect();
        Network::builder(pts).build().unwrap()
    }

    /// Everything a sequence of runs exposes.
    struct Outcome {
        deliveries: Vec<(usize, u64, usize, (usize, u32))>,
        round_ends: Vec<u64>,
        stats: EngineStats,
        last_round: RoundStats,
        phases: Vec<dcluster_obs::PhaseSummary>,
        /// Trace `Round` events as `(round, tx, rx)`.
        trace: Vec<(u64, u64, u64)>,
        /// Resolver rounds after each run.
        resolved: Vec<u64>,
    }

    /// Runs `plan` — `(key, behavior index, generation, decline)` per run,
    /// each `len` rounds — keyed or as plain steps, on a fresh traced
    /// engine.
    fn drive(
        net: &Network,
        kind: ResolverKind,
        keyed: bool,
        behaviors: &mut [Pattern],
        plan: &[(u64, usize, u32, bool)],
    ) -> Outcome {
        let mut engine = Engine::with_resolver_kind(net, kind);
        let recorder = dcluster_obs::shared(dcluster_obs::Recorder::new());
        engine.set_tracer(recorder.clone());
        let mut resolved = Vec::new();
        for &(key, i, generation, decline) in plan {
            let b = &mut behaviors[i];
            b.generation = generation;
            b.decline = decline;
            let len = b.len;
            engine.begin_phase("unit");
            if keyed {
                engine.run_keyed(key, b, len);
            } else {
                engine.run(b, len);
            }
            engine.end_phase();
            resolved.push(engine.resolver_stats().rounds);
        }
        let trace = recorder
            .borrow()
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::Round { round, tx, rx, .. } => Some((round, tx, rx)),
                _ => None,
            })
            .collect();
        Outcome {
            deliveries: behaviors.iter().flat_map(|b| b.log.clone()).collect(),
            round_ends: behaviors.iter().flat_map(|b| b.ends.clone()).collect(),
            stats: engine.stats(),
            last_round: engine.last_round_stats(),
            phases: engine.phase_table().summaries().to_vec(),
            trace,
            resolved,
        }
    }

    const LEN: u64 = 40;

    #[test]
    fn keyed_replay_matches_plain_steps() {
        let net = grid36();
        for kind in ResolverKind::ALL {
            let plan = [(7, 0, 1, false), (7, 0, 2, false)];
            let keyed = drive(&net, kind, true, &mut [Pattern::new(1, LEN)], &plan);
            let plain = drive(&net, kind, false, &mut [Pattern::new(1, LEN)], &plan);
            assert_eq!(keyed.deliveries, plain.deliveries, "deliveries ({kind})");
            assert!(
                keyed.deliveries.iter().any(|e| e.1 >= LEN && e.3 .1 == 2),
                "the replay delivers fresh messages ({kind})"
            );
            assert_eq!(keyed.round_ends, plain.round_ends, "round ends ({kind})");
            let expected = EngineStats {
                replayed_rounds: LEN,
                ..plain.stats
            };
            assert_eq!(keyed.stats, expected, "stats ({kind})");
            assert_eq!(
                keyed.last_round, plain.last_round,
                "last-round stats ({kind})"
            );
            assert_eq!(keyed.phases, plain.phases, "phase table ({kind})");
            assert_eq!(keyed.trace, plain.trace, "trace rounds ({kind})");
            assert!(keyed.trace.iter().any(|r| r.1 == 0) && keyed.trace.iter().any(|r| r.1 > 8));
            assert_eq!(
                keyed.resolved,
                [LEN, LEN],
                "the replay resolves nothing ({kind})"
            );
            assert_eq!(plain.resolved, [LEN, 2 * LEN]);
        }
    }

    #[test]
    fn an_interleaved_key_forces_a_re_record() {
        let net = grid36();
        // A, B, A: the slot holds B when A returns, so A re-records; a
        // fourth run of A then replays.
        let plan = [
            (1, 0, 1, false),
            (2, 1, 1, false),
            (1, 0, 2, false),
            (1, 0, 3, false),
        ];
        let behaviors = || [Pattern::new(1, LEN), Pattern::new(2, LEN)];
        let keyed = drive(
            &net,
            ResolverKind::Aggregated,
            true,
            &mut behaviors(),
            &plan,
        );
        let plain = drive(
            &net,
            ResolverKind::Aggregated,
            false,
            &mut behaviors(),
            &plan,
        );
        assert_eq!(keyed.deliveries, plain.deliveries);
        assert_eq!(keyed.trace, plain.trace);
        assert_eq!(keyed.resolved, [LEN, 2 * LEN, 3 * LEN, 3 * LEN]);
        assert_eq!(keyed.stats.replayed_rounds, LEN);
    }

    #[test]
    fn a_broken_key_contract_falls_back_to_plain_steps() {
        let net = grid36();
        // The third run declines some taped transmissions (after the
        // second run spent the audit), so the engine drops the tape mid-run
        // and the fourth run re-records.
        let plan = [
            (3, 0, 1, false),
            (3, 0, 2, false),
            (3, 0, 3, true),
            (3, 0, 4, true),
        ];
        let keyed = drive(
            &net,
            ResolverKind::Aggregated,
            true,
            &mut [Pattern::new(1, LEN)],
            &plan,
        );
        let plain = drive(
            &net,
            ResolverKind::Aggregated,
            false,
            &mut [Pattern::new(1, LEN)],
            &plan,
        );
        assert_eq!(keyed.deliveries, plain.deliveries);
        assert_eq!(keyed.round_ends, plain.round_ends);
        assert_eq!(keyed.trace, plain.trace);
        let replayed = keyed.stats.replayed_rounds;
        assert!((LEN..2 * LEN).contains(&replayed), "replayed {replayed}");
        assert_eq!(
            keyed.resolved[3] - keyed.resolved[2],
            LEN,
            "the fourth run re-records"
        );
    }

    #[test]
    fn tape_round_trips_multi_byte_varints() {
        // Indices ≥ 2^14 take three varint bytes and slots ≥ 128 two.
        let tx: Vec<usize> = (0..300).map(|i| (1 << 14) + 1000 * i).collect();
        let rx: Vec<Reception> = (0..150)
            .map(|i| {
                let slot = 299 - i;
                Reception {
                    receiver: (1 << 20) + 7 * i,
                    sender: tx[slot],
                    slot,
                }
            })
            .collect();
        let records = [
            (0, &tx[..1], &rx[..0]),
            (300, &tx, &rx),
            (1 << 40, &tx[..200], &rx[100..]),
        ];
        let mut tape = Vec::new();
        for &(gap, t, r) in &records {
            encode_round(&mut tape, gap, t, r);
        }
        let (mut pos, mut t, mut r) = (0, Vec::new(), Vec::new());
        for &(gap, t0, r0) in &records {
            assert_eq!(decode_round(&tape, &mut pos, &mut t, &mut r), gap);
            assert_eq!((&t[..], &r[..]), (t0, r0));
        }
        assert_eq!(pos, tape.len());
        for x in [0, 127, 128, 1 << 14, u64::MAX] {
            let mut one = Vec::new();
            put_varint(&mut one, x);
            assert_eq!(get_varint(&one, &mut 0), x);
        }
    }
}
