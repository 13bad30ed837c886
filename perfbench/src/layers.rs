//! Layer probes for the traced run. Each one observes a layer from the
//! outside, through a public seam of the library: a resolver wrapper
//! handed to `Engine::with_resolver`, and a tracer attached with
//! `Engine::set_tracer`. Neither changes what the simulation does.

use dcluster_obs::{CacheOp, Clock, Event, Tracer};
use dcluster_sim::{Network, Reception, ResolverKind, ResolverStats, SinrResolver};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// What the timing wrapper saw, summed over every resolver it wrapped.
#[derive(Debug, Default)]
pub struct ResolveTally {
    /// Wall time inside `resolve_into`, all calls.
    pub resolve_ns: u64,
    /// Wall time inside `resolve_into`, calls with a transmitter.
    pub nonempty_ns: u64,
    /// Calls, silent ones included.
    pub calls: u64,
    /// Calls with at least one transmitter.
    pub nonempty_calls: u64,
    /// Non-empty calls whose (network stamp, transmitter set) pair was
    /// resolved before.
    pub repeats: u64,
    /// Receptions returned.
    pub receptions: u64,
    /// Transmitter sets resolved so far, by network stamp.
    seen: BTreeMap<u64, BTreeSet<Vec<usize>>>,
}

/// A [`SinrResolver`] that times and counts the calls into another one.
pub struct TimedResolver<C: Clock> {
    inner: Box<dyn SinrResolver>,
    clock: Rc<C>,
    tally: Rc<RefCell<ResolveTally>>,
}

impl<C: Clock> TimedResolver<C> {
    /// Wraps `inner`; every call is added to `tally`.
    pub fn new(
        inner: Box<dyn SinrResolver>,
        clock: Rc<C>,
        tally: Rc<RefCell<ResolveTally>>,
    ) -> Self {
        Self {
            inner,
            clock,
            tally,
        }
    }
}

impl<C: Clock> fmt::Debug for TimedResolver<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedResolver")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<C: Clock> SinrResolver for TimedResolver<C> {
    fn kind(&self) -> ResolverKind {
        self.inner.kind()
    }

    fn resolve_into(&mut self, net: &Network, transmitters: &[usize], out: &mut Vec<Reception>) {
        let t0 = self.clock.now_nanos();
        self.inner.resolve_into(net, transmitters, out);
        let ns = self.clock.now_nanos() - t0;
        let mut t = self.tally.borrow_mut();
        t.calls += 1;
        t.resolve_ns += ns;
        t.receptions += out.len() as u64;
        if !transmitters.is_empty() {
            t.nonempty_calls += 1;
            t.nonempty_ns += ns;
            let seen = t.seen.entry(net.stamp()).or_default();
            if seen.contains(transmitters) {
                t.repeats += 1;
            } else {
                seen.insert(transmitters.to_vec());
            }
        }
    }

    fn stats(&self) -> ResolverStats {
        self.inner.stats()
    }

    fn audit(&self, net: &Network) -> Result<(), String> {
        self.inner.audit(net)
    }

    fn last_cache_op(&self) -> Option<CacheOp> {
        self.inner.last_cache_op()
    }
}

/// Per-phase totals kept by a [`SpanTracer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCost {
    /// Span time minus the time of the spans nested directly inside it.
    pub self_ns: u64,
    /// Span rounds minus the rounds of the spans nested directly inside.
    pub self_rounds: u64,
}

#[derive(Debug)]
struct Frame {
    phase: &'static str,
    start_ns: u64,
    child_ns: u64,
    child_rounds: u64,
}

/// A tracer that timestamps phase spans and counts round events.
#[derive(Debug)]
pub struct SpanTracer<C: Clock> {
    clock: Rc<C>,
    stack: Vec<Frame>,
    /// Self cost per phase name.
    pub phases: BTreeMap<&'static str, PhaseCost>,
    /// Round events seen.
    pub rounds: u64,
    /// Rounds with no transmitter.
    pub silent_rounds: u64,
    /// Rounds with exactly one transmitter.
    pub single_tx_rounds: u64,
}

impl<C: Clock> SpanTracer<C> {
    /// An empty tracer reading `clock`.
    pub fn new(clock: Rc<C>) -> Self {
        Self {
            clock,
            stack: Vec::new(),
            phases: BTreeMap::new(),
            rounds: 0,
            silent_rounds: 0,
            single_tx_rounds: 0,
        }
    }

    /// Whether every opened span was closed.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }
}

impl<C: Clock + fmt::Debug> Tracer for SpanTracer<C> {
    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::PhaseStart { phase, .. } => self.stack.push(Frame {
                phase,
                start_ns: self.clock.now_nanos(),
                child_ns: 0,
                child_rounds: 0,
            }),
            Event::PhaseEnd { phase, rounds, .. } => {
                let Some(frame) = self.stack.pop() else {
                    return;
                };
                debug_assert_eq!(frame.phase, phase, "phase spans must nest");
                let total_ns = self.clock.now_nanos() - frame.start_ns;
                let cost = self.phases.entry(phase).or_default();
                cost.self_ns += total_ns - frame.child_ns;
                cost.self_rounds += rounds - frame.child_rounds;
                if let Some(parent) = self.stack.last_mut() {
                    parent.child_ns += total_ns;
                    parent.child_rounds += rounds;
                }
            }
            Event::Round { tx, .. } => {
                self.rounds += 1;
                match tx {
                    0 => self.silent_rounds += 1,
                    1 => self.single_tx_rounds += 1,
                    _ => {}
                }
            }
            Event::Epoch { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_obs::ManualClock;
    use dcluster_sim::engine::FnBehavior;
    use dcluster_sim::{Engine, Point};

    fn start(phase: &'static str) -> Event {
        Event::PhaseStart { phase, round: 0 }
    }

    fn end(phase: &'static str, rounds: u64) -> Event {
        Event::PhaseEnd {
            phase,
            round: 0,
            rounds,
            tx: 0,
            rx: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        // clustering [0, 100) ⊇ sparsify [10, 70) ⊇ proximity [20, 50),
        // then a second proximity [80, 90) directly under clustering.
        let clock = Rc::new(ManualClock::new());
        let mut t = SpanTracer::new(clock.clone());
        t.on_event(&start("clustering"));
        clock.advance(10);
        t.on_event(&start("sparsify"));
        clock.advance(10);
        t.on_event(&start("proximity"));
        clock.advance(30);
        t.on_event(&end("proximity", 3));
        clock.advance(20);
        t.on_event(&end("sparsify", 5));
        clock.advance(10);
        t.on_event(&start("proximity"));
        clock.advance(10);
        t.on_event(&end("proximity", 1));
        clock.advance(10);
        t.on_event(&end("clustering", 9));
        assert!(t.balanced());
        let cost = |p| (t.phases[p].self_ns, t.phases[p].self_rounds);
        assert_eq!(cost("proximity"), (40, 4));
        assert_eq!(cost("sparsify"), (30, 2));
        assert_eq!(cost("clustering"), (30, 3));
        let total: u64 = t.phases.values().map(|c| c.self_ns).sum();
        assert_eq!(total, 100, "self times add up to the outermost span");
    }

    #[test]
    fn rounds_are_classified_by_transmitter_count() {
        let mut t = SpanTracer::new(Rc::new(ManualClock::new()));
        for tx in [0, 1, 0, 3] {
            t.on_event(&Event::Round {
                round: 0,
                tx,
                rx: 0,
                cache: None,
            });
        }
        assert_eq!((t.rounds, t.silent_rounds, t.single_tx_rounds), (4, 2, 1));
    }

    #[test]
    fn wrapper_is_inert() {
        let pts: Vec<Point> = (0..24)
            .map(|i| Point::new((i % 6) as f64 * 0.45, (i / 6) as f64 * 0.45))
            .collect();
        let net = Network::builder(pts)
            .build()
            .expect("valid grid deployment");
        // Every third node transmits on even rounds; odd rounds are silent,
        // and the transmitter set repeats every other round.
        let tx = |_: &Network, v: usize, round: u64| {
            (round.is_multiple_of(2) && v.is_multiple_of(3)).then_some(())
        };
        for kind in ResolverKind::ALL {
            let mut plain = Engine::with_resolver_kind(&net, kind);
            let tally = Rc::new(RefCell::new(ResolveTally::default()));
            let wrapper =
                TimedResolver::new(kind.build(), Rc::new(ManualClock::new()), tally.clone());
            let mut timed = Engine::with_resolver(&net, Box::new(wrapper));
            let mut b = FnBehavior {
                tx,
                rx: |_: &Network, _: usize, _: u64, _: usize, _: &()| {},
            };
            for _ in 0..6 {
                assert_eq!(plain.step(&mut b), timed.step(&mut b), "{kind}");
            }
            assert_eq!(plain.resolver_stats(), timed.resolver_stats(), "{kind}");
            assert_eq!(plain.stats(), timed.stats(), "{kind}");
            let t = tally.borrow();
            assert_eq!((t.calls, t.nonempty_calls, t.repeats), (6, 3, 2), "{kind}");
            assert_eq!(t.receptions, plain.stats().receptions, "{kind}");
        }
    }
}
