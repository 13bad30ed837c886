//! # dcluster-obs — deterministic tracing and metrics
//!
//! The instrument panel for the rest of the workspace: a zero-cost-when-
//! disabled [`Tracer`] seam that the `Engine` and the protocol layer emit
//! **phase spans** and **round events** into, an in-memory [`Recorder`]
//! for tests, a versioned JSONL sink ([`JsonlSink`]) behind `--trace` /
//! `DCLUSTER_TRACE`, and the one sanctioned [`Clock`](clock::Clock) seam
//! for wall-clock timing.
//!
//! ## Determinism contract
//!
//! Everything this crate records is a pure function of the simulation:
//! round numbers, transmitter/reception counts, which rounds were
//! resolved through an interference field, phase names. No timestamps, no map-iteration order, no
//! thread interleavings. Two runs of the same scenario produce
//! byte-identical traces — which is what makes `xtask tracediff` a
//! *localizing* determinism check instead of a byte-compare oracle.
//!
//! Wall-clock time is deliberately not representable in [`Event`].
//! Benchmarks that need it go through [`clock::WallClock`],
//! the only `std::time` site inside the deterministic crate set (enforced
//! by `xtask lint` rule D2 via `lint.toml` path scoping).
//!
//! ## Zero cost when disabled
//!
//! The engine holds an `Option<SharedTracer>`; with no tracer attached the
//! per-round cost is one `Option` check. Phase aggregation (the
//! [`PhaseTable`] the scenario `Report` renders) is always on, but only
//! pays at phase boundaries, never per round — so traced and untraced runs
//! produce byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod jsonl;
pub mod phase;

pub use clock::{Clock, ManualClock, WallClock};
pub use jsonl::{JsonlSink, TraceMeta, TRACE_SCHEMA};
pub use phase::{PhaseSummary, PhaseTable};

use std::cell::RefCell;
use std::rc::Rc;

/// How a resolver answered one round, when it used an interference field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// The round was resolved through a field built for this round from
    /// its full transmitter set.
    Rebuilt,
}

/// One observability event. Every field is a deterministic function of
/// the simulation — no timestamps (see the crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A named protocol phase began (engine round at entry).
    PhaseStart {
        /// Stable phase name (`clustering`, `sparsify`, `mis`, …).
        phase: &'static str,
        /// Engine round when the phase began.
        round: u64,
    },
    /// A named protocol phase ended, with its aggregate costs.
    PhaseEnd {
        /// Stable phase name.
        phase: &'static str,
        /// Engine round when the phase ended.
        round: u64,
        /// Rounds consumed by the phase (including nested phases).
        rounds: u64,
        /// Transmissions during the phase.
        tx: u64,
        /// Successful receptions during the phase.
        rx: u64,
    },
    /// One synchronous engine round.
    Round {
        /// Round number (0-based, engine-lifetime).
        round: u64,
        /// Transmitter count |T|.
        tx: u64,
        /// Successful receptions delivered.
        rx: u64,
        /// `Some(Rebuilt)` when the round was resolved through a field
        /// built for this round; `None` for direct, silent and replayed
        /// rounds.
        cache: Option<CacheOp>,
    },
    /// One maintenance epoch finished.
    Epoch {
        /// Epoch index (0-based).
        epoch: u64,
        /// Rounds the epoch's re-clustering consumed.
        rounds: u64,
        /// Centers re-elected this epoch.
        re_elections: u64,
        /// Coverage violations detected this epoch.
        violations: u64,
    },
}

impl Event {
    /// The stable event-kind name used in JSONL traces and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PhaseStart { .. } => "phase_start",
            Event::PhaseEnd { .. } => "phase_end",
            Event::Round { .. } => "round",
            Event::Epoch { .. } => "epoch",
        }
    }
}

/// A sink for [`Event`]s. Implementations must be deterministic: the
/// trace they produce may depend only on the event stream. (`Debug` is a
/// supertrait so engines holding a tracer stay debug-printable.)
pub trait Tracer: std::fmt::Debug {
    /// Observes one event.
    fn on_event(&mut self, ev: &Event);
}

/// The shape the engine holds a tracer in: shared, interior-mutable,
/// single-threaded (the engine itself is single-threaded; resolver
/// worker threads never see the tracer).
pub type SharedTracer = Rc<RefCell<dyn Tracer>>;

/// Wraps any tracer into the [`SharedTracer`] handle the engine accepts.
pub fn shared<T: Tracer + 'static>(t: T) -> Rc<RefCell<T>> {
    Rc::new(RefCell::new(t))
}

/// An in-memory recording tracer: keeps the full event stream.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<Event>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded event stream, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

impl Tracer for Recorder {
    fn on_event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_events_and_counts_them() {
        let mut r = Recorder::new();
        r.on_event(&Event::PhaseStart {
            phase: "clustering",
            round: 0,
        });
        for round in 0..4 {
            r.on_event(&Event::Round {
                round,
                tx: if round == 2 { 0 } else { 3 },
                rx: 1,
                cache: (round != 2).then_some(CacheOp::Rebuilt),
            });
        }
        r.on_event(&Event::PhaseEnd {
            phase: "clustering",
            round: 4,
            rounds: 4,
            tx: 9,
            rx: 4,
        });
        assert_eq!(r.events().len(), 6);
        let count = |kind| r.events().iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("round"), 4);
        assert_eq!(count("phase_start"), 1);
        assert_eq!(count("phase_end"), 1);
        assert_eq!(
            r.events()[3],
            Event::Round {
                round: 2,
                tx: 0,
                rx: 1,
                cache: None
            },
            "events are kept in emission order"
        );
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(
            Event::Round {
                round: 0,
                tx: 0,
                rx: 0,
                cache: None
            }
            .kind(),
            "round"
        );
        assert_eq!(
            Event::Epoch {
                epoch: 0,
                rounds: 0,
                re_elections: 0,
                violations: 0
            }
            .kind(),
            "epoch"
        );
    }

    #[test]
    fn shared_handle_coerces_to_dyn_tracer() {
        let rec = shared(Recorder::new());
        let dyn_handle: SharedTracer = rec.clone();
        dyn_handle.borrow_mut().on_event(&Event::Round {
            round: 7,
            tx: 2,
            rx: 1,
            cache: None,
        });
        assert_eq!(rec.borrow().events().len(), 1);
    }
}
