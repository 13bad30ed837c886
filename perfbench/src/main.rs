//! End-to-end and per-layer benchmark of the dcluster simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload local-dense --seed 401 --seconds 15 --trace 0
//! ```
//!
//! Each invocation runs one workload in this process, so peak memory is
//! the workload's own. A run is a fixed batch of instances, each built
//! from the committed `.scn` text under `specs/`:
//!
//! * `local-dense`: stack + local broadcast on 12 small dense static
//!   fields. `--seed` seeds the deployments (instance `i` gets
//!   `hash64(seed, [i])`), because one field's round count varies by
//!   about 12% from seed to seed and a batch averages that out.
//! * `maint-mobile`: three maintenance epochs under mobility, churn and
//!   heterogeneous power. `--seed` is the protocol seed (`params seed`);
//!   the world is the committed one, because the world's seed moves the
//!   round count by up to 2x while the protocol seed moves it by about 4%.
//! * `resolve-stream`: 200 synthetic rounds on 10^4 nodes, with a fresh
//!   hash-chosen 4% of them transmitting each round. `--seed` seeds the
//!   deployment and the transmitter hash.
//!
//! Without `--seed` the committed seeds are used.
//!
//! `--trace 0` repeats the untraced batch until `--seconds` have passed
//! and reports the end-to-end metrics per instance. A time is the
//! instance's fastest repetition, averaged over the batch, because other
//! load on a shared host only ever slows a run.
//!
//! `--trace 1` runs the batch once untraced and once with the layer
//! probes of [`layers`] attached, checks that both agree, and reports the
//! per-layer metrics per instance.
//!
//! Every run checks its outputs. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the exit
//! code is non-zero when any check failed.

#![forbid(unsafe_code)]

mod layers;

use dcluster_core::check::{check_clustering, check_clustering_on, ClusteringReport};
use dcluster_core::clustering::clustering;
use dcluster_core::local_broadcast::local_broadcast;
use dcluster_core::SeedSeq;
use dcluster_dynamics::World;
use dcluster_obs::{shared, Clock, PhaseSummary, PhaseTable, WallClock};
use dcluster_scenario::{Report, Runner, ScenarioSpec, WorkloadOutcome};
use dcluster_sim::engine::FnBehavior;
use dcluster_sim::rng::{hash64, hash_chance};
use dcluster_sim::{Engine, Network, Reception, ResolverKind, ResolverStats};
use layers::{ResolveTally, SpanTracer, TimedResolver};
use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

/// Instances in one `local-dense` run.
const LOCAL_DENSE_BATCH: u64 = 12;
/// Rounds in one `resolve-stream` instance.
const STREAM_ROUNDS: u64 = 200;
/// Share of the nodes that transmit in each `resolve-stream` round.
const STREAM_TX_SHARE: f64 = 0.04;
/// Every this many `resolve-stream` rounds is re-resolved by the oracle.
const ORACLE_EVERY: u64 = 25;
/// Set-up is repeated at least this often, and for at least
/// [`SETUP_MIN_NS`].
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_NS: u64 = 1_000_000_000;
/// The protocol phases reported per layer, in stack order.
const PHASES: [&str; 6] = [
    "proximity",
    "sparsify",
    "mis",
    "labeling",
    "clustering",
    "local_broadcast",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LocalDense,
    MaintMobile,
    ResolveStream,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "local-dense" => Ok(Self::LocalDense),
            "maint-mobile" => Ok(Self::MaintMobile),
            "resolve-stream" => Ok(Self::ResolveStream),
            other => Err(format!(
                "unknown workload '{other}' (expected local-dense, maint-mobile or resolve-stream)"
            )),
        }
    }

    /// Instances in one run.
    fn batch(self) -> u64 {
        match self {
            Self::LocalDense => LOCAL_DENSE_BATCH,
            Self::MaintMobile | Self::ResolveStream => 1,
        }
    }

    /// The spec of instance `i` of a run with `seed` (see the crate docs
    /// for what the seed replaces).
    fn spec(self, seed: Option<u64>, i: u64) -> Result<ScenarioSpec, String> {
        let text = match self {
            Self::LocalDense => include_str!("../specs/local_dense.scn"),
            Self::MaintMobile => include_str!("../specs/maint_mobile.scn"),
            Self::ResolveStream => include_str!("../specs/resolve_stream.scn"),
        };
        let mut spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
        match self {
            Self::LocalDense => spec.seed = hash64(seed.unwrap_or(spec.seed), &[i]),
            Self::MaintMobile => spec.params.seed = seed.unwrap_or(spec.params.seed),
            Self::ResolveStream => spec.seed = seed.unwrap_or(spec.seed),
        }
        Ok(spec)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What an instance produced, for the checks and the counts. Two runs of
/// one instance must produce equal summaries.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    rounds: u64,
    tx: u64,
    rx: u64,
    phases: Vec<PhaseSummary>,
    /// `maint-mobile`: per-epoch rounds and clustering check.
    epochs: Vec<(u64, ClusteringReport)>,
    /// `resolve-stream`: receptions of the rounds the oracle re-checks.
    samples: Vec<(u64, Vec<Reception>)>,
}

impl Summary {
    fn of_report(r: &Report) -> Self {
        let epochs = match &r.outcome {
            WorkloadOutcome::Maintenance { epochs, .. } => {
                epochs.iter().map(|e| (e.rounds, e.report)).collect()
            }
            _ => Vec::new(),
        };
        Self {
            rounds: r.rounds,
            tx: r.transmissions,
            rx: r.receptions,
            phases: r.phases.clone(),
            epochs,
            samples: Vec::new(),
        }
    }

    fn of_engine(engine: &Engine<'_>) -> Self {
        let s = engine.stats();
        Self {
            rounds: s.rounds,
            tx: s.transmissions,
            rx: s.receptions,
            phases: engine.phase_table().summaries().to_vec(),
            epochs: Vec::new(),
            samples: Vec::new(),
        }
    }
}

/// The result of one instance and the checks it failed.
struct Run {
    summary: Summary,
    problems: Vec<String>,
}

fn stream_transmits(seed: u64, round: u64, v: usize) -> bool {
    hash_chance(seed, &[round, v as u64], STREAM_TX_SHARE)
}

/// Drives the `resolve-stream` rounds; returns the sampled receptions.
fn run_stream(engine: &mut Engine<'_>, seed: u64) -> Vec<(u64, Vec<Reception>)> {
    let mut b = FnBehavior {
        tx: |_: &Network, v: usize, round: u64| stream_transmits(seed, round, v).then_some(()),
        rx: |_: &Network, _: usize, _: u64, _: usize, _: &()| {},
    };
    let mut samples = Vec::new();
    for round in 0..STREAM_ROUNDS {
        let receptions = engine.step(&mut b);
        if round % ORACLE_EVERY == 0 {
            samples.push((round, receptions));
        }
    }
    samples
}

/// One untraced instance, from spec text to checked result.
fn run_plain(w: Workload, seed: Option<u64>, i: u64) -> Result<Run, String> {
    let runner = Runner::new(w.spec(seed, i)?);
    if w == Workload::ResolveStream {
        let net = runner.build_network().map_err(|e| e.to_string())?;
        let mut engine = runner.engine(&net).map_err(|e| e.to_string())?;
        let samples = run_stream(&mut engine, runner.spec().seed);
        return Ok(Run {
            summary: Summary {
                samples,
                ..Summary::of_engine(&engine)
            },
            problems: Vec::new(),
        });
    }
    let report = runner.run_default().map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    if !report.ok() {
        problems.push(format!("Report::ok() is false for {}", report.scenario));
    }
    Ok(Run {
        summary: Summary::of_report(&report),
        problems,
    })
}

/// Re-resolves the sampled `resolve-stream` rounds with the naive oracle.
fn oracle_check(
    seed: Option<u64>,
    samples: &[(u64, Vec<Reception>)],
) -> Result<Vec<String>, String> {
    let runner = Runner::new(Workload::ResolveStream.spec(seed, 0)?);
    let net = runner.build_network().map_err(|e| e.to_string())?;
    let stream_seed = runner.spec().seed;
    let mut oracle = ResolverKind::Naive.build();
    let mut problems = Vec::new();
    for (round, got) in samples {
        let tx: Vec<usize> = (0..net.len())
            .filter(|&v| stream_transmits(stream_seed, *round, v))
            .collect();
        if oracle.resolve(&net, &tx) != *got {
            problems.push(format!(
                "round {round}: receptions differ from the naive oracle"
            ));
        }
    }
    if samples.is_empty() {
        problems.push("no round was sampled for the oracle".into());
    }
    Ok(problems)
}

/// Per-layer measurements, summed over the traced instances.
#[derive(Debug, Default)]
struct Layers {
    build_network_ns: u64,
    protocol_ns: u64,
    world_step_ns: u64,
    audit_ns: u64,
    resolver: ResolverStats,
}

/// The layer probes of one traced batch, shared by all of its engines.
struct Probes {
    clock: Rc<WallClock>,
    tracer: Rc<RefCell<SpanTracer<WallClock>>>,
    tally: Rc<RefCell<ResolveTally>>,
}

impl Probes {
    fn new(clock: &Rc<WallClock>) -> Self {
        Self {
            clock: clock.clone(),
            tracer: shared(SpanTracer::new(clock.clone())),
            tally: Rc::default(),
        }
    }

    /// An engine over `net` whose resolver is timed and whose spans and
    /// rounds go to the tracer.
    fn engine<'n>(&self, net: &'n Network, kind: ResolverKind) -> Engine<'n> {
        let wrapper = TimedResolver::new(kind.build(), self.clock.clone(), self.tally.clone());
        let mut engine = Engine::with_resolver(net, Box::new(wrapper));
        engine.set_tracer(self.tracer.clone());
        engine
    }
}

/// One traced instance: the workload driven through the public seams
/// with the timing resolver and the span tracer attached.
fn run_traced(
    w: Workload,
    seed: Option<u64>,
    i: u64,
    probes: &Probes,
    layers: &mut Layers,
) -> Result<Run, String> {
    let clock = &probes.clock;
    let runner = Runner::new(w.spec(seed, i)?);
    let t = clock.now_nanos();
    let net = runner.build_network().map_err(|e| e.to_string())?;
    layers.build_network_ns += clock.now_nanos() - t;
    let kind = runner.resolver_for(&net).map_err(|e| e.to_string())?;
    let params = runner.spec().params;
    let mut seeds = SeedSeq::new(params.seed);
    let mut problems = Vec::new();
    let summary = match w {
        Workload::LocalDense => {
            let mut engine = probes.engine(&net, kind);
            let density = net.density();
            let t = clock.now_nanos();
            let out = local_broadcast(&mut engine, &params, &mut seeds, density);
            layers.protocol_ns += clock.now_nanos() - t;
            layers.resolver.absorb(&engine.resolver_stats());
            if !out.complete {
                problems.push("local broadcast incomplete".into());
            }
            let report = check_clustering(&net, &out.clustering.cluster_of);
            if report.unassigned > 0 || report.max_radius > 1.0 {
                problems.push(format!("clustering check failed: {report:?}"));
            }
            Summary::of_engine(&engine)
        }
        Workload::MaintMobile => {
            let mut world = World::new(net);
            let mut models = runner.models(world.network());
            let mut summary = Summary {
                rounds: 0,
                tx: 0,
                rx: 0,
                phases: Vec::new(),
                epochs: Vec::new(),
                samples: Vec::new(),
            };
            let mut phases = PhaseTable::new();
            for _ in 0..runner.epochs() {
                let t = clock.now_nanos();
                world.step(&mut models);
                let t1 = clock.now_nanos();
                world.audit_incremental()?;
                layers.world_step_ns += t1 - t;
                layers.audit_ns += clock.now_nanos() - t1;
                let net = world.network();
                let awake = world.awake_nodes();
                let mut engine = probes.engine(net, kind);
                let gamma = net.density().max(1);
                let t = clock.now_nanos();
                let cl = clustering(&mut engine, &params, &mut seeds, &awake, gamma);
                layers.protocol_ns += clock.now_nanos() - t;
                let report = check_clustering_on(net, &cl.cluster_of, &awake);
                if report.unassigned > 0 {
                    problems.push(format!("epoch clustering left nodes out: {report:?}"));
                }
                let s = engine.stats();
                summary.rounds += s.rounds;
                summary.tx += s.transmissions;
                summary.rx += s.receptions;
                summary.epochs.push((cl.rounds, report));
                phases.merge(engine.phase_table());
                layers.resolver.absorb(&engine.resolver_stats());
            }
            summary.phases = phases.summaries().to_vec();
            summary
        }
        Workload::ResolveStream => {
            let mut engine = probes.engine(&net, kind);
            let t = clock.now_nanos();
            let samples = run_stream(&mut engine, runner.spec().seed);
            layers.protocol_ns += clock.now_nanos() - t;
            layers.resolver.absorb(&engine.resolver_stats());
            Summary {
                samples,
                ..Summary::of_engine(&engine)
            }
        }
    };
    if !probes.tracer.borrow().balanced() {
        problems.push("a phase span was left open".into());
    }
    Ok(Run { summary, problems })
}

/// The checks every instance run gets: its own, and agreement with an
/// earlier run of the same instance; the first run of a stream instance
/// is checked against the oracle instead. Returns 1 if any failed, else 0.
fn check(
    w: Workload,
    seed: Option<u64>,
    run: &Run,
    earlier: Option<&Summary>,
) -> Result<u64, String> {
    let mut problems = run.problems.clone();
    match earlier {
        Some(s) if *s != run.summary => {
            problems.push("two runs of one instance produced different results".into())
        }
        None if w == Workload::ResolveStream => {
            problems.extend(oracle_check(seed, &run.summary.samples)?)
        }
        _ => {}
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Ok(u64::from(!problems.is_empty()))
}

/// One metric of the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn end_to_end(args: &Args, clock: &WallClock) -> Result<Outcome, String> {
    let w = args.workload;
    let k = w.batch() as usize;
    let budget = args.seconds.saturating_mul(1_000_000_000);
    let t0 = clock.now_nanos();
    let mut best = vec![u64::MAX; k];
    let mut first: Vec<Summary> = Vec::new();
    let (mut reps, mut attempted, mut failed) = (0, 0, 0);
    while reps == 0 || clock.now_nanos() - t0 < budget {
        for (i, best) in best.iter_mut().enumerate() {
            let t = clock.now_nanos();
            let run = run_plain(w, args.seed, i as u64)?;
            *best = (*best).min(clock.now_nanos() - t);
            attempted += 1;
            failed += check(w, args.seed, &run, first.get(i))?;
            if first.len() == i {
                first.push(run.summary);
            }
        }
        reps += 1;
    }
    // Set-up is timed last, with caches as warm as for the workload.
    let mut best_setup = vec![u64::MAX; k];
    let (mut setups, t0) = (0, clock.now_nanos());
    while setups < SETUP_MIN_REPS || clock.now_nanos() - t0 < SETUP_MIN_NS {
        for (i, best) in best_setup.iter_mut().enumerate() {
            let t = clock.now_nanos();
            let net = Runner::new(w.spec(args.seed, i as u64)?)
                .build_network()
                .map_err(|e| e.to_string())?;
            *best = (*best).min(clock.now_nanos() - t);
            drop(net);
        }
        setups += 1;
    }
    let per_instance = |total: u64| total as f64 / k as f64;
    let wall_s = per_instance(best.iter().sum()) * 1e-9;
    let setup_s = per_instance(best_setup.iter().sum()) * 1e-9;
    let rounds = per_instance(first.iter().map(|s| s.rounds).sum());
    eprintln!(
        "{w:?}: {reps} repetitions of {k} instances, {setups} set-ups, seed {:?}",
        args.seed
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric("setup_s", setup_s, "s"),
            metric("rounds_per_s", ratio(rounds, wall_s - setup_s), "1/s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
            metric("sim_rounds", rounds, "count"),
            metric(
                "sim_tx",
                per_instance(first.iter().map(|s| s.tx).sum()),
                "count",
            ),
        ],
    })
}

fn per_layer(args: &Args, clock: &Rc<WallClock>) -> Result<Outcome, String> {
    let w = args.workload;
    let k = w.batch();
    let mut failed = 0;
    let mut plain_ns = 0;
    let mut plain = Vec::new();
    for i in 0..k {
        let t = clock.now_nanos();
        let run = run_plain(w, args.seed, i)?;
        plain_ns += clock.now_nanos() - t;
        failed += check(w, args.seed, &run, None)?;
        plain.push(run.summary);
    }
    let probes = Probes::new(clock);
    let mut l = Layers::default();
    let mut traced_ns = 0;
    for (i, reference) in (0..k).zip(&plain) {
        let t = clock.now_nanos();
        let run = run_traced(w, args.seed, i, &probes, &mut l)?;
        traced_ns += clock.now_nanos() - t;
        failed += check(w, args.seed, &run, Some(reference))?;
    }

    // Counts and times below are per instance, like the end-to-end ones.
    let per = |x: f64| x / k as f64;
    let tr = probes.tracer.borrow();
    let ta = probes.tally.borrow();
    let rs = l.resolver;
    let mut metrics = vec![metric(
        "scenario.build_network_s",
        per(secs(l.build_network_ns)),
        "s",
    )];
    for phase in PHASES {
        let cost = tr.phases.get(phase).copied().unwrap_or_default();
        metrics.push(metric(
            format!("core.{phase}.self_s"),
            per(secs(cost.self_ns)),
            "s",
        ));
        metrics.push(metric(
            format!("core.{phase}.rounds"),
            per(cost.self_rounds as f64),
            "count",
        ));
    }
    let fallbacks = rs.exact_fallbacks as f64;
    metrics.extend([
        metric("engine.rounds", per(tr.rounds as f64), "count"),
        metric(
            "engine.silent_rounds",
            per(tr.silent_rounds as f64),
            "count",
        ),
        metric(
            "engine.single_tx_rounds",
            per(tr.single_tx_rounds as f64),
            "count",
        ),
        metric(
            "engine.other_s",
            per(secs(l.protocol_ns) - secs(ta.resolve_ns)),
            "s",
        ),
        metric("radio.resolve_s", per(secs(ta.resolve_ns)), "s"),
        metric("radio.calls", per(ta.calls as f64), "count"),
        metric(
            "radio.nonempty_calls",
            per(ta.nonempty_calls as f64),
            "count",
        ),
        metric(
            "radio.ns_per_nonempty_call",
            ratio(ta.nonempty_ns as f64, ta.nonempty_calls as f64),
            "ns",
        ),
        metric(
            "radio.repeat_share",
            ratio(ta.repeats as f64, ta.nonempty_calls as f64),
            "ratio",
        ),
        metric("radio.candidates", per(rs.candidates as f64), "count"),
        metric(
            "radio.short_circuited",
            per(rs.short_circuited as f64),
            "count",
        ),
        metric("radio.exact_sums", per(rs.exact_sums as f64), "count"),
        metric(
            "radio.useful_ratio",
            ratio(ta.receptions as f64, rs.candidates as f64),
            "ratio",
        ),
        metric(
            "field.residual_decided",
            per(rs.residual_decided as f64),
            "count",
        ),
        metric("field.exact_fallbacks", per(fallbacks), "count"),
        metric(
            "field.fallback_ratio",
            ratio(fallbacks, rs.residual_decided as f64 + fallbacks),
            "ratio",
        ),
        metric("dynamics.world_step_s", per(secs(l.world_step_ns)), "s"),
        metric("dynamics.audit_s", per(secs(l.audit_ns)), "s"),
        metric(
            "trace_overhead_s",
            per(secs(traced_ns) - secs(plain_ns)),
            "s",
        ),
    ]);
    eprintln!(
        "{w:?}, per instance: untraced {:.4} s, traced {:.4} s, protocol calls {:.4} s",
        per(secs(plain_ns)),
        per(secs(traced_ns)),
        per(secs(l.protocol_ns))
    );
    Ok(Outcome {
        attempted: 2 * k,
        failed,
        metrics,
    })
}

fn print(o: &Outcome) {
    for m in &o.metrics {
        println!("{:<32} {:>24} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = o.failed as f64 / o.attempted as f64;
    println!("{:<32} {:>24} ratio", "fail_ratio", fail_ratio);
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let clock = Rc::new(WallClock::new());
    let outcome = if args.trace {
        per_layer(&args, &clock)
    } else {
        end_to_end(&args, &clock)
    };
    match outcome {
        Ok(o) => {
            print(&o);
            if o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
