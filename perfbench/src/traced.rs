//! The traced run: the same jobs, timed layer by layer from outside the
//! library. A forwarding [`Protocol`] wrapper times the protocol
//! handlers, a forwarding [`RunObserver`] wrapper times each observer,
//! the post-hoc calls are timed one by one, and the explorer's leaf
//! visitor is timed per leaf. Kernel self time is what remains of a
//! run's wall time after its handler and observer time.
//!
//! Spans (one per job and per layer call; per-event layers as one
//! aggregate span per job) are kept in memory and written to
//! `out/spans-<workload>-<seed>.jsonl` when the run ends.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use msgorder::predicate::eval;
use msgorder::protocols::OnlineMonitor;
use msgorder::runs::{limit_sets, MessageId, ProcessId, StreamingRun, SystemEvent};
use msgorder::simnet::{Ctx, FaultRecord, Protocol, RunObserver, Simulation, WireRecord};
use msgorder::trace::{assemble_trace, reconstruct, Fanout, LiveMetrics, Recorder, SharedRegistry};

use crate::jobs::{self, Bench, Done, Expected, Input, Job, N, SWEEP_SIZES};
use crate::{metric, stats, Metric, Tally};

/// Time and call count of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    fn add(&mut self, since: Instant) {
        self.ns += nanos(since.elapsed());
        self.calls += 1;
    }

    fn per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A forwarding protocol that adds the time of every handler call to a
/// shared accumulator.
pub struct TimedProtocol<P> {
    inner: P,
    acc: Rc<Cell<Acc>>,
}

impl<P> TimedProtocol<P> {
    pub fn new(inner: P, acc: Rc<Cell<Acc>>) -> Self {
        TimedProtocol { inner, acc }
    }

    fn timed(&mut self, call: impl FnOnce(&mut P)) {
        let t = Instant::now();
        call(&mut self.inner);
        let mut a = self.acc.get();
        a.add(t);
        self.acc.set(a);
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(|p| p.on_init(ctx));
    }
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        self.timed(|p| p.on_send_request(ctx, msg));
    }
    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        self.timed(|p| p.on_user_frame(ctx, from, msg, tag));
    }
    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        self.timed(|p| p.on_control_frame(ctx, from, bytes));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        self.timed(|p| p.on_timer(ctx, id));
    }
}

/// A forwarding observer that times every notification. With a probe,
/// it also tracks the peak of a size the observer reports after each
/// delivery (inside the timed window).
pub struct TimedObserver<'a, O> {
    inner: &'a mut O,
    pub acc: Acc,
    probe: Option<fn(&O) -> usize>,
    pub peak: usize,
}

impl<'a, O: RunObserver> TimedObserver<'a, O> {
    pub fn new(inner: &'a mut O) -> Self {
        TimedObserver {
            inner,
            acc: Acc::default(),
            probe: None,
            peak: 0,
        }
    }

    pub fn probed(inner: &'a mut O, probe: fn(&O) -> usize) -> Self {
        TimedObserver {
            probe: Some(probe),
            ..TimedObserver::new(inner)
        }
    }
}

impl<O: RunObserver> RunObserver for TimedObserver<'_, O> {
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool {
        let t = Instant::now();
        let go = self.inner.on_event(view, ev, index, time);
        if let Some(probe) = self.probe {
            if ev.kind == msgorder::runs::EventKind::Deliver {
                self.peak = self.peak.max(probe(self.inner));
            }
        }
        self.acc.add(t);
        go
    }
    fn on_wire(&mut self, wire: &WireRecord) {
        let t = Instant::now();
        self.inner.on_wire(wire);
        self.acc.add(t);
    }
    fn on_fault(&mut self, fault: &FaultRecord) {
        let t = Instant::now();
        self.inner.on_fault(fault);
        self.acc.add(t);
    }
    fn wants_wire(&self) -> bool {
        self.inner.wants_wire()
    }
}

/// One span: a job (`parent` = `None`) or a layer call within it.
/// Per-event layers are one span per job whose `count` is the number
/// of calls folded into it.
#[derive(Debug, Clone)]
pub struct Span {
    pub job: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub count: u64,
}

/// The traced run's in-memory span log.
pub struct Spans {
    origin: Instant,
    pub jobs: Vec<String>,
    pub spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            jobs: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn job(&mut self, key: &str) -> usize {
        self.jobs.push(key.to_owned());
        self.jobs.len() - 1
    }

    /// Records a call that started at `start` and ends now; returns its
    /// duration in nanoseconds.
    fn call(&mut self, job: usize, name: &'static str, start: Instant) -> u64 {
        let dur_ns = nanos(start.elapsed());
        self.spans.push(Span {
            job,
            name,
            parent: (name != "job").then_some("job"),
            start_ns: nanos(start.duration_since(self.origin)),
            dur_ns,
            count: 1,
        });
        dur_ns
    }

    fn aggregate(&mut self, job: usize, name: &'static str, acc: Acc) {
        self.spans.push(Span {
            job,
            name,
            parent: Some("job"),
            start_ns: 0,
            dur_ns: acc.ns,
            count: acc.calls,
        });
    }

    fn render(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"job\": \"{}\", \"span\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"count\": {}}}\n",
                    self.jobs[s.job],
                    s.name,
                    s.parent.map_or_else(|| "null".to_owned(), |p| format!("\"{p}\"")),
                    s.start_ns,
                    s.dur_ns,
                    s.count
                )
            })
            .collect()
    }
}

/// The post-hoc layers, in call order.
pub const POSTHOC_LAYERS: [&str; 5] = [
    "simnet.run_uniform",
    "runs.users_view",
    "runs.limit_sets.in_x_co",
    "runs.limit_sets.in_x_sync",
    "predicate.eval.find_instantiation",
];

/// A post-hoc job, each library call timed: returns the outcome and
/// the nanoseconds per layer of [`POSTHOC_LAYERS`].
pub fn posthoc(job: &Job, spans: &mut Spans) -> Result<(Done, [u64; 5]), String> {
    let Input::Posthoc { config, workload } = &job.input else {
        return Err(format!("{}: not a post-hoc job", job.key));
    };
    let id = spans.job(&job.key);
    let (config, workload) = (config.clone(), workload.clone());
    let handler = Rc::new(Cell::new(Acc::default()));
    let start = Instant::now();
    let mut t = Instant::now();
    let sim = Simulation::run_uniform(config, workload, |node| {
        TimedProtocol::new(job.kind.instantiate_with(N, node, false), handler.clone())
    })
    .map_err(|e| e.to_string())?;
    let mut ns = [0u64; 5];
    ns[0] = spans.call(id, POSTHOC_LAYERS[0], t);
    t = Instant::now();
    let view = sim.run.users_view();
    ns[1] = spans.call(id, POSTHOC_LAYERS[1], t);
    t = Instant::now();
    let in_x_co = limit_sets::in_x_co(&view);
    ns[2] = spans.call(id, POSTHOC_LAYERS[2], t);
    t = Instant::now();
    let in_x_sync = limit_sets::in_x_sync(&view);
    ns[3] = spans.call(id, POSTHOC_LAYERS[3], t);
    t = Instant::now();
    let witness = eval::find_instantiation(&job.spec, &view);
    ns[4] = spans.call(id, POSTHOC_LAYERS[4], t);
    spans.call(id, "job", start);
    spans.aggregate(id, "protocols.handler", handler.get());
    let done = Done::Posthoc(Box::new(jobs::Posthoc {
        sim,
        view,
        in_x_co,
        in_x_sync,
        witness,
    }));
    Ok((done, ns))
}

/// Per-layer accounting of traced online jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct OnlineLayers {
    pub run_ns: u64,
    pub events: u64,
    pub handler: Acc,
    pub recorder: Acc,
    pub live_metrics: Acc,
    pub monitor: Acc,
    pub monitor_peak: usize,
    pub arena_ns: u64,
    pub run_events: u64,
    pub jsonl_ns: u64,
    pub jsonl_bytes: u64,
}

impl OnlineLayers {
    fn merge(&mut self, o: &OnlineLayers) {
        self.run_ns += o.run_ns;
        self.events += o.events;
        for (a, b) in [
            (&mut self.handler, o.handler),
            (&mut self.recorder, o.recorder),
            (&mut self.live_metrics, o.live_metrics),
            (&mut self.monitor, o.monitor),
        ] {
            a.ns += b.ns;
            a.calls += b.calls;
        }
        self.monitor_peak = self.monitor_peak.max(o.monitor_peak);
        self.arena_ns += o.arena_ns;
        self.run_events += o.run_events;
        self.jsonl_ns += o.jsonl_ns;
        self.jsonl_bytes += o.jsonl_bytes;
    }

    /// Kernel time outside the handlers and observers.
    fn kernel_self_ns(&self) -> u64 {
        self.run_ns.saturating_sub(
            self.handler.ns + self.recorder.ns + self.live_metrics.ns + self.monitor.ns,
        )
    }
}

/// An online job with every layer timed: `trace::record_with_extra`
/// unrolled into its public parts (`run_streaming` over a `Fanout` of
/// the recorder, live metrics and halting monitor, then
/// `assemble_trace`), each part wrapped. The arena is timed afterwards
/// by rebuilding it from the trace with `trace::reconstruct`, which the
/// job itself does not need; the returned job time leaves it out.
pub fn online(job: &Job, spans: &mut Spans) -> Result<(Done, OnlineLayers, u64), String> {
    let Input::Online { setup } = &job.input else {
        return Err(format!("{}: not an online job", job.key));
    };
    let id = spans.job(&job.key);
    let handler = Rc::new(Cell::new(Acc::default()));
    let start = Instant::now();
    let sim = Simulation::new(setup.config(), setup.workload.clone(), |node| {
        TimedProtocol::new(job.kind.instantiate_with(N, node, true), handler.clone())
    })
    .with_step_limit(setup.step_limit);
    let mut recorder = Recorder::with_capacity(setup.workload.len() * 8);
    let mut live = LiveMetrics::new(SharedRegistry::new());
    let mut monitor = OnlineMonitor::halting(&job.spec);
    let mut layers = OnlineLayers::default();
    let t = Instant::now();
    let outcome = {
        let mut rec = TimedObserver::new(&mut recorder);
        let mut lm = TimedObserver::new(&mut live);
        let mut mon = TimedObserver::probed(&mut monitor, OnlineMonitor::live_state);
        let outcome = sim.run_streaming(&mut Fanout(vec![&mut rec, &mut lm, &mut mon]));
        layers.recorder = rec.acc;
        layers.live_metrics = lm.acc;
        layers.monitor = mon.acc;
        layers.monitor_peak = mon.peak;
        outcome
    };
    layers.run_ns = spans.call(id, "simnet.run_streaming", t);
    layers.handler = handler.get();
    layers.events = match &outcome {
        Ok(r) => r.stats.dispatched_events as u64,
        Err(e) => e.stats.dispatched_events as u64,
    };
    let t = Instant::now();
    let trace =
        assemble_trace(setup, recorder.events, &outcome, None).map_err(|e| e.to_string())?;
    spans.call(id, "trace.assemble", t);
    let t = Instant::now();
    let jsonl = trace.to_jsonl().map_err(|e| e.to_string())?;
    layers.jsonl_ns = spans.call(id, "trace.jsonl", t);
    layers.jsonl_bytes = jsonl.len() as u64;
    let job_ns = spans.call(id, "job", start);
    let t = Instant::now();
    let arena = reconstruct(&trace).map_err(|e| e.to_string())?;
    layers.arena_ns = spans.call(id, "runs.arena", t);
    layers.run_events = trace.run_events().count() as u64;
    drop(arena);
    for (name, acc) in [
        ("protocols.handler", layers.handler),
        ("trace.recorder", layers.recorder),
        ("trace.live_metrics", layers.live_metrics),
        ("protocols.monitor", layers.monitor),
    ] {
        spans.aggregate(id, name, acc);
    }
    let done = jobs::finish_online(trace, outcome, jsonl.len(), &monitor)?;
    Ok((done, layers, job_ns))
}

/// Per-layer accounting of traced explore jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExploreLayers {
    pub wall_ns: u64,
    pub leaf: Acc,
    pub schedules: u64,
    pub sleep_skipped: u64,
}

/// An explore job on one thread with every leaf visit timed.
pub fn explore(job: &Job, spans: &mut Spans) -> Result<(Done, ExploreLayers), String> {
    let Input::Explore { workload } = &job.input else {
        return Err(format!("{}: not an explore job", job.key));
    };
    let id = spans.job(&job.key);
    let (leaf_ns, leaves) = (AtomicU64::new(0), AtomicU64::new(0));
    let start = Instant::now();
    let done = jobs::explore(job, workload, 1, false, &|leaf: &dyn Fn()| {
        let t = Instant::now();
        leaf();
        leaf_ns.fetch_add(nanos(t.elapsed()), Ordering::Relaxed);
        leaves.fetch_add(1, Ordering::Relaxed);
    })?;
    let wall_ns = spans.call(id, "job", start);
    let leaf = Acc {
        ns: leaf_ns.into_inner(),
        calls: leaves.into_inner(),
    };
    spans.aggregate(id, "simnet.explore.leaf", leaf);
    let Done::Explore(e) = &done else {
        unreachable!("jobs::explore returns an exploration")
    };
    let layers = ExploreLayers {
        wall_ns,
        leaf,
        schedules: e.out.schedules as u64,
        sleep_skipped: e.out.sleep_skipped as u64,
    };
    Ok((done, layers))
}

/// Runs one job traced, returning its outcome and its job time (the
/// span the untraced run would time).
fn traced_job(job: &Job, spans: &mut Spans) -> Result<(Done, u64), String> {
    match &job.input {
        Input::Posthoc { .. } => posthoc(job, spans).map(|(d, ns)| (d, ns.iter().sum())),
        Input::Online { .. } => online(job, spans).map(|(d, _, ns)| (d, ns)),
        Input::Explore { .. } => explore(job, spans).map(|(d, l)| (d, l.wall_ns)),
    }
}

fn count(tally: &mut Tally, expected: &Expected, job: &Job, done: &Result<Done, String>) {
    tally.count(&match done {
        Ok(d) => expected.check(job, d, true),
        Err(e) => vec![format!("{}: {e}", job.key)],
    });
}

/// Pool seeds the layer measurements run on: every traced run measures
/// the same jobs, in an order drawn from its `--seed`.
const POSTHOC_LAYER_SEEDS: [u64; 1] = [1];
const ONLINE_LAYER_SEEDS: [u64; 4] = [1, 2, 3, 4];
const EXPLORE_LAYER_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The traced run of `bench`: tracing overhead and transparency on its
/// own job list for half of `seconds`, then the layer measurements of
/// all three workloads (about 20 s on a 2.1 GHz Xeon), so that a traced
/// run takes about as long as an untraced one.
pub fn run(
    bench: Bench,
    seed: u64,
    list: &[Job],
    expected: &Expected,
    seconds: u64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut spans = Spans::new();
    let mut out = Vec::new();
    out.push(metric(
        "bench.tracing_overhead_pct",
        overhead(list, expected, seconds.div_ceil(2), &mut spans, tally),
        "%",
    ));
    let mut rng = jobs::Rng::new(seed);
    out.extend(posthoc_layers(&mut rng, expected, &mut spans, tally));
    out.extend(online_layers(&mut rng, expected, &mut spans, tally));
    out.extend(explore_layers(&mut rng, expected, &mut spans, tally));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", bench.name()));
    let written = std::fs::create_dir_all(path.parent().expect("the span path has a directory"))
        .and_then(|()| std::fs::write(&path, spans.render()));
    match written {
        Ok(()) => println!(
            "spans                    {} ({} spans)",
            path.display(),
            spans.spans.len()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    for m in &out {
        println!("{:<40} {} {}", m.name, m.value, m.unit);
    }
    out
}

/// Alternates each job untraced and traced for `seconds`; checks both
/// outcomes and that the traced answer equals the untraced one. Returns
/// how much longer the traced jobs took, in percent.
fn overhead(
    list: &[Job],
    expected: &Expected,
    seconds: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> f64 {
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut next = 0usize;
    while Instant::now() < deadline {
        let job = &list[next % list.len()];
        let first = next < list.len();
        next += 1;
        let t = Instant::now();
        let plain = jobs::run(job, false);
        plain_ns += nanos(t.elapsed());
        let traced = traced_job(job, spans);
        let mut problems = match (&plain, &traced) {
            (Ok(p), Ok((t, ns))) => {
                traced_ns += ns;
                let (a, b) = (jobs::answer(p), jobs::answer(t));
                let mut bad = expected.check(job, t, first);
                if a != b {
                    bad.push(format!(
                        "{}: traced answer `{b}` differs from untraced `{a}`",
                        job.key
                    ));
                }
                bad
            }
            (Err(e), _) | (_, Err(e)) => vec![format!("{}: {e}", job.key)],
        };
        if let Ok(p) = &plain {
            problems.extend(expected.check(job, p, false));
        }
        tally.count(&problems);
    }
    (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0) * 100.0
}

fn posthoc_layers(
    rng: &mut jobs::Rng,
    expected: &Expected,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    // per_size[s][layer]: summed over the pairs and seeds.
    let mut per_size = [[0u64; 5]; SWEEP_SIZES.len()];
    let mut list: Vec<Job> = POSTHOC_LAYER_SEEDS
        .iter()
        .flat_map(|&s| jobs::sweep_jobs(s))
        .collect();
    rng.shuffle(&mut list);
    println!("post-hoc layers, n={N}, seeds {POSTHOC_LAYER_SEEDS:?} (ms):");
    println!(
        "{:<12} {:>6} {:>4} {}",
        "protocol",
        "m",
        "seed",
        POSTHOC_LAYERS.map(|l| format!("{l:>34}")).join("")
    );
    for job in &list {
        let done = posthoc(job, spans);
        if let Ok((_, ns)) = &done {
            let s = SWEEP_SIZES
                .iter()
                .position(|&m| m == job.m)
                .expect("sweep size");
            for (acc, v) in per_size[s].iter_mut().zip(ns) {
                *acc += v;
            }
            let cols: String = ns
                .iter()
                .map(|v| format!("{:>34.3}", *v as f64 / 1e6))
                .collect();
            println!("{:<12} {:>6} {:>4} {cols}", job.protocol, job.m, job.seed);
        }
        count(tally, expected, job, &done.map(|(d, _)| d));
    }
    let pairs = (jobs::POSTHOC_PAIRS.len() * POSTHOC_LAYER_SEEDS.len()) as f64;
    let mid = SWEEP_SIZES
        .iter()
        .position(|&m| m == 2000)
        .expect("2000 is a sweep size");
    let mut out = Vec::new();
    for (l, name) in POSTHOC_LAYERS.iter().enumerate() {
        out.push(metric(
            format!("{name}.ms"),
            per_size[mid][l] as f64 / pairs / 1e6,
            "ms",
        ));
        let points: Vec<(f64, f64)> = SWEEP_SIZES
            .iter()
            .zip(&per_size)
            .map(|(&m, row)| (m as f64, row[l] as f64))
            .collect();
        out.push(metric(
            format!("{name}.exponent"),
            stats::exponent(&points).unwrap_or(0.0),
            "1",
        ));
    }
    out
}

fn online_layers(
    rng: &mut jobs::Rng,
    expected: &Expected,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut list: Vec<Job> = jobs::shapes(Bench::Online)
        .into_iter()
        .flat_map(|(p, s, m)| {
            ONLINE_LAYER_SEEDS
                .iter()
                .map(move |&seed| jobs::job(Bench::Online, p, s, m, seed))
        })
        .collect();
    rng.shuffle(&mut list);
    let mut total = OnlineLayers::default();
    // Monitor time of the draining (safe) jobs, per size.
    let mut monitor_ns = [0u64; jobs::ONLINE_SIZES.len()];
    for job in &list {
        let done = online(job, spans);
        if let Ok((_, layers, _)) = &done {
            total.merge(layers);
            if job.protocol != "fifo" {
                let s = jobs::ONLINE_SIZES
                    .iter()
                    .position(|&m| m == job.m)
                    .expect("online size");
                monitor_ns[s] += layers.monitor.ns;
            }
        }
        count(tally, expected, job, &done.map(|(d, _, _)| d));
    }
    let monitor_by_size: Vec<(f64, f64)> = jobs::ONLINE_SIZES
        .iter()
        .zip(monitor_ns)
        .map(|(&m, ns)| (m as f64, ns as f64))
        .collect();
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    vec![
        metric(
            "protocols.monitor.ns_per_event",
            total.monitor.per_call(),
            "ns",
        ),
        metric(
            "protocols.monitor.exponent",
            stats::exponent(&monitor_by_size).unwrap_or(0.0),
            "1",
        ),
        metric(
            "protocols.monitor.live_state_peak",
            total.monitor_peak as f64,
            "entries",
        ),
        metric(
            "simnet.kernel.self_ns_per_event",
            per(total.kernel_self_ns(), total.events),
            "ns",
        ),
        metric("simnet.kernel.events", total.events as f64, "count"),
        metric(
            "protocols.handler.ns_per_call",
            total.handler.per_call(),
            "ns",
        ),
        metric(
            "protocols.handler.calls",
            total.handler.calls as f64,
            "count",
        ),
        metric(
            "runs.arena.ns_per_event",
            per(total.arena_ns, total.run_events),
            "ns",
        ),
        metric(
            "trace.recorder.ns_per_event",
            total.recorder.per_call(),
            "ns",
        ),
        metric(
            "trace.live_metrics.ns_per_event",
            total.live_metrics.per_call(),
            "ns",
        ),
        metric(
            "trace.jsonl.ns_per_byte",
            per(total.jsonl_ns, total.jsonl_bytes),
            "ns",
        ),
    ]
}

/// Explore jobs traced on one thread, then the same jobs untraced on
/// one and on two threads for the parallel speed-up.
fn explore_layers(
    rng: &mut jobs::Rng,
    expected: &Expected,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut list: Vec<Job> = EXPLORE_LAYER_SEEDS
        .iter()
        .map(|&seed| jobs::job(Bench::Explore, "async", "causal", jobs::EXPLORE_M, seed))
        .collect();
    rng.shuffle(&mut list);
    let mut total = ExploreLayers::default();
    for job in &list {
        let done = explore(job, spans);
        if let Ok((_, l)) = &done {
            total.wall_ns += l.wall_ns;
            total.leaf.ns += l.leaf.ns;
            total.leaf.calls += l.leaf.calls;
            total.schedules += l.schedules;
            total.sleep_skipped += l.sleep_skipped;
        }
        count(tally, expected, job, &done.map(|(d, _)| d));
    }
    let mut wall = [0u64; 2];
    for job in &list {
        let Input::Explore { workload } = &job.input else {
            unreachable!("explore jobs have explore inputs")
        };
        for (threads, w) in [1usize, 2].into_iter().zip(wall.iter_mut()) {
            let t = Instant::now();
            let done = jobs::explore(job, workload, threads, false, &|leaf| leaf());
            *w += nanos(t.elapsed());
            count(tally, expected, job, &done);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("explore speed-up measured with available_parallelism = {cores}");
    let n = list.len() as f64;
    vec![
        metric(
            "simnet.explore.self_ms",
            total.wall_ns.saturating_sub(total.leaf.ns) as f64 / n / 1e6,
            "ms",
        ),
        metric(
            "simnet.explore.schedules",
            total.schedules as f64 / n,
            "count",
        ),
        metric(
            "simnet.explore.sleep_skipped",
            total.sleep_skipped as f64 / n,
            "count",
        ),
        metric("simnet.explore.leaf_ns", total.leaf.per_call(), "ns"),
        metric(
            "simnet.explore.leaf_share",
            total.leaf.ns as f64 / total.wall_ns.max(1) as f64,
            "ratio",
        ),
        metric(
            "simnet.explore.speedup_2t",
            wall[0] as f64 / wall[1].max(1) as f64,
            "x",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrappers forward every call unchanged: the traced outcome of
    /// a job has the same answer (verdicts, run digest, trace
    /// fingerprint, explorer digest) as the untraced one.
    #[test]
    fn wrappers_are_transparent() {
        let mut spans = Spans::new();
        for (bench, protocol, spec, m) in [
            (Bench::Posthoc, "sync", "sync-crown-3", 40),
            (Bench::Posthoc, "async", "causal", 40),
            (Bench::Online, "causal-rst", "causal", 120),
            (Bench::Online, "fifo", "causal", 200),
            (Bench::Explore, "async", "causal", 4),
        ] {
            let job = jobs::job(bench, protocol, spec, m, 2);
            let plain = jobs::answer(&jobs::run(&job, false).expect("untraced job runs"));
            let (traced, _) = traced_job(&job, &mut spans).expect("traced job runs");
            assert_eq!(jobs::answer(&traced), plain, "{}", job.key);
            assert!(
                jobs::invariants(&job, &traced, true).is_empty(),
                "{}",
                job.key
            );
        }
        assert!(spans
            .spans
            .iter()
            .any(|s| s.name == "protocols.handler" && s.count > 0));
        assert!(spans.render().lines().count() == spans.spans.len());
    }
}
