//! The three workloads: their job pools, the seeded job lists drawn
//! from them, one verdict job run through the library's public calls,
//! and the known-answer checks every verdict must pass.
//!
//! Every job a run can meet (the pools, plus the traced run's larger
//! post-hoc sweep) has its answer captured in `expected.tsv`, so every
//! verdict a run computes is compared against a known answer.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use msgorder::predicate::{catalog, eval, ForbiddenPredicate};
use msgorder::protocols::{OnlineMonitor, ProtocolKind};
use msgorder::runs::{
    limit_sets, MessageId, ProcessId, SystemRun, UserEvent, UserRun, UserRunSnapshot,
};
use msgorder::simnet::{
    explore_parallel_with, Exploration, ExploreOptions, FaultModel, LatencyModel, SimConfig,
    SimResult, Simulation, StreamResult, Workload,
};
use msgorder::trace::{record_with_extra, Fanout, LiveMetrics, Setup, SharedRegistry, Trace};

/// Processes in the `posthoc` and `online` jobs.
pub const N: usize = 8;
/// Processes and messages in the `explore` jobs.
pub const EXPLORE_N: usize = 3;
pub const EXPLORE_M: usize = 7;
pub const LATENCY: LatencyModel = LatencyModel::Uniform { lo: 1, hi: 800 };
pub const POSTHOC_SIZES: [usize; 3] = [500, 1000, 2000];
pub const ONLINE_SIZES: [usize; 2] = [1000, 2000];
/// (protocol, spec) pairs of the `posthoc` workload.
pub const POSTHOC_PAIRS: [(&str, &str); 4] = [
    ("async", "causal"),
    ("fifo", "fifo"),
    ("causal-rst", "causal"),
    ("sync", "sync-crown-3"),
];
/// Protocols of the `online` workload, all checked against `causal`.
pub const ONLINE_PROTOCOLS: [&str; 3] = ["causal-rst", "sync", "fifo"];
const DROP: f64 = 0.02;
const DUP: f64 = 0.01;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bench {
    Posthoc,
    Online,
    Explore,
}

impl Bench {
    pub const ALL: [Bench; 3] = [Bench::Posthoc, Bench::Online, Bench::Explore];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Posthoc => "posthoc",
            Bench::Online => "online",
            Bench::Explore => "explore",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Simulation seeds each job shape is captured for.
    pub fn pool_seeds(self) -> u64 {
        match self {
            Bench::Posthoc => 6,
            Bench::Online => 16,
            Bench::Explore => 64,
        }
    }
}

/// One verdict job: everything the library needs, generated up front.
#[derive(Debug, Clone)]
pub struct Job {
    /// Key of the job's line in the expected-answer file.
    pub key: String,
    pub protocol: &'static str,
    pub spec_name: &'static str,
    pub spec: ForbiddenPredicate,
    pub kind: ProtocolKind,
    pub m: usize,
    /// Simulation seed (a pool seed).
    pub seed: u64,
    pub input: Input,
}

impl Job {
    /// Whether the job checks its witnesses inside the run (an explore
    /// job checks every leaf's), so that a checked run costs more than
    /// the plain one a user runs.
    pub fn checks_leaves(&self) -> bool {
        matches!(self.input, Input::Explore { .. })
    }
}

/// The generated inputs of a job.
#[derive(Debug, Clone)]
pub enum Input {
    /// `Simulation::run_uniform` on a quiet network, then the post-hoc
    /// checks.
    Posthoc {
        config: SimConfig,
        workload: Workload,
    },
    /// `trace::record_with_extra` with the online monitor and live
    /// metrics beside the recorder.
    Online { setup: Setup },
    /// Exhaustive exploration with a per-leaf spec check.
    Explore { workload: Workload },
}

fn predicate(name: &str) -> ForbiddenPredicate {
    catalog::by_name(name)
        .unwrap_or_else(|| panic!("`{name}` is a catalog spec"))
        .predicate
}

fn protocol(name: &str) -> ProtocolKind {
    ProtocolKind::by_name(name, None).unwrap_or_else(|| panic!("`{name}` is a fixed protocol"))
}

/// The job of `bench` running `protocol_name` against `spec_name` on
/// `m` messages with simulation seed `seed`.
pub fn job(
    bench: Bench,
    protocol_name: &'static str,
    spec_name: &'static str,
    m: usize,
    seed: u64,
) -> Job {
    let input = match bench {
        Bench::Posthoc => Input::Posthoc {
            config: SimConfig::new(N, LATENCY, seed),
            workload: Workload::uniform_random(N, m, seed),
        },
        Bench::Online => Input::Online {
            setup: Setup {
                processes: N,
                latency: LATENCY,
                seed,
                faults: FaultModel::none()
                    .with_drop(DROP)
                    .and_then(|f| f.with_duplication(DUP))
                    .expect("fixed fault probabilities are valid"),
                workload: Workload::uniform_random(N, m, seed),
                protocol: protocol_name.to_owned(),
                reliable: true,
                spec: None,
                step_limit: 1_000_000,
            },
        },
        Bench::Explore => Input::Explore {
            workload: Workload::uniform_random(EXPLORE_N, m, seed),
        },
    };
    Job {
        key: format!("{}/{protocol_name}/{spec_name}/{m}/{seed}", bench.name()),
        protocol: protocol_name,
        spec_name,
        spec: predicate(spec_name),
        kind: protocol(protocol_name),
        m,
        seed,
        input,
    }
}

/// The job shapes of a workload: (protocol, spec, messages).
pub fn shapes(bench: Bench) -> Vec<(&'static str, &'static str, usize)> {
    match bench {
        Bench::Posthoc => POSTHOC_PAIRS
            .iter()
            .flat_map(|&(p, s)| POSTHOC_SIZES.iter().map(move |&m| (p, s, m)))
            .collect(),
        Bench::Online => ONLINE_PROTOCOLS
            .iter()
            .flat_map(|&p| ONLINE_SIZES.iter().map(move |&m| (p, "causal", m)))
            .collect(),
        Bench::Explore => vec![("async", "causal", EXPLORE_M)],
    }
}

/// Every job with a captured answer: each shape at every pool seed.
pub fn pool(bench: Bench) -> Vec<Job> {
    shapes(bench)
        .into_iter()
        .flat_map(|(p, s, m)| (1..=bench.pool_seeds()).map(move |seed| job(bench, p, s, m, seed)))
        .collect()
}

/// Message counts of the traced run's post-hoc layer sweep (the
/// ROADMAP baseline table's sizes).
pub const SWEEP_SIZES: [usize; 3] = [1000, 2000, 4000];

/// The traced run's post-hoc layer sweep: every pair at every
/// [`SWEEP_SIZES`] count on pool seed `seed`.
pub fn sweep_jobs(seed: u64) -> Vec<Job> {
    POSTHOC_PAIRS
        .iter()
        .flat_map(|&(p, s)| {
            SWEEP_SIZES
                .iter()
                .map(move |&m| job(Bench::Posthoc, p, s, m, seed))
        })
        .collect()
}

/// Every job a run of `bench` may meet, timed or traced: the pool plus,
/// for `posthoc`, the sweep sizes the pool lacks.
pub fn captured(bench: Bench) -> Vec<Job> {
    let mut all = pool(bench);
    if bench == Bench::Posthoc {
        let extra = (1..=bench.pool_seeds())
            .flat_map(sweep_jobs)
            .filter(|j| !POSTHOC_SIZES.contains(&j.m));
        all.extend(extra);
    }
    all
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d73_676f_7264_6572)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The job list of one run: the whole pool in an order drawn from
/// `seed`. The same seed gives the same list. Every run measures the
/// same mix of jobs, so runs with different seeds stay comparable; the
/// seed decides the order they run in, and so what each job finds left
/// behind in the allocator and caches by the jobs before it.
pub fn job_list(bench: Bench, seed: u64) -> Vec<Job> {
    let mut jobs = pool(bench);
    Rng::new(seed).shuffle(&mut jobs);
    jobs
}

/// What one job computed, kept until its checks have run (outside the
/// timed region).
pub enum Done {
    Posthoc(Box<Posthoc>),
    Online(Box<Online>),
    Explore(Explored),
}

pub struct Posthoc {
    pub sim: SimResult,
    pub view: UserRun,
    pub in_x_co: bool,
    pub in_x_sync: bool,
    pub witness: Option<Vec<MessageId>>,
}

pub struct Online {
    pub trace: Trace,
    pub outcome: StreamResult,
    pub jsonl_bytes: usize,
    pub witness: Option<Vec<MessageId>>,
    pub detection: Option<usize>,
}

pub struct Explored {
    pub out: Exploration,
    pub violating: usize,
    /// Violating leaves whose witness failed `check_instantiation`;
    /// `None` when the leaves' witnesses were not checked.
    pub invalid_witnesses: Option<usize>,
    /// Digests of the distinct violating configurations.
    pub configs: BTreeSet<u64>,
}

/// Runs `job` through the library's public calls, untraced: the path a
/// user of the library or the `msgorder` CLI takes. With `deep`, an
/// explore job also checks every leaf's witness inside the exploration
/// (the other workloads check their witnesses afterwards).
pub fn run(job: &Job, deep: bool) -> Result<Done, String> {
    match &job.input {
        Input::Posthoc { config, workload } => {
            let sim = Simulation::run_uniform(config.clone(), workload.clone(), |node| {
                job.kind.instantiate_with(N, node, false)
            })
            .map_err(|e| e.to_string())?;
            let view = sim.run.users_view();
            let in_x_co = limit_sets::in_x_co(&view);
            let in_x_sync = limit_sets::in_x_sync(&view);
            let witness = eval::find_instantiation(&job.spec, &view);
            Ok(Done::Posthoc(Box::new(Posthoc {
                sim,
                view,
                in_x_co,
                in_x_sync,
                witness,
            })))
        }
        Input::Online { setup } => {
            let mut live = LiveMetrics::new(SharedRegistry::new());
            let mut monitor = OnlineMonitor::halting(&job.spec);
            let recorded = {
                let mut fan = Fanout(vec![&mut live, &mut monitor]);
                record_with_extra(
                    setup,
                    |node| job.kind.instantiate_with(N, node, true),
                    Some(&mut fan),
                )
                .map_err(|e| e.to_string())?
            };
            let jsonl = recorded.trace.to_jsonl().map_err(|e| e.to_string())?;
            finish_online(recorded.trace, recorded.outcome, jsonl.len(), &monitor)
        }
        Input::Explore { workload } => explore(job, workload, 1, deep, &|leaf| leaf()),
    }
}

pub fn finish_online(
    trace: Trace,
    outcome: Result<StreamResult, msgorder::simnet::SimError>,
    jsonl_bytes: usize,
    monitor: &OnlineMonitor<'_>,
) -> Result<Done, String> {
    Ok(Done::Online(Box::new(Online {
        trace,
        outcome: outcome.map_err(|e| e.to_string())?,
        jsonl_bytes,
        witness: monitor.witness().map(<[MessageId]>::to_vec),
        detection: monitor.detection_event(),
    })))
}

/// Explores `workload` with the CLI's defaults (POR on, no dedup) on
/// `threads` threads, checking every leaf against the job's spec. The
/// leaf check is the `msgorder explore --spec` visitor; `check_witnesses`
/// adds a validity check of each witness. `around_leaf` lets the traced
/// run time the leaf check.
pub fn explore(
    job: &Job,
    workload: &Workload,
    threads: usize,
    check_witnesses: bool,
    around_leaf: &(dyn Fn(&dyn Fn()) + Sync),
) -> Result<Done, String> {
    let opts = ExploreOptions {
        por: true,
        threads,
        ..ExploreOptions::default()
    };
    let violating = AtomicUsize::new(0);
    let invalid = AtomicUsize::new(0);
    let configs = Mutex::new(BTreeSet::new());
    let visit = |run: &SystemRun| {
        around_leaf(&|| {
            let view = run.users_view();
            if let Some(w) = eval::find_instantiation(&job.spec, &view) {
                violating.fetch_add(1, Ordering::Relaxed);
                if check_witnesses && !eval::check_instantiation(&job.spec, &view, &w) {
                    invalid.fetch_add(1, Ordering::Relaxed);
                }
                configs
                    .lock()
                    .expect("no visitor panics while holding the digest lock")
                    .insert(run_digest(run));
            }
        });
        true
    };
    let out = explore_parallel_with(
        EXPLORE_N,
        workload.clone(),
        |node| {
            job.kind
                .explorable(EXPLORE_N, node)
                .expect("the explore workload's protocol is explorable")
        },
        &opts,
        &visit,
    );
    if let Some(e) = &out.error {
        return Err(e.to_string());
    }
    Ok(Done::Explore(Explored {
        out,
        violating: violating.into_inner(),
        invalid_witnesses: check_witnesses.then(|| invalid.into_inner()),
        configs: configs
            .into_inner()
            .expect("no visitor panicked while holding the digest lock"),
    }))
}

/// FNV-1a over a run's user-view messages and covering pairs — the
/// `msgorder explore` configuration digest.
fn run_digest(run: &SystemRun) -> u64 {
    let snap = UserRunSnapshot::from(&run.users_view());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for m in &snap.messages {
        eat(m.src.0 as u64);
        eat(m.dst.0 as u64);
    }
    for &(a, b) in &snap.covers {
        eat(a as u64);
        eat(b as u64);
    }
    h
}

/// FNV-1a over every process's event sequence: identifies a simulated
/// run (and so its user view) in time linear in its length.
pub fn sequence_digest(run: &SystemRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for i in 0..run.process_count() {
        eat(u64::MAX);
        for ev in run.sequence(ProcessId(i)) {
            eat(((ev.msg.0 as u64) << 2) | ev.kind.index() as u64);
        }
    }
    h
}

/// A job's answer, compared with the captured one on every verdict:
/// verdicts, detection index, run digest or trace fingerprint, explorer
/// digest, and the simulated protocol costs.
pub fn answer(done: &Done) -> String {
    match done {
        Done::Posthoc(p) => {
            let s = &p.sim.stats;
            format!(
                "co={} sync={} viol={} run={:016x} delivered={} ctrl={} tag={} inhibit={}",
                u8::from(p.in_x_co),
                u8::from(p.in_x_sync),
                u8::from(p.witness.is_some()),
                sequence_digest(&p.sim.run),
                s.delivered,
                s.control_messages,
                s.tag_bytes,
                s.total_inhibition
            )
        }
        Done::Online(o) => {
            let s = &o.trace.footer.stats;
            format!(
                "viol={} detect={} fp={:016x} events={} delivered={} ctrl={} tag={} inhibit={}",
                u8::from(o.witness.is_some()),
                o.detection
                    .map_or_else(|| "-".to_owned(), |d| d.to_string()),
                o.trace.footer.fingerprint,
                o.trace.events.len(),
                s.delivered,
                s.control_messages,
                s.tag_bytes,
                s.total_inhibition
            )
        }
        Done::Explore(e) => format!(
            "schedules={} sleep_skipped={} non_live={} violating={} configs={} digest={:016x}",
            e.out.schedules,
            e.out.sleep_skipped,
            e.out.non_live,
            e.violating,
            e.configs.len(),
            e.configs.iter().fold(0u64, |acc, d| acc.wrapping_add(*d))
        ),
    }
}

/// The known-answer invariants: what the paper and the protocol
/// guarantee, independent of the captured file. Returns one line per
/// broken invariant. `deep` adds the quadratic re-checks of the
/// `X_co`/`X_sync` witnesses.
pub fn invariants(job: &Job, done: &Done, deep: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            bad.push(format!("{}: {what}", job.key));
        }
    };
    match done {
        Done::Posthoc(p) => {
            need(
                p.sim.completed && p.sim.run.is_quiescent(),
                "quiet run drained",
            );
            need(
                p.sim.stats.delivered == job.m,
                "quiet run delivers all messages",
            );
            need(!p.in_x_sync || p.in_x_co, "X_sync is inside X_co");
            if job.spec_name == "causal" {
                need(
                    p.in_x_co == p.witness.is_none(),
                    "causal verdict agrees with X_co",
                );
            }
            match job.protocol {
                "causal-rst" => need(
                    p.in_x_co && p.witness.is_none(),
                    "causal-rst run is in X_co",
                ),
                "sync" => need(p.in_x_sync && p.witness.is_none(), "sync run is in X_sync"),
                "fifo" => need(p.witness.is_none(), "fifo run satisfies fifo"),
                _ => {}
            }
            if let Some(w) = &p.witness {
                need(
                    eval::check_instantiation(&job.spec, &p.view, w),
                    "witness is valid",
                );
            }
            if deep && !p.in_x_co {
                let ok = limit_sets::co_violation(&p.view).is_some_and(|(x, y)| {
                    p.view.before(UserEvent::send(x), UserEvent::send(y))
                        && p.view.before(UserEvent::deliver(y), UserEvent::deliver(x))
                });
                need(ok, "co_violation pair is a causal violation");
            }
            if deep && !p.in_x_sync {
                let ok =
                    limit_sets::sync_violation(&p.view).is_some_and(|c| valid_crown(&p.view, &c));
                need(ok, "sync_violation is a crown");
            }
        }
        Done::Online(o) => {
            if job.protocol == "fifo" {
                need(o.outcome.halted, "violating run halts at detection");
                let valid = o
                    .witness
                    .as_ref()
                    .is_some_and(|w| eval::check_instantiation(&job.spec, &o.outcome.run, w));
                need(valid, "monitor witness is valid on the halted run");
            } else {
                need(o.witness.is_none(), "safe protocol satisfies causal");
                need(
                    o.outcome.completed && o.outcome.liveness.is_none(),
                    "reliable run drained",
                );
                need(
                    o.trace.footer.stats.delivered == job.m,
                    "reliable run delivers all messages",
                );
            }
            need(o.jsonl_bytes > 0, "trace serializes");
        }
        Done::Explore(e) => {
            need(!e.out.truncated, "exploration is complete");
            need(
                e.invalid_witnesses.unwrap_or(0) == 0,
                "every leaf witness is valid",
            );
        }
    }
    bad
}

/// `x_1.s ▷ x_2.r, …, x_k.s ▷ x_1.r` over distinct messages, `k >= 2`.
fn valid_crown(view: &UserRun, crown: &[MessageId]) -> bool {
    let distinct: BTreeSet<MessageId> = crown.iter().copied().collect();
    crown.len() >= 2
        && distinct.len() == crown.len()
        && (0..crown.len()).all(|i| {
            let next = crown[(i + 1) % crown.len()];
            view.before(UserEvent::send(crown[i]), UserEvent::deliver(next))
        })
}

/// The captured answers: job key → answer.
#[derive(Debug, Clone, Default)]
pub struct Expected(pub BTreeMap<String, String>);

impl Expected {
    pub fn path() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.tsv")
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once('\t') {
                Some((k, a)) if !a.contains('\t') => {
                    map.insert(k.to_owned(), a.to_owned());
                }
                _ => {
                    return Err(format!(
                        "expected.tsv line {}: want 2 tab-separated columns",
                        i + 1
                    ))
                }
            }
        }
        Ok(Expected(map))
    }

    pub fn load() -> Result<Expected, String> {
        let path = Expected::path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Expected::parse(&text)
    }

    pub fn render(&self) -> String {
        let mut out = String::from("# job\tanswer (captured by `perfbench capture`)\n");
        for (k, a) in &self.0 {
            out.push_str(&format!("{k}\t{a}\n"));
        }
        out
    }

    /// Every mismatch between `done` and the captured answer for `job`,
    /// plus every broken invariant. Empty means the verdict is correct.
    pub fn check(&self, job: &Job, done: &Done, deep: bool) -> Vec<String> {
        let mut bad = invariants(job, done, deep);
        match self.0.get(&job.key) {
            None => bad.push(format!("{}: no captured answer", job.key)),
            Some(want) => {
                let got = answer(done);
                if &got != want {
                    bad.push(format!("{}: answer `{got}`, captured `{want}`", job.key));
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(jobs: &[Job]) -> Vec<String> {
        jobs.iter().map(|j| j.key.clone()).collect()
    }

    #[test]
    fn job_list_is_deterministic_per_seed() {
        for bench in Bench::ALL {
            let a = keys(&job_list(bench, 7));
            assert_eq!(
                a,
                keys(&job_list(bench, 7)),
                "{bench:?}: same seed, same list"
            );
            assert_ne!(
                a,
                keys(&job_list(bench, 8)),
                "{bench:?}: another seed reorders"
            );
            let mut sorted = a.clone();
            sorted.sort();
            let mut pool_keys = keys(&pool(bench));
            pool_keys.sort();
            assert_eq!(
                sorted, pool_keys,
                "{bench:?}: every seed runs the whole pool"
            );
        }
    }

    #[test]
    fn every_job_a_run_meets_has_a_captured_answer() {
        let expected = Expected::load().expect("expected.tsv parses");
        for bench in Bench::ALL {
            for job in captured(bench) {
                assert!(
                    expected.0.contains_key(&job.key),
                    "{} not captured",
                    job.key
                );
            }
        }
    }

    #[test]
    fn tampered_or_missing_answers_count_as_failures() {
        for (bench, protocol, spec, m) in [
            (Bench::Posthoc, "causal-rst", "causal", 40),
            (Bench::Online, "fifo", "causal", 200),
            (Bench::Explore, "async", "causal", 4),
        ] {
            let job = job(bench, protocol, spec, m, 1);
            let done = run(&job, true).expect("small job runs");
            assert_eq!(invariants(&job, &done, true), Vec::<String>::new());
            let mut expected = Expected::default();
            assert_eq!(
                expected.check(&job, &done, true).len(),
                1,
                "missing answer fails"
            );
            expected.0.insert(job.key.clone(), answer(&done));
            assert_eq!(expected.check(&job, &done, true), Vec::<String>::new());
            let tampered = answer(&done).replacen('=', "=9", 1);
            expected.0.insert(job.key.clone(), tampered);
            assert_eq!(
                expected.check(&job, &done, true).len(),
                1,
                "{}: tampered answer fails",
                job.key
            );
        }
    }

    #[test]
    fn expected_file_round_trips_and_rejects_bad_lines() {
        let mut e = Expected::default();
        e.0.insert("posthoc/a/b/1/1".into(), "co=1 sync=0".into());
        assert_eq!(Expected::parse(&e.render()).unwrap().0, e.0);
        assert!(Expected::parse("key-without-answer\n").is_err());
        assert!(Expected::parse("k\ta\tb\n").is_err());
    }
}
