//! Shared plumbing for the `snapshot*` bins.
//!
//! Every snapshot binary follows the same recipe: read a millisecond
//! budget from `SNAPSHOT_MS`, spin a closure until the budget elapses,
//! and write a pretty-printed JSON report. The workload setup they
//! measure against also overlaps — the causal-evaluation corpus and the
//! digest-checked explorer rows appear in several reports. This module
//! holds those pieces once so a new snapshot bin is just "pick
//! workloads, call [`measure`], assemble rows".

use crate::Engine;
use msgorder_predicate::{eval, ForbiddenPredicate};
use msgorder_protocols::AsyncProtocol;
use msgorder_runs::generator::{random_causal_run, GenParams};
use msgorder_runs::{SystemRun, UserRun, UserRunSnapshot};
use msgorder_simnet::{explore_parallel_with, Exploration, ExploreOptions, Workload};
use serde_json::json;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// Measurement budget per metric, from `SNAPSHOT_MS` (milliseconds,
/// default 300).
pub fn budget_ms() -> u64 {
    std::env::var("SNAPSHOT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300)
}

/// The machine's core count (1 if it cannot be determined). Threaded
/// rows only beat single-threaded ones when this exceeds 1.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` repeatedly until the budget elapses; returns
/// (iterations, elapsed seconds). Always runs at least once.
pub fn measure<R>(budget_ms: u64, mut f: impl FnMut() -> R) -> (usize, f64) {
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut iters = 0usize;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    (iters, start.elapsed().as_secs_f64())
}

/// The standard batch-evaluation corpus: causally-ordered random runs,
/// one per seed. BENCH_1 and BENCH_8 both rate the evaluator against
/// this corpus, so they must build it identically.
pub fn causal_corpus(corpus_runs: usize, msgs_per_run: usize) -> Vec<UserRun> {
    (0..corpus_runs)
        .map(|seed| random_causal_run(GenParams::new(3, msgs_per_run, seed as u64)))
        .collect()
}

/// Batch-evaluates `pred` over `corpus` under an `Engine` of the given
/// width until the budget elapses; returns runs per second.
pub fn eval_batch_runs_per_sec(
    budget_ms: u64,
    threads: usize,
    pred: &ForbiddenPredicate,
    corpus: &[UserRun],
) -> f64 {
    let prep = eval::Prepared::new(pred);
    let engine = Engine::new(threads);
    let (iters, secs) = measure(budget_ms, || {
        engine.par_map_ref(corpus, |run| prep.holds(run))
    });
    (iters * corpus.len()) as f64 / secs
}

/// The terminal run's configuration digest
/// ([`UserRunSnapshot::digest`] of its user's view).
pub fn run_digest(run: &SystemRun) -> u64 {
    UserRunSnapshot::from(&run.users_view()).digest()
}

/// One timed, digest-checked exploration: statistics plus a commutative
/// digest of the violating configurations. Equal digests across engine
/// configurations witness that they found the same violation set.
pub struct ExploreRow {
    /// Wall-clock seconds for the whole exploration.
    pub wall_s: f64,
    /// Raw explorer statistics (schedules, states, sleep skips, ...).
    pub exploration: Exploration,
    /// Number of distinct violating terminal configurations.
    pub violating_configs: usize,
    /// Order-independent digest of the violating configuration set.
    pub digest: u64,
}

impl ExploreRow {
    /// Schedules per wall-clock second.
    pub fn schedules_per_sec(&self) -> f64 {
        self.exploration.schedules as f64 / self.wall_s
    }
}

/// Runs one exploration of `w` under the async protocol, checking
/// `spec` on every terminal configuration and folding the violating
/// ones into a set digest.
pub fn timed_explore(
    procs: usize,
    w: &Workload,
    spec: &ForbiddenPredicate,
    opts: &ExploreOptions,
) -> ExploreRow {
    let configs: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    let start = Instant::now();
    let exploration = explore_parallel_with(
        procs,
        w.clone(),
        |_| AsyncProtocol::new(),
        opts,
        &|run: &SystemRun| {
            if eval::find_instantiation(spec, &run.users_view()).is_some() {
                configs
                    .lock()
                    .expect("no visitor panicked")
                    .insert(run_digest(run));
            }
            true
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let configs = configs.into_inner().expect("no visitor panicked");
    ExploreRow {
        wall_s,
        exploration,
        violating_configs: configs.len(),
        digest: configs.iter().fold(0u64, |acc, d| acc.wrapping_add(*d)),
    }
}

/// Serializes an [`ExploreRow`] the way the BENCH reports expect.
pub fn explore_row_json(name: &str, r: &ExploreRow) -> serde_json::Value {
    json!({
        "engine": name,
        "wall_s": r.wall_s,
        "schedules": r.exploration.schedules,
        "schedules_per_sec": r.schedules_per_sec(),
        "states": r.exploration.states,
        "states_per_sec": r.exploration.states as f64 / r.wall_s,
        "sleep_skipped": r.exploration.sleep_skipped,
        "truncated": r.exploration.truncated,
        "violating_configurations": r.violating_configs,
        "violation_digest": format!("{:#018x}", r.digest),
    })
}

/// Writes a report as pretty-printed JSON with a trailing newline.
///
/// # Panics
/// Panics if the value fails to serialize or the path is not writable —
/// a snapshot bin has nothing sensible to do but abort in either case.
pub fn write_report(path: &str, doc: &serde_json::Value) {
    let mut bytes = serde_json::to_vec_pretty(doc).expect("report serializes");
    bytes.push(b'\n');
    std::fs::write(path, bytes).expect("snapshot file is writable");
    println!("[snapshot written to {path}]");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_always_runs_once() {
        let mut calls = 0;
        let (iters, secs) = measure(0, || calls += 1);
        assert_eq!(iters, calls);
        assert!(iters >= 1);
        assert!(secs >= 0.0);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = causal_corpus(3, 8);
        let b = causal_corpus(3, 8);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            let sa = UserRunSnapshot::from(x);
            let sb = UserRunSnapshot::from(y);
            assert_eq!(sa.covers, sb.covers);
        }
    }

    #[test]
    fn digest_is_schedule_independent_but_config_sensitive() {
        use msgorder_predicate::catalog;
        // Two engine configurations over the same workload must agree on
        // the violation digest; a different workload must not.
        let spec = catalog::fifo();
        let w = Workload::uniform_random(3, 4, 3);
        let full = timed_explore(3, &w, &spec, &ExploreOptions::default());
        let por = timed_explore(
            3,
            &w,
            &spec,
            &ExploreOptions {
                por: true,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(full.digest, por.digest);
        assert_eq!(full.violating_configs, por.violating_configs);
        let other = timed_explore(
            3,
            &Workload::uniform_random(3, 4, 4),
            &spec,
            &ExploreOptions::default(),
        );
        assert_ne!(full.digest, other.digest);
    }
}
