//! Writes `BENCH_8.json` — before/after throughput for the flat-memory
//! hot-path pass (event arena, SoA runs, word-width clock ops):
//!
//! 1. **batch predicate evaluation** — the BENCH_1 workload (causal
//!    spec over 64 random causal runs of 30 messages), where the
//!    word-mask last-variable kernel intersects whole closure-row words
//!    instead of probing candidates one by one;
//! 2. **schedule exploration** — the BENCH_6 workload matrix (3
//!    processes, async protocol vs the FIFO spec), where the explorer's
//!    per-schedule cost is dominated by run replay and evaluation.
//!
//! The *before* rows are constants: the same workloads measured at the
//! commit preceding this pass ("Run verified orderings over real
//! sockets..."), same machine, same `SNAPSHOT_MS=300` budget. The
//! *after* rows are re-measured live. Violation digests are asserted
//! equal to the recorded baseline digests — the speedup is only
//! meaningful if the new layout finds the identical violation sets.
//!
//! ```sh
//! cargo run --release -p msgorder-bench --bin snapshot_layout   # ./BENCH_8.json
//! cargo run --release -p msgorder-bench --bin snapshot_layout -- out.json
//! ```
//!
//! The measurement budget per metric comes from `SNAPSHOT_MS`
//! (milliseconds, default 300). Throughput baselines are
//! machine-dependent: on other hardware the absolute numbers shift,
//! but the digest assertions still hold.

use msgorder_bench::snapshot::{
    budget_ms, causal_corpus, cores, eval_batch_runs_per_sec, measure, timed_explore, write_report,
};
use msgorder_predicate::catalog;
use msgorder_protocols::FifoProtocol;
use msgorder_simnet::{explore_parallel_with, ExploreOptions, SendSpec, Workload};
use serde_json::json;

/// Baseline eval_batch runs/sec at threads=1 (pre-pass commit,
/// `SNAPSHOT_MS=300`, 1 core).
const BEFORE_EVAL_RPS_T1: f64 = 72_789.17;

/// Baseline sequential explorer throughput on the BENCH_1 workload
/// (3 messages on one channel, fifo protocol), budget-looped like the
/// after-measurement — the stable, like-for-like explorer metric.
const BEFORE_EXPLORE_SEQ_SPS: f64 = 55_392.64;

/// Baseline explorer matrix rows: (messages, engine, schedules/sec,
/// expected violating configurations, expected violation digest). These
/// are single-shot wall-clock measurements — noisier than the
/// budget-looped rows above, so their speedups are informational; the
/// digests are the point. Digests are layout-independent facts about
/// the workload, not throughput — the after-run must reproduce them
/// exactly.
const BEFORE_EXPLORE: &[(usize, &str, f64, usize, u64)] = &[
    (5, "full", 35_945.43, 74, 0x9aa7_3789_c8e1_ba4b),
    (5, "por", 27_046.46, 74, 0x9aa7_3789_c8e1_ba4b),
    (6, "full", 33_484.48, 384, 0xbffa_a1ce_4809_3e3c),
    (6, "por", 20_786.35, 384, 0xbffa_a1ce_4809_3e3c),
];

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_8.json".to_owned());
    let budget_ms = budget_ms();
    let cores = cores();
    println!("[snapshot_layout: {budget_ms} ms per metric, {cores} core(s)]");

    // -- 1. batch predicate evaluation (BENCH_1 workload) ----------------
    let corpus = causal_corpus(64, 30);
    let pred = catalog::causal();
    let mut eval_rows = Vec::new();
    for threads in [1usize, 2] {
        let rps = eval_batch_runs_per_sec(budget_ms, threads, &pred, &corpus);
        let before = if threads == 1 {
            Some(BEFORE_EVAL_RPS_T1)
        } else {
            None
        };
        let speedup = before.map(|b| rps / b);
        println!(
            "eval/batch  threads={threads}: {rps:>12.0} runs/sec{}",
            speedup.map_or(String::new(), |s| format!("  ({s:.2}x over baseline)"))
        );
        eval_rows.push(json!({
            "threads": threads,
            "before_runs_per_sec": before,
            "after_runs_per_sec": rps,
            "speedup": speedup,
        }));
    }

    // -- 2. sequential exploration throughput (BENCH_1 workload) ---------
    let workload = Workload {
        sends: (0..3)
            .map(|i| SendSpec {
                at: i,
                src: 0,
                dst: 1,
                color: None,
            })
            .collect(),
    };
    let seq = ExploreOptions {
        cap: 1 << 20,
        ..ExploreOptions::default()
    };
    let schedules = || {
        explore_parallel_with(2, workload.clone(), |_| FifoProtocol::new(), &seq, &|_| {
            true
        })
        .schedules
    };
    let seq_schedules = schedules();
    let (seq_iters, seq_secs) = measure(budget_ms, schedules);
    let seq_sps = (seq_iters * seq_schedules) as f64 / seq_secs;
    let seq_speedup = seq_sps / BEFORE_EXPLORE_SEQ_SPS;
    println!(
        "explore     sequential : {seq_sps:>12.0} schedules/sec  ({seq_speedup:.2}x over baseline)"
    );
    let explore_seq = json!({
        "workload": "3 msgs on one channel, fifo protocol (BENCH_1)",
        "schedules": seq_schedules,
        "before_schedules_per_sec": BEFORE_EXPLORE_SEQ_SPS,
        "after_schedules_per_sec": seq_sps,
        "speedup": seq_speedup,
    });

    // -- 3. schedule exploration (BENCH_6 workload matrix) ---------------
    let procs = 3usize;
    let seed = 3u64;
    let spec = catalog::fifo();
    let mut explore_rows = Vec::new();
    for &(msgs, engine, before_sps, want_configs, want_digest) in BEFORE_EXPLORE {
        let w = Workload::uniform_random(procs, msgs, seed);
        let opts = match engine {
            "full" => ExploreOptions::default(),
            "por" => ExploreOptions {
                por: true,
                ..ExploreOptions::default()
            },
            other => unreachable!("unknown engine {other}"),
        };
        let row = timed_explore(procs, &w, &spec, &opts);
        assert_eq!(
            (row.violating_configs, row.digest),
            (want_configs, want_digest),
            "{engine} at msgs={msgs} changed the violation set vs the pre-pass baseline"
        );
        let after_sps = row.schedules_per_sec();
        let speedup = after_sps / before_sps;
        println!(
            "explore     msgs={msgs} {engine:<4}: {after_sps:>12.0} schedules/sec  \
             ({speedup:.2}x over baseline, digest {:#018x} unchanged)",
            row.digest
        );
        explore_rows.push(json!({
            "messages": msgs,
            "engine": engine,
            "before_schedules_per_sec": before_sps,
            "after_schedules_per_sec": after_sps,
            "speedup": speedup,
            "schedules": row.exploration.schedules,
            "violating_configurations": row.violating_configs,
            "violation_digest": format!("{:#018x}", row.digest),
        }));
    }

    let eval_batch = json!({
        "workload": "causal (B2) over 64 random causal runs of 30 messages",
        "rows": eval_rows,
    });
    let explore_matrix = json!({
        "workload": format!("{procs} processes, seed {seed}, async vs fifo"),
        "note": "single-shot wall-clock rows: speedups are informational, \
                 the asserted digests are the witness",
        "rows": explore_rows,
    });
    let report = json!({
        "bench": "BENCH_8",
        "generated_by": "cargo run --release -p msgorder-bench --bin snapshot_layout",
        "budget_ms": budget_ms,
        "cores": cores,
        "baseline": "commit preceding the flat-memory pass, same machine, SNAPSHOT_MS=300",
        "note": "before rows are recorded constants; after rows are measured live. \
                 violation digests are asserted bit-equal to the baseline, so every \
                 speedup row also witnesses unchanged verdicts.",
        "eval_batch": eval_batch,
        "explore_sequential": explore_seq,
        "explore_matrix": explore_matrix,
    });
    write_report(&out_path, &report);
}
