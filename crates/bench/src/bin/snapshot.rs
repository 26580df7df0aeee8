//! Writes `BENCH_1.json` — a throughput snapshot of the workspace's three
//! hot paths, at several engine widths:
//!
//! 1. **batch predicate evaluation** — one prepared predicate against a
//!    corpus of runs, fanned through the batch `Engine`;
//! 2. **poset kernels** — transitive closure construction and the
//!    word-parallel transitive reduction;
//! 3. **schedule exploration** — exhaustive interleaving enumeration,
//!    sequential vs deduplicated vs parallel.
//!
//! ```sh
//! cargo run --release -p msgorder-bench --bin snapshot            # writes ./BENCH_1.json
//! cargo run --release -p msgorder-bench --bin snapshot -- out.json
//! ```
//!
//! The measurement budget per metric comes from `SNAPSHOT_MS`
//! (milliseconds, default 300). The report records the machine's core
//! count: speedups from threading are only expected when `cores > 1`;
//! on a single-core machine the parallel rows measure engine overhead.

use msgorder_bench::snapshot::{budget_ms, causal_corpus, cores, measure, write_report};
use msgorder_poset::{DiGraph, TransitiveClosure};
use msgorder_predicate::catalog;
use msgorder_protocols::FifoProtocol;
use msgorder_simnet::{explore_parallel_with, DedupMode, ExploreOptions, SendSpec, Workload};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde_json::json;

/// A random DAG: edges only from lower to higher node ids.
fn random_dag(n: usize, edge_prob: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_range(0.0..1.0) < edge_prob {
                g.add_edge(u, v).expect("forward edges cannot form a cycle");
            }
        }
    }
    g
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_1.json".to_owned());
    let budget_ms = budget_ms();
    let cores = cores();
    println!("[snapshot: {budget_ms} ms per metric, {cores} core(s)]");

    // -- 1. batch predicate evaluation -----------------------------------
    let corpus_runs = 64usize;
    let msgs_per_run = 30usize;
    let corpus = causal_corpus(corpus_runs, msgs_per_run);
    let pred = catalog::causal();
    let mut eval_rows = serde_json::Map::new();
    let mut eval_rps = Vec::new();
    for threads in [1usize, 2, 4] {
        let rps =
            msgorder_bench::snapshot::eval_batch_runs_per_sec(budget_ms, threads, &pred, &corpus);
        println!("eval/batch  threads={threads}: {rps:>12.0} runs/sec");
        eval_rows.insert(threads.to_string(), json!(rps));
        eval_rps.push(rps);
    }
    let eval_speedup = eval_rps.last().copied().unwrap_or(0.0) / eval_rps[0].max(f64::MIN_POSITIVE);

    // -- 2. poset kernels -------------------------------------------------
    let nodes = 96usize;
    let dag = random_dag(nodes, 0.08, 17);
    let edges = dag.edge_count();
    let (c_iters, c_secs) = measure(budget_ms, || TransitiveClosure::of_graph(&dag));
    let closure = TransitiveClosure::of_graph(&dag);
    let (r_iters, r_secs) = measure(budget_ms, || closure.reduction());
    let closures_per_sec = c_iters as f64 / c_secs;
    let reductions_per_sec = r_iters as f64 / r_secs;
    println!("closure     n={nodes} m={edges}: {closures_per_sec:>12.0} closures/sec");
    println!("reduction   n={nodes} m={edges}: {reductions_per_sec:>12.0} reductions/sec");

    // -- 3. schedule exploration -----------------------------------------
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
    let dedup = ExploreOptions {
        dedup: DedupMode::Exact,
        ..seq.clone()
    };
    let par = ExploreOptions {
        threads: 4,
        ..seq.clone()
    };
    let schedules = |opts: &ExploreOptions| {
        explore_parallel_with(2, workload.clone(), |_| FifoProtocol::new(), opts, &|_| {
            true
        })
        .schedules
    };
    let (seq_iters, seq_secs) = measure(budget_ms, || schedules(&seq));
    let seq_schedules = schedules(&seq);
    let (dd_iters, dd_secs) = measure(budget_ms, || schedules(&dedup));
    let dedup_schedules = schedules(&dedup);
    let (par_iters, par_secs) = measure(budget_ms, || schedules(&par));
    let seq_sps = (seq_iters * seq_schedules) as f64 / seq_secs;
    let dd_sps = (dd_iters * dedup_schedules) as f64 / dd_secs;
    let par_sps = (par_iters * seq_schedules) as f64 / par_secs;
    println!("explore     sequential : {seq_sps:>12.0} schedules/sec ({seq_schedules} schedules)");
    println!("explore     dedup      : {dd_sps:>12.0} schedules/sec ({dedup_schedules} distinct configurations)");
    println!("explore     4 threads  : {par_sps:>12.0} schedules/sec");

    let eval_batch = json!({
        "predicate": "causal (B2)",
        "corpus_runs": corpus_runs,
        "msgs_per_run": msgs_per_run,
        "runs_per_sec_by_threads": serde_json::Value::Object(eval_rows),
        "speedup_max_threads_over_1": eval_speedup,
    });
    let poset_kernels = json!({
        "nodes": nodes,
        "edges": edges,
        "closures_per_sec": closures_per_sec,
        "reductions_per_sec": reductions_per_sec,
    });
    let explore_report = json!({
        "workload": "3 msgs on one channel, fifo protocol",
        "schedules": seq_schedules,
        "dedup_configurations": dedup_schedules,
        "sequential_schedules_per_sec": seq_sps,
        "dedup_schedules_per_sec": dd_sps,
        "threads4_schedules_per_sec": par_sps,
    });
    let report = json!({
        "bench": "BENCH_1",
        "generated_by": "cargo run --release -p msgorder-bench --bin snapshot",
        "budget_ms": budget_ms,
        "cores": cores,
        "note": "threaded rows only beat threads=1 when cores > 1; on a single-core machine they measure engine overhead, not speedup",
        "eval_batch": eval_batch,
        "poset_kernels": poset_kernels,
        "explore": explore_report,
    });
    write_report(&out_path, &report);
}
