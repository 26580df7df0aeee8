//! Property tests for the simulator kernel.

use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{
    explore_parallel_with, Ctx, ExploreOptions, LatencyModel, Protocol, SimConfig, Simulation,
    Workload,
};
use proptest::prelude::*;

#[derive(Clone, Hash)]
struct Immediate;
impl Protocol for Immediate {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        ctx.send_user(msg, Vec::new());
    }
    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, _f: ProcessId, msg: MessageId, _t: Vec<u8>) {
        ctx.deliver(msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulations are deterministic functions of (workload, seed).
    #[test]
    fn determinism(procs in 2usize..5, msgs in 1usize..15, seed in 0u64..10_000) {
        let cfg = SimConfig::new(procs, LatencyModel::Uniform { lo: 1, hi: 500 }, seed);
        let w = Workload::uniform_random(procs, msgs, seed);
        let a = Simulation::run_uniform(cfg.clone(), w.clone(), |_| Immediate).expect("no bug");
        let b = Simulation::run_uniform(cfg, w, |_| Immediate).expect("no bug");
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(
            a.run.users_view().relation_pairs(),
            b.run.users_view().relation_pairs()
        );
    }

    /// The immediate protocol always drains every workload.
    #[test]
    fn immediate_always_live(procs in 2usize..5, msgs in 0usize..20, seed in 0u64..10_000,
                             lo in 1u64..50, spread in 0u64..500) {
        let cfg = SimConfig::new(procs, LatencyModel::Uniform { lo, hi: lo + spread }, seed);
        let w = if msgs == 0 { Workload::default() } else { Workload::uniform_random(procs, msgs, seed) };
        let r = Simulation::run_uniform(cfg, w, |_| Immediate).expect("no bug");
        prop_assert!(r.completed);
        prop_assert!(r.run.is_quiescent());
        prop_assert_eq!(r.stats.delivered, msgs);
    }

    /// Workload generators stay in range and deterministic.
    #[test]
    fn workload_generators_wellformed(procs in 2usize..6, n in 1usize..25, seed in 0u64..10_000) {
        for w in [
            Workload::uniform_random(procs, n, seed),
            Workload::client_server(procs, 2, n.min(6), seed),
            Workload::with_markers(procs, n, 3, "red", seed),
        ] {
            for s in &w.sends {
                prop_assert!(s.src < procs && s.dst < procs && s.src != s.dst);
            }
        }
        let bc = Workload::broadcast_rounds(procs, n.min(6), seed);
        prop_assert_eq!(bc.len(), n.min(6) * (procs - 1));
    }

    /// The explorer's schedules all reach quiescence for a live protocol
    /// and the count is at least one.
    #[test]
    fn explorer_covers_small_workloads(msgs in 1usize..4, seed in 0u64..1000) {
        let w = Workload::uniform_random(2, msgs, seed);
        let count = std::sync::atomic::AtomicUsize::new(0);
        let opts = ExploreOptions { cap: 50_000, ..ExploreOptions::default() };
        let e = explore_parallel_with(2, w, |_| Immediate, &opts, &|run| {
            assert!(run.is_quiescent());
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            true
        });
        let count = count.into_inner();
        prop_assert!(!e.truncated);
        prop_assert_eq!(e.schedules, count);
        prop_assert!(count >= 1);
    }
}

/// A hold-back FIFO protocol with per-sender sequence tags — protocol
/// state (counters + reorder buffers) participates in the explorer's
/// configuration key, unlike the stateless [`Immediate`].
#[derive(Clone, Hash)]
struct FifoLocal {
    next_out: u64,
    expected: Vec<u64>,
    held: Vec<Vec<(u64, MessageId)>>,
}

impl FifoLocal {
    fn new(n: usize) -> FifoLocal {
        FifoLocal {
            next_out: 0,
            expected: vec![0; n],
            held: vec![Vec::new(); n],
        }
    }
}

impl Protocol for FifoLocal {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let tag = self.next_out.to_be_bytes().to_vec();
        self.next_out += 1;
        ctx.send_user(msg, tag);
    }
    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        let seq = u64::from_be_bytes(tag.try_into().expect("8-byte tag"));
        let f = from.0;
        if seq != self.expected[f] {
            self.held[f].push((seq, msg));
            return;
        }
        ctx.deliver(msg);
        self.expected[f] += 1;
        while let Some(i) = self.held[f]
            .iter()
            .position(|&(s, _)| s == self.expected[f])
        {
            let (_, m) = self.held[f].swap_remove(i);
            ctx.deliver(m);
            self.expected[f] += 1;
        }
    }
}

/// Runs one exploration and returns the *set* of terminal
/// configurations (as canonical user-view strings) plus the counters.
fn explore_runs<P>(
    procs: usize,
    w: &Workload,
    factory: impl Fn(usize) -> P,
    opts: &ExploreOptions,
) -> (
    std::collections::BTreeSet<String>,
    msgorder_simnet::Exploration,
)
where
    P: Protocol + Clone + std::hash::Hash + Send,
{
    let set = std::sync::Mutex::new(std::collections::BTreeSet::new());
    let e = explore_parallel_with(procs, w.clone(), factory, opts, &|run| {
        set.lock()
            .expect("no visitor panicked")
            .insert(format!("{:?}", run.users_view().relation_pairs()));
        true
    });
    (set.into_inner().expect("no visitor panicked"), e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sleep-set reduction and deduplication preserve the set of
    /// terminal configurations of full search, across random workloads
    /// and both a stateless and a stateful protocol.
    #[test]
    fn reduction_preserves_terminal_configurations(
        procs in 2usize..4, msgs in 1usize..5, seed in 0u64..500, stateful in any::<bool>(),
    ) {
        use msgorder_simnet::DedupMode;
        let w = Workload::uniform_random(procs, msgs, seed);
        let run = |opts: &ExploreOptions| {
            if stateful {
                explore_runs(procs, &w, |_| FifoLocal::new(procs), opts)
            } else {
                explore_runs(procs, &w, |_| Immediate, opts)
            }
        };
        let full = run(&ExploreOptions::default());
        let por = run(&ExploreOptions { por: true, ..ExploreOptions::default() });
        let por_dedup = run(&ExploreOptions {
            por: true,
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        });
        prop_assert_eq!(&full.0, &por.0, "reduction changed the run set");
        prop_assert_eq!(&full.0, &por_dedup.0, "dedup changed the run set");
        prop_assert!(por.1.schedules <= full.1.schedules);
        prop_assert!(!full.1.truncated && !por.1.truncated && !por_dedup.1.truncated);
    }

    /// The sharded work-stealing frontier is invisible: any thread
    /// count reports the same run set and the same schedule count as
    /// the sequential search, reduced or not, quiet or faulty.
    #[test]
    fn parallel_exploration_matches_sequential(
        msgs in 1usize..5, seed in 0u64..500, por in any::<bool>(), threads in 2usize..5,
        drop_faults in any::<bool>(),
    ) {
        use msgorder_simnet::FaultModel;
        let procs = 3;
        let w = Workload::uniform_random(procs, msgs, seed);
        let faults = if drop_faults {
            FaultModel::none().with_drop(0.25).expect("valid probability")
        } else {
            FaultModel::none()
        };
        let seq = ExploreOptions { por, faults: faults.clone(), ..ExploreOptions::default() };
        let par = ExploreOptions { threads, ..seq.clone() };
        let a = explore_runs(procs, &w, |_| Immediate, &seq);
        let b = explore_runs(procs, &w, |_| Immediate, &par);
        prop_assert_eq!(&a.0, &b.0, "threads changed the run set");
        prop_assert_eq!(a.1.schedules, b.1.schedules);
        prop_assert_eq!(a.1.sleep_skipped, b.1.sleep_skipped);
        prop_assert_eq!(a.1.non_live, b.1.non_live);
    }

    /// Bounded-compact deduplication agrees with exact deduplication
    /// whenever the bound is not hit, and a bound with a spill path
    /// still completes the search unreduced.
    #[test]
    fn compact_dedup_agrees_with_exact(msgs in 1usize..5, seed in 0u64..500) {
        use msgorder_simnet::DedupMode;
        let procs = 2;
        let w = Workload::uniform_random(procs, msgs, seed);
        let exact = explore_runs(procs, &w, |_| FifoLocal::new(procs), &ExploreOptions {
            por: true,
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        });
        let compact = explore_runs(procs, &w, |_| FifoLocal::new(procs), &ExploreOptions {
            por: true,
            dedup: DedupMode::Compact { max_states: 0, spill: None },
            ..ExploreOptions::default()
        });
        prop_assert_eq!(&exact.0, &compact.0);
        prop_assert_eq!(exact.1.schedules, compact.1.schedules);
        prop_assert_eq!(exact.1.states, compact.1.states);
    }
}
