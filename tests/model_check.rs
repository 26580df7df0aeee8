//! Exhaustive model checking of small configurations: unlike the seeded
//! tests, these verify protocol safety over **every** network schedule
//! of a workload (the explorer branches on all frame orderings).

use msgorder::predicate::{catalog, eval};
use msgorder::protocols::{AsyncProtocol, CausalRst, FifoProtocol, SyncProtocol};
use msgorder::runs::limit_sets;
use msgorder::simnet::{explore_parallel_with, ExploreOptions, SendSpec, Workload};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn same_channel(n: u64) -> Workload {
    Workload {
        sends: (0..n)
            .map(|i| SendSpec {
                at: i,
                src: 0,
                dst: 1,
                color: None,
            })
            .collect(),
    }
}

fn capped(cap: usize) -> ExploreOptions {
    ExploreOptions {
        cap,
        ..ExploreOptions::default()
    }
}

/// The cross-channel causal triangle: P0 -> P1, P0 -> P2, P1 -> P2.
fn triangle() -> Workload {
    Workload {
        sends: vec![
            SendSpec {
                at: 0,
                src: 0,
                dst: 2,
                color: None,
            },
            SendSpec {
                at: 1,
                src: 0,
                dst: 1,
                color: None,
            },
            SendSpec {
                at: 2,
                src: 1,
                dst: 2,
                color: None,
            },
        ],
    }
}

#[test]
fn fifo_protocol_exhaustively_fifo_on_three_messages() {
    let spec = catalog::fifo();
    let checked = AtomicUsize::new(0);
    let exp = explore_parallel_with(
        2,
        same_channel(3),
        |_| FifoProtocol::new(),
        &capped(100_000),
        &|run| {
            assert!(run.is_quiescent(), "liveness on every schedule");
            assert!(
                eval::satisfies_spec(&spec, &run.users_view()),
                "FIFO violated on a schedule"
            );
            checked.fetch_add(1, Ordering::Relaxed);
            true
        },
    );
    let checked = checked.into_inner();
    assert!(
        !exp.truncated,
        "exploration must be complete to count as proof"
    );
    assert!(
        checked >= 6,
        "expected all arrival interleavings, got {checked}"
    );
}

#[test]
fn async_protocol_exhaustively_shown_non_fifo() {
    let spec = catalog::fifo();
    let violated = AtomicBool::new(false);
    explore_parallel_with(
        2,
        same_channel(2),
        |_| AsyncProtocol::new(),
        &capped(100_000),
        &|run| {
            if !eval::satisfies_spec(&spec, &run.users_view()) {
                violated.store(true, Ordering::Relaxed);
                return false; // counterexample found
            }
            true
        },
    );
    assert!(
        violated.into_inner(),
        "some schedule must invert the two deliveries"
    );
}

#[test]
fn causal_rst_exhaustively_causal_on_the_triangle() {
    let checked = AtomicUsize::new(0);
    let exp = explore_parallel_with(
        3,
        triangle(),
        |_| CausalRst::new(3),
        &capped(200_000),
        &|run| {
            assert!(run.is_quiescent(), "liveness on every schedule");
            assert!(
                limit_sets::in_x_co(&run.users_view()),
                "causal ordering violated on a schedule"
            );
            checked.fetch_add(1, Ordering::Relaxed);
            true
        },
    );
    let checked = checked.into_inner();
    assert!(!exp.truncated);
    assert!(
        checked >= 2,
        "triangle has multiple schedules, got {checked}"
    );
}

#[test]
fn async_protocol_exhaustively_breaks_the_triangle() {
    let violated = AtomicBool::new(false);
    explore_parallel_with(
        3,
        triangle(),
        |_| AsyncProtocol::new(),
        &capped(200_000),
        &|run| {
            if !limit_sets::in_x_co(&run.users_view()) {
                violated.store(true, Ordering::Relaxed);
                return false;
            }
            true
        },
    );
    assert!(
        violated.into_inner(),
        "the relay must overtake the direct message on some schedule"
    );
}

#[test]
fn sync_protocol_exhaustively_synchronous_on_crossing_pair() {
    // x: P0 -> P1 and y: P1 -> P0 issued concurrently: without control
    // messages these can cross (a crown); the lock protocol must prevent
    // that on EVERY schedule, including all control-frame orderings.
    let w = Workload {
        sends: vec![
            SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            },
            SendSpec {
                at: 0,
                src: 1,
                dst: 0,
                color: None,
            },
        ],
    };
    let checked = AtomicUsize::new(0);
    let exp = explore_parallel_with(2, w, |_| SyncProtocol::new(), &capped(500_000), &|run| {
        assert!(run.is_quiescent(), "liveness on every schedule");
        assert!(
            limit_sets::in_x_sync(&run.users_view()),
            "logical synchrony violated on a schedule"
        );
        checked.fetch_add(1, Ordering::Relaxed);
        true
    });
    let checked = checked.into_inner();
    assert!(!exp.truncated);
    assert!(checked >= 2, "got {checked}");
}

#[test]
fn async_protocol_exhaustively_crosses_the_pair() {
    let w = Workload {
        sends: vec![
            SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            },
            SendSpec {
                at: 0,
                src: 1,
                dst: 0,
                color: None,
            },
        ],
    };
    let crossed = AtomicBool::new(false);
    explore_parallel_with(2, w, |_| AsyncProtocol::new(), &capped(100_000), &|run| {
        if !limit_sets::in_x_sync(&run.users_view()) {
            crossed.store(true, Ordering::Relaxed);
            return false;
        }
        true
    });
    assert!(crossed.into_inner(), "some schedule must cross the pair");
}

/// Explores a workload under `opts` and returns the set of *violating*
/// terminal configurations (canonical user-view strings) plus the
/// explorer's counters.
fn violation_set(
    procs: usize,
    w: &Workload,
    kind: &msgorder::protocols::ProtocolKind,
    spec: &msgorder::predicate::ForbiddenPredicate,
    opts: &ExploreOptions,
) -> (
    std::collections::BTreeSet<String>,
    msgorder::simnet::Exploration,
) {
    let set = std::sync::Mutex::new(std::collections::BTreeSet::new());
    let e = explore_parallel_with(
        procs,
        w.clone(),
        |node| kind.explorable(procs, node).expect("explorable protocol"),
        opts,
        &|run| {
            let view = run.users_view();
            if eval::find_instantiation(spec, &view).is_some() {
                set.lock()
                    .expect("no visitor panicked")
                    .insert(format!("{:?}", view.relation_pairs()));
            }
            true
        },
    );
    (set.into_inner().expect("no visitor panicked"), e)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// The acceptance property of the reduced explorer: sleep-set
    /// reduction, the sharded parallel frontier, and deduplication all
    /// find exactly the violating configurations of sequential full
    /// search — across random workloads, seeds, real protocols, and
    /// both spec polarities.
    #[test]
    fn reduced_exploration_finds_exactly_the_full_search_violations(
        msgs in 2usize..5, seed in 0u64..200, causal_spec in proptest::prelude::any::<bool>(),
        fifo_protocol in proptest::prelude::any::<bool>(),
    ) {
        use msgorder::simnet::DedupMode;
        let procs = 3;
        let w = Workload::uniform_random(procs, msgs, seed);
        let spec = if causal_spec { catalog::causal() } else { catalog::fifo() };
        let kind = if fifo_protocol {
            msgorder::protocols::ProtocolKind::Fifo
        } else {
            msgorder::protocols::ProtocolKind::Async
        };
        let full = violation_set(procs, &w, &kind, &spec, &ExploreOptions::default());
        let por = violation_set(procs, &w, &kind, &spec, &ExploreOptions {
            por: true,
            ..ExploreOptions::default()
        });
        let por_par = violation_set(procs, &w, &kind, &spec, &ExploreOptions {
            por: true,
            threads: 2,
            ..ExploreOptions::default()
        });
        let por_dedup = violation_set(procs, &w, &kind, &spec, &ExploreOptions {
            por: true,
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        });
        proptest::prop_assert_eq!(&full.0, &por.0, "reduction changed the violation set");
        proptest::prop_assert_eq!(&full.0, &por_par.0, "threads changed the violation set");
        proptest::prop_assert_eq!(&full.0, &por_dedup.0, "dedup changed the violation set");
        proptest::prop_assert!(por.1.schedules <= full.1.schedules);
    }
}
