//! The linear-time post-hoc checks against their all-pairs definitions.
//!
//! `UserRun::before` and the snapshot covers answer from chain clocks,
//! `in_x_co` from per-chain prefix maxima and the `X_sync` family from
//! the message graph contracted along generating edges. Each is checked
//! here against the paper's definition evaluated over every pair: the
//! closure's `reaches` and transitive reduction, the all-pairs causal
//! scan, and the full message-precedence graph.

use msgorder::poset::DiGraph;
use msgorder::predicate::{catalog, eval};
use msgorder::protocols::ProtocolKind;
use msgorder::runs::generator::{random_abstract_user_run, random_user_run, GenParams};
use msgorder::runs::{limit_sets, MessageId, UserEvent, UserEventKind, UserRun, UserRunSnapshot};
use msgorder::simnet::{FaultModel, LatencyModel, SimConfig, Simulation, Workload};

/// The first `(x, y)` with `x.s ▷ y.s ∧ y.r ▷ x.r`, scanning all pairs.
fn co_violation_oracle(run: &UserRun) -> Option<(MessageId, MessageId)> {
    let m = run.len();
    (0..m)
        .flat_map(|x| (0..m).map(move |y| (MessageId(x), MessageId(y))))
        .find(|&(x, y)| {
            x != y
                && run.before(UserEvent::send(x), UserEvent::send(y))
                && run.before(UserEvent::deliver(y), UserEvent::deliver(x))
        })
}

/// The message-precedence graph: `x → y` (for `x ≠ y`) whenever some
/// event of `x` precedes some event of `y`.
fn message_graph_oracle(run: &UserRun) -> DiGraph {
    let m = run.len();
    let kinds = [UserEventKind::Send, UserEventKind::Deliver];
    let mut g = DiGraph::new(m);
    for x in 0..m {
        for y in (0..m).filter(|&y| y != x) {
            let related = kinds.iter().any(|&h| {
                kinds.iter().any(|&f| {
                    run.before(
                        UserEvent {
                            msg: MessageId(x),
                            kind: h,
                        },
                        UserEvent {
                            msg: MessageId(y),
                            kind: f,
                        },
                    )
                })
            });
            if related {
                g.add_edge(x, y).unwrap();
            }
        }
    }
    g
}

/// Whether `crown` is a crown: distinct messages with
/// `x_i.s ▷ x_{i+1}.r` around the cycle.
fn is_crown(run: &UserRun, crown: &[MessageId]) -> bool {
    let k = crown.len();
    let distinct = (0..k).all(|i| !crown[..i].contains(&crown[i]));
    k >= 2
        && distinct
        && (0..k).all(|i| {
            run.before(
                UserEvent::send(crown[i]),
                UserEvent::deliver(crown[(i + 1) % k]),
            )
        })
}

/// Counts satisfying instantiations of `pred` by trying every tuple.
fn brute_force_count(pred: &msgorder::predicate::ForbiddenPredicate, run: &UserRun) -> usize {
    let (k, m) = (pred.var_count(), run.len());
    let mut count = 0;
    let mut tuple = vec![0usize; k];
    'next: loop {
        let msgs: Vec<MessageId> = tuple.iter().copied().map(MessageId).collect();
        count += usize::from(eval::check_instantiation(pred, run, &msgs));
        for slot in tuple.iter_mut().rev() {
            *slot += 1;
            if *slot < m {
                continue 'next;
            }
            *slot = 0;
        }
        return count;
    }
}

/// Every fast check agrees with its oracle on `run`.
fn assert_matches_oracles(run: &UserRun, label: &str) {
    let closure = run.closure();
    for a in 0..2 * run.len() {
        for b in 0..2 * run.len() {
            let (ea, eb) = (UserEvent::from_node(a), UserEvent::from_node(b));
            assert_eq!(
                run.before(ea, eb),
                closure.reaches(a, b),
                "{label}: {ea} ▷ {eb}"
            );
        }
    }

    assert_eq!(
        UserRunSnapshot::from(run).covers,
        closure.reduction(),
        "{label}: covers"
    );

    let co = limit_sets::co_violation(run);
    assert_eq!(co, co_violation_oracle(run), "{label}: co_violation");
    assert_eq!(limit_sets::in_x_co(run), co.is_none(), "{label}: in_x_co");
    if let Some((x, y)) = co {
        assert!(
            run.before(UserEvent::send(x), UserEvent::send(y))
                && run.before(UserEvent::deliver(y), UserEvent::deliver(x)),
            "{label}: co_violation pair is a causal violation"
        );
    }

    let graph = message_graph_oracle(run);
    let sync = !graph.has_cycle();
    assert_eq!(limit_sets::in_x_sync(run), sync, "{label}: in_x_sync");
    let numbering = graph.topo_sort().ok().map(|order| {
        let mut t = vec![0; run.len()];
        for (slot, msg) in order.into_iter().enumerate() {
            t[msg] = slot;
        }
        t
    });
    assert_eq!(
        limit_sets::sync_numbering(run),
        numbering,
        "{label}: sync_numbering"
    );
    match limit_sets::sync_violation(run) {
        Some(crown) => assert!(
            !sync && is_crown(run, &crown),
            "{label}: sync_violation {crown:?} is a crown"
        ),
        None => assert!(sync, "{label}: a non-synchronous run has a crown"),
    }
}

#[test]
fn generated_runs_match_oracles() {
    for seed in 0..30 {
        let params = GenParams::new(3, 7, seed);
        assert_matches_oracles(&random_user_run(params), &format!("projected seed {seed}"));
        // Arbitrary posets: events of one process need not be ordered,
        // so the chain cover is not the process sequences.
        for density in [0.05, 0.2] {
            assert_matches_oracles(
                &random_abstract_user_run(params, density),
                &format!("abstract seed {seed} density {density}"),
            );
        }
    }
}

#[test]
fn simulated_runs_of_every_fixed_protocol_match_oracles() {
    let n = 4;
    for kind in ProtocolKind::fixed() {
        for seed in 0..3 {
            let r = Simulation::run_uniform(
                SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 400 }, seed),
                Workload::uniform_random(n, 24, seed),
                |node| kind.instantiate_with(n, node, false),
            )
            .expect("no protocol bug");
            let view = r.run.users_view();
            assert_matches_oracles(&view, &format!("{} seed {seed}", kind.name()));
            if matches!(kind, ProtocolKind::Sync | ProtocolKind::SyncBatched) {
                // Theorem 1: cyclic crown predicates never hold on X_sync
                // runs; the short-circuit must agree with a full check.
                assert!(
                    limit_sets::in_x_sync(&view),
                    "{} is synchronous",
                    kind.name()
                );
                for name in ["sync-crown-2", "sync-crown-3"] {
                    let pred = catalog::by_name(name).unwrap().predicate;
                    assert_eq!(eval::find_instantiation(&pred, &view), None);
                    assert_eq!(eval::count_instantiations(&pred, &view, usize::MAX), 0);
                    assert_eq!(brute_force_count(&pred, &view), 0, "{name}");
                }
            }
        }
    }
}

#[test]
fn faulty_reliable_runs_match_oracles() {
    let n = 3;
    for kind in ProtocolKind::fixed() {
        if !kind.supports_retransmission() {
            continue;
        }
        for seed in 0..3 {
            let faults = FaultModel::none()
                .with_drop(0.2)
                .unwrap()
                .with_duplication(0.05)
                .unwrap();
            let r = Simulation::run_uniform(
                SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 500 }, seed)
                    .with_faults(faults),
                Workload::uniform_random(n, 15, seed),
                |node| kind.instantiate_with(n, node, true),
            )
            .expect("no protocol bug");
            assert_matches_oracles(
                &r.run.users_view(),
                &format!("reliable {} seed {seed}", kind.name()),
            );
        }
    }
}
