//! Protocol verification over the streaming run pipeline: simulate,
//! monitor the forbidden predicate *online* (delivery by delivery), and
//! check safety (spec membership) and liveness (quiescence).
//!
//! This is the executable form of the paper's definition of
//! "`P` implements `Y`": liveness (`P(H) ∩ (R ∪ C) ≠ ∅` whenever
//! something is pending — here: the run drains to quiescence) and safety
//! (`X_P ⊆ Y` — here: no prefix of the captured run satisfies the
//! forbidden predicate).
//!
//! [`run_and_verify`] is a thin adapter over the kernel's
//! [`Simulation::run_streaming`] and the predicate layer's
//! [`eval::Monitor`]: the unsafe path is a *single* incremental search
//! whose witness is the violation, found at the exact delivery that
//! completes it — no post-hoc transitive closure, no second search.
//! [`OnlineMonitor::halting`] additionally halts the simulation there.

use std::hash::Hash;

use msgorder_predicate::{eval, ForbiddenPredicate};
use msgorder_runs::{EventKind, MessageId, StreamingRun, SystemEvent, SystemRunBuilder, UserRun};
use msgorder_simnet::{
    explore_monitored_with, Exploration, ExploreOptions, LivenessVerdict, PrefixMonitor, Protocol,
    RunObserver, SimConfig, SimError, Simulation, Stats, Workload,
};

/// Feeds kernel run events into the predicate layer's online
/// [`eval::Monitor`]: every delivery (`x.r`) completes its message, and
/// the monitor's delta search runs at exactly that event.
///
/// As a [`RunObserver`] it records *when* the first violation was
/// detected (global event index and simulated time) and — in halting
/// mode — stops the simulation there. As a [`PrefixMonitor`] it
/// condemns any exploration prefix containing a violation, pruning the
/// whole schedule sub-tree below it.
#[derive(Clone)]
pub struct OnlineMonitor<'p> {
    inner: eval::Monitor<'p>,
    halt_on_violation: bool,
    detection_event: Option<usize>,
    detection_time: Option<u64>,
}

impl<'p> OnlineMonitor<'p> {
    /// A monitor that keeps observing after a violation (the simulation
    /// runs to drain, so liveness is still decided exactly).
    pub fn new(pred: &'p ForbiddenPredicate) -> Self {
        OnlineMonitor {
            inner: eval::Monitor::new(pred),
            halt_on_violation: false,
            detection_event: None,
            detection_time: None,
        }
    }

    /// A monitor that halts the simulation at the violating delivery.
    pub fn halting(pred: &'p ForbiddenPredicate) -> Self {
        OnlineMonitor {
            halt_on_violation: true,
            ..OnlineMonitor::new(pred)
        }
    }

    /// Whether a satisfying instantiation has been found.
    pub fn violated(&self) -> bool {
        self.inner.violated()
    }

    /// The first satisfying instantiation, in the *simulation's*
    /// (workload-order) message numbering — remap through
    /// [`StreamingRun::dense_id`] before comparing against a
    /// [`UserRun`].
    pub fn witness(&self) -> Option<&[MessageId]> {
        self.inner.witness()
    }

    /// Global index of the run event at which the violation was
    /// detected (the delivery completing the witness).
    pub fn detection_event(&self) -> Option<usize> {
        self.detection_event
    }

    /// Simulated time of the detecting delivery.
    pub fn detection_time(&self) -> Option<u64> {
        self.detection_time
    }

    /// Current partial-match state size (see [`eval::Monitor::live_state`]).
    pub fn live_state(&self) -> usize {
        self.inner.live_state()
    }

    /// Wall-clock accounting of the delta searches run so far (see
    /// [`eval::MonitorTimings`]) — the source of the `--metrics`
    /// monitor-search histogram.
    pub fn search_timings(&self) -> eval::MonitorTimings {
        self.inner.timings()
    }

    /// Feeds one run event; `true` while the simulation should go on.
    fn feed(&mut self, view: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool {
        if self.inner.violated() {
            return !self.halt_on_violation;
        }
        if ev.kind == EventKind::Deliver && self.inner.on_complete(view, ev.msg).is_some() {
            self.detection_event = Some(index);
            self.detection_time = Some(time);
            if self.halt_on_violation {
                return false;
            }
        }
        true
    }
}

impl RunObserver for OnlineMonitor<'_> {
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool {
        self.feed(view, ev, index, time)
    }
}

impl PrefixMonitor for OnlineMonitor<'_> {
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent) -> bool {
        // Exploration always prunes at the violation, whatever the
        // halting mode: extending a violating prefix cannot un-violate.
        if self.inner.violated() {
            return false;
        }
        !(ev.kind == EventKind::Deliver && self.inner.on_complete(view, ev.msg).is_some())
    }
}

/// The verdict of one verified simulation.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Safety: the user's view belongs to `X_B`.
    pub safe: bool,
    /// Liveness: every requested message was sent and delivered, and the
    /// simulation completed within its step budget.
    pub live: bool,
    /// If unsafe, one satisfying instantiation of the forbidden
    /// predicate (the offending messages, in [`user_run`]'s numbering).
    ///
    /// [`user_run`]: VerifyOutcome::user_run
    pub violation: Option<Vec<MessageId>>,
    /// Global index of the run event at which the online monitor found
    /// the violation — the delivery completing it, strictly before the
    /// run drained whenever the violating messages are not the last to
    /// complete.
    pub detection_event: Option<usize>,
    /// Simulated time of the detecting delivery.
    pub detection_time: Option<u64>,
    /// The captured user's view.
    pub user_run: UserRun,
    /// Overhead counters.
    pub stats: Stats,
    /// If the protocol itself misbehaved (double delivery, send from a
    /// non-owner, …), the structured counterexample: the offending
    /// event, message, simulated time, and the trace up to the bug.
    pub counterexample: Option<SimError>,
    /// When the run ended non-quiescent (and was not halted early), the
    /// kernel's blame analysis of the pending frontier: which messages
    /// are stuck at which system event, and why.
    pub liveness: Option<LivenessVerdict>,
}

impl VerifyOutcome {
    /// Safety and liveness both hold and the protocol never tripped a
    /// kernel invariant.
    pub fn ok(&self) -> bool {
        self.safe && self.live && self.counterexample.is_none()
    }
}

/// Runs `factory`'s protocol on `workload` and verifies it against
/// `spec`, monitoring the forbidden predicate online while the
/// simulation runs to drain (so liveness is decided exactly).
///
/// A protocol bug (an invalid kernel action) no longer aborts the
/// process: it is reported through
/// [`counterexample`](VerifyOutcome::counterexample), with safety
/// evaluated on the partial trace captured up to the bug.
pub fn run_and_verify<P: Protocol>(
    config: SimConfig,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    spec: &ForbiddenPredicate,
) -> VerifyOutcome {
    let processes = config.processes;
    let mut monitor = OnlineMonitor::new(spec);
    match Simulation::new(config, workload, factory).run_streaming(&mut monitor) {
        Ok(result) => {
            let violation = monitor.witness().map(|w| {
                w.iter()
                    .map(|&m| {
                        result
                            .run
                            .dense_id(m)
                            .expect("witness messages are complete")
                    })
                    .collect()
            });
            VerifyOutcome {
                safe: violation.is_none(),
                live: result.completed && result.run.is_quiescent(),
                violation,
                detection_event: monitor.detection_event(),
                detection_time: monitor.detection_time(),
                user_run: result.run.users_view(),
                stats: result.stats,
                counterexample: None,
                liveness: result.liveness,
            }
        }
        Err(e) => {
            // The monitor's witness ids cannot be remapped without the
            // live builder (consumed by the error), so safety on the
            // partial trace is re-decided post hoc — same verdict, per
            // the online/post-hoc equivalence.
            let user_run = e.trace.as_ref().map(|t| t.users_view()).unwrap_or_else(|| {
                SystemRunBuilder::new(processes)
                    .build()
                    .expect("empty run is valid")
                    .users_view()
            });
            let violation = eval::find_instantiation(spec, &user_run);
            let liveness = e.kind.liveness().cloned();
            VerifyOutcome {
                safe: violation.is_none(),
                live: false,
                violation,
                detection_event: monitor.detection_event(),
                detection_time: monitor.detection_time(),
                user_run,
                stats: e.stats.clone(),
                counterexample: Some(e),
                liveness,
            }
        }
    }
}

/// The verdict of an exhaustive (model-checking) verification: the
/// spec was checked on *every* schedule the explorer reached, not one
/// sampled run.
#[derive(Debug)]
pub struct ExhaustiveOutcome {
    /// No reachable schedule violates the spec and the protocol never
    /// tripped a kernel invariant. Only meaningful when
    /// [`exploration`](ExhaustiveOutcome::exploration) was not
    /// truncated — a capped search that saw no violation proves
    /// nothing about the schedules beyond the cap.
    pub safe: bool,
    /// The explorer's counters: `pruned` is the number of condemned
    /// (violating) schedule prefixes, `sleep_skipped`/`states` expose
    /// the partial-order reduction at work.
    pub exploration: Exploration,
}

/// Model-checks `factory`'s protocol against `spec` over **all**
/// schedules of `workload`, riding the explorer configured by `opts`
/// (sleep-set reduction, deduplication, caps, worker threads).
///
/// The online monitor condemns every violating prefix, so the whole
/// sub-tree below a violation is pruned rather than enumerated;
/// `safe` holds iff nothing was condemned and no schedule tripped a
/// kernel invariant. Sleep-set reduction and deduplication preserve
/// the verdict: a violation reachable by full search is reachable by
/// the reduced one (condemnation is insensitive to the order of
/// commuting deliveries).
pub fn verify_exhaustive<P>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    spec: &ForbiddenPredicate,
    opts: &ExploreOptions,
) -> ExhaustiveOutcome
where
    P: Protocol + Clone + Hash + Send,
{
    let exploration = explore_monitored_with(
        processes,
        workload,
        factory,
        OnlineMonitor::halting(spec),
        opts,
        &|_| true,
    );
    ExhaustiveOutcome {
        safe: exploration.pruned == 0 && exploration.error.is_none(),
        exploration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncProtocol, CausalRst, FifoProtocol, ProtocolKind};
    use msgorder_predicate::catalog;
    use msgorder_simnet::{explore_parallel_with, FaultModel, LatencyModel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn config(processes: usize, seed: u64) -> SimConfig {
        SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 900 }, seed)
    }

    #[test]
    fn fifo_protocol_verified_against_fifo_spec() {
        let out = run_and_verify(
            config(3, 1),
            Workload::uniform_random(3, 20, 1),
            |_| FifoProtocol::new(),
            &catalog::fifo(),
        );
        assert!(out.ok());
        assert!(out.violation.is_none());
        assert!(out.detection_event.is_none());
    }

    #[test]
    fn async_protocol_fails_causal_spec_somewhere() {
        let spec = catalog::causal();
        let mut failed = None;
        for seed in 0..40 {
            let out = run_and_verify(
                config(3, seed),
                Workload::uniform_random(3, 10, seed),
                |_| AsyncProtocol::new(),
                &spec,
            );
            assert!(out.live, "async is always live");
            if !out.safe {
                failed = Some(out);
                break;
            }
        }
        let out = failed.expect("async never violated causal ordering");
        let inst = out.violation.unwrap();
        assert_eq!(inst.len(), 2, "causal violations involve two messages");
        assert!(out.detection_event.is_some(), "found online, not post hoc");
    }

    #[test]
    fn causal_protocol_verified_against_all_its_weaker_specs() {
        // X_P = X_co ⊆ X_B for each tagged-class B: the RST protocol
        // must pass FIFO, k-weaker and flush specs too.
        for spec in [
            catalog::causal(),
            catalog::fifo(),
            catalog::k_weaker_causal(2),
            catalog::global_forward_flush(),
        ] {
            for seed in 0..8 {
                let out = run_and_verify(
                    config(4, seed),
                    Workload::uniform_random(4, 15, seed),
                    |_| CausalRst::new(4),
                    &spec,
                );
                assert!(out.ok(), "RST failed {spec} at seed {seed}");
            }
        }
    }

    /// The acceptance property: the online monitor's verdict (and the
    /// existence of a witness) equals post-hoc evaluation of the drained
    /// run, across every registered protocol, quiet and faulty networks,
    /// and both spec polarities.
    #[test]
    fn online_verdict_matches_posthoc_across_protocols_and_faults() {
        let specs = [catalog::fifo(), catalog::causal()];
        let faults = [
            FaultModel::none(),
            FaultModel::none().with_drop(0.15).unwrap(),
            FaultModel::none().with_duplication(0.1).unwrap(),
        ];
        for kind in ProtocolKind::fixed() {
            for spec in &specs {
                for (fi, fault) in faults.iter().enumerate() {
                    // Bare protocols are built for reliable channels;
                    // on faulty networks use the retransmission layer
                    // where it exists (elsewhere, loss merely costs
                    // liveness and the verdicts must still agree).
                    let reliable = !fault.is_quiet() && kind.supports_retransmission();
                    if fi == 2 && !reliable {
                        // Duplicate frames need the dedup of the
                        // reliable layer; skip kinds without one.
                        continue;
                    }
                    for seed in 0..4 {
                        let n = 3;
                        let cfg = config(n, seed).with_faults(fault.clone());
                        let w = Workload::uniform_random(n, 12, seed);
                        let out = run_and_verify(
                            cfg,
                            w,
                            |node| kind.instantiate_with(n, node, reliable),
                            spec,
                        );
                        // Post-hoc ground truth on the same captured view.
                        let posthoc = eval::find_instantiation(spec, &out.user_run);
                        assert_eq!(
                            out.safe,
                            posthoc.is_none(),
                            "{} / {spec} / fault {fi} / seed {seed}: online and \
                             post-hoc verdicts disagree",
                            kind.name()
                        );
                        assert_eq!(out.safe, out.violation.is_none());
                        assert_eq!(out.safe, out.detection_event.is_none());
                        assert!(out.counterexample.is_none());
                        assert_eq!(
                            out.live,
                            out.liveness.is_none(),
                            "{} / fault {fi} / seed {seed}: a non-live run must \
                             carry a liveness verdict (and a live one must not)",
                            kind.name()
                        );
                        if let Some(v) = &out.liveness {
                            assert!(v.stuck_count() > 0);
                            assert!(!v.step_limited);
                        }
                        if let Some(w) = &out.violation {
                            assert!(
                                eval::check_instantiation(spec, &out.user_run, w),
                                "{} / {spec} / fault {fi} / seed {seed}: reported \
                                 witness does not satisfy the predicate",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// A permanent crash wedges the run and the verdict names the crash
    /// — not just "non-quiescent".
    #[test]
    fn crash_without_restart_is_blamed_in_liveness_verdict() {
        use msgorder_simnet::{Blame, StuckCause};
        let n = 3;
        let fault = FaultModel::none().with_crash(1, 1, None);
        let out = run_and_verify(
            config(n, 3).with_faults(fault),
            Workload::uniform_random(n, 12, 3),
            |node| ProtocolKind::Fifo.instantiate_with(n, node, true),
            &catalog::fifo(),
        );
        assert!(out.counterexample.is_none(), "no protocol bug");
        assert!(!out.live, "messages touching P1 can never finish");
        let v = out.liveness.expect("non-live run carries a verdict");
        assert!(v.stuck_count() > 0);
        let crashed = msgorder_runs::ProcessId(1);
        for s in &v.stuck {
            match s.cause {
                StuckCause::ArrivalAtCrashedProcess { node }
                | StuckCause::CrashedWithoutRestart { node } => assert_eq!(node, crashed),
                StuckCause::FrameLost { .. } => {
                    // A frame eaten mid-backoff by the crash window is
                    // accounted at the link; it must involve P1.
                    assert!(matches!(
                        s.blame,
                        Blame::Link { from, to } if from == crashed || to == crashed
                    ));
                }
                other => panic!("unexpected cause {other:?} for {s}"),
            }
        }
    }

    /// Online detection fires strictly before the simulation drains:
    /// the halting pipeline stops with messages still undelivered.
    #[test]
    fn seeded_fifo_violation_detected_strictly_before_drain() {
        let spec = catalog::fifo();
        let mut checked = false;
        for seed in 0..40 {
            let n = 3;
            let w = Workload::uniform_random(n, 12, seed);
            let full = run_and_verify(config(n, seed), w.clone(), |_| AsyncProtocol::new(), &spec);
            if full.safe {
                continue;
            }
            assert!(full.live, "async drains");
            let total_events = 4 * full.user_run.len();
            let at = full.detection_event.expect("violation found online");
            assert!(
                at < total_events - 1,
                "seed {seed}: detection at event {at} of {total_events} \
                 must precede the drain"
            );
            // Same seed, halting monitor: identical detection point,
            // and the prefix view is strictly smaller than the full run.
            let mut monitor = OnlineMonitor::halting(&spec);
            let early = Simulation::new(config(n, seed), w, |_| AsyncProtocol::new())
                .run_streaming(&mut monitor)
                .expect("async never trips a kernel invariant");
            assert!(early.halted && monitor.violated());
            assert_eq!(monitor.detection_event(), full.detection_event);
            assert_eq!(monitor.detection_time(), full.detection_time);
            assert!(
                early.run.users_view().len() < full.user_run.len(),
                "seed {seed}: halting before drain must leave messages incomplete"
            );
            checked = true;
        }
        assert!(checked, "no seed produced a FIFO violation");
    }

    /// The real predicate monitor prunes condemned schedule prefixes in
    /// exhaustive exploration, and every surviving run satisfies the spec.
    #[test]
    fn exploration_with_online_monitor_prunes_violating_schedules() {
        let spec = catalog::fifo();
        // Two same-channel messages: async exploration reaches both
        // delivery orders; the monitor must condemn the reordered one.
        let send = |at| msgorder_simnet::SendSpec {
            at,
            src: 0,
            dst: 1,
            color: None,
        };
        let w = Workload {
            sends: vec![send(0), send(1)],
        };
        let opts = ExploreOptions {
            cap: 10_000,
            ..ExploreOptions::default()
        };
        let plain = explore_parallel_with(2, w.clone(), |_| AsyncProtocol::new(), &opts, &|_| true);
        assert!(plain.error.is_none());
        let plain_total = plain.schedules;
        let surviving = AtomicUsize::new(0);
        let monitored = explore_monitored_with(
            2,
            w,
            |_| AsyncProtocol::new(),
            OnlineMonitor::new(&spec),
            &opts,
            &|run| {
                assert!(
                    eval::find_instantiation(&spec, &run.users_view()).is_none(),
                    "a surviving schedule violates FIFO"
                );
                surviving.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        let surviving = surviving.into_inner();
        assert!(monitored.error.is_none());
        assert!(monitored.pruned > 0, "reordered schedules must be pruned");
        assert_eq!(monitored.schedules, surviving);
        assert!(
            surviving < plain_total,
            "pruning must remove some of the {plain_total} schedules"
        );
    }

    fn cross_workload(n: usize, msgs: usize) -> Workload {
        // Every process sends `msgs` messages round-robin to the next —
        // plenty of commuting deliveries for the sleep sets to merge.
        let sends = (0..msgs)
            .map(|i| msgorder_simnet::SendSpec {
                at: i as u64,
                src: i % n,
                dst: (i + 1) % n,
                color: None,
            })
            .collect();
        Workload { sends }
    }

    /// FIFO protocol vs FIFO spec: exhaustively safe, and the reduced
    /// search actually skipped commuting interleavings.
    #[test]
    fn fifo_exhaustively_safe_under_reduction() {
        let spec = catalog::fifo();
        let opts = ExploreOptions {
            por: true,
            ..ExploreOptions::default()
        };
        let out = verify_exhaustive(
            3,
            cross_workload(3, 6),
            |_| FifoProtocol::new(),
            &spec,
            &opts,
        );
        assert!(out.safe, "FIFO protocol violates its own spec");
        assert_eq!(out.exploration.pruned, 0);
        assert!(out.exploration.error.is_none());
        assert!(!out.exploration.truncated);
        assert!(
            out.exploration.sleep_skipped > 0,
            "reduction never fired on a commuting workload"
        );
    }

    /// Async vs FIFO: some schedule reorders a channel, and the
    /// exhaustive verdict is identical with and without reduction,
    /// deduplication and worker threads.
    #[test]
    fn exhaustive_verdict_stable_across_reduction_and_dedup() {
        use msgorder_simnet::DedupMode;
        let spec = catalog::fifo();
        let send = |at| msgorder_simnet::SendSpec {
            at,
            src: 0,
            dst: 1,
            color: None,
        };
        let w = Workload {
            sends: vec![send(0), send(1), send(2)],
        };
        let variants = [
            ExploreOptions::default(),
            ExploreOptions {
                por: true,
                ..ExploreOptions::default()
            },
            ExploreOptions {
                por: true,
                dedup: DedupMode::Exact,
                ..ExploreOptions::default()
            },
            ExploreOptions {
                por: true,
                threads: 2,
                ..ExploreOptions::default()
            },
            ExploreOptions {
                por: true,
                threads: 2,
                dedup: DedupMode::Exact,
                ..ExploreOptions::default()
            },
        ];
        for opts in &variants {
            let out = verify_exhaustive(2, w.clone(), |_| AsyncProtocol::new(), &spec, opts);
            assert!(!out.safe, "async must violate FIFO under {opts:?}");
            assert!(out.exploration.pruned > 0);
            let fifo = verify_exhaustive(2, w.clone(), |_| FifoProtocol::new(), &spec, opts);
            assert!(fifo.safe, "FIFO must stay safe under {opts:?}");
        }
    }
}
