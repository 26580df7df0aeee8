//! Run metrics: counters and log₂ histograms collected from the kernel
//! event stream via the same [`RunObserver`] hook the tracer uses.
//!
//! [`MetricsObserver`] rides along a simulation (alone or fanned out
//! next to a [`Recorder`](crate::Recorder) / online monitor) and is
//! folded into a [`Metrics`] report with
//! [`finish`](MetricsObserver::finish). All message timings are in
//! simulated ticks; only `wall_nanos` (and thus deliveries/sec) uses
//! the host clock.

use crate::registry::{names, MetricsRegistry, SharedRegistry};
use msgorder_predicate::eval::MonitorTimings;
use msgorder_runs::{EventKind, StreamingRun, SystemEvent};
use msgorder_simnet::{
    DropReason, FaultModel, FaultRecord, KernelEvent, PayloadKind, RunObserver, WireRecord,
};
use std::collections::HashMap;

/// A log₂-bucketed histogram of `u64` samples: bucket `i` holds samples
/// in `[2^i, 2^(i+1))` (bucket 0 also takes 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`), resolved to
    /// bucket granularity: the exclusive upper edge of the bucket the
    /// quantile sample falls in.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max
    }

    /// Folds `other` into this histogram: buckets and sums add,
    /// extrema widen. The result is exactly the histogram of the two
    /// sample streams interleaved.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Renders the non-empty buckets as `[lo, hi): count` lines.
    pub fn render(&self, indent: &str) -> String {
        let mut out = String::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = if i == 0 { 0u64 } else { 1u64 << i };
            if i >= 63 {
                out.push_str(&format!("{indent}[{lo}, ..): {c}\n"));
            } else {
                out.push_str(&format!("{indent}[{lo}, {}): {c}\n", 1u64 << (i + 1)));
            }
        }
        out
    }
}

impl From<&MonitorTimings> for Histogram {
    fn from(t: &MonitorTimings) -> Histogram {
        let mut h = Histogram::new();
        h.buckets[..t.buckets.len()].copy_from_slice(&t.buckets);
        h.count = t.searches;
        h.sum = t.total_nanos;
        h.max = t.max_nanos;
        // MonitorTimings does not track the minimum; approximate with the
        // smallest non-empty bucket's lower edge.
        h.min = t.buckets.iter().position(|&c| c > 0).map_or(u64::MAX, |i| {
            if i == 0 {
                0
            } else {
                1u64 << i
            }
        });
        h
    }
}

/// The metrics report of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Host wall-clock time of the run, in nanoseconds.
    pub wall_nanos: u64,
    /// User messages delivered.
    pub deliveries: u64,
    /// End-to-end delivery latency (`deliver - invoke`), in sim ticks.
    pub delivery_latency: Histogram,
    /// Protocol inhibition (`deliver - receive`), in sim ticks.
    pub inhibition: Histogram,
    /// User frames put on the wire (including retransmissions).
    pub user_frames: u64,
    /// Control frames put on the wire (including retransmissions).
    pub control_frames: u64,
    /// Total user-frame tag bytes on the wire.
    pub user_bytes: u64,
    /// Total control-frame bytes on the wire.
    pub control_bytes: u64,
    /// Frames marked as retransmissions.
    pub retransmissions: u64,
    /// Frames eaten by partitions.
    pub partition_drops: u64,
    /// Frames eaten by random loss.
    pub loss_drops: u64,
    /// Duplicate frame copies created by the network.
    pub duplicates: u64,
    /// Frames lost to (or deferred by) crash windows.
    pub crash_effects: u64,
    /// Messages whose latency tracking was evicted on a terminal
    /// outcome (dropped with no retransmission layer, destination
    /// crashed for good, or still undelivered when the run ended) —
    /// the count that keeps the in-flight map bounded on soak runs.
    pub messages_abandoned: u64,
    /// The online monitor's delta-search timings (host nanoseconds),
    /// when a monitor ran alongside.
    pub monitor_search_nanos: Option<Histogram>,
}

impl Metrics {
    /// Deliveries per host wall-clock second.
    pub fn deliveries_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.deliveries as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Control overhead: control frames per user frame.
    pub fn control_overhead(&self) -> f64 {
        if self.user_frames == 0 {
            0.0
        } else {
            self.control_frames as f64 / self.user_frames as f64
        }
    }

    /// Renders the report as the human-readable block `msgorder simulate
    /// --metrics` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "wall time           {:.3} ms\n",
            self.wall_nanos as f64 / 1e6
        ));
        out.push_str(&format!(
            "deliveries          {} ({:.0}/s wall)\n",
            self.deliveries,
            self.deliveries_per_sec()
        ));
        out.push_str(&format!(
            "wire frames         {} user + {} control ({:.2} ctl/user), {} retransmitted\n",
            self.user_frames,
            self.control_frames,
            self.control_overhead(),
            self.retransmissions
        ));
        out.push_str(&format!(
            "wire bytes          {} tag + {} control\n",
            self.user_bytes, self.control_bytes
        ));
        out.push_str(&format!(
            "faults              {} partition drops, {} losses, {} duplicates, {} crash effects\n",
            self.partition_drops, self.loss_drops, self.duplicates, self.crash_effects
        ));
        if self.messages_abandoned > 0 {
            out.push_str(&format!(
                "abandoned           {} messages never delivered\n",
                self.messages_abandoned
            ));
        }
        out.push_str(&format!(
            "delivery latency    mean {:.1}, p50 ≤{}, p99 ≤{}, max {} ticks\n",
            self.delivery_latency.mean(),
            self.delivery_latency.quantile(0.5),
            self.delivery_latency.quantile(0.99),
            self.delivery_latency.max
        ));
        out.push_str("  histogram (ticks):\n");
        out.push_str(&self.delivery_latency.render("    "));
        out.push_str(&format!(
            "inhibition          mean {:.1}, max {} ticks\n",
            self.inhibition.mean(),
            self.inhibition.max
        ));
        if let Some(mon) = &self.monitor_search_nanos {
            out.push_str(&format!(
                "monitor searches    {} (mean {:.0} ns, p99 ≤{} ns, max {} ns)\n",
                mon.count,
                mon.mean(),
                mon.quantile(0.99),
                mon.max
            ));
            out.push_str("  histogram (ns):\n");
            out.push_str(&mon.render("    "));
        }
        out
    }
}

/// Per-message latency anchors, held only while the message is in
/// flight. Entries leave the map on delivery or on a provably terminal
/// outcome — the fix for the unbounded-growth leak soak runs hit.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    invoke: Option<u64>,
    receive: Option<u64>,
}

/// A multiply-rotate hasher for the small-integer message-id keys: the
/// default SipHash costs more than everything else on the observer's
/// per-event path, and these keys need no DoS resistance.
#[derive(Debug, Default)]
struct MsgIdHasher(u64);

impl std::hash::Hasher for MsgIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

type PendingMap = HashMap<usize, Pending, std::hash::BuildHasherDefault<MsgIdHasher>>;

/// A [`RunObserver`] that folds the kernel event stream into a
/// [`Metrics`] report. Opts into wire records to count frames, bytes,
/// and fault effects.
///
/// Memory stays `O(in-flight messages)`: latency anchors are evicted
/// when a message delivers, and — with
/// [`with_terminal_eviction`](MetricsObserver::with_terminal_eviction)
/// — as soon as its last chance of delivery is gone (frame dropped
/// with no retransmission layer, or destination permanently crashed).
/// Whatever is still pending at [`finish`](MetricsObserver::finish)
/// is counted as abandoned.
#[derive(Debug)]
pub struct MetricsObserver {
    started: std::time::Instant,
    pending: PendingMap,
    /// Evict on any drop: set when no retransmission layer exists, so
    /// a dropped user frame is the end of that message's story.
    evict_on_drop: bool,
    /// Known fault schedules, for spotting frames bound for a
    /// permanently crashed destination.
    faults: Option<FaultModel>,
    messages_abandoned: u64,
    deliveries: u64,
    delivery_latency: Histogram,
    inhibition: Histogram,
    user_frames: u64,
    control_frames: u64,
    user_bytes: u64,
    control_bytes: u64,
    retransmissions: u64,
    partition_drops: u64,
    loss_drops: u64,
    duplicates: u64,
    crash_effects: u64,
    /// Frames rejected by protocol validation, indexed by
    /// [`RejectReason`] discriminant order (malformed, stale-epoch,
    /// replayed, unexpected).
    rejected: [u64; 4],
}

impl MetricsObserver {
    /// Starts the wall clock.
    pub fn new() -> MetricsObserver {
        MetricsObserver {
            started: std::time::Instant::now(),
            pending: PendingMap::default(),
            evict_on_drop: false,
            faults: None,
            messages_abandoned: 0,
            deliveries: 0,
            delivery_latency: Histogram::new(),
            inhibition: Histogram::new(),
            user_frames: 0,
            control_frames: 0,
            user_bytes: 0,
            control_bytes: 0,
            retransmissions: 0,
            partition_drops: 0,
            loss_drops: 0,
            duplicates: 0,
            crash_effects: 0,
            rejected: [0; 4],
        }
    }

    /// Enables mid-run eviction of messages that can no longer be
    /// delivered. `reliable` says whether a retransmission layer runs
    /// under the protocol (if so, a dropped frame is *not* terminal);
    /// `faults` is the run's fault model, used to recognise frames
    /// bound for a permanently crashed destination.
    pub fn with_terminal_eviction(mut self, reliable: bool, faults: &FaultModel) -> Self {
        self.evict_on_drop = !reliable;
        self.faults = Some(faults.clone());
        self
    }

    /// Messages currently tracked for latency — the bound the
    /// soak-memory test asserts on.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Messages evicted on a terminal outcome so far.
    pub fn abandoned(&self) -> u64 {
        self.messages_abandoned
    }

    fn abandon(&mut self, msg: usize) {
        if self.pending.remove(&msg).is_some() {
            self.messages_abandoned += 1;
        }
    }

    /// Folds the observation into a [`Metrics`] report, stopping the
    /// wall clock. Messages still awaiting delivery count as abandoned
    /// — the run is over.
    pub fn finish(mut self) -> Metrics {
        self.messages_abandoned += self.pending.len() as u64;
        self.pending.clear();
        Metrics {
            wall_nanos: self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            deliveries: self.deliveries,
            delivery_latency: self.delivery_latency,
            inhibition: self.inhibition,
            user_frames: self.user_frames,
            control_frames: self.control_frames,
            user_bytes: self.user_bytes,
            control_bytes: self.control_bytes,
            retransmissions: self.retransmissions,
            partition_drops: self.partition_drops,
            loss_drops: self.loss_drops,
            duplicates: self.duplicates,
            crash_effects: self.crash_effects,
            messages_abandoned: self.messages_abandoned,
            monitor_search_nanos: None,
        }
    }

    /// Flushes the counters and histograms accumulated since the last
    /// drain into `reg` and resets them, keeping only the in-flight
    /// latency anchors. Repeated drains therefore sum to exactly one
    /// big drain — the property the live observer and the soak
    /// harness lean on for bounded-memory metrics.
    pub fn drain_into(&mut self, reg: &mut MetricsRegistry) {
        // Zero deltas are skipped: [`declare_run_families`] registered
        // every family up front, so absence of an add never hides a
        // series — it only spares the registry lookups on the hot path.
        let mut counter = |name, labels: &[(&str, &str)], help, value: &mut u64| {
            if *value > 0 {
                reg.add_counter(name, labels, help, *value);
                *value = 0;
            }
        };
        counter(
            names::DELIVERIES,
            &[],
            names::HELP_DELIVERIES,
            &mut self.deliveries,
        );
        counter(
            names::USER_FRAMES,
            &[],
            names::HELP_USER_FRAMES,
            &mut self.user_frames,
        );
        counter(
            names::CONTROL_FRAMES,
            &[],
            names::HELP_CONTROL_FRAMES,
            &mut self.control_frames,
        );
        counter(
            names::USER_BYTES,
            &[],
            names::HELP_USER_BYTES,
            &mut self.user_bytes,
        );
        counter(
            names::CONTROL_BYTES,
            &[],
            names::HELP_CONTROL_BYTES,
            &mut self.control_bytes,
        );
        counter(
            names::RETRANSMISSIONS,
            &[],
            names::HELP_RETRANSMISSIONS,
            &mut self.retransmissions,
        );
        counter(
            names::DROPS,
            &[("reason", "partition")],
            names::HELP_DROPS,
            &mut self.partition_drops,
        );
        counter(
            names::DROPS,
            &[("reason", "loss")],
            names::HELP_DROPS,
            &mut self.loss_drops,
        );
        const REJECT_LABELS: [&str; 4] = ["malformed", "stale-epoch", "replayed", "unexpected"];
        for (i, label) in REJECT_LABELS.iter().enumerate() {
            let mut v = self.rejected[i];
            counter(
                names::REJECTED,
                &[("reason", *label)],
                names::HELP_REJECTED,
                &mut v,
            );
            self.rejected[i] = v;
        }
        counter(
            names::DUPLICATES,
            &[],
            names::HELP_DUPLICATES,
            &mut self.duplicates,
        );
        counter(
            names::CRASH_EFFECTS,
            &[],
            names::HELP_CRASH_EFFECTS,
            &mut self.crash_effects,
        );
        counter(
            names::ABANDONED,
            &[],
            names::HELP_ABANDONED,
            &mut self.messages_abandoned,
        );
        if self.delivery_latency.count > 0 {
            reg.merge_histogram(
                names::DELIVERY_LATENCY,
                &[],
                names::HELP_DELIVERY_LATENCY,
                &self.delivery_latency,
            );
            self.delivery_latency = Histogram::new();
        }
        if self.inhibition.count > 0 {
            reg.merge_histogram(
                names::INHIBITION,
                &[],
                names::HELP_INHIBITION,
                &self.inhibition,
            );
            self.inhibition = Histogram::new();
        }
        reg.set_gauge(
            names::IN_FLIGHT,
            &[],
            names::HELP_IN_FLIGHT,
            self.pending.len() as f64,
        );
    }

    /// Like [`finish`](MetricsObserver::finish), attaching the online
    /// monitor's delta-search timings.
    pub fn finish_with_monitor(self, timings: &MonitorTimings) -> Metrics {
        let mut m = self.finish();
        m.monitor_search_nanos = Some(Histogram::from(timings));
        m
    }

    /// Replays a recorded event stream through the observer — lets
    /// `msgorder replay --metrics` report on a trace without re-running
    /// the kernel.
    pub fn consume(&mut self, events: &[KernelEvent]) {
        for ev in events {
            match ev {
                KernelEvent::Run { ev, time } => self.observe_run(*ev, *time),
                KernelEvent::Wire(w) => self.on_wire(w),
                KernelEvent::Fault(f) => self.on_fault(f),
            }
        }
    }

    fn observe_run(&mut self, ev: SystemEvent, time: u64) {
        let msg = ev.msg.0;
        match ev.kind {
            EventKind::Invoke => {
                self.pending.entry(msg).or_default().invoke = Some(time);
            }
            EventKind::Send => {}
            EventKind::Receive => {
                let slot = &mut self.pending.entry(msg).or_default().receive;
                if slot.is_none() {
                    *slot = Some(time);
                }
            }
            EventKind::Deliver => {
                self.deliveries += 1;
                if let Some(p) = self.pending.remove(&msg) {
                    if let Some(t0) = p.invoke {
                        self.delivery_latency.record(time.saturating_sub(t0));
                    }
                    if let Some(t0) = p.receive {
                        self.inhibition.record(time.saturating_sub(t0));
                    }
                }
            }
        }
    }

    /// Marks user frames whose loss is provably the end of the message:
    /// dropped with no retransmission layer and no surviving duplicate,
    /// or bound for a destination that has crashed for good.
    fn observe_terminal_wire(&mut self, wire: &WireRecord) {
        let PayloadKind::User { msg, .. } = wire.payload else {
            return;
        };
        let terminal_drop =
            self.evict_on_drop && wire.dropped.is_some() && wire.dup_delay.is_none();
        let arrival = wire.time.saturating_add(wire.delay);
        let dead_destination = self
            .faults
            .as_ref()
            .is_some_and(|f| matches!(f.down_until(wire.to, arrival), Some(None)));
        if terminal_drop || dead_destination {
            self.abandon(msg.0);
        }
    }
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver::new()
    }
}

impl RunObserver for MetricsObserver {
    fn on_event(
        &mut self,
        _view: &StreamingRun,
        ev: SystemEvent,
        _index: usize,
        time: u64,
    ) -> bool {
        self.observe_run(ev, time);
        true
    }

    fn on_wire(&mut self, wire: &WireRecord) {
        match wire.payload {
            PayloadKind::User {
                bytes, retransmit, ..
            } => {
                self.user_frames += 1;
                self.user_bytes += bytes as u64;
                if retransmit {
                    self.retransmissions += 1;
                }
            }
            PayloadKind::Control { bytes, retransmit } => {
                self.control_frames += 1;
                self.control_bytes += bytes as u64;
                if retransmit {
                    self.retransmissions += 1;
                }
            }
        }
        match wire.dropped {
            Some(DropReason::Partition) => self.partition_drops += 1,
            Some(DropReason::Loss) => self.loss_drops += 1,
            None => {
                if wire.dup_delay.is_some() {
                    self.duplicates += 1;
                }
            }
        }
        self.observe_terminal_wire(wire);
    }

    fn on_fault(&mut self, fault: &FaultRecord) {
        match fault {
            FaultRecord::Rejected { reason, .. } => {
                self.rejected[*reason as usize] += 1;
            }
            _ => self.crash_effects += 1,
        }
    }

    fn wants_wire(&self) -> bool {
        true
    }
}

/// The live feed: a [`RunObserver`] that accumulates into a local
/// [`MetricsObserver`] and periodically drains the deltas into a
/// [`SharedRegistry`], so a Prometheus scrape (or `--metrics-out`
/// snapshot) sees fresh numbers *while* the kernel runs.
///
/// The registry lock is touched once per `flush_every` events (default
/// 1024), which keeps the live path within the EXP-TR1 <10% observer
/// overhead bar — BENCH_9 measures exactly this adapter.
#[derive(Debug)]
pub struct LiveMetrics {
    obs: MetricsObserver,
    registry: SharedRegistry,
    flush_every: usize,
    since_flush: usize,
}

impl LiveMetrics {
    /// Wraps `registry` with the default flush cadence. Into a fresh
    /// registry, every run-level family is declared immediately, so
    /// scrapers see the full schema before the first flush; a registry
    /// that already carries series (a soak's shared one) skips the
    /// re-declaration.
    pub fn new(registry: SharedRegistry) -> LiveMetrics {
        registry.with(|reg| {
            if reg.is_empty() {
                crate::registry::declare_run_families(reg);
            }
        });
        LiveMetrics {
            obs: MetricsObserver::new(),
            registry,
            flush_every: 1024,
            since_flush: 0,
        }
    }

    /// Sets how many kernel events may pass between registry flushes
    /// (clamped to at least 1).
    pub fn with_flush_every(mut self, every: usize) -> LiveMetrics {
        self.flush_every = every.max(1);
        self
    }

    /// Enables terminal eviction on the inner observer — see
    /// [`MetricsObserver::with_terminal_eviction`].
    pub fn with_terminal_eviction(mut self, reliable: bool, faults: &FaultModel) -> Self {
        self.obs = self.obs.with_terminal_eviction(reliable, faults);
        self
    }

    /// Messages currently tracked for latency.
    pub fn in_flight(&self) -> usize {
        self.obs.in_flight()
    }

    fn bump(&mut self) {
        self.since_flush += 1;
        if self.since_flush >= self.flush_every {
            self.flush();
        }
    }

    /// Drains accumulated deltas into the shared registry now.
    pub fn flush(&mut self) {
        self.since_flush = 0;
        let obs = &mut self.obs;
        self.registry.with(|reg| obs.drain_into(reg));
    }

    /// Final drain: whatever is still in flight is abandoned (the run
    /// is over), then the last deltas land in the registry.
    pub fn finish(mut self) {
        self.obs.messages_abandoned += self.obs.pending.len() as u64;
        self.obs.pending.clear();
        self.flush();
    }
}

impl RunObserver for LiveMetrics {
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool {
        let keep = self.obs.on_event(view, ev, index, time);
        self.bump();
        keep
    }

    fn on_wire(&mut self, wire: &WireRecord) {
        self.obs.on_wire(wire);
        self.bump();
    }

    fn on_fault(&mut self, fault: &FaultRecord) {
        self.obs.on_fault(fault);
        self.bump();
    }

    fn wants_wire(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[2], 1, "4");
        assert_eq!(h.buckets[3], 1, "8");
        assert_eq!(h.buckets[6], 1);
        assert!(h.quantile(0.5) >= 2);
        assert_eq!(h.quantile(1.0), 127, "100 falls in [64, 128)");
        assert!((h.mean() - 118.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.render("  "), "");
    }

    #[test]
    fn quantile_top_bucket_does_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn monitor_timings_fold_in() {
        let mut t = MonitorTimings {
            searches: 3,
            total_nanos: 300,
            max_nanos: 200,
            ..MonitorTimings::default()
        };
        t.buckets[6] = 2; // two ~100ns searches
        t.buckets[7] = 1;
        let h = Histogram::from(&t);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 300);
        assert_eq!(h.max, 200);
        assert_eq!(h.min(), 64);
    }

    #[test]
    fn metrics_render_mentions_the_headline_numbers() {
        let mut obs = MetricsObserver::new();
        use msgorder_runs::MessageId;
        obs.observe_run(
            SystemEvent {
                msg: MessageId(0),
                kind: EventKind::Invoke,
            },
            10,
        );
        obs.observe_run(
            SystemEvent {
                msg: MessageId(0),
                kind: EventKind::Receive,
            },
            30,
        );
        obs.observe_run(
            SystemEvent {
                msg: MessageId(0),
                kind: EventKind::Deliver,
            },
            40,
        );
        let m = obs.finish();
        assert_eq!(m.deliveries, 1);
        assert_eq!(m.delivery_latency.max, 30);
        assert_eq!(m.inhibition.max, 10);
        let text = m.render();
        assert!(text.contains("deliveries          1"), "{text}");
        assert!(text.contains("delivery latency"), "{text}");
    }
}
