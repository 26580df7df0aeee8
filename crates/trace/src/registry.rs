//! A process-wide metrics registry with a Prometheus text-format face.
//!
//! [`Metrics`](crate::Metrics) reports describe one finished run; a
//! [`MetricsRegistry`] is the always-on accumulator that
//! [`MetricsObserver::drain_into`](crate::metrics::MetricsObserver::drain_into)
//! (and through it the live [`LiveMetrics`](crate::LiveMetrics)
//! observer) feeds. It holds three kinds of series — monotone counters, gauges,
//! and the crate's log₂ [`Histogram`]s — keyed by metric name plus an
//! optional label set, and renders them in the Prometheus text
//! exposition format (`# HELP` / `# TYPE` headers, cumulative `le`
//! buckets derived from the log₂ buckets).
//!
//! Naming scheme (see DESIGN.md §15): every metric is prefixed
//! `msgorder_`, counters end in `_total`, histograms carry their unit
//! as a suffix (`_ticks`, `_nanos`). Metric families render in sorted
//! name order and label sets in sorted key order, so the encoding of a
//! given registry state is stable byte for byte.

use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The standard `msgorder_*` metric names and help strings — one
/// place, so the observer, the soak harness, and the tests can never
/// drift apart on spelling.
pub mod names {
    /// User messages delivered.
    pub const DELIVERIES: &str = "msgorder_deliveries_total";
    /// Help for [`DELIVERIES`].
    pub const HELP_DELIVERIES: &str = "User messages delivered.";
    /// User frames on the wire.
    pub const USER_FRAMES: &str = "msgorder_user_frames_total";
    /// Help for [`USER_FRAMES`].
    pub const HELP_USER_FRAMES: &str = "User frames put on the wire, retransmissions included.";
    /// Control frames on the wire.
    pub const CONTROL_FRAMES: &str = "msgorder_control_frames_total";
    /// Help for [`CONTROL_FRAMES`].
    pub const HELP_CONTROL_FRAMES: &str =
        "Control frames put on the wire, retransmissions included.";
    /// User-frame tag bytes.
    pub const USER_BYTES: &str = "msgorder_user_bytes_total";
    /// Help for [`USER_BYTES`].
    pub const HELP_USER_BYTES: &str = "User-frame tag bytes on the wire.";
    /// Control-frame bytes.
    pub const CONTROL_BYTES: &str = "msgorder_control_bytes_total";
    /// Help for [`CONTROL_BYTES`].
    pub const HELP_CONTROL_BYTES: &str = "Control-frame bytes on the wire.";
    /// Retransmitted frames.
    pub const RETRANSMISSIONS: &str = "msgorder_retransmissions_total";
    /// Help for [`RETRANSMISSIONS`].
    pub const HELP_RETRANSMISSIONS: &str = "Frames marked as retransmissions.";
    /// Dropped frames, labeled by `reason` (`partition` / `loss`).
    pub const DROPS: &str = "msgorder_drops_total";
    /// Help for [`DROPS`].
    pub const HELP_DROPS: &str = "Frames eaten by the network, by reason.";
    /// Frames rejected by a protocol or transport guard, labeled by
    /// `reason` (`malformed` / `stale-epoch` / `replayed` /
    /// `unexpected` in simulation, `crc` on the real wire).
    pub const REJECTED: &str = "msgorder_frames_rejected_total";
    /// Help for [`REJECTED`].
    pub const HELP_REJECTED: &str = "Frames rejected by validation, by reason.";
    /// Duplicated frame copies.
    pub const DUPLICATES: &str = "msgorder_duplicate_frames_total";
    /// Help for [`DUPLICATES`].
    pub const HELP_DUPLICATES: &str = "Duplicate frame copies created by the network.";
    /// Crash-window effects.
    pub const CRASH_EFFECTS: &str = "msgorder_crash_effects_total";
    /// Help for [`CRASH_EFFECTS`].
    pub const HELP_CRASH_EFFECTS: &str = "Frames lost to (or deferred by) crash windows.";
    /// Messages abandoned before delivery.
    pub const ABANDONED: &str = "msgorder_messages_abandoned_total";
    /// Help for [`ABANDONED`].
    pub const HELP_ABANDONED: &str =
        "Messages evicted from latency tracking on a terminal outcome (never delivered).";
    /// Messages currently awaiting delivery.
    pub const IN_FLIGHT: &str = "msgorder_in_flight_messages";
    /// Help for [`IN_FLIGHT`].
    pub const HELP_IN_FLIGHT: &str = "Messages invoked or received but not yet delivered.";
    /// Delivery latency histogram (sim ticks).
    pub const DELIVERY_LATENCY: &str = "msgorder_delivery_latency_ticks";
    /// Help for [`DELIVERY_LATENCY`].
    pub const HELP_DELIVERY_LATENCY: &str =
        "End-to-end delivery latency (deliver - invoke), sim ticks.";
    /// Inhibition histogram (sim ticks).
    pub const INHIBITION: &str = "msgorder_inhibition_ticks";
    /// Help for [`INHIBITION`].
    pub const HELP_INHIBITION: &str = "Protocol inhibition (deliver - receive), sim ticks.";
    /// Online-monitor delta-search timings (host nanoseconds).
    pub const MONITOR_SEARCH: &str = "msgorder_monitor_search_nanos";
    /// Help for [`MONITOR_SEARCH`].
    pub const HELP_MONITOR_SEARCH: &str =
        "Online monitor delta-search durations, host nanoseconds.";
    /// Realtime kernel dispatches.
    pub const RT_DISPATCHES: &str = "msgorder_realtime_dispatches_total";
    /// Help for [`RT_DISPATCHES`].
    pub const HELP_RT_DISPATCHES: &str = "Events dispatched by the realtime kernel.";
    /// Realtime dispatches that ran behind the wall clock.
    pub const RT_LATE: &str = "msgorder_realtime_late_dispatches_total";
    /// Help for [`RT_LATE`].
    pub const HELP_RT_LATE: &str = "Realtime dispatches that ran later than their virtual time.";
    /// Worst positive drift seen (ticks).
    pub const RT_MAX_DRIFT: &str = "msgorder_realtime_max_drift_ticks";
    /// Help for [`RT_MAX_DRIFT`].
    pub const HELP_RT_MAX_DRIFT: &str =
        "Largest wall-behind-schedule drift observed, virtual ticks.";
    /// Most negative drift seen (ticks; negative means the wall clock
    /// read earlier than the virtual schedule).
    pub const RT_MIN_DRIFT: &str = "msgorder_realtime_min_drift_ticks";
    /// Help for [`RT_MIN_DRIFT`].
    pub const HELP_RT_MIN_DRIFT: &str =
        "Most negative drift observed (wall ahead of schedule), virtual ticks.";
    /// Backwards wall-clock steps.
    pub const RT_CLOCK_BACKWARDS: &str = "msgorder_clock_backwards_total";
    /// Help for [`RT_CLOCK_BACKWARDS`].
    pub const HELP_RT_CLOCK_BACKWARDS: &str =
        "Times the wall clock read earlier than a previous reading.";
    /// Soak episodes completed.
    pub const SOAK_EPISODES: &str = "msgorder_soak_episodes_total";
    /// Help for [`SOAK_EPISODES`].
    pub const HELP_SOAK_EPISODES: &str = "Soak episodes completed.";
    /// Soak messages injected.
    pub const SOAK_MESSAGES: &str = "msgorder_soak_messages_total";
    /// Help for [`SOAK_MESSAGES`].
    pub const HELP_SOAK_MESSAGES: &str = "User messages injected across soak episodes.";
    /// Soak episodes whose online monitor saw a spec violation.
    pub const SOAK_VIOLATIONS: &str = "msgorder_soak_spec_violations_total";
    /// Help for [`SOAK_VIOLATIONS`].
    pub const HELP_SOAK_VIOLATIONS: &str =
        "Soak episodes where the online monitor flagged a specification violation.";
    /// Soak episodes that ended in a structured protocol bug.
    pub const SOAK_PROTOCOL_BUGS: &str = "msgorder_soak_protocol_bugs_total";
    /// Help for [`SOAK_PROTOCOL_BUGS`].
    pub const HELP_SOAK_PROTOCOL_BUGS: &str =
        "Soak episodes that ended in a structured protocol bug (SimError).";
    /// Soak episodes with a non-live verdict.
    pub const SOAK_NONLIVE: &str = "msgorder_soak_nonlive_episodes_total";
    /// Help for [`SOAK_NONLIVE`].
    pub const HELP_SOAK_NONLIVE: &str =
        "Soak episodes whose liveness verdict reported stuck messages.";
    /// Stuck messages by blame class.
    pub const SOAK_STUCK: &str = "msgorder_soak_stuck_messages_total";
    /// Help for [`SOAK_STUCK`].
    pub const HELP_SOAK_STUCK: &str =
        "Stuck messages reported by liveness blame analysis, by class.";
    /// Soak wall-clock uptime.
    pub const SOAK_UPTIME: &str = "msgorder_soak_uptime_seconds";
    /// Help for [`SOAK_UPTIME`].
    pub const HELP_SOAK_UPTIME: &str = "Wall-clock seconds since the soak started.";
}

/// What a metric family measures: its Prometheus `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A log₂ [`Histogram`] rendered with cumulative `le` buckets.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Sample {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Keyed by the canonical rendered label set (`""` for none).
    series: BTreeMap<String, Sample>,
}

/// The metric accumulator behind the Prometheus endpoint.
///
/// All mutating entry points take the family's help text so call sites
/// stay self-documenting; the first registration of a name fixes its
/// kind and help, and later calls with a conflicting kind are ignored
/// (debug builds assert — that is a programming error, not data).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// Renders a label set in canonical form: sorted by key, values
/// escaped per the Prometheus text format.
fn label_string(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// True when no family has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn family(&mut self, name: &str, kind: MetricKind, help: &str) -> Option<&mut Family> {
        let fam = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                help: help.to_string(),
                series: BTreeMap::new(),
            });
        if fam.kind != kind {
            debug_assert!(
                false,
                "metric {name} re-registered as {kind:?}, was {:?}",
                fam.kind
            );
            return None;
        }
        Some(fam)
    }

    /// Adds `delta` to a counter series, creating it at zero first.
    pub fn add_counter(&mut self, name: &str, labels: &[(&str, &str)], help: &str, delta: u64) {
        let key = label_string(labels);
        if let Some(fam) = self.family(name, MetricKind::Counter, help) {
            match fam.series.entry(key).or_insert(Sample::Counter(0)) {
                Sample::Counter(c) => *c += delta,
                _ => debug_assert!(false, "series kind mismatch for {name}"),
            }
        }
    }

    /// Sets a gauge series to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], help: &str, value: f64) {
        let key = label_string(labels);
        if let Some(fam) = self.family(name, MetricKind::Gauge, help) {
            fam.series.insert(key, Sample::Gauge(value));
        }
    }

    /// Sets a gauge from a signed integer (drift extrema are signed).
    pub fn set_gauge_i64(&mut self, name: &str, labels: &[(&str, &str)], help: &str, value: i64) {
        self.set_gauge(name, labels, help, value as f64);
    }

    /// Merges `h` into a histogram series (bucket-wise addition).
    pub fn merge_histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        h: &Histogram,
    ) {
        if h.count == 0 {
            // Still register the family so the endpoint shows it.
            self.family(name, MetricKind::Histogram, help);
            return;
        }
        let key = label_string(labels);
        if let Some(fam) = self.family(name, MetricKind::Histogram, help) {
            match fam
                .series
                .entry(key)
                .or_insert_with(|| Sample::Histogram(Histogram::new()))
            {
                Sample::Histogram(mine) => mine.merge(h),
                _ => debug_assert!(false, "series kind mismatch for {name}"),
            }
        }
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self
            .families
            .get(name)
            .and_then(|f| f.series.get(&label_string(labels)))
        {
            Some(Sample::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of a gauge series, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self
            .families
            .get(name)
            .and_then(|f| f.series.get(&label_string(labels)))
        {
            Some(Sample::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The accumulated histogram behind a series, if any samples landed.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self
            .families
            .get(name)
            .and_then(|f| f.series.get(&label_string(labels)))
        {
            Some(Sample::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Folds every series of `other` into this registry: counters add,
    /// gauges take `other`'s value, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, fam) in &other.families {
            // Register even series-less families so they carry over.
            let Some(target) = self.family(name, fam.kind, &fam.help) else {
                continue;
            };
            for (key, sample) in &fam.series {
                match sample {
                    Sample::Counter(c) => {
                        if let Sample::Counter(mine) = target
                            .series
                            .entry(key.clone())
                            .or_insert(Sample::Counter(0))
                        {
                            *mine += c;
                        }
                    }
                    Sample::Gauge(g) => {
                        target.series.insert(key.clone(), Sample::Gauge(*g));
                    }
                    Sample::Histogram(h) => {
                        if let Sample::Histogram(mine) = target
                            .series
                            .entry(key.clone())
                            .or_insert_with(|| Sample::Histogram(Histogram::new()))
                        {
                            mine.merge(h);
                        }
                    }
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Families render in name order, series in canonical label order;
    /// histogram buckets become cumulative `le` series whose bounds are
    /// the inclusive upper edges `2^(i+1) - 1` of the log₂ buckets,
    /// closed by `+Inf`, `_sum`, and `_count`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.as_str()));
            for (key, sample) in &fam.series {
                match sample {
                    Sample::Counter(c) => {
                        out.push_str(&render_line(name, key, &c.to_string()));
                    }
                    Sample::Gauge(g) => {
                        out.push_str(&render_line(name, key, &format_f64(*g)));
                    }
                    Sample::Histogram(h) => {
                        encode_histogram(&mut out, name, key, h);
                    }
                }
            }
        }
        out
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_line(name: &str, key: &str, value: &str) -> String {
    if key.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{key}}} {value}\n")
    }
}

/// The inclusive upper bound of log₂ bucket `i` (`[2^i, 2^(i+1))` over
/// integers, so `2^(i+1) - 1`), rendered in decimal.
fn bucket_le(i: usize) -> String {
    ((1u128 << (i + 1)) - 1).to_string()
}

fn encode_histogram(out: &mut String, name: &str, key: &str, h: &Histogram) {
    let highest = h.buckets.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(hi) = highest {
        for (i, &c) in h.buckets.iter().enumerate().take(hi + 1) {
            cumulative += c;
            let le = bucket_le(i);
            let labels = if key.is_empty() {
                format!("le=\"{le}\"")
            } else {
                format!("{key},le=\"{le}\"")
            };
            out.push_str(&format!("{name}_bucket{{{labels}}} {cumulative}\n"));
        }
    }
    let inf = if key.is_empty() {
        "le=\"+Inf\"".to_string()
    } else {
        format!("{key},le=\"+Inf\"")
    };
    out.push_str(&format!("{name}_bucket{{{inf}}} {}\n", h.count));
    out.push_str(&render_line(
        &format!("{name}_sum"),
        key,
        &h.sum.to_string(),
    ));
    out.push_str(&render_line(
        &format!("{name}_count"),
        key,
        &h.count.to_string(),
    ));
}

/// Pre-registers every run-level metric family at zero so scrapers see
/// the full schema from the first scrape, before any traffic flows.
/// Called once per [`LiveMetrics`](crate::LiveMetrics); the observer's
/// delta flushes can then skip zero counters without hiding families.
pub fn declare_run_families(reg: &mut MetricsRegistry) {
    reg.add_counter(names::DELIVERIES, &[], names::HELP_DELIVERIES, 0);
    reg.add_counter(names::USER_FRAMES, &[], names::HELP_USER_FRAMES, 0);
    reg.add_counter(names::CONTROL_FRAMES, &[], names::HELP_CONTROL_FRAMES, 0);
    reg.add_counter(names::USER_BYTES, &[], names::HELP_USER_BYTES, 0);
    reg.add_counter(names::CONTROL_BYTES, &[], names::HELP_CONTROL_BYTES, 0);
    reg.add_counter(names::RETRANSMISSIONS, &[], names::HELP_RETRANSMISSIONS, 0);
    reg.add_counter(
        names::DROPS,
        &[("reason", "partition")],
        names::HELP_DROPS,
        0,
    );
    reg.add_counter(names::DROPS, &[("reason", "loss")], names::HELP_DROPS, 0);
    for reason in ["malformed", "stale-epoch", "replayed", "unexpected", "crc"] {
        reg.add_counter(
            names::REJECTED,
            &[("reason", reason)],
            names::HELP_REJECTED,
            0,
        );
    }
    reg.add_counter(names::DUPLICATES, &[], names::HELP_DUPLICATES, 0);
    reg.add_counter(names::CRASH_EFFECTS, &[], names::HELP_CRASH_EFFECTS, 0);
    reg.add_counter(names::ABANDONED, &[], names::HELP_ABANDONED, 0);
    reg.set_gauge(names::IN_FLIGHT, &[], names::HELP_IN_FLIGHT, 0.0);
    let empty = Histogram::new();
    reg.merge_histogram(
        names::DELIVERY_LATENCY,
        &[],
        names::HELP_DELIVERY_LATENCY,
        &empty,
    );
    reg.merge_histogram(names::INHIBITION, &[], names::HELP_INHIBITION, &empty);
}

/// Folds one realtime run's [`DriftStats`](msgorder_simnet::DriftStats)
/// into the registry: dispatch/late/backwards counts accumulate,
/// drift extrema land as gauges (widened, not overwritten, so a soak of
/// many runs keeps its worst excursions).
pub fn observe_drift(reg: &mut MetricsRegistry, drift: &msgorder_simnet::DriftStats) {
    reg.add_counter(
        names::RT_DISPATCHES,
        &[],
        names::HELP_RT_DISPATCHES,
        drift.dispatches,
    );
    reg.add_counter(names::RT_LATE, &[], names::HELP_RT_LATE, drift.late);
    reg.add_counter(
        names::RT_CLOCK_BACKWARDS,
        &[],
        names::HELP_RT_CLOCK_BACKWARDS,
        drift.clock_went_backwards,
    );
    let worst_min = reg
        .gauge(names::RT_MIN_DRIFT, &[])
        .unwrap_or(0.0)
        .min(drift.min_drift as f64);
    reg.set_gauge_i64(
        names::RT_MIN_DRIFT,
        &[],
        names::HELP_RT_MIN_DRIFT,
        worst_min as i64,
    );
    let worst_max = reg
        .gauge(names::RT_MAX_DRIFT, &[])
        .unwrap_or(0.0)
        .max(drift.max_drift as f64);
    reg.set_gauge_i64(
        names::RT_MAX_DRIFT,
        &[],
        names::HELP_RT_MAX_DRIFT,
        worst_max as i64,
    );
}

/// Parses a Prometheus text exposition into `series line -> value`,
/// keyed by the full sample name including labels (exactly as encoded).
///
/// This is the consumer side of [`MetricsRegistry::encode`], used by
/// the round-trip tests and by `msgorder soak`'s endpoint self-check.
/// Returns an error naming the first malformed line.
pub fn parse_samples(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(space) = line.rfind(' ') else {
            return Err(format!("line {}: no value separator: {line:?}", lineno + 1));
        };
        let (series, value) = line.split_at(space);
        let series = series.trim_end();
        if series.is_empty() {
            return Err(format!("line {}: empty series name", lineno + 1));
        }
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad value: {line:?}", lineno + 1))?;
        out.insert(series.to_string(), value);
    }
    Ok(out)
}

/// A [`MetricsRegistry`] behind an `Arc<Mutex<..>>`: the shape the live
/// observer, the HTTP endpoint, and the file exporter share.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry(Arc<Mutex<MetricsRegistry>>);

impl SharedRegistry {
    /// Creates an empty shared registry.
    pub fn new() -> SharedRegistry {
        SharedRegistry::default()
    }

    /// Runs `f` with the registry locked. A poisoned lock (a panicking
    /// holder) is recovered — the registry holds plain counters that
    /// stay internally consistent.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        let mut guard = match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Encodes the current registry state as Prometheus text.
    pub fn encode(&self) -> String {
        self.with(|reg| reg.encode())
    }
}

/// Periodically writes the registry's Prometheus text rendering to a
/// file — the `--metrics-out` headless-CI mode. Snapshots are written
/// to a sibling temp file and renamed into place so readers never see
/// a torn write. Dropping the exporter (or calling
/// [`stop`](FileExporter::stop)) performs one final snapshot.
#[derive(Debug)]
pub struct FileExporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Counter bumped (in the exported registry itself) when a snapshot
/// write fails — the exporter has no caller to report errors to.
pub const EXPORT_ERRORS: &str = "msgorder_metrics_export_errors_total";

fn write_snapshot(path: &PathBuf, registry: &SharedRegistry) {
    let text = registry.encode();
    let tmp = path.with_extension("prom.tmp");
    let result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        registry.with(|reg| {
            reg.add_counter(
                EXPORT_ERRORS,
                &[],
                "Metrics snapshot writes that failed.",
                1,
            );
        });
    }
}

impl FileExporter {
    /// Starts the exporter thread, snapshotting every `period`.
    pub fn start(path: PathBuf, registry: SharedRegistry, period: Duration) -> FileExporter {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(50).min(period.max(Duration::from_millis(1)));
            let mut since_write = Duration::ZERO;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_write += tick;
                if since_write >= period {
                    write_snapshot(&path, &registry);
                    since_write = Duration::ZERO;
                }
            }
            write_snapshot(&path, &registry);
        });
        FileExporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread, waits for it, and leaves a final snapshot.
    pub fn stop(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FileExporter {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_encode_stably() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("msgorder_b_total", &[], "b", 2);
        reg.add_counter("msgorder_a_total", &[("reason", "loss")], "a", 3);
        reg.add_counter("msgorder_a_total", &[("reason", "partition")], "a", 1);
        reg.set_gauge("msgorder_g", &[], "g", 1.5);
        let text = reg.encode();
        let expected = "\
# HELP msgorder_a_total a
# TYPE msgorder_a_total counter
msgorder_a_total{reason=\"loss\"} 3
msgorder_a_total{reason=\"partition\"} 1
# HELP msgorder_b_total b
# TYPE msgorder_b_total counter
msgorder_b_total 2
# HELP msgorder_g g
# TYPE msgorder_g gauge
msgorder_g 1.5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded() {
        let mut reg = MetricsRegistry::new();
        let mut h = Histogram::new();
        for v in [0, 1, 2, 5] {
            h.record(v);
        }
        reg.merge_histogram("msgorder_lat_ticks", &[], "latency", &h);
        let text = reg.encode();
        assert!(
            text.contains("# TYPE msgorder_lat_ticks histogram"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_lat_ticks_bucket{le=\"1\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_lat_ticks_bucket{le=\"3\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_lat_ticks_bucket{le=\"7\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_lat_ticks_bucket{le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("msgorder_lat_ticks_sum 8\n"), "{text}");
        assert!(text.contains("msgorder_lat_ticks_count 4\n"), "{text}");
    }

    #[test]
    fn parse_round_trips_encode() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("msgorder_x_total", &[("k", "v")], "x", 7);
        reg.set_gauge("msgorder_y", &[], "y", -2.0);
        let samples = parse_samples(&reg.encode()).expect("parses");
        assert_eq!(samples["msgorder_x_total{k=\"v\"}"], 7.0);
        assert_eq!(samples["msgorder_y"], -2.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_samples("not prometheus at all").is_err());
        assert!(parse_samples("name nonnumeric").is_err());
        assert!(parse_samples("# a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add_counter("msgorder_c_total", &[], "c", 1);
        b.add_counter("msgorder_c_total", &[], "c", 2);
        let mut h = Histogram::new();
        h.record(4);
        a.merge_histogram("msgorder_h_ticks", &[], "h", &h);
        b.merge_histogram("msgorder_h_ticks", &[], "h", &h);
        a.merge(&b);
        assert_eq!(a.counter("msgorder_c_total", &[]), 3);
        assert_eq!(
            a.histogram("msgorder_h_ticks", &[]).expect("merged").count,
            2
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("msgorder_e_total", &[("k", "a\"b\\c\nd")], "e", 1);
        let text = reg.encode();
        assert!(text.contains("k=\"a\\\"b\\\\c\\nd\""), "{text}");
    }

    #[test]
    fn file_exporter_writes_on_stop() {
        let dir = std::env::temp_dir().join(format!("msgorder-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.prom");
        let shared = SharedRegistry::new();
        shared.with(|r| r.add_counter("msgorder_t_total", &[], "t", 5));
        let exporter = FileExporter::start(path.clone(), shared.clone(), Duration::from_secs(3600));
        exporter.stop();
        let text = std::fs::read_to_string(&path).expect("snapshot written");
        assert!(text.contains("msgorder_t_total 5"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
