//! The `msgorder` command-line tool.
//!
//! ```text
//! msgorder classify "forbid x, y: x.s < y.s & y.r < x.r"
//! msgorder catalog
//! msgorder witness "forbid x, y: x.s < y.r & y.s < x.r"
//! msgorder dot "forbid x, y: x.s < y.s & y.r < x.r" | dot -Tsvg > graph.svg
//! msgorder simulate --protocol causal-rst --processes 4 --messages 30 --seed 7
//! msgorder simulate --protocol synthesized --spec "forbid x, y: x.s < y.s & y.r < x.r"
//! msgorder simulate --protocol async --spec fifo --online
//! ```

use msgorder::classifier::classify::classify;
use msgorder::classifier::dot::to_dot;
use msgorder::core::Spec;
use msgorder::predicate::{catalog, eval, ForbiddenPredicate};
use msgorder::protocols::OnlineMonitor;
use msgorder::protocols::ProtocolKind;
use msgorder::runs::display::render_timeline;
use msgorder::runs::{limit_sets, UserRunSnapshot};
use msgorder::simnet::{
    CrashSchedule, FaultModel, LatencyModel, Partition, RunObserver, Simulation, StreamResult,
    Workload,
};
use msgorder::trace::metrics::MetricsObserver;
use msgorder::trace::{assemble_trace, parse_spec, Fanout, Recorder, Setup, Trace};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("classify") => cmd_classify(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("file") => cmd_file(&args[1..]),
        Some("catalog") => cmd_catalog(),
        Some("witness") => cmd_witness(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("shrink") => cmd_shrink(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `msgorder help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "msgorder — message ordering specifications and protocols (Murty & Garg, ICDCS 1997)

USAGE:
  msgorder classify \"<predicate>\"        classify a forbidden predicate
  msgorder explain  \"<predicate>\"        classification + the full argument
  msgorder file <path>                     classify every spec in a spec file
  msgorder catalog                         the paper's decision table
  msgorder witness \"<predicate>\"         print verified separation witnesses
  msgorder dot \"<predicate>\"             Graphviz of the predicate graph
  msgorder simulate [options]              run a protocol on a random workload
      --protocol  async|fifo|causal-rst|causal-ses|flush|sync|sync-batched|synthesized
      --spec      \"<predicate>\"  (required for synthesized; otherwise used to verify)
      --processes N   (default 4)
      --messages  N   (default 30)
      --seed      N   (default 1)
      --timeline      print the run as an ASCII time diagram
      --drop      P   drop each frame with probability P (0..=1)
      --dup       P   duplicate each frame with probability P (0..=1)
      --corrupt   P   flip one payload bit per frame with probability P (0..=1)
      --forge     P   inject a forged control frame with probability P (0..=1)
      --replay-stale P  re-deliver a stale copy of each frame with probability P
      --reorder   P   hold a frame behind a reordering burst with probability P
      --partition A:B:FROM:UNTIL   sever the A<->B link for FROM <= t < UNTIL (repeatable)
      --crash     P:AT[:RESTART]   crash process P at tick AT, optionally restarting (repeatable)
      --reliable      layer ack/retransmission under the protocol (fifo, causal-rst, sync)
      --online        monitor --spec online and halt at the first violating delivery
      --record PATH   write the run as a replayable JSONL trace
      --metrics       print the run's metrics report (latency histograms, wire counters)
    report: cost counters; the fault block when a fault flag is set or frames were
    retransmitted; the adversarial block when a wire attack landed; in X_co, in X_sync
    and the spec verdict, or, when --online halted the run, the violation and where it
    was detected; the trace line, metrics and time diagram when their flags are given
  msgorder explore [options]               exhaustively explore every schedule of a
                                           seeded workload (model checking)
      --protocol  async|fifo|causal-rst|causal-ses|sync|sync-batched   (default async)
      --spec      \"<predicate>\"  count schedules violating the spec
      --processes N   (default 3)
      --messages  N   (default 6)
      --seed      N   (default 1)
      --por       on|off   sleep-set partial-order reduction (default on)
      --threads   N   worker threads over the sharded frontier (default 1)
      --dedup     off|exact|compact   configuration deduplication (default off)
      --max-states N  bound the seen-set (implies --dedup compact)
      --spill DIR     spill seen-set overflow to DIR (requires --max-states)
      --cap       N   stop after N complete schedules
      --max-depth N   truncate schedules deeper than N dispatches
      --drop      P   drop each frame with probability P (incompatible with --dedup,
                      makes --por ineffective)
      --dup       P   duplicate each frame with probability P (same restrictions)
  msgorder replay <trace.jsonl> [--metrics]
                                           re-execute a recorded trace and check it
                                           reproduces bit-exactly (fingerprint, stats,
                                           spec verdict)
  msgorder shrink <trace.jsonl> [--out PATH]
                                           delta-debug a violating trace to a minimal
                                           reproducer of the same verdict class
                                           (default output: <trace>.min.jsonl)
  msgorder chaos [options]                 seeded randomized fault/protocol sweep;
                                           violations are shrunk and deduplicated
      --trials N      (default 50)
      --seed   N      (default 1)
      --protocol X    restrict to one protocol (repeatable)
      --step-limit N  per-trial step budget (default 200000)
      --no-shrink     report raw traces without minimizing
      --confirm       cross-check each spec violation against a fault-free
                      exhaustive exploration (inherent vs fault-induced)
      --adversarial   also sample corruption/forgery/stale-replay/reordering
                      per trial (findings are deduplicated per fault family)
      --out DIR       write each finding's reproducer trace into DIR
  msgorder serve [options]                 run a live session over real sockets:
                                           this process is the wall-clock kernel,
                                           each peer process hosts one protocol
                                           instance; the recorded trace replays
                                           bit-exact with `msgorder replay`
      --transport tcp:HOST:PORT|unix:PATH  where to listen (default tcp:127.0.0.1:4600)
      --protocol  async|fifo|causal-rst|causal-ses|flush|sync|sync-batched (default causal-rst)
      --spec      \"<predicate>\"  verified over the live run and on replay
      --processes N   (default 3)
      --messages  N   (default 30)
      --seed      N   (default 1)
      --reliable      layer ack/retransmission under the protocol
      --step-limit N  livelock budget (default 1000000)
      --tick-us  N    wall-clock µs per virtual tick (default 0 = free-run)
      --record PATH   write the live run as a replayable JSONL trace
      --spawn         fork the N client processes locally (loopback demo)
      --metrics-addr HOST:PORT   serve live Prometheus metrics over HTTP while
                      the session runs (port 0 picks a free port)
      --metrics-out PATH         write a metrics snapshot file every second
      --wire-chaos SEED          inject CRC-corrupt frame copies on every link
                      (rejected, counted, resynced — requires wire version 2)
  msgorder client --connect tcp:HOST:PORT|unix:PATH --node N [--wire-chaos SEED]
                                           host one protocol instance for a
                                           `msgorder serve` session (protocol and
                                           workload arrive in the handshake)
  msgorder soak [options]                  long-run harness: episode after episode
                                           of simulated traffic under rotating
                                           fault schedules, with bounded-memory
                                           metrics streaming and online liveness
                                           sampling
      --duration  D   wall-clock budget, e.g. 45s, 5m, 2h (default 60s)
      --protocol  X   registry protocol (default causal-rst)
      --spec      S   monitor a spec online each episode (catalog name or DSL)
      --processes N   (default 4)
      --messages  N   user messages per episode (default 256)
      --seed      N   master seed; episode i of seed s is deterministic (default 12648430)
      --drop      P   base per-frame drop probability every episode
      --dup       P   base per-frame duplication probability every episode
      --reliable      layer ack/retransmission under the protocol
      --adversarial   sample corruption/forgery/stale-replay/reordering per episode
      --no-rotate     keep the base fault model only (no sampled partitions/crashes)
      --step-limit N  kernel step budget per episode (default 1000000)
      --max-episodes N  stop after N episodes even if time remains
      --metrics-addr HOST:PORT   serve live Prometheus metrics over HTTP; the
                      endpoint is self-scraped at the end and the run fails if
                      it does not answer with parseable metrics
      --metrics-out PATH         write a metrics snapshot file every second
      --report PATH   write the machine-readable end-of-run report as JSON
      --max-rss-growth-mb N      fail if resident memory grew more than N MiB
                      from the post-warmup baseline (leak detector)

PREDICATE DSL:
  forbid x, y: x.s < y.s & y.r < x.r where proc(x.s) = proc(y.s), color(y) = red"
    );
}

fn predicate_arg(args: &[String]) -> Result<ForbiddenPredicate, String> {
    let src = args
        .first()
        .ok_or_else(|| "expected a predicate argument".to_owned())?;
    // Convenience: accept catalog names too.
    parse_spec(src).map_err(|e| e.to_string())
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = Spec::from_predicate(pred).named("cli").analyze();
    print!("{}", report.render());
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let e = msgorder::classifier::explain::explain(&pred);
    print!("{}", e.render());
    if !e.witnesses_verified() {
        return Err("a witness failed verification".into());
    }
    Ok(())
}

fn cmd_file(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("expected a spec-file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let specs = msgorder::predicate::parse::parse_file(&text).map_err(|e| e.to_string())?;
    if specs.is_empty() {
        return Err("no specs in file".into());
    }
    println!("{:<24} {:>9}  {:<28}", "spec", "min-order", "verdict");
    println!("{}", "-".repeat(64));
    for (name, pred) in specs {
        let report = classify(&pred);
        println!(
            "{:<24} {:>9}  {:<28}",
            name,
            report.min_order.map_or("-".to_owned(), |o| o.to_string()),
            report.classification.to_string()
        );
    }
    Ok(())
}

fn cmd_catalog() -> Result<(), String> {
    println!(
        "{:<28} {:>9}  {:<28} {:<20}",
        "specification", "min-order", "verdict", "paper reference"
    );
    println!("{}", "-".repeat(92));
    for entry in catalog::all() {
        let report = classify(&entry.predicate);
        println!(
            "{:<28} {:>9}  {:<28} {:<20}",
            entry.name,
            report.min_order.map_or("-".to_owned(), |o| o.to_string()),
            report.classification.to_string(),
            entry.paper_ref
        );
    }
    Ok(())
}

fn cmd_witness(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = Spec::from_predicate(pred).named("cli").analyze();
    report.verify_witnesses()?;
    if report.witnesses().is_empty() {
        println!("no separation witness needed: the trivial protocol already suffices.");
        return Ok(());
    }
    for w in report.witnesses() {
        println!("witness kind: {:?}", w.kind);
        println!("{}", w.run.render());
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = classify(&pred);
    let Some(graph) = &report.graph else {
        return Err("predicate is unsatisfiable after normalization; no graph".into());
    };
    let best = report.cycles.iter().min_by_key(|c| (c.order(), c.len()));
    print!("{}", to_dot(graph, best));
    Ok(())
}

/// Parses `s`, naming `what` in the error.
fn parse_num<T: FromStr>(what: &str, s: &str) -> Result<T, String>
where
    T::Err: Display,
{
    s.parse().map_err(|e| format!("{what}: {e}"))
}

/// `A:B:FROM:UNTIL` — sever the A<->B link for `FROM <= t < UNTIL`.
fn parse_partition(s: &str) -> Result<Partition, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [a, b, from, until] = parts.as_slice() else {
        return Err(format!("--partition: expected A:B:FROM:UNTIL, got `{s}`"));
    };
    Ok(Partition {
        a: parse_num("--partition endpoint", a)?,
        b: parse_num("--partition endpoint", b)?,
        from: parse_num("--partition from", from)?,
        until: parse_num("--partition until", until)?,
    })
}

/// `P:AT[:RESTART]` — crash process P at tick AT, optionally restarting.
fn parse_crash(s: &str) -> Result<CrashSchedule, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let (process, at, restart) = match parts.as_slice() {
        [p, at] => (p, at, None),
        [p, at, r] => (p, at, Some(r)),
        _ => return Err(format!("--crash: expected P:AT[:RESTART], got `{s}`")),
    };
    Ok(CrashSchedule {
        process: parse_num("--crash process", process)?,
        at: parse_num("--crash at", at)?,
        restart: restart
            .map(|r| parse_num("--crash restart", r))
            .transpose()?,
    })
}

/// Reads a subcommand's arguments one flag at a time. Every subcommand
/// goes through it, so a missing value, an unparsable value and an
/// unknown flag are reported the same way everywhere.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument; later calls read the value of this flag.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("flag {} needs a value", self.flag))
    }

    /// The current flag's value, parsed.
    fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        parse_num(self.flag, &self.value()?)
    }

    /// The error for a flag no reader claimed.
    fn unknown(&self) -> String {
        format!("unknown flag `{}`", self.flag)
    }
}

/// The flags that describe a run, shared by `simulate`, `explore`,
/// `serve` and `soak`. Each subcommand sets its own defaults and lists
/// the run flags it accepts; [`RunArgs::resolve`] validates them all in
/// one place.
struct RunArgs {
    /// The run flags this subcommand accepts, space-separated; the
    /// others stay unknown.
    accepts: &'static str,
    protocol: String,
    spec: Option<String>,
    processes: usize,
    messages: usize,
    seed: u64,
    reliable: bool,
    /// Filled in flag by flag; checked only by `resolve`.
    faults: FaultModel,
    step_limit: usize,
}

impl RunArgs {
    /// The shared defaults, accepting the run flags in `accepts`.
    fn new(accepts: &'static str) -> Self {
        RunArgs {
            accepts,
            protocol: "causal-rst".to_owned(),
            spec: None,
            processes: 4,
            messages: 30,
            seed: 1,
            reliable: false,
            faults: FaultModel::none(),
            step_limit: 1_000_000,
        }
    }

    /// Reads `flag` if it is a run flag this subcommand accepts;
    /// `Ok(false)` leaves it to the subcommand.
    fn read(&mut self, flag: &str, f: &mut Flags) -> Result<bool, String> {
        if !self.accepts.split_whitespace().any(|a| a == flag) {
            return Ok(false);
        }
        let faults = &mut self.faults;
        match flag {
            "--protocol" => self.protocol = f.value()?,
            "--spec" => self.spec = Some(f.value()?),
            "--processes" => self.processes = f.parse()?,
            "--messages" => self.messages = f.parse()?,
            "--seed" => self.seed = f.parse()?,
            "--reliable" => self.reliable = true,
            "--drop" => faults.drop = f.parse()?,
            "--dup" => faults.duplicate = f.parse()?,
            "--corrupt" => faults.adversarial.corrupt = f.parse()?,
            "--forge" => faults.adversarial.forge = f.parse()?,
            "--replay-stale" => faults.adversarial.replay_stale = f.parse()?,
            "--reorder" => faults.adversarial.reorder = f.parse()?,
            "--partition" => faults.partitions.push(parse_partition(&f.value()?)?),
            "--crash" => faults.crashes.push(parse_crash(&f.value()?)?),
            "--step-limit" => self.step_limit = f.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates the run and resolves its protocol and spec. Nonsensical
    /// fault schedules are rejected up front instead of silently doing
    /// nothing or panicking deep in the kernel, by the model's own
    /// [`FaultModel::validate_for`], so the CLI and the library agree
    /// on what is well-formed.
    fn resolve(&self) -> Result<(ProtocolKind, Option<ForbiddenPredicate>), String> {
        let spec = self.spec.as_deref().map(parse_spec).transpose();
        let spec = spec.map_err(|e| e.to_string())?;
        let kind = match ProtocolKind::by_name(&self.protocol, spec.as_ref()) {
            Some(kind) => kind,
            None if self.protocol == "synthesized" => {
                return Err("--protocol synthesized requires --spec".into())
            }
            None => return Err(format!("unknown protocol `{}`", self.protocol)),
        };
        if self.processes < 2 {
            return Err("--processes must be at least 2".into());
        }
        if self.step_limit == 0 {
            return Err("--step-limit must be positive".into());
        }
        if self.reliable && !kind.supports_retransmission() {
            return Err(format!(
                "--reliable is not supported for `{}` (use fifo, causal-rst, sync or sync-batched)",
                kind.name()
            ));
        }
        let f = &self.faults;
        let a = &f.adversarial;
        for (flag, p) in [
            ("--drop", f.drop),
            ("--dup", f.duplicate),
            ("--corrupt", a.corrupt),
            ("--forge", a.forge),
            ("--replay-stale", a.replay_stale),
            ("--reorder", a.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{flag}: probability {p} not in [0, 1]"));
            }
        }
        f.validate_for(self.processes).map_err(|e| e.to_string())?;
        Ok((kind, spec))
    }

    /// The run as a trace [`Setup`] over `latency`.
    fn setup(&self, latency: LatencyModel) -> Setup {
        Setup {
            processes: self.processes,
            latency,
            seed: self.seed,
            faults: self.faults.clone(),
            workload: Workload::uniform_random(self.processes, self.messages, self.seed),
            protocol: self.protocol.clone(),
            reliable: self.reliable,
            spec: self.spec.clone(),
            step_limit: self.step_limit,
        }
    }
}

/// `msgorder simulate [options]` — one streaming run over the observers
/// the flags ask for, then one report whatever the flags.
fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut run = RunArgs::new(
        "--protocol --spec --processes --messages --seed --reliable --drop --dup --corrupt \
         --forge --replay-stale --reorder --partition --crash",
    );
    let (mut timeline, mut online, mut metrics) = (false, false, false);
    let mut record_path: Option<String> = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--timeline" => timeline = true,
            "--online" => online = true,
            "--record" => record_path = Some(f.value()?),
            "--metrics" => metrics = true,
            _ if run.read(flag, &mut f)? => {}
            _ => return Err(f.unknown()),
        }
    }
    let (kind, spec) = run.resolve()?;
    if online && spec.is_none() {
        return Err("--online requires --spec".into());
    }
    let setup = run.setup(LatencyModel::Uniform { lo: 1, hi: 800 });
    // 4 run events per message, one wire record per frame, plus slack
    // for control traffic and retransmissions.
    let mut recorder = record_path
        .as_ref()
        .map(|_| Recorder::with_capacity(setup.workload.len() * 8));
    let mut mobs = metrics.then(MetricsObserver::new);
    let mut monitor = spec.as_ref().filter(|_| online).map(OnlineMonitor::halting);
    // The recorder goes first, as in `trace::record_with_extra`.
    let mut observers: Vec<&mut dyn RunObserver> = Vec::new();
    observers.extend(recorder.as_mut().map(|r| r as &mut dyn RunObserver));
    observers.extend(mobs.as_mut().map(|m| m as &mut dyn RunObserver));
    observers.extend(monitor.as_mut().map(|m| m as &mut dyn RunObserver));
    let outcome = Simulation::new(setup.config(), setup.workload.clone(), |node| {
        kind.instantiate_with(run.processes, node, run.reliable)
    })
    .with_step_limit(setup.step_limit)
    .run_streaming(&mut Fanout(observers));
    println!("protocol      : {}", kind.name());
    if let (Some(path), Some(r)) = (&record_path, recorder) {
        let trace =
            assemble_trace(&setup, r.events, &outcome, spec.as_ref()).map_err(|e| e.to_string())?;
        trace.write(path).map_err(|e| e.to_string())?;
        println!(
            "trace         : {path} ({} events, fingerprint {:016x})",
            trace.events.len(),
            trace.footer.fingerprint
        );
    }
    let stats = match &outcome {
        Ok(r) => {
            print_report(r, &setup, spec.as_ref(), monitor.as_ref());
            &r.stats
        }
        Err(e) => {
            println!("PROTOCOL BUG  : {e}");
            if let Some(v) = e.kind.liveness() {
                print!("liveness      : {v}");
            }
            if let Some(trace) = &e.trace {
                println!("\ncounterexample trace (up to the bug):");
                print!("{}", render_timeline(trace));
            }
            &e.stats
        }
    };
    if let Some(mobs) = mobs {
        let m = match &monitor {
            Some(mon) => mobs.finish_with_monitor(stats, &mon.search_timings()),
            None => mobs.finish(stats),
        };
        println!("\nmetrics:");
        print!("{}", m.render());
    }
    match &outcome {
        Ok(r) if timeline => {
            let run = r.run.build().map_err(|e| e.to_string())?;
            let prefix = if r.halted { " (prefix at halt)" } else { "" };
            println!("\ntime diagram{prefix}:");
            print!("{}", render_timeline(&run));
            Ok(())
        }
        Ok(_) => Ok(()),
        Err(_) => Err("simulation hit a protocol bug".into()),
    }
}

/// `simulate`'s report of a run that did not hit a protocol bug: the
/// cost counters, the fault and adversarial blocks when they have
/// something to say, and the verdict. A drained run gets its `X_co` /
/// `X_sync` membership and the post-hoc spec check; a run the online
/// monitor halted gets the violation and where it was detected.
fn print_report(
    r: &StreamResult,
    setup: &Setup,
    spec: Option<&ForbiddenPredicate>,
    monitor: Option<&OnlineMonitor>,
) {
    let s = &r.stats;
    println!("live          : {}", r.completed && r.run.is_quiescent());
    if let Some(v) = &r.liveness {
        print!("liveness      : {v}");
    }
    println!("user messages : {}", s.user_messages);
    println!(
        "control msgs  : {} ({:.2}/msg)",
        s.control_messages,
        s.control_per_user()
    );
    println!(
        "tag bytes     : {} ({:.1}/msg)",
        s.tag_bytes,
        s.tag_bytes_per_user()
    );
    println!("mean latency  : {:.1}", s.mean_latency());
    println!("mean inhibit  : {:.1}", s.mean_inhibition());
    if !setup.faults.is_quiet() || s.retransmitted_frames > 0 {
        println!("delivered     : {}/{}", s.delivered, setup.workload.len());
        println!("dropped       : {}", s.dropped_frames);
        println!("duplicated    : {}", s.duplicated_frames);
        println!("retransmitted : {}", s.retransmitted_frames);
        println!("dup suppressed: {}", s.suppressed_duplicates);
    }
    if !s.adversarial_quiet() {
        println!("corrupted     : {}", s.corrupted_frames);
        println!("forged        : {}", s.forged_frames);
        println!("replayed      : {}", s.replayed_frames);
        println!("reordered     : {}", s.reordered_frames);
        println!("rejected      : {}", s.rejected_frames);
    }
    if let (true, Some(m)) = (r.halted, monitor) {
        let witness: Vec<_> = m
            .witness()
            .unwrap_or_default()
            .iter()
            .filter_map(|&msg| r.run.dense_id(msg))
            .collect();
        println!("spec          : VIOLATED by {witness:?}");
        println!(
            "detected at   : event {} (t = {}), run halted, {} of {} messages delivered",
            m.detection_event().unwrap_or(0),
            m.detection_time().unwrap_or(0),
            s.delivered,
            setup.workload.len()
        );
        return;
    }
    let user = r.run.users_view();
    println!("in X_co       : {}", limit_sets::in_x_co(&user));
    println!("in X_sync     : {}", limit_sets::in_x_sync(&user));
    if let Some(p) = spec {
        match eval::find_instantiation(p, &user) {
            None => println!("spec          : satisfied"),
            Some(inst) => println!("spec          : VIOLATED by {inst:?}"),
        }
    }
}

/// `msgorder replay <trace.jsonl> [--metrics]` — re-execute a recorded
/// trace and verify it reproduces bit-exactly.
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut metrics = false;
    let mut f = Flags::new(args);
    while let Some(arg) = f.next_flag() {
        match arg {
            "--metrics" => metrics = true,
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("expected a trace path (msgorder replay <trace.jsonl>)")?;
    let trace = Trace::read(&path).map_err(|e| e.to_string())?;
    let s = &trace.header.setup;
    println!("trace         : {path}");
    println!(
        "recorded run  : {} ({} processes, seed {}, {} events)",
        s.protocol,
        s.processes,
        s.seed,
        trace.events.len()
    );
    let report = msgorder::trace::replay(&trace).map_err(|e| e.to_string())?;
    if report.fingerprint_ok {
        println!(
            "fingerprint   : ok ({:016x})",
            report.recomputed_fingerprint
        );
    } else {
        println!(
            "fingerprint   : MISMATCH (recorded {:016x}, recomputed {:016x})",
            trace.footer.fingerprint, report.recomputed_fingerprint
        );
    }
    match &report.reexecution {
        None => println!(
            "re-execution  : skipped (protocol `{}` is not in the registry)",
            s.protocol
        ),
        Some(re) => println!(
            "re-execution  : events {}, stats {}, outcome {}",
            if re.identical {
                "identical"
            } else {
                "DIVERGED"
            },
            if re.stats_match { "match" } else { "DIFFER" },
            if re.error_match { "match" } else { "DIFFER" },
        ),
    }
    if let Some(v) = &report.verdict {
        let status = match report.verdict_ok {
            Some(true) => " (reproduces the recording)",
            Some(false) => " (DIFFERS from the recording)",
            None => "",
        };
        if v.violated {
            println!("spec verdict  : VIOLATED by {:?}{status}", v.witness);
        } else {
            println!("spec verdict  : satisfied{status}");
        }
    }
    if let Some(err) = &trace.footer.error {
        println!(
            "recorded bug  : {} at t={} on P{}",
            err.kind, err.time, err.node
        );
    }
    if let Some(lv) = &trace.footer.liveness {
        println!(
            "recorded stall: {} message(s) pending{} — classes {:?}",
            lv.stuck,
            if lv.step_limited {
                " (step limit tripped)"
            } else {
                ""
            },
            lv.classes
        );
    }
    if metrics {
        let mut mobs = MetricsObserver::new();
        mobs.consume(&trace.events);
        println!("\nmetrics (from the recorded events):");
        print!("{}", mobs.finish(&trace.footer.stats).render());
    }
    if report.ok() {
        println!("REPLAY OK     : the trace reproduces the recorded run");
        Ok(())
    } else {
        Err("replay diverged from the recording".into())
    }
}

/// `msgorder shrink <trace.jsonl> [--out PATH]` — delta-debug a
/// violating trace to a minimal reproducer of the same verdict class.
fn cmd_shrink(args: &[String]) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut f = Flags::new(args);
    while let Some(arg) = f.next_flag() {
        match arg {
            "--out" => out = Some(f.value()?),
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("expected a trace path (msgorder shrink <trace.jsonl>)")?;
    let trace = Trace::read(&path).map_err(|e| e.to_string())?;
    let shrunk = msgorder::trace::shrink::shrink(&trace).map_err(|e| e.to_string())?;
    let r = &shrunk.report;
    println!("trace         : {path}");
    println!("verdict class : {}", r.class);
    println!(
        "events        : {} -> {} ({:.0}% reduction)",
        r.events_before,
        r.events_after,
        r.reduction() * 100.0
    );
    println!(
        "messages      : {} -> {}",
        r.messages_before, r.messages_after
    );
    println!(
        "processes     : {} -> {}",
        r.processes_before, r.processes_after
    );
    println!(
        "search        : {} candidate(s) tried, {} accepted, {} round(s)",
        r.candidates_tried, r.candidates_accepted, r.rounds
    );
    let out_path = out.unwrap_or_else(|| format!("{}.min.jsonl", path.trim_end_matches(".jsonl")));
    shrunk.trace.write(&out_path).map_err(|e| e.to_string())?;
    println!(
        "minimized     : {out_path} ({} events, fingerprint {:016x})",
        shrunk.trace.events.len(),
        shrunk.trace.footer.fingerprint
    );
    Ok(())
}

/// `msgorder explore [options]` — exhaustive schedule exploration
/// (model checking) of an explorable protocol on a seeded workload:
/// sleep-set partial-order reduction, a sharded work-stealing frontier
/// for `--threads`, and an optional bounded/disk-spillable seen-set.
fn cmd_explore(args: &[String]) -> Result<(), String> {
    use msgorder::simnet::{explore_parallel_with, DedupMode, ExploreOptions};
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    let mut run = RunArgs {
        protocol: "async".to_owned(),
        processes: 3,
        messages: 6,
        ..RunArgs::new("--protocol --spec --processes --messages --seed --drop --dup")
    };
    let mut por = true;
    let mut threads = 1usize;
    let mut dedup: Option<DedupMode> = None;
    let mut max_states: Option<usize> = None;
    let mut spill: Option<String> = None;
    let mut cap: Option<usize> = None;
    let mut max_depth: Option<usize> = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--por" => {
                por = match f.value()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--por: expected `on` or `off`, got `{other}`")),
                }
            }
            "--threads" => threads = f.parse()?,
            "--dedup" => {
                dedup = Some(match f.value()?.as_str() {
                    "off" => DedupMode::Off,
                    "exact" => DedupMode::Exact,
                    "compact" => DedupMode::Compact {
                        max_states: 0,
                        spill: None,
                    },
                    other => {
                        return Err(format!(
                            "--dedup: expected `off`, `exact` or `compact`, got `{other}`"
                        ))
                    }
                })
            }
            "--max-states" => max_states = Some(f.parse()?),
            "--spill" => spill = Some(f.value()?),
            "--cap" => cap = Some(f.parse()?),
            "--max-depth" => max_depth = Some(f.parse()?),
            _ if run.read(flag, &mut f)? => {}
            _ => return Err(f.unknown()),
        }
    }
    let (kind, spec) = run.resolve()?;
    let (processes, messages, seed, faults) = (run.processes, run.messages, run.seed, run.faults);
    if threads < 1 {
        return Err("--threads must be at least 1".into());
    }
    if spill.is_some() && max_states.is_none() {
        return Err("--spill requires --max-states (nothing overflows an unbounded set)".into());
    }
    let dedup_mode = match (dedup, max_states) {
        (None | Some(DedupMode::Compact { .. }), Some(max_states)) => DedupMode::Compact {
            max_states,
            spill: spill.map(std::path::PathBuf::from),
        },
        (Some(_), Some(_)) => {
            return Err(
                "--max-states requires --dedup compact (its seen-set is the bounded one)".into(),
            )
        }
        (dedup, None) => dedup.unwrap_or(DedupMode::Off),
    };
    if dedup_mode != DedupMode::Off && !faults.is_quiet() {
        return Err(
            "--dedup requires a quiet fault model: the probabilistic fault stream is part \
             of the configuration but cannot be keyed (remove --drop/--dup)"
                .into(),
        );
    }
    if kind.explorable(processes, 0).is_none() {
        return Err(format!(
            "--protocol `{}` is not explorable (its state cannot be fingerprinted); \
             use async, fifo, causal-rst, causal-ses, sync or sync-batched",
            run.protocol
        ));
    }
    let por_effective = por && faults.is_quiet();
    let opts = ExploreOptions {
        cap: cap.unwrap_or(usize::MAX),
        por,
        threads,
        dedup: dedup_mode.clone(),
        max_depth: max_depth.unwrap_or(ExploreOptions::default().max_depth),
        faults,
    };
    // Distinct violating *configurations* (user-view partial orders) by
    // digest: invariant under --por/--threads/--dedup, which only change
    // how many schedules reach each configuration — so the summary line
    // is comparable across explorer settings (the CI smoke pins it).
    let violating = Mutex::new((0usize, BTreeSet::<u64>::new()));
    let out = explore_parallel_with(
        processes,
        Workload::uniform_random(processes, messages, seed),
        |node| {
            kind.explorable(processes, node)
                .expect("explorability was checked above")
        },
        &opts,
        &|run| {
            if let Some(p) = &spec {
                let user = run.users_view();
                if eval::find_instantiation(p, &user).is_some() {
                    let mut v = violating.lock().expect("no panics hold the digest lock");
                    v.0 += 1;
                    v.1.insert(UserRunSnapshot::from(&user).digest());
                }
            }
            true
        },
    );
    println!("protocol      : {}", kind.name());
    println!("workload      : {processes} processes, {messages} messages, seed {seed}");
    println!(
        "por           : {}",
        match (por, por_effective) {
            (true, true) => "on",
            (true, false) => "on (ineffective: faults are not quiet)",
            _ => "off",
        }
    );
    println!("threads       : {threads}");
    println!(
        "dedup         : {}",
        match &dedup_mode {
            DedupMode::Off => "off".to_owned(),
            DedupMode::Exact => "exact".to_owned(),
            DedupMode::Compact {
                max_states: 0,
                spill: None,
            } => "compact".to_owned(),
            DedupMode::Compact { max_states, spill } => format!(
                "compact (max {max_states} states{})",
                spill
                    .as_ref()
                    .map(|p| format!(", spill {}", p.display()))
                    .unwrap_or_default()
            ),
        }
    );
    println!("schedules     : {}", out.schedules);
    println!("states        : {}", out.states);
    println!("sleep-skipped : {}", out.sleep_skipped);
    println!("spilled       : {} segment(s)", out.spilled);
    println!("non-live      : {}", out.non_live);
    println!(
        "truncated     : {}",
        if out.truncated { "yes" } else { "no" }
    );
    if let Some(e) = &out.error {
        println!("PROTOCOL BUG  : {e}");
        return Err("exploration found a protocol bug".into());
    }
    if let Some(p) = &spec {
        let (schedules, configs) = violating
            .into_inner()
            .expect("no panics hold the digest lock");
        let digest = configs.iter().fold(0u64, |acc, d| acc.wrapping_add(*d));
        println!(
            "violations    : {schedules} schedule(s), {} distinct configuration(s) violate {p}",
            configs.len()
        );
        println!("digest        : {digest:#018x}");
    }
    Ok(())
}

/// `msgorder chaos [options]` — seeded randomized search over protocol
/// × fault model × workload; violations are shrunk to minimal
/// reproducers and deduplicated by failure mode.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let mut config = msgorder::trace::chaos::ChaosConfig::new(50, 1);
    let mut out: Option<String> = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--trials" => config.trials = f.parse()?,
            "--seed" => config.seed = f.parse()?,
            "--protocol" => config.protocols.push(f.value()?),
            "--step-limit" => config.step_limit = f.parse()?,
            "--no-shrink" => config.shrink = false,
            "--confirm" => config.confirm = true,
            "--adversarial" => config.adversarial = true,
            "--out" => out = Some(f.value()?),
            _ => return Err(f.unknown()),
        }
    }
    for p in &config.protocols {
        if ProtocolKind::by_name(p, None).is_none() {
            return Err(format!("--protocol: `{p}` is not in the registry"));
        }
    }
    let report = msgorder::trace::chaos::sweep(&config).map_err(|e| e.to_string())?;
    print!("{}", report.table());
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
        for (i, f) in report.findings.iter().enumerate() {
            let file = format!("{dir}/finding-{i:02}-{}.jsonl", f.protocol);
            f.trace.write(&file).map_err(|e| e.to_string())?;
            println!("reproducer    : {file}");
        }
    }
    Ok(())
}

/// Parses a human duration: `45s`, `5m`, `2h`, `500ms`, or bare
/// seconds.
fn parse_duration(s: &str) -> Result<std::time::Duration, String> {
    use std::time::Duration;
    let (digits, unit_ms) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1000)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60 * 1000)
    } else if let Some(d) = s.strip_suffix('h') {
        (d, 60 * 60 * 1000)
    } else {
        (s, 1000)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("duration {s:?} is not like 45s, 5m, 2h, or 500ms"))?;
    n.checked_mul(unit_ms)
        .map(Duration::from_millis)
        .ok_or_else(|| format!("duration {s:?} overflows"))
}

/// Reads a `--wire-chaos` seed.
fn wire_chaos_seed(f: &mut Flags) -> Result<u64, String> {
    f.parse()
        .map_err(|e| format!("{e} (expected a u64 seed, e.g. --wire-chaos 7)"))
}

/// The `--metrics-addr` HTTP endpoint and the `--metrics-out` snapshot
/// file of a live session, both reading one shared registry.
struct Exporters {
    http: Option<msgorder::transport::MetricsExporter>,
    file: Option<(msgorder::trace::FileExporter, String)>,
}

impl Exporters {
    fn start(
        addr: Option<&str>,
        out: Option<String>,
        registry: &msgorder::trace::SharedRegistry,
    ) -> Result<Exporters, String> {
        use msgorder::trace::FileExporter;
        use msgorder::transport::{Endpoint, MetricsExporter};
        let http = addr
            .map(|addr| {
                // A full `tcp:`/`unix:` endpoint, or a bare `HOST:PORT`
                // (which implies TCP).
                let ep = match addr.starts_with("tcp:") || addr.starts_with("unix:") {
                    true => Endpoint::parse(addr)?,
                    false => Endpoint::parse(&format!("tcp:{addr}"))?,
                };
                let l = ep.listen().map_err(|e| format!("{ep}: {e}"))?;
                let exporter =
                    MetricsExporter::start(l, registry.clone()).map_err(|e| e.to_string())?;
                println!("metrics       : http on {}", exporter.endpoint());
                Ok::<_, String>(exporter)
            })
            .transpose()?;
        let file = out.map(|path| {
            let period = std::time::Duration::from_secs(1);
            let fx = FileExporter::start(path.clone().into(), registry.clone(), period);
            (fx, path)
        });
        Ok(Exporters { http, file })
    }

    /// Shuts the endpoint down, then stops the snapshot file writer
    /// and names the file.
    fn stop(self) {
        if let Some(exporter) = self.http {
            exporter.shutdown();
        }
        if let Some((fx, path)) = self.file {
            fx.stop();
            println!("metrics file  : {path}");
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use msgorder::trace::registry::{names, observe_drift};
    use msgorder::trace::{LiveMetrics, SharedRegistry};
    use msgorder::transport::{serve_on_observed, Endpoint, ServeOptions};
    use std::time::Duration;

    let mut run = RunArgs {
        processes: 3,
        ..RunArgs::new("--protocol --spec --processes --messages --seed --reliable --step-limit")
    };
    let mut transport = "tcp:127.0.0.1:4600".to_owned();
    let mut tick_us = 0u64;
    let mut record_path: Option<String> = None;
    let mut spawn = false;
    let mut metrics_addr: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut wire_chaos: Option<u64> = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--transport" => transport = f.value()?,
            "--tick-us" => tick_us = f.parse()?,
            "--record" => record_path = Some(f.value()?),
            "--spawn" => spawn = true,
            "--metrics-addr" => metrics_addr = Some(f.value()?),
            "--metrics-out" => metrics_out = Some(f.value()?),
            "--wire-chaos" => wire_chaos = Some(wire_chaos_seed(&mut f)?),
            _ if run.read(flag, &mut f)? => {}
            _ => return Err(f.unknown()),
        }
    }
    let (kind, spec) = run.resolve()?;
    let endpoint = Endpoint::parse(&transport)?;
    let listener = endpoint.listen().map_err(|e| format!("{endpoint}: {e}"))?;
    let mut opts = ServeOptions::new(endpoint, run.setup(LatencyModel::Fixed(1)));
    opts.tick = Duration::from_micros(tick_us);
    opts.wire_chaos = wire_chaos;
    let dial = listener.local_endpoint().map_err(|e| e.to_string())?;
    println!("listening     : {dial}");
    println!(
        "session       : {} x{}, {} messages, seed {}{}",
        kind.name(),
        opts.setup.processes,
        opts.setup.workload.len(),
        opts.setup.seed,
        if run.reliable { ", reliable link" } else { "" },
    );
    if let Some(seed) = wire_chaos {
        println!("wire chaos    : CRC-corrupt frame copies injected (seed {seed})");
    }
    // Optional live metrics: one shared registry feeds the HTTP
    // endpoint and/or the periodic snapshot file while the run streams.
    let registry = SharedRegistry::new();
    let exporters = Exporters::start(metrics_addr.as_deref(), metrics_out, &registry)?;
    let mut live = (exporters.http.is_some() || exporters.file.is_some()).then(|| {
        LiveMetrics::new(registry.clone())
            .with_terminal_eviction(opts.setup.reliable, &opts.setup.faults)
    });
    let mut children = Vec::new();
    if spawn {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        for node in 0..opts.setup.processes {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["client", "--connect", &dial.to_string(), "--node"])
                .arg(node.to_string());
            if let Some(seed) = wire_chaos {
                cmd.arg("--wire-chaos").arg(seed.to_string());
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawning client {node}: {e}"))?;
            children.push(child);
        }
    } else {
        println!(
            "waiting       : connect {} client(s) with `msgorder client --connect {dial} --node <N>`",
            opts.setup.processes
        );
    }
    let extra: Option<&mut dyn RunObserver> = live.as_mut().map(|l| l as &mut dyn RunObserver);
    let outcome =
        serve_on_observed(listener, &opts, spec.as_ref(), extra).map_err(|e| e.to_string())?;
    // Frames the server discarded for CRC mismatch join the same
    // rejection family the simulator's validators feed, under their
    // own reason label.
    registry.with(|reg| {
        reg.add_counter(
            names::REJECTED,
            &[("reason", "crc")],
            names::HELP_REJECTED,
            outcome.crc_rejected,
        );
    });
    if let Some(live) = live {
        live.finish();
        registry.with(|reg| observe_drift(reg, &outcome.drift));
    }
    for mut child in children {
        let _ = child.wait();
    }
    exporters.stop();
    if wire_chaos.is_some() || outcome.crc_rejected > 0 {
        println!(
            "wire rejected : {} crc-invalid frame(s) at the server ({} corrupt copies injected)",
            outcome.crc_rejected, outcome.chaos_injected
        );
    }
    let d = &outcome.drift;
    println!(
        "drift         : {} dispatches, {} late, max lag {} tick(s), mean {:.2}",
        d.dispatches,
        d.late,
        d.max_lag,
        d.mean_lag()
    );
    if let Some(v) = &outcome.trace.footer.verdict {
        if v.violated {
            println!("spec verdict  : VIOLATED by {:?}", v.witness);
        } else {
            println!("spec verdict  : satisfied");
        }
    }
    if let Some(path) = &record_path {
        outcome.trace.write(path).map_err(|e| e.to_string())?;
        println!(
            "trace         : {path} ({} events)",
            outcome.trace.events.len()
        );
    }
    match &outcome.outcome {
        Ok(r) => {
            println!(
                "live run      : {} delivered, end time {}, {} control message(s)",
                r.stats.delivered, r.stats.end_time, r.stats.control_messages
            );
            if !r.completed {
                return Err("live run hit the step limit".into());
            }
            Ok(())
        }
        Err(e) => {
            println!("PROTOCOL BUG  : {e}");
            Err("live run hit a protocol bug (trace records the counterexample)".into())
        }
    }
}

fn cmd_soak(args: &[String]) -> Result<(), String> {
    use msgorder::trace::registry::parse_samples;
    use msgorder::trace::soak::{run_soak, SoakConfig};
    use msgorder::trace::SharedRegistry;
    use msgorder::transport::scrape;
    use std::time::Duration;

    let mut config = SoakConfig::new(Duration::from_secs(60));
    let mut run = RunArgs {
        messages: 256,
        seed: 0xC0FFEE,
        ..RunArgs::new(
            "--protocol --spec --processes --messages --seed --drop --dup --reliable --step-limit",
        )
    };
    let mut metrics_addr: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut max_rss_growth_mb: Option<u64> = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--duration" => config.duration = parse_duration(&f.value()?)?,
            "--adversarial" => config.adversarial = true,
            "--no-rotate" => config.rotate_faults = false,
            "--max-episodes" => config.max_episodes = Some(f.parse()?),
            "--metrics-addr" => metrics_addr = Some(f.value()?),
            "--metrics-out" => metrics_out = Some(f.value()?),
            "--report" => report_path = Some(f.value()?),
            "--max-rss-growth-mb" => max_rss_growth_mb = Some(f.parse()?),
            _ if run.read(flag, &mut f)? => {}
            _ => return Err(f.unknown()),
        }
    }
    // Bad input fails here, before the banner and the first episode.
    run.resolve()?;
    config.protocol = run.protocol;
    config.spec = run.spec;
    config.processes = run.processes;
    config.messages_per_episode = run.messages;
    config.seed = run.seed;
    config.drop = run.faults.drop;
    config.duplication = run.faults.duplicate;
    config.reliable = run.reliable;
    config.step_limit = run.step_limit;

    let registry = SharedRegistry::new();
    let exporters = Exporters::start(metrics_addr.as_deref(), metrics_out, &registry)?;
    println!(
        "soak          : {} x{}, {} messages/episode, seed {}, drop {}, dup {}{}{}",
        config.protocol,
        config.processes,
        config.messages_per_episode,
        config.seed,
        config.drop,
        config.duplication,
        if config.rotate_faults {
            ", rotating fault schedules"
        } else {
            ""
        },
        if config.reliable {
            ", reliable link"
        } else {
            ""
        },
    );
    if config.adversarial {
        println!("adversarial   : corruption/forgery/stale-replay/reordering sampled per episode");
    }

    let report = run_soak(&config, &registry).map_err(|e| e.to_string())?;

    // Prove the endpoint answers with parseable metrics before tearing
    // it down: a soak whose observability was dead is not a pass.
    let check = exporters.http.as_ref().map(|exporter| {
        scrape(exporter.endpoint())
            .map_err(|e| e.to_string())
            .and_then(|body| parse_samples(&body))
    });
    exporters.stop();
    let endpoint_ok = check.as_ref().map(Result::is_ok);
    if let Some(Err(e)) = check {
        return Err(format!("metrics endpoint self-scrape failed: {e}"));
    }

    println!(
        "episodes      : {} ({} step-limited, {} non-live, {} spec violation(s), {} protocol bug(s))",
        report.episodes,
        report.step_limited,
        report.nonlive_episodes,
        report.spec_violations,
        report.protocol_bugs,
    );
    println!(
        "messages      : {} injected, {} delivered, {} abandoned, {} stuck in sampled verdicts",
        report.messages, report.deliveries, report.abandoned, report.stuck_messages,
    );
    println!(
        "throughput    : {:.0} deliveries/s over {:.1}s",
        report.deliveries_per_sec, report.wall_seconds,
    );
    if let (Some(start), Some(end)) = (report.rss_after_warmup_kb, report.rss_end_kb) {
        println!(
            "memory        : {} KiB after warmup, {} KiB at end (+{} KiB)",
            start,
            end,
            report.rss_growth_kb().unwrap_or(0),
        );
    }

    let mut json = serde_json::to_value(&report).map_err(|e| e.to_string())?;
    if let serde::Value::Object(map) = &mut json {
        if let Some(ok) = endpoint_ok {
            map.insert("endpoint_ok".to_owned(), serde::Value::Bool(ok));
        }
    }
    match &report_path {
        Some(path) => {
            let bytes = serde_json::to_vec_pretty(&json).map_err(|e| e.to_string())?;
            std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))?;
            println!("report        : {path}");
        }
        None => {
            println!(
                "{}",
                serde_json::to_string(&json).map_err(|e| e.to_string())?
            );
        }
    }

    if let (Some(limit_mb), Some(growth_kb)) = (max_rss_growth_mb, report.rss_growth_kb()) {
        if growth_kb > limit_mb * 1024 {
            return Err(format!(
                "resident memory grew {growth_kb} KiB, over the {limit_mb} MiB budget"
            ));
        }
    }
    if report.protocol_bugs > 0 {
        return Err(format!(
            "{} episode(s) hit a protocol bug",
            report.protocol_bugs
        ));
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    use msgorder::transport::{run_client, ClientOptions, Endpoint};

    let mut connect: Option<String> = None;
    let mut node: Option<usize> = None;
    let mut wire_chaos: Option<u64> = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--connect" => connect = Some(f.value()?),
            "--node" => node = Some(f.parse()?),
            "--wire-chaos" => wire_chaos = Some(wire_chaos_seed(&mut f)?),
            _ => return Err(f.unknown()),
        }
    }
    let connect = connect.ok_or("--connect is required (tcp:HOST:PORT or unix:PATH)")?;
    let node = node.ok_or("--node is required")?;
    let endpoint = Endpoint::parse(&connect)?;
    let mut copts = ClientOptions::new(endpoint, node);
    copts.wire_chaos = wire_chaos;
    let report = run_client(&copts).map_err(|e| e.to_string())?;
    println!(
        "client done   : node {node}, {} event(s) processed over {} connection(s){}",
        report.processed,
        report.connects,
        if report.crc_rejected > 0 {
            format!(", {} crc-invalid frame(s) rejected", report.crc_rejected)
        } else {
            String::new()
        }
    );
    Ok(())
}
