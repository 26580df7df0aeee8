//! `perfbench`: how long a user waits for a verdict — does this protocol
//! meet this forbidden-predicate spec, and is its run in `X_co` or
//! `X_sync` — on three single-threaded, closed-loop workloads:
//!
//! - `posthoc`: simulate, then the post-hoc projection and checks
//!   (`users_view`, `in_x_co`, `in_x_sync`, `find_instantiation`);
//! - `online`: a faulty reliable run recorded with the online monitor
//!   and live metrics beside the recorder, serialized to JSONL;
//! - `explore`: exhaustive schedule exploration with a per-leaf check.
//!
//! ```text
//! perfbench --workload <posthoc|online|explore> --seed <n> --seconds <s> --trace <0|1>
//! perfbench capture
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) times every layer from outside with
//! forwarding wrappers and prints the per-layer metrics. The last line
//! of standard output is one JSON object; every verdict is checked
//! against `expected.tsv`, which `capture` rewrites.

mod jobs;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jobs::{Bench, Done, Expected, Job};

/// Wall time between the set-ups repeated through a measured run;
/// `setup_s` is the median of them all.
const SETUP_GAP: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum Command {
    Run(Args),
    Capture,
}

const USAGE: &str = "usage: perfbench --workload <posthoc|online|explore> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench capture";

fn parse_args(argv: &[String]) -> Result<Command, String> {
    if argv.first().is_some_and(|a| a == "capture") {
        return match argv.get(1) {
            None => Ok(Command::Capture),
            Some(other) => Err(format!("unknown argument `{other}`")),
        };
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Command::Run(Args {
        bench: Bench::parse(get("--workload")?)
            .ok_or_else(|| format!("unknown workload `{}`", flags["--workload"]))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
        },
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Capture) => capture(),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Jobs brought to a verdict, and those whose verdict failed a check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Counts one job; prints each problem to standard error.
    pub fn count(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: FAILED {p}");
            }
        }
    }
}

/// Generates the job list, loads the captured answers and warms up on
/// each protocol's job at the workload's smallest size and first pool
/// seed (the same jobs whatever the seed, so set-up time does not depend
/// on it).
fn setup(bench: Bench, seed: u64, tally: &mut Tally) -> Result<(Vec<Job>, Expected), String> {
    let list = jobs::job_list(bench, seed);
    let expected = Expected::load()?;
    let smallest = list.iter().map(|j| j.m).min().unwrap_or(0);
    for job in list.iter().filter(|j| j.m == smallest && j.seed == 1) {
        tally.count(&check(job, jobs::run(job, false), &expected, false));
    }
    Ok((list, expected))
}

/// All problems with one job's outcome (an error is one).
fn check(job: &Job, done: Result<Done, String>, expected: &Expected, deep: bool) -> Vec<String> {
    match done {
        Ok(d) => expected.check(job, &d, deep),
        Err(e) => vec![format!("{}: {e}", job.key)],
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let t = Instant::now();
    let (list, expected) = setup(args.bench, args.seed, &mut tally)?;
    let setup_s = t.elapsed().as_secs_f64();
    let metrics = if args.trace {
        traced::run(
            args.bench,
            args.seed,
            &list,
            &expected,
            args.seconds,
            &mut tally,
        )
    } else {
        measure(args, &list, &expected, setup_s, &mut tally)?
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// Per distinct job: the simulated protocol costs and detection index,
/// deterministic for the job whatever the timings.
#[derive(Default)]
struct Facts {
    control_per_msg: BTreeMap<String, f64>,
    tag_bytes_per_msg: BTreeMap<String, f64>,
    inhibit_ticks: BTreeMap<String, f64>,
    detect_events: BTreeMap<String, f64>,
}

impl Facts {
    fn note(&mut self, job: &Job, done: &Done) {
        let stats = match done {
            Done::Posthoc(p) => &p.sim.stats,
            Done::Online(o) => {
                if let Some(d) = o.detection {
                    self.detect_events.insert(job.key.clone(), d as f64);
                }
                &o.trace.footer.stats
            }
            Done::Explore(_) => return,
        };
        self.control_per_msg
            .insert(job.key.clone(), stats.control_per_user());
        self.tag_bytes_per_msg
            .insert(job.key.clone(), stats.tag_bytes_per_user());
        self.inhibit_ticks
            .insert(job.key.clone(), stats.mean_inhibition());
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The untraced closed loop: one job at a time for `seconds`, each
/// verdict timed from job start and checked outside the timed region.
/// On a job's first verdict the checks go deeper: the quadratic
/// re-checks of the `X_co`/`X_sync` witnesses, and for an explore job,
/// whose leaf witnesses can only be checked inside the exploration, a
/// second, untimed exploration that checks them.
///
/// Timings come from whole passes over the job list only, so every run
/// measures the same mix of jobs whatever its seed. Every [`SETUP_GAP`]
/// the set-up runs again between two jobs, so `setup_s` samples the
/// machine over the same stretch of time as the verdicts do.
fn measure(
    args: &Args,
    list: &[Job],
    expected: &Expected,
    first_setup_s: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut setup_s = vec![first_setup_s];
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut facts = Facts::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut next_setup = Instant::now() + SETUP_GAP;
    let mut next = 0usize;
    while Instant::now() < deadline {
        if Instant::now() >= next_setup {
            let t = Instant::now();
            setup(args.bench, args.seed, tally)?;
            setup_s.push(t.elapsed().as_secs_f64());
            next_setup = Instant::now() + SETUP_GAP;
        }
        let idx = next % list.len();
        if idx == 0 {
            passes.push(Vec::with_capacity(list.len()));
        }
        let first = next < list.len();
        next += 1;
        let job = &list[idx];
        let t = Instant::now();
        let done = jobs::run(job, false);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        passes.last_mut().expect("a pass was opened").push(ms);
        if let Ok(d) = &done {
            facts.note(job, d);
        }
        let mut problems = check(job, done, expected, first);
        if first && job.checks_leaves() {
            problems.extend(check(job, jobs::run(job, true), expected, true));
        }
        tally.count(&problems);
    }
    let whole = passes.iter().filter(|p| p.len() == list.len()).count();
    let verdict_ms: Vec<f64> = passes[..whole.max(1).min(passes.len())].concat();
    let busy_s: f64 = verdict_ms.iter().sum::<f64>() / 1e3;
    let summary = [
        ("samples", verdict_ms.len() as f64, "jobs"),
        (
            "samples_beyond_p90",
            stats::beyond(&verdict_ms, 90.0) as f64,
            "jobs",
        ),
        ("whole_passes", whole as f64, "passes"),
        ("jobs_per_pass", list.len() as f64, "jobs"),
        ("setups", setup_s.len() as f64, "set-ups"),
        (
            "failed_ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    for (name, value, unit) in summary {
        println!("{name:<24} {value} {unit}");
    }
    if args.bench != Bench::Explore {
        let costs = [
            (
                "sim_control_per_msg",
                mean(facts.control_per_msg.into_values()),
                "frames/msg",
            ),
            (
                "sim_tag_bytes_per_msg",
                mean(facts.tag_bytes_per_msg.into_values()),
                "bytes/msg",
            ),
            (
                "sim_inhibit_ticks_mean",
                mean(facts.inhibit_ticks.into_values()),
                "ticks",
            ),
        ];
        for (name, value, unit) in costs {
            println!("{name:<24} {value} {unit}");
        }
    }
    if args.bench == Bench::Online {
        let detect: Vec<f64> = facts.detect_events.into_values().collect();
        println!(
            "{:<24} {} events",
            "detect_events_p50",
            stats::median(&detect).unwrap_or(0.0)
        );
    }
    let metrics = vec![
        metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
        metric(
            "verdicts_per_s",
            verdict_ms.len() as f64 / busy_s.max(1e-9),
            "1/s",
        ),
        metric(
            "verdict_ms_p50",
            stats::percentile(&verdict_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "verdict_ms_p90",
            stats::percentile(&verdict_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    for m in &metrics {
        println!("{:<24} {} {}", m.name, m.value, m.unit);
    }
    Ok(metrics)
}

/// Runs every job a run may meet once and writes a fresh `expected.tsv`
/// with the answers; refuses to write if any answer breaks an invariant.
fn capture() -> Result<(), String> {
    let mut expected = Expected::default();
    let mut broken = 0usize;
    for bench in Bench::ALL {
        for job in jobs::captured(bench) {
            let t = Instant::now();
            let done = jobs::run(&job, true).map_err(|e| format!("{}: {e}", job.key))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let bad = jobs::invariants(&job, &done, true);
            broken += bad.len();
            for b in &bad {
                eprintln!("perfbench: INVARIANT {b}");
            }
            let a = jobs::answer(&done);
            eprintln!("{:<40} {ms:>9.2} ms  {a}", job.key);
            expected.0.insert(job.key, a);
        }
    }
    if broken > 0 {
        return Err(format!(
            "{broken} invariant(s) broken; expected.tsv left unchanged"
        ));
    }
    std::fs::write(Expected::path(), expected.render()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let c = parse_args(&argv("--workload online --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            c,
            Command::Run(Args {
                bench: Bench::Online,
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload online --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload online --seed 1 --trace 0")).is_err());
        assert_eq!(parse_args(&argv("capture")).unwrap(), Command::Capture);
        assert!(parse_args(&argv("capture --workload explore")).is_err());
    }
}
