//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! repo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with nothing
//! traced; with `--trace 1` it alternates untraced units with traced
//! ones and reports the per-layer split of a traced unit. Either way it
//! checks the outputs, prints the provenance and a readable table, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md beside this crate for the workloads and metrics.

mod measure;
mod online;
mod replay;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{median, peak_rss_mib, percentile, provenance, Layers};
use workloads::{BorgAutoscale, PaperSweep, ReplayWorkload};

/// Set-up repetitions per run: at least `MIN_SETUPS`, more while they
/// add up to under `SETUP_BUDGET`, at most `MAX_SETUPS`. `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Fewest measured units a replay run makes, however long they take.
const MIN_UNITS: usize = 3;

/// Digests of the replay workloads' simulated outcomes, per seed, as
/// recorded from `simulation::replay_stream` (see README.md).
const RECORDED: &str = include_str!("../digests.tsv");

const WORKLOADS: [&str; 3] = ["borg-autoscale", "paper-sweep", "online-serving"];

/// Every end-to-end metric (printed with `--trace 0`), with its unit.
const END_TO_END: [(&str, &str); 5] = [
    ("replay_events_per_s", "1/s"),
    ("online_bound_per_s", "1/s"),
    ("online_admit_within_250ms_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric (printed with `--trace 1`), with its unit.
/// A layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("frontend.pull_s", "s"),
    ("frontend.pull.calls", "count"),
    ("setup.trace_s", "s"),
    ("des.ops", "count"),
    ("des.busy_s", "s"),
    ("orchestrator.submit_s", "s"),
    ("orchestrator.submit.calls", "count"),
    ("orchestrator.pass_s", "s"),
    ("orchestrator.pass.calls", "count"),
    ("orchestrator.pass_p99_ms", "ms"),
    ("orchestrator.capture_s", "s"),
    ("orchestrator.capture.calls", "count"),
    ("orchestrator.snapshot_nodes", "count"),
    ("orchestrator.place_bind_s", "s"),
    ("orchestrator.pods_examined", "count"),
    ("orchestrator.pods_bound", "count"),
    ("orchestrator.bind_yield", "share"),
    ("orchestrator.complete_s", "s"),
    ("orchestrator.complete.calls", "count"),
    ("cluster.scrape_s", "s"),
    ("cluster.scrape.calls", "count"),
    ("cluster.frames", "count"),
    ("tsdb.ingest_s", "s"),
    ("tsdb.ingest.calls", "count"),
    ("tsdb.points", "count"),
    ("tsdb.retention_s", "s"),
    ("tsdb.retention.calls", "count"),
    ("autoscale.tick_s", "s"),
    ("autoscale.tick.calls", "count"),
    ("autoscale.nodes_added", "count"),
    ("autoscale.peak_nodes", "count"),
    ("replay.traced_wall_s", "s"),
    ("replay.untraced_wall_s", "s"),
    ("replay.driver_self_s", "s"),
    ("trace.overhead_share", "share"),
    ("online.admit_p50_ms", "ms"),
    ("online.admit_p99_ms", "ms"),
    ("online.server_busy_s", "s"),
    ("online.generator_late_p99_ms", "ms"),
    ("online.drain_s", "s"),
    ("online.submissions", "count"),
    ("online.refused", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        record,
    })
}

/// What a run measured and checked.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what.into()));
        }
    }
}

fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|cols| cols.len() == 3 && cols[0] == workload && cols[1] == seed.to_string())
        .and_then(|cols| u64::from_str_radix(cols[2], 16).ok())
}

/// Times repeated set-ups and keeps the last one's result. Returns it
/// with the median set-up seconds and the median trace seconds.
fn set_up<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let mut walls = Vec::new();
    let mut traces = Vec::new();
    let mut kept = None;
    let started = Instant::now();
    while walls.len() < MIN_SETUPS || (walls.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(kept.take());
        let start = Instant::now();
        let (value, trace_secs) = setup();
        walls.push(start.elapsed().as_secs_f64());
        traces.push(trace_secs);
        kept = Some(value);
    }
    (
        kept.expect("at least one set-up"),
        median(&walls),
        median(&traces),
    )
}

fn run_replay<W: ReplayWorkload>(
    args: &Args,
    setup: impl FnMut() -> (W, f64),
    report: &mut Report,
) {
    let (workload, setup_s, trace_s) = set_up(setup);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let round = Instant::now();
        untraced.push(workload.untraced());
        if args.trace {
            let mut layers = Layers::default();
            let (outcome, secs) = workload.traced(&mut layers);
            traced.push((outcome, secs, layers));
        }
        let round = round.elapsed();
        if untraced.len() >= MIN_UNITS && started.elapsed() + round > budget {
            break;
        }
    }

    // Outcome gate: every unit, traced or not, replays the same outcome,
    // and that outcome is the one recorded for this seed.
    let reference = untraced[0].0.digest;
    match recorded_digest(&args.workload, args.seed) {
        Some(recorded) => report.check(
            reference == recorded,
            format!("outcome digest {reference:016x} differs from the recorded {recorded:016x}"),
        ),
        None => report.notes.push(format!(
            "no digest recorded for seed {}: outcomes checked for agreement across units only",
            args.seed
        )),
    }
    let outcomes = untraced
        .iter()
        .map(|(o, _)| (o, "untraced"))
        .chain(traced.iter().map(|(o, _, _)| (o, "traced")));
    for (outcome, kind) in outcomes {
        report.attempted += outcome.jobs;
        report.failed += outcome.not_terminal();
        report.check(
            outcome.digest == reference,
            format!("{kind} digest {:016x} != {reference:016x}", outcome.digest),
        );
        report.check(!outcome.timed_out, format!("{kind} replay timed out"));
        report.check(
            workload.plausible(outcome),
            format!("{kind} outcome implausible"),
        );
    }

    let walls: Vec<f64> = untraced.iter().map(|(_, s)| s.iter().sum()).collect();
    if !args.trace {
        // The replay's wall time, segment by segment: each segment's
        // median across units, summed. Host stalls that hit one unit's
        // segment drop out instead of shifting the whole unit.
        let segments = untraced[0].1.len();
        let estimate: f64 = (0..segments)
            .map(|k| median(&untraced.iter().map(|(_, s)| s[k]).collect::<Vec<_>>()))
            .sum();
        let unit = &untraced[0].0;
        report.set("replay_events_per_s", 2.0 * unit.jobs as f64 / estimate);
        report.set("online_bound_per_s", unit.bound() as f64 / estimate);
        report.set(
            "online_admit_within_250ms_share",
            unit.admitted_on_time as f64 / unit.jobs as f64,
        );
        report.set("setup_s", setup_s);
        report.notes.push(format!(
            "{} units of {} trace jobs (peak nodes {:?}), replay walls {walls:.3?} s, segment-median estimate {estimate:.3} s",
            walls.len(),
            unit.jobs,
            unit.peak_nodes,
        ));
        return;
    }

    // Structural counters repeat exactly across traced units of a seed.
    let first = traced[0].2.structural();
    for (_, _, layers) in &traced[1..] {
        report.check(
            layers.structural() == first,
            format!(
                "structural counters differ across traced units: {first:?} vs {:?}",
                layers.structural()
            ),
        );
    }
    let untraced_walls = walls;
    let traced_walls: Vec<f64> = traced.iter().map(|(_, s, _)| *s).collect();
    let mid = traced_walls
        .iter()
        .position(|&s| s == percentile(&traced_walls, 50.0))
        .expect("the median is one of the values");
    let (_, wall, layers) = &traced[mid];
    insert_layers(report, layers, *wall, median(&untraced_walls), trace_s);
    report.set(
        "trace.overhead_share",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
}

/// The per-layer metrics of one traced unit.
fn insert_layers(
    report: &mut Report,
    layers: &Layers,
    traced_wall: f64,
    untraced_wall: f64,
    trace_s: f64,
) {
    let spans = [
        ("frontend.pull", layers.pull),
        ("orchestrator.submit", layers.submit),
        ("orchestrator.pass", layers.pass),
        ("orchestrator.capture", layers.capture),
        ("orchestrator.complete", layers.complete),
        ("cluster.scrape", layers.scrape),
        ("tsdb.ingest", layers.ingest),
        ("tsdb.retention", layers.retention),
        ("autoscale.tick", layers.autoscale),
    ];
    for (name, span) in spans {
        report.set(format!("{name}_s"), span.secs());
        report.set(format!("{name}.calls"), span.calls as f64);
    }
    report.set("setup.trace_s", trace_s);
    report.set("des.ops", layers.des.calls as f64);
    report.set("des.busy_s", layers.des.secs());
    report.set(
        "orchestrator.pass_p99_ms",
        percentile(&layers.pass_ms, 99.0),
    );
    report.set(
        "orchestrator.place_bind_s",
        layers.pass.secs() - layers.capture.secs(),
    );
    let yield_share = if layers.pods_examined == 0 {
        0.0
    } else {
        layers.pods_bound as f64 / layers.pods_examined as f64
    };
    report.set("orchestrator.bind_yield", yield_share);
    for (name, count) in layers.structural() {
        report.set(name, count as f64);
    }
    report.set("replay.traced_wall_s", traced_wall);
    report.set("replay.untraced_wall_s", untraced_wall);
    report.set("replay.driver_self_s", traced_wall - layers.spans_secs());
}

fn run_online(args: &Args, report: &mut Report) {
    // Traced runs split the stream between an untraced and a traced
    // session, so both run modes take about `--seconds`.
    let stream_secs = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let jobs = (stream_secs * online::RATE).round().max(1.0) as usize;
    let ((setup, server), setup_s, trace_s) = set_up(|| {
        let (setup, trace_s) = online::OnlineSetup::new(args.seed, jobs);
        let server = setup.server();
        ((setup, server), trace_s)
    });
    let plain = online::session(&setup, online::Server::Plain(server));
    let mut sessions = vec![&plain];
    let traced_session;
    if args.trace {
        let mut layers = Layers::default();
        let server = online::Server::Traced(setup.orchestrator(), &mut layers);
        traced_session = online::session(&setup, server);
        layers.pull = traced_session.wait;
        insert_layers(
            report,
            &layers,
            traced_session.wall_s,
            plain.wall_s,
            trace_s,
        );
        report.set(
            "trace.overhead_share",
            traced_session.busy_s / plain.busy_s - 1.0,
        );
        for (name, value) in online::online_layers(&traced_session) {
            report.set(name, value);
        }
        report.set("online.submissions", traced_session.scheduled as f64);
        report.set("online.refused", traced_session.refused as f64);
        sessions.push(&traced_session);
    }
    for session in sessions {
        report.attempted += session.scheduled;
        report.failed += session.failed();
        if session.check_failures > 0 {
            report.notes.push(format!(
                "FAILED: {} online outcome checks",
                session.check_failures
            ));
        }
    }
    if !args.trace {
        report.set("replay_events_per_s", 2.0 * jobs as f64 / plain.wall_s);
        report.set("online_bound_per_s", plain.bound as f64 / plain.wall_s);
        report.set(
            "online_admit_within_250ms_share",
            plain.admitted_on_time_share(),
        );
        report.set("setup_s", setup_s);
        report.notes.push(format!(
            "{jobs} submissions at {} /s; admit p50 {:.2} ms p99 {:.2} ms; generator late p99 {:.2} ms; drain {:.2} s",
            online::RATE,
            percentile(&plain.admit_ms, 50.0),
            percentile(&plain.admit_ms, 99.0),
            percentile(&plain.generator_late_ms, 99.0),
            plain.drain_s
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("repo-benchmark: {err}");
            return ExitCode::from(2);
        }
    };

    if args.record {
        // One untraced unit, printed as a line of digests.tsv.
        let (outcome, secs) = match args.workload.as_str() {
            "borg-autoscale" => BorgAutoscale::setup(args.seed).0.untraced(),
            "paper-sweep" => PaperSweep::setup(args.seed).0.untraced(),
            _ => {
                eprintln!("repo-benchmark: --record applies to the replay workloads only");
                return ExitCode::from(2);
            }
        };
        println!("{}\t{}\t{:016x}", args.workload, args.seed, outcome.digest);
        eprintln!(
            "{} trace jobs replayed in {:.3} s, ending at {:?}",
            outcome.jobs,
            secs.iter().sum::<f64>(),
            outcome.end_time
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "{}",
        provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "borg-autoscale" => run_replay(&args, || BorgAutoscale::setup(args.seed), &mut report),
        "paper-sweep" => run_replay(&args, || PaperSweep::setup(args.seed), &mut report),
        _ => run_online(&args, &mut report),
    }

    let expected: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        report.set("peak_rss_mib", peak_rss_mib());
        &END_TO_END
    };
    let mut fields = Vec::new();
    for &(name, unit) in expected {
        let value = report.metrics.remove(name).unwrap_or(0.0);
        if !value.is_finite() {
            report.check(false, format!("{name} is not a finite number"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<36} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    assert!(
        report.metrics.is_empty(),
        "metrics missing from the declared lists: {:?}",
        report.metrics.keys().collect::<Vec<_>>()
    );
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!("{:<36} {failed_share:>18.6} share", "failed_share");
    for note in &report.notes {
        eprintln!("{note}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
