//! Timing spans, order statistics, the outcome digest and the process
//! facts every result carries.

use std::time::{Duration, Instant};

use des::SimTime;
use orchestrator::{PodOutcome, PodRecord};

/// Calls into one layer's public function: how many, and the wall time
/// spent inside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub busy: Duration,
}

impl Span {
    /// Runs `f` inside the span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy += start.elapsed();
        self.calls += 1;
        out
    }

    pub fn secs(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

/// Everything the traced run attributes, for one replay unit (one
/// replay, or one pass over the sweep grid) or one online session.
///
/// The spans never nest, so their sum plus the driver's own time is the
/// traced wall time exactly.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `TraceFrontend::next_event`.
    pub pull: Span,
    /// `des::EventQueue` schedule / pop / peek.
    pub des: Span,
    /// `Orchestrator::submit`.
    pub submit: Span,
    /// `Orchestrator::capture_snapshot`, called just before each pass.
    pub capture: Span,
    /// `Orchestrator::scheduler_pass` (which captures again internally).
    pub pass: Span,
    /// `Orchestrator::complete_pod`.
    pub complete: Span,
    /// `Orchestrator::scrape_frames`.
    pub scrape: Span,
    /// `Orchestrator::ingest_frame`.
    pub ingest: Span,
    /// `Orchestrator::enforce_metrics_retention`.
    pub retention: Span,
    /// `ClusterAutoscaler::tick` + `PodGroupAutoscaler::tick`.
    pub autoscale: Span,
    /// Wall milliseconds of every scheduler pass.
    pub pass_ms: Vec<f64>,
    /// Nodes in the snapshots captured before each pass.
    pub snapshot_nodes: u64,
    /// Pending pods at the start of each pass, summed.
    pub pods_examined: u64,
    /// Pods a pass started (denied launches excluded), summed.
    pub pods_bound: u64,
    pub frames: u64,
    pub points: u64,
    pub nodes_added: u64,
    pub peak_nodes: u64,
}

impl Layers {
    /// Sum of every span's busy time.
    pub fn spans_secs(&self) -> f64 {
        [
            self.pull,
            self.des,
            self.submit,
            self.capture,
            self.pass,
            self.complete,
            self.scrape,
            self.ingest,
            self.retention,
            self.autoscale,
        ]
        .iter()
        .map(Span::secs)
        .sum()
    }

    /// The counters that must repeat exactly across replays of one seed.
    pub fn structural(&self) -> [(&'static str, u64); 8] {
        [
            ("orchestrator.pods_examined", self.pods_examined),
            ("orchestrator.pods_bound", self.pods_bound),
            ("orchestrator.snapshot_nodes", self.snapshot_nodes),
            ("cluster.frames", self.frames),
            ("tsdb.points", self.points),
            ("des.ops", self.des.calls),
            ("autoscale.nodes_added", self.nodes_added),
            ("autoscale.peak_nodes", self.peak_nodes),
        ]
    }

    /// Folds another unit's layers into this one (the sweep grid sums
    /// its cells).
    pub fn absorb(&mut self, other: Layers) {
        let spans = [
            (&mut self.pull, other.pull),
            (&mut self.des, other.des),
            (&mut self.submit, other.submit),
            (&mut self.capture, other.capture),
            (&mut self.pass, other.pass),
            (&mut self.complete, other.complete),
            (&mut self.scrape, other.scrape),
            (&mut self.ingest, other.ingest),
            (&mut self.retention, other.retention),
            (&mut self.autoscale, other.autoscale),
        ];
        for (mine, theirs) in spans {
            mine.calls += theirs.calls;
            mine.busy += theirs.busy;
        }
        self.pass_ms.extend(other.pass_ms);
        self.snapshot_nodes += other.snapshot_nodes;
        self.pods_examined += other.pods_examined;
        self.pods_bound += other.pods_bound;
        self.frames += other.frames;
        self.points += other.points;
        self.nodes_added += other.nodes_added;
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (NaN when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike the
/// standard library's hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn time_or_none(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, SimTime::as_micros)
}

/// Digest of a replay's simulated outcome: every pod's uid, outcome
/// (with its node), submission, start and finish instants in uid order,
/// then the end instant and the autoscaler's peak node count.
pub fn outcome_digest<'a>(
    records: impl Iterator<Item = &'a PodRecord>,
    end_time: SimTime,
    peak_nodes: Option<usize>,
) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.u64(r.uid.as_u64());
        let (tag, node) = match &r.outcome {
            PodOutcome::Pending => (0, None),
            PodOutcome::Running { node } => (1, Some(node)),
            PodOutcome::Completed { node } => (2, Some(node)),
            PodOutcome::Denied { node } => (3, Some(node)),
            PodOutcome::Unschedulable => (4, None),
        };
        h.u64(tag);
        if let Some(node) = node {
            h.bytes(node.as_str().as_bytes());
            h.bytes(&[0]);
        }
        h.u64(r.submitted_at.as_micros());
        h.u64(time_or_none(r.started_at));
        h.u64(time_or_none(r.finished_at));
    }
    h.u64(end_time.as_micros());
    h.u64(peak_nodes.map_or(u64::MAX, |n| n as u64));
    h.finish()
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs a command to completion and returns its first output line.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts a reader needs to compare two results: host cores, build
/// profile, commit, compiler and seed, as one JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Only a git checkout rooted here names a commit: git must not walk
    // up into whatever directory holds this one.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let rustc = command_line("rustc", &["-V"]);
    format!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {cores}, \"profile\": \"{profile}\", \
         \"commit\": \"{commit}\", \"rustc\": \"{rustc}\"}}}}"
    )
}
