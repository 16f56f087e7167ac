//! `online-serving`: an open loop through `online_channel` into
//! `OnlineServer::serve`, untraced, and through a traced copy of the
//! serve loop.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use borg_trace::frontend::{FrontendHint, TraceFrontend, WorkloadEvent};
use borg_trace::{BorgSynthetic, GeneratorConfig, WorkloadJob, WorkloadParams};
use cluster::api::PodUid;
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::topology::ClusterSpec;
use des::{EventQueue, SimDuration, SimTime};
use orchestrator::{Orchestrator, PodOutcome};
use simulation::{online_channel, OnlineFrontend, OnlineServer, ReplayConfig};

use crate::measure::{percentile, Layers, Span};
use crate::replay::pod_spec_for;

/// Submissions per wall second the producer offers.
pub const RATE: f64 = 1_500.0;
/// SGX workers of the static serving cluster.
const NODES: usize = 1_000;
/// Mean concurrency of the trace the submissions are drawn from.
const TRACE_CONCURRENCY: f64 = 10_000.0;
/// A submission taken off the channel later than this after its due
/// instant counts as late.
pub const ADMIT_LIMIT: Duration = Duration::from_millis(250);

/// The inputs of one run: the fixed job list and the serving config.
pub struct OnlineSetup {
    jobs: Vec<WorkloadJob>,
    config: ReplayConfig,
}

impl OnlineSetup {
    /// Set-up for a stream of `jobs` submissions. Returns the set-up and
    /// the seconds spent on the job list.
    pub fn new(seed: u64, jobs: usize) -> (Self, f64) {
        let start = Instant::now();
        let trace = GeneratorConfig::full_scale(seed).with_mean_concurrency(TRACE_CONCURRENCY);
        let mut stream = BorgSynthetic::new(trace, WorkloadParams::paper(1.0, seed));
        let list: Vec<WorkloadJob> = std::iter::from_fn(|| match stream.next_event() {
            Some(WorkloadEvent::Submit { job, .. }) => Some(job),
            _ => None,
        })
        .take(jobs)
        .collect();
        assert_eq!(list.len(), jobs, "the trace is too short for the stream");
        let trace_secs = start.elapsed().as_secs_f64();
        let mut cluster = ClusterSpec::new();
        for i in 0..NODES {
            cluster = cluster.with_node(
                format!("node-{i:05}"),
                MachineSpec::sgx_node(),
                NodeRole::Worker,
            );
        }
        let config = ReplayConfig::paper(seed).with_cluster(cluster);
        let setup = OnlineSetup { jobs: list, config };
        (setup, trace_secs)
    }

    /// Denials the job list determines: SGX jobs whose enclave outgrows
    /// their declared EPC limit are killed at launch on any node.
    fn expected_denied(&self) -> usize {
        let usable = MachineSpec::sgx_node().usable_epc();
        self.jobs
            .iter()
            .filter(|job| {
                let spec = pod_spec_for(job);
                let plan = spec.stressor.plan_on(usable);
                plan.requires_sgx && plan.epc_allocation > spec.resources.limits.epc_pages
            })
            .count()
    }

    /// The server `OnlineServer::serve` runs (built as part of set-up).
    pub fn server(&self) -> OnlineServer {
        OnlineServer::new(&self.config)
    }

    /// The orchestrator the traced copy of the serve loop drives, built
    /// as `OnlineServer::new` builds its own.
    pub fn orchestrator(&self) -> Orchestrator {
        let mut orch = Orchestrator::new(
            self.config.cluster.clone(),
            self.config.orchestrator.clone(),
        );
        orch.set_enforce_limits(self.config.enforce_limits);
        orch
    }
}

/// Which serve loop a session runs.
pub enum Server<'a> {
    /// `OnlineServer::serve` itself.
    Plain(OnlineServer),
    /// The traced copy of its loop, over an orchestrator built like the
    /// server's.
    Traced(Orchestrator, &'a mut Layers),
}

/// Wraps the channel frontend to stamp the instant the server takes
/// each submission off the channel, and the time it spends waiting.
struct Stamped<'a> {
    inner: OnlineFrontend,
    index_of: &'a HashMap<u64, usize>,
    taken: Vec<(usize, Instant)>,
    wait: Span,
    ended: Option<Instant>,
}

impl TraceFrontend for Stamped<'_> {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let inner = &mut self.inner;
        let event = self.wait.time(|| inner.next_event());
        let now = Instant::now();
        match &event {
            Some(WorkloadEvent::Submit { job, .. }) => {
                self.taken.push((self.index_of[&job.id.as_u64()], now));
            }
            Some(WorkloadEvent::GroupLoad { .. }) => {}
            None => self.ended = Some(now),
        }
        event
    }

    fn hint(&self) -> FrontendHint {
        self.inner.hint()
    }
}

/// What the server reported, however it was driven.
struct Served {
    submitted: usize,
    bound: u64,
    completed: usize,
    denied: usize,
    unschedulable: usize,
}

/// One open-loop session and what it measured.
pub struct Session {
    /// Submissions the producer was scheduled to make.
    pub scheduled: usize,
    /// Submissions the channel refused.
    pub refused: usize,
    /// Pods not terminal after the drain.
    pub not_terminal: usize,
    /// Failed outcome checks.
    pub check_failures: usize,
    pub bound: u64,
    /// Serve start to end of the drain.
    pub wall_s: f64,
    pub drain_s: f64,
    /// Ingest time outside `next_event`, plus the drain.
    pub busy_s: f64,
    /// Due instant to take-off, per scheduled submission (refused ones
    /// are absent).
    pub admit_ms: Vec<f64>,
    pub generator_late_ms: Vec<f64>,
    /// The server's calls into `next_event` (blocked on the channel).
    pub wait: Span,
}

impl Session {
    /// Share of scheduled submissions taken off the channel within
    /// [`ADMIT_LIMIT`] of their due instant.
    pub fn admitted_on_time_share(&self) -> f64 {
        let limit = ADMIT_LIMIT.as_secs_f64() * 1e3;
        self.admit_ms.iter().filter(|&&ms| ms <= limit).count() as f64 / self.scheduled as f64
    }

    pub fn failed(&self) -> usize {
        self.refused + self.not_terminal + self.check_failures
    }
}

/// Runs one session over the whole job list at [`RATE`].
pub fn session(setup: &OnlineSetup, server: Server<'_>) -> Session {
    let jobs = setup.jobs.len();
    let index_of: HashMap<u64, usize> = setup
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_u64(), i))
        .collect();
    let (handle, inner) = online_channel();
    let mut frontend = Stamped {
        inner,
        index_of: &index_of,
        taken: Vec::with_capacity(jobs),
        wait: Span::default(),
        ended: None,
    };
    let list = &setup.jobs[..];
    let epoch = Instant::now();
    let due = |i: usize| epoch + Duration::from_secs_f64(i as f64 / RATE);
    let (served, serve_start, serve_end, late, refused) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut late = Vec::with_capacity(list.len());
            let mut refused = 0;
            for (i, job) in list.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                refused += usize::from(!handle.submit(*job));
            }
            (late, refused)
        });
        let serve_start = Instant::now();
        let served = match server {
            Server::Plain(server) => {
                let report = server.serve(&mut frontend);
                Served {
                    submitted: report.submitted,
                    bound: report.bound,
                    completed: report.completed,
                    denied: report.denied,
                    unschedulable: report.unschedulable,
                }
            }
            Server::Traced(orch, layers) => {
                serve_traced(orch, &setup.config, &mut frontend, layers)
            }
        };
        let serve_end = Instant::now();
        let (late, refused) = producer.join().expect("the producer thread panicked");
        (served, serve_start, serve_end, late, refused)
    });

    let ended = frontend
        .ended
        .expect("the stream ended before serve returned");
    let admit_ms: Vec<f64> = frontend
        .taken
        .iter()
        .map(|&(i, at)| at.saturating_duration_since(due(i)).as_secs_f64() * 1e3)
        .collect();
    let terminal = served.completed + served.denied + served.unschedulable;
    let checks = [
        served.submitted == jobs - refused,
        frontend.taken.len() == served.submitted,
        served.bound as usize >= served.submitted - served.denied - served.unschedulable,
        served.denied == setup.expected_denied(),
        served.unschedulable == 0,
        served.bound > 0,
    ];
    let ingest_s = (ended - serve_start).as_secs_f64();
    let drain_s = (serve_end - ended).as_secs_f64();
    Session {
        scheduled: jobs,
        refused,
        not_terminal: served.submitted.saturating_sub(terminal),
        check_failures: checks.iter().filter(|ok| !**ok).count(),
        bound: served.bound,
        wall_s: (serve_end - serve_start).as_secs_f64(),
        drain_s,
        busy_s: ingest_s - frontend.wait.secs() + drain_s,
        admit_ms,
        generator_late_ms: late,
        wait: frontend.wait,
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ServeEvent {
    SchedulerTick,
    ProbeTick,
    PodFinish(PodUid, u32),
}

/// `OnlineServer::serve`'s state, for the traced copy of its loop.
struct TracedServer<'a> {
    orch: Orchestrator,
    events: EventQueue<ServeEvent>,
    generation: BTreeMap<PodUid, u32>,
    running: usize,
    scheduler_period: SimDuration,
    probe_period: SimDuration,
    layers: &'a mut Layers,
}

impl TracedServer<'_> {
    fn peek_time(&mut self) -> Option<SimTime> {
        let events = &self.events;
        self.layers.des.time(|| events.peek_time())
    }

    fn schedule(&mut self, at: SimTime, event: ServeEvent) {
        let events = &mut self.events;
        self.layers.des.time(|| events.schedule(at, event));
    }

    /// `OnlineServer::advance_to` with spans.
    fn advance_to(&mut self, now: SimTime) {
        while self.peek_time().is_some_and(|at| at <= now) {
            let events = &mut self.events;
            let (at, event) = self.layers.des.time(|| events.pop()).expect("peeked");
            let orch = &mut self.orch;
            let layers = &mut *self.layers;
            match event {
                ServeEvent::SchedulerTick => {
                    let snapshot = layers.capture.time(|| orch.capture_snapshot(at));
                    layers.snapshot_nodes += snapshot.len() as u64;
                    drop(snapshot);
                    layers.pods_examined += orch.queue().len() as u64;
                    let start = Instant::now();
                    let outcomes = layers.pass.time(|| orch.scheduler_pass(at));
                    layers.pass_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    for outcome in outcomes {
                        if outcome.report.started() {
                            self.layers.pods_bound += 1;
                            self.running += 1;
                            let runtime = outcome
                                .spec_duration
                                .mul_f64(outcome.slowdown_at_start.max(1.0));
                            let gen = *self.generation.entry(outcome.uid).or_insert(0);
                            let finish = at + outcome.report.startup_delay + runtime;
                            self.schedule(finish, ServeEvent::PodFinish(outcome.uid, gen));
                        }
                    }
                    self.schedule(at + self.scheduler_period, ServeEvent::SchedulerTick);
                }
                ServeEvent::ProbeTick => {
                    let frames = layers.scrape.time(|| orch.scrape_frames(at));
                    layers.frames += frames.len() as u64;
                    for (node, batch) in &frames {
                        layers.points += batch.len() as u64;
                        layers.ingest.time(|| orch.ingest_frame(node, batch, at));
                    }
                    drop(frames);
                    layers.retention.time(|| orch.enforce_metrics_retention(at));
                    self.schedule(at + self.probe_period, ServeEvent::ProbeTick);
                }
                ServeEvent::PodFinish(uid, event_generation) => {
                    if self.generation.get(&uid).copied().unwrap_or(0) != event_generation {
                        continue;
                    }
                    self.running -= 1;
                    layers
                        .complete
                        .time(|| orch.complete_pod(uid, at))
                        .expect("finish events only exist for running pods");
                }
            }
        }
    }
}

/// `OnlineServer::serve`'s loop with a span around every call into a
/// layer (the frontend's own span is its wait on the channel).
fn serve_traced(
    orch: Orchestrator,
    config: &ReplayConfig,
    frontend: &mut Stamped<'_>,
    layers: &mut Layers,
) -> Served {
    let epoch = Instant::now();
    let mut server = TracedServer {
        orch,
        events: EventQueue::with_capacity(1024),
        generation: BTreeMap::new(),
        running: 0,
        scheduler_period: config.orchestrator.scheduler_period,
        probe_period: config.orchestrator.probe_period,
        layers,
    };
    server.schedule(SimTime::ZERO, ServeEvent::SchedulerTick);
    server.schedule(SimTime::ZERO, ServeEvent::ProbeTick);
    let mut submitted = 0usize;

    while let Some(event) = frontend.next_event() {
        let now = SimTime::ZERO + SimDuration::from_secs_f64(epoch.elapsed().as_secs_f64());
        server.advance_to(now);
        if let WorkloadEvent::Submit { job, .. } = event {
            let spec = pod_spec_for(&job);
            let orch = &mut server.orch;
            server.layers.submit.time(|| orch.submit(spec, now));
            submitted += 1;
        }
    }
    while server.running > 0 || !server.orch.queue().is_empty() {
        let Some(due) = server.peek_time() else { break };
        server.advance_to(due);
    }

    let orch = &server.orch;
    let count = |pred: fn(&PodOutcome) -> bool| {
        orch.records().values().filter(|r| pred(&r.outcome)).count()
    };
    Served {
        submitted,
        bound: orch.bound_count(),
        completed: count(|o| matches!(o, PodOutcome::Completed { .. })),
        denied: count(|o| matches!(o, PodOutcome::Denied { .. })),
        unschedulable: count(|o| *o == PodOutcome::Unschedulable),
    }
}

/// Per-layer figures only the online workload has.
pub fn online_layers(session: &Session) -> [(&'static str, f64); 5] {
    [
        ("online.admit_p50_ms", percentile(&session.admit_ms, 50.0)),
        ("online.admit_p99_ms", percentile(&session.admit_ms, 99.0)),
        ("online.server_busy_s", session.busy_s),
        (
            "online.generator_late_p99_ms",
            percentile(&session.generator_late_ms, 99.0),
        ),
        ("online.drain_s", session.drain_s),
    ]
}
