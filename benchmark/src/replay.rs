//! The replay under test, untraced and traced.
//!
//! The untraced path is `simulation::replay_stream` itself. The traced
//! path is a copy of its event loop, written here from the program's
//! public calls only, with a span around each call into a layer. It
//! covers the features the benchmark's replay workloads use (trace
//! submissions, scheduler / probe ticks, pod finishes, cluster and
//! pod-group autoscaling) and refuses any other configuration. Both
//! paths end in the same [`Outcome`], whose digest the caller compares:
//! if the loop in `replay_stream` changes and this copy drifts, the
//! traced run fails instead of timing a different program.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use borg_trace::frontend::{FrontendHint, TraceFrontend, WorkloadEvent};
use borg_trace::{JobKind, WorkloadJob};
use cluster::api::{PodSpec, PodUid, ResourceRequirements, Resources};
use des::stats::TimeSeries;
use des::{EventQueue, SimDuration, SimTime};
use orchestrator::autoscale::{AutoscaleOutcome, ClusterAutoscaler, PodGroupAutoscaler};
use orchestrator::{Migration, Orchestrator, PodOutcome, PodRecord};
use sgx_sim::units::ByteSize;
use simulation::{replay_stream, ReplayConfig, ReplayResult};
use stress::Stressor;

use crate::measure::{outcome_digest, Layers};

/// What one replay did, reduced to what the benchmark checks and counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub digest: u64,
    /// Trace jobs submitted (pods that are not service replicas).
    pub jobs: usize,
    pub completed: usize,
    pub denied: usize,
    pub unschedulable: usize,
    /// Trace submissions whose simulated submission instant lies within
    /// 250 ms of the instant the trace made them due.
    pub admitted_on_time: usize,
    pub timed_out: bool,
    pub end_time: SimTime,
    pub peak_nodes: Option<usize>,
}

impl Outcome {
    fn from_records<'a>(
        records: impl Iterator<Item = (&'a PodRecord, Option<&'a WorkloadJob>)> + Clone,
        end_time: SimTime,
        timed_out: bool,
        peak_nodes: Option<usize>,
    ) -> Self {
        let count = |pred: fn(&PodOutcome) -> bool| {
            records.clone().filter(|(r, _)| pred(&r.outcome)).count()
        };
        let on_time = SimDuration::from_millis(250);
        Outcome {
            digest: outcome_digest(records.clone().map(|(r, _)| r), end_time, peak_nodes),
            jobs: records.clone().count(),
            completed: count(|o| matches!(o, PodOutcome::Completed { .. })),
            denied: count(|o| matches!(o, PodOutcome::Denied { .. })),
            unschedulable: count(|o| *o == PodOutcome::Unschedulable),
            admitted_on_time: records
                .filter(|(r, job)| {
                    job.is_some_and(|j| {
                        r.submitted_at >= j.submit
                            && r.submitted_at.saturating_since(j.submit) <= on_time
                    })
                })
                .count(),
            timed_out,
            end_time,
            peak_nodes,
        }
    }

    /// Pods that started running (every one that was not denied or
    /// unschedulable, once the replay drained).
    pub fn bound(&self) -> usize {
        self.completed
    }

    /// Pods left pending or running when the replay ended.
    pub fn not_terminal(&self) -> usize {
        self.jobs - self.completed - self.denied - self.unschedulable
    }
}

/// Segments each untraced replay's wall time is cut into, by trace
/// position (see [`untraced`]).
pub const SEGMENTS: usize = 16;

/// The untraced replay: the program's own `replay_stream`. Returns the
/// outcome and the replay's wall seconds in [`SEGMENTS`] consecutive
/// segments, cut where the replay pulls the trace job at each
/// `SEGMENTS`-th of the way (the last runs to the end of the drain).
pub fn untraced(frontend: &mut dyn TraceFrontend, config: &ReplayConfig) -> (Outcome, Vec<f64>) {
    let mut stamped = Stamped {
        pulls: Vec::with_capacity(frontend.hint().expected_jobs + 1),
        inner: frontend,
    };
    let start = Instant::now();
    let result = replay_stream(&mut stamped, config);
    let end = Instant::now();
    let pulls = stamped.pulls;
    let mut bounds = vec![start];
    bounds.extend((1..SEGMENTS).map(|k| pulls[k * pulls.len() / SEGMENTS]));
    bounds.push(end);
    let segments = bounds
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    (outcome_of(&result), segments)
}

/// A frontend that stamps the wall instant of every pull.
struct Stamped<'a> {
    inner: &'a mut dyn TraceFrontend,
    pulls: Vec<Instant>,
}

impl TraceFrontend for Stamped<'_> {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let event = self.inner.next_event();
        self.pulls.push(Instant::now());
        event
    }

    fn hint(&self) -> FrontendHint {
        self.inner.hint()
    }
}

fn outcome_of(result: &ReplayResult) -> Outcome {
    Outcome::from_records(
        result.runs().iter().map(|r| (&r.record, r.job.as_ref())),
        result.end_time(),
        result.timed_out(),
        result.elasticity().map(|m| m.peak_nodes),
    )
}

/// The pod spec `replay_stream` submits for a trace job.
pub fn pod_spec_for(job: &WorkloadJob) -> PodSpec {
    let requests = match job.kind {
        JobKind::Sgx => Resources::with_epc(ByteSize::ZERO, job.epc_request()),
        JobKind::Standard => Resources::memory(job.mem_request),
    };
    PodSpec::builder(format!("{}", job.id))
        .requirements(ResourceRequirements::exact(requests))
        .stressor(Stressor::for_job(job))
        .duration(job.duration)
        .build()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    SchedulerTick,
    ProbeTick,
    PodFinish(PodUid, u32),
    AutoscaleTick,
}

/// Bookkeeping of the pods the loop tracks between events.
#[derive(Default)]
struct Running {
    generation: BTreeMap<PodUid, u32>,
    finish_at: BTreeMap<PodUid, SimTime>,
    count: usize,
}

impl Running {
    /// `replay_stream`'s migration accounting: invalidate the pod's
    /// finish and re-schedule it shifted by the transfer delay.
    fn migrate(&mut self, moves: &[Migration], now: SimTime, events: &mut Queue<'_>) {
        for m in moves {
            let gen = self.generation.entry(m.uid).or_insert(0);
            *gen += 1;
            let old_finish = self.finish_at[&m.uid];
            let new_finish = old_finish.max(now) + m.delay;
            self.finish_at.insert(m.uid, new_finish);
            events.schedule(new_finish, Event::PodFinish(m.uid, *gen));
        }
    }

    /// A pod left its node without finishing: its finish is stale.
    fn invalidate(&mut self, uid: PodUid) {
        *self.generation.entry(uid).or_insert(0) += 1;
        if self.finish_at.remove(&uid).is_some() {
            self.count -= 1;
        }
    }
}

/// The event queue with every call inside the `des` span.
struct Queue<'a> {
    inner: EventQueue<Event>,
    layers: &'a mut Layers,
}

impl Queue<'_> {
    fn schedule(&mut self, at: SimTime, event: Event) {
        let inner = &mut self.inner;
        self.layers.des.time(|| inner.schedule(at, event));
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let inner = &mut self.inner;
        self.layers.des.time(|| inner.pop())
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let inner = &self.inner;
        self.layers.des.time(|| inner.peek_time())
    }
}

/// The traced replay: `replay_stream`'s loop with a span around every
/// call into a layer. Returns the outcome and the traced wall seconds.
///
/// # Panics
///
/// Panics on configurations the copy does not cover (failures, drains,
/// rebalancing, chaos, the malicious tenant, frontend service groups).
pub fn traced(
    frontend: &mut dyn TraceFrontend,
    config: &ReplayConfig,
    layers: &mut Layers,
) -> (Outcome, f64) {
    assert!(
        config.malicious.is_none()
            && config.failures.is_empty()
            && config.drains.is_empty()
            && config.rebalance.is_none()
            && config.faults.is_noop(),
        "the traced replay covers trace submissions, periodic loops and autoscaling only"
    );
    let wall = Instant::now();
    let mut orch = Orchestrator::new(config.cluster.clone(), config.orchestrator.clone());
    orch.set_enforce_limits(config.enforce_limits);
    if let Some(model) = config.cost_model {
        for node in orch.cluster_mut().nodes_mut() {
            node.set_cost_model(model);
        }
    }
    let scheduler_period = config.orchestrator.scheduler_period;
    let probe_period = config.orchestrator.probe_period;
    let cap = SimTime::ZERO + config.max_sim_time;

    let hint = frontend.hint();
    assert!(
        hint.service_groups.is_empty(),
        "frontend service groups are not covered by the traced replay"
    );
    let mut events = Queue {
        inner: EventQueue::with_capacity(hint.expected_jobs * 2 + 8),
        layers,
    };
    events.schedule(SimTime::ZERO, Event::SchedulerTick);
    events.schedule(SimTime::ZERO, Event::ProbeTick);

    let mut cluster_as = config
        .autoscale
        .as_ref()
        .map(|autoscale| ClusterAutoscaler::new(autoscale.policy.clone()));
    let mut groups_as = config
        .autoscale
        .as_ref()
        .map(|autoscale| PodGroupAutoscaler::new(autoscale.pod_groups.clone()));
    let autoscale_period = config.autoscale.as_ref().map(|a| a.period);
    let autoscale_audit = config.autoscale.as_ref().is_some_and(|a| a.audit);
    if let Some(period) = autoscale_period {
        events.schedule(SimTime::ZERO + period, Event::AutoscaleTick);
    }

    let mut uid_to_job: BTreeMap<PodUid, WorkloadJob> = BTreeMap::new();
    let mut running = Running::default();
    // `replay_stream` keeps these series for its result; recording them
    // is part of the loop's work, so the copy records them too.
    let mut pending_epc_series = TimeSeries::new();
    let mut pending_memory_series = TimeSeries::new();
    let mut epc_imbalance_series = TimeSeries::new();
    let mut timed_out = false;
    let mut end_time = SimTime::ZERO;
    let mut sched_armed = true;
    let mut probe_armed = true;
    let mut autoscale_armed = autoscale_period.is_some();
    let mut group_uids: BTreeSet<PodUid> = BTreeSet::new();

    let mut next_fe = events.layers.pull.time(|| frontend.next_event());

    loop {
        let queue_at = events.peek_time();
        let take_fe = match (next_fe.as_ref().map(WorkloadEvent::at), queue_at) {
            (Some(fe_at), Some(queue_at)) => fe_at <= queue_at,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_fe {
            let fe = next_fe.take().expect("take_fe implies a lookahead event");
            let now = fe.at();
            if now > cap {
                end_time = cap;
                timed_out = true;
                break;
            }
            end_time = now;
            let WorkloadEvent::Submit { job, hostile } = fe else {
                panic!("group-load events are not covered by the traced replay");
            };
            assert!(
                !hostile,
                "hostile submissions are not covered by the traced replay"
            );
            let spec = pod_spec_for(&job);
            let uid = events.layers.submit.time(|| orch.submit(spec, now));
            uid_to_job.insert(uid, job);
            if !sched_armed {
                events.schedule(now, Event::SchedulerTick);
                sched_armed = true;
            }
            if !probe_armed {
                events.schedule(now, Event::ProbeTick);
                probe_armed = true;
            }
            if let Some(period) = autoscale_period {
                if !autoscale_armed {
                    events.schedule(now + period, Event::AutoscaleTick);
                    autoscale_armed = true;
                }
            }
            next_fe = events.layers.pull.time(|| frontend.next_event());
            continue;
        }
        let Some((now, event)) = events.pop() else {
            break;
        };
        if now > cap {
            end_time = cap;
            timed_out = true;
            break;
        }
        end_time = now;
        let work_remains = |orch: &Orchestrator, running: &Running| {
            next_fe.is_some() || running.count > 0 || !orch.queue().is_empty()
        };
        match event {
            Event::SchedulerTick => {
                let layers = &mut *events.layers;
                let snapshot = layers.capture.time(|| orch.capture_snapshot(now));
                layers.snapshot_nodes += snapshot.len() as u64;
                drop(snapshot);
                layers.pods_examined += orch.queue().len() as u64;
                let start = Instant::now();
                let outcomes = layers.pass.time(|| orch.scheduler_pass(now));
                layers.pass_ms.push(start.elapsed().as_secs_f64() * 1e3);
                for outcome in outcomes {
                    if outcome.report.started() {
                        events.layers.pods_bound += 1;
                        running.count += 1;
                        let runtime = outcome
                            .spec_duration
                            .mul_f64(outcome.slowdown_at_start.max(1.0));
                        let generation = *running.generation.entry(outcome.uid).or_insert(0);
                        let finish = now + outcome.report.startup_delay + runtime;
                        running.finish_at.insert(outcome.uid, finish);
                        events.schedule(finish, Event::PodFinish(outcome.uid, generation));
                    }
                }
                pending_epc_series.record(now, orch.queue().epc_requested().as_mib_f64());
                pending_memory_series.record(now, orch.queue().memory_requested().as_mib_f64());
                epc_imbalance_series.record(now, orch.epc_imbalance());
                if work_remains(&orch, &running) {
                    events.schedule(now + scheduler_period, Event::SchedulerTick);
                } else {
                    sched_armed = false;
                }
            }
            Event::ProbeTick => {
                let layers = &mut *events.layers;
                let frames = layers.scrape.time(|| orch.scrape_frames(now));
                layers.frames += frames.len() as u64;
                for (node, batch) in &frames {
                    layers.points += batch.len() as u64;
                    layers.ingest.time(|| orch.ingest_frame(node, batch, now));
                }
                drop(frames);
                layers
                    .retention
                    .time(|| orch.enforce_metrics_retention(now));
                if work_remains(&orch, &running) {
                    events.schedule(now + probe_period, Event::ProbeTick);
                } else {
                    probe_armed = false;
                }
            }
            Event::PodFinish(uid, event_generation) => {
                if running.generation.get(&uid).copied().unwrap_or(0) != event_generation {
                    continue;
                }
                running.count -= 1;
                running.finish_at.remove(&uid);
                events
                    .layers
                    .complete
                    .time(|| orch.complete_pod(uid, now))
                    .expect("finish events only exist for running pods");
            }
            Event::AutoscaleTick => {
                let period = autoscale_period.expect("event only scheduled when a period exists");
                let outcome = events.layers.autoscale.time(|| {
                    let mut outcome = AutoscaleOutcome::default();
                    if let Some(cluster_as) = cluster_as.as_mut() {
                        outcome.merge(cluster_as.tick(&mut orch, now));
                    }
                    if let Some(groups_as) = groups_as.as_mut() {
                        outcome.merge(groups_as.tick(&mut orch, now));
                    }
                    outcome
                });
                for (_, removal) in &outcome.removed {
                    running.migrate(&removal.migrations, now, &mut events);
                    for &uid in &removal.requeued {
                        running.invalidate(uid);
                    }
                }
                for &uid in &outcome.retired {
                    running.invalidate(uid);
                }
                if !outcome.submitted.is_empty() {
                    group_uids.extend(outcome.submitted.iter().copied());
                    if !sched_armed {
                        events.schedule(now, Event::SchedulerTick);
                        sched_armed = true;
                    }
                    if !probe_armed {
                        events.schedule(now, Event::ProbeTick);
                        probe_armed = true;
                    }
                }
                if autoscale_audit {
                    let violations = orch.audit_invariants();
                    assert!(violations.is_empty(), "invariants violated: {violations:?}");
                }
                if !outcome.is_empty() {
                    epc_imbalance_series.record(now, orch.epc_imbalance());
                }
                let groups_live = groups_as
                    .as_ref()
                    .is_some_and(|groups| !groups.is_drained(now));
                if work_remains(&orch, &running) || groups_live {
                    events.schedule(now + period, Event::AutoscaleTick);
                } else {
                    autoscale_armed = false;
                }
            }
        }
    }

    let secs = wall.elapsed().as_secs_f64();
    drop((
        pending_epc_series,
        pending_memory_series,
        epc_imbalance_series,
    ));
    let elasticity = cluster_as.as_ref().map(|c| *c.metrics());
    let layers = events.layers;
    if let Some(metrics) = &elasticity {
        layers.nodes_added += metrics.nodes_added;
        layers.peak_nodes = layers.peak_nodes.max(metrics.peak_nodes as u64);
    }
    let records = orch
        .records()
        .iter()
        .filter(|(uid, _)| !group_uids.contains(uid))
        .map(|(uid, record)| (record, uid_to_job.get(uid)));
    let outcome = Outcome::from_records(
        records,
        end_time,
        timed_out,
        elasticity.map(|m| m.peak_nodes),
    );
    (outcome, secs)
}
