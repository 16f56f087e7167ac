//! The two replay workloads: what each sets up, and what one measured
//! unit of it replays.

use std::time::Instant;

use borg_trace::frontend::MaterializedFrontend;
use borg_trace::{BorgSynthetic, GeneratorConfig, Workload, WorkloadParams};
use des::{SimDuration, SimTime};
use orchestrator::autoscale::{AutoscalerPolicy, PodGroupSpec};
use sgx_orchestrator::Experiment;
use sgx_sim::units::ByteSize;
use simulation::{AutoscaleConfig, ReplayConfig};

use crate::measure::{Fnv, Layers};
use crate::replay::{self, Outcome};

/// A replay workload after set-up: one call replays one measured unit.
pub trait ReplayWorkload {
    /// Replays one unit through `simulation::replay_stream`. Returns its
    /// wall seconds by segment, in replay order.
    fn untraced(&self) -> (Outcome, Vec<f64>);
    /// Replays the same unit through the traced copy of its loop.
    fn traced(&self, layers: &mut Layers) -> (Outcome, f64);
    /// A unit that ended well-formed for this workload, beyond draining.
    fn plausible(&self, outcome: &Outcome) -> bool;
}

/// Mean concurrency of the full-scale Borg cell (Fig. 5).
const BORG_CONCURRENCY: f64 = 135_000.0;
/// Submission horizon of the autoscaled replay.
pub const BORG_HORIZON: SimDuration = SimDuration::from_secs(30);
/// Workers of the paper's baseline cluster (two standard, two SGX).
const BASELINE_WORKERS: usize = 4;

/// `borg-autoscale`: the full-scale Borg trace streamed into the
/// five-node paper cluster, with the cluster autoscaler and one
/// autoscaled service group on — the `bench_autoscale` configuration at
/// a shorter horizon.
pub struct BorgAutoscale {
    trace: GeneratorConfig,
    params: WorkloadParams,
    config: ReplayConfig,
}

fn service_group() -> PodGroupSpec {
    PodGroupSpec {
        name: "frontend".to_string(),
        sgx: true,
        replica_request: ByteSize::from_mib(32),
        min_replicas: 2,
        max_replicas: 64,
        capacity_per_replica: 100.0,
        profile: vec![(0, 200.0), (120, 2_000.0), (300, 2_000.0), (420, 200.0)],
    }
}

impl BorgAutoscale {
    /// Set-up. Returns the workload and the seconds spent on the trace.
    pub fn setup(seed: u64) -> (Self, f64) {
        let start = Instant::now();
        let trace = GeneratorConfig::full_scale(seed)
            .with_mean_concurrency(BORG_CONCURRENCY)
            .with_horizon(BORG_HORIZON);
        let params = WorkloadParams::paper(1.0, seed);
        // The trace streams: its jobs are generated inside the replay, on
        // each pull. Building the stream is its set-up (it derives the
        // arrival rate from the duration model); each unit builds its
        // own the same way, before the replay's clock starts.
        drop(BorgSynthetic::new(trace, params));
        let trace_secs = start.elapsed().as_secs_f64();
        let policy = AutoscalerPolicy::paper_defaults()
            .with_scale_up_wait(SimDuration::from_secs(20))
            .with_scale_down_after(SimDuration::from_secs(60))
            .with_max_nodes(12_500)
            .with_max_step(256);
        let autoscale = AutoscaleConfig::every(SimDuration::from_secs(10), policy)
            .with_pod_group(service_group());
        let config = ReplayConfig::paper(seed).with_autoscale(autoscale);
        (
            BorgAutoscale {
                trace,
                params,
                config,
            },
            trace_secs,
        )
    }

    fn frontend(&self) -> BorgSynthetic {
        BorgSynthetic::new(self.trace, self.params)
    }
}

impl ReplayWorkload for BorgAutoscale {
    fn untraced(&self) -> (Outcome, Vec<f64>) {
        replay::untraced(&mut self.frontend(), &self.config)
    }

    fn traced(&self, layers: &mut Layers) -> (Outcome, f64) {
        replay::traced(&mut self.frontend(), &self.config, layers)
    }

    fn plausible(&self, outcome: &Outcome) -> bool {
        outcome
            .peak_nodes
            .is_some_and(|peak| peak > BASELINE_WORKERS)
    }
}

/// SGX shares of the paper's sweep (Figs. 7–10).
const SHARES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Placement policies the sweep compares.
const POLICIES: [&str; 2] = [orchestrator::SGX_BINPACK, orchestrator::SGX_SPREAD];

/// `paper-sweep`: the paper's grid — SGX share × policy on the paper's
/// five-machine cluster and its prepared Borg slice, replayed one cell
/// after another. One unit is the whole grid.
pub struct PaperSweep {
    /// One workload per share, in `SHARES` order.
    workloads: Vec<Workload>,
    /// `(share index, config)` per grid cell.
    cells: Vec<(usize, ReplayConfig)>,
}

impl PaperSweep {
    /// Set-up. Returns the workload and the seconds spent on the trace.
    pub fn setup(seed: u64) -> (Self, f64) {
        let start = Instant::now();
        let experiment = Experiment::paper_replay(seed);
        let trace = experiment.prepared_trace();
        let workloads: Vec<Workload> = SHARES
            .iter()
            .map(|&share| Workload::materialize(&trace, &WorkloadParams::paper(share, seed)))
            .collect();
        let trace_secs = start.elapsed().as_secs_f64();
        let cells = SHARES
            .iter()
            .enumerate()
            .flat_map(|(i, &share)| {
                POLICIES.iter().map(move |policy| {
                    let config = Experiment::paper_replay(seed)
                        .sgx_ratio(share)
                        .scheduler(policy)
                        .replay_config();
                    (i, config)
                })
            })
            .collect();
        (PaperSweep { workloads, cells }, trace_secs)
    }

    /// Replays every cell; the grid's digest folds the cells' digests.
    fn grid<T>(
        &self,
        mut run: impl FnMut(&Workload, &ReplayConfig) -> (Outcome, T),
    ) -> (Outcome, Vec<T>) {
        let mut digest = Fnv::new();
        let mut total: Option<Outcome> = None;
        let mut walls = Vec::new();
        for (share, config) in &self.cells {
            let (outcome, wall) = run(&self.workloads[*share], config);
            walls.push(wall);
            digest.u64(outcome.digest);
            total = Some(match total {
                None => outcome,
                Some(t) => Outcome {
                    digest: 0,
                    jobs: t.jobs + outcome.jobs,
                    completed: t.completed + outcome.completed,
                    denied: t.denied + outcome.denied,
                    unschedulable: t.unschedulable + outcome.unschedulable,
                    admitted_on_time: t.admitted_on_time + outcome.admitted_on_time,
                    timed_out: t.timed_out || outcome.timed_out,
                    end_time: t.end_time.max(outcome.end_time),
                    peak_nodes: None,
                },
            });
        }
        let mut total = total.expect("the grid has cells");
        total.digest = digest.finish();
        (total, walls)
    }
}

impl ReplayWorkload for PaperSweep {
    fn untraced(&self) -> (Outcome, Vec<f64>) {
        let (outcome, cells) = self.grid(|workload, config| {
            replay::untraced(&mut MaterializedFrontend::new(workload), config)
        });
        (outcome, cells.concat())
    }

    fn traced(&self, layers: &mut Layers) -> (Outcome, f64) {
        let (outcome, cells) = self.grid(|workload, config| {
            let mut cell = Layers::default();
            let out = replay::traced(&mut MaterializedFrontend::new(workload), config, &mut cell);
            layers.absorb(cell);
            out
        });
        (outcome, cells.iter().sum())
    }

    fn plausible(&self, outcome: &Outcome) -> bool {
        outcome.end_time > SimTime::ZERO && outcome.completed > 0
    }
}
