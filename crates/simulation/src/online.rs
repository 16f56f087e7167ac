//! Online serving mode: a long-running orchestrator fed at wall-clock
//! speed.
//!
//! Online serving *is* replay: [`OnlineServer::serve`] runs the same
//! event loop as [`replay_stream`](crate::replay_stream), over an
//! orchestrator built the same way. The only difference is where a
//! submission's instant comes from. A replay reads it from the trace;
//! online mode stamps it with the wall time elapsed since `serve`
//! began, as the submission comes off the channel. [`online_channel`]
//! yields a channel-backed [`OnlineFrontend`] plus an [`OnlineHandle`]
//! any thread can push submissions through. Sustained pods-bound/sec
//! (the `bench_online` metric) falls out of the resulting
//! [`OnlineReport`].

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::time::Instant;

use borg_trace::frontend::{FrontendHint, TraceFrontend, WorkloadEvent};
use borg_trace::WorkloadJob;
use des::{SimDuration, SimTime};
use orchestrator::{Orchestrator, PodOutcome};

use crate::config::ReplayConfig;
use crate::replay::{build_orchestrator, run_loop, Clock};

/// Capacity of the submission channel: deep enough that a benchmark
/// submitter never stalls on the server's scheduling passes, bounded so
/// a runaway producer exerts backpressure instead of exhausting memory.
const CHANNEL_DEPTH: usize = 4096;

/// Creates a connected submission channel: events pushed through the
/// [`OnlineHandle`] come out of the [`OnlineFrontend`]'s
/// `next_event` in order; dropping (or [`OnlineHandle::close`]-ing)
/// every handle ends the stream.
pub fn online_channel() -> (OnlineHandle, OnlineFrontend) {
    let (tx, rx) = mpsc::sync_channel(CHANNEL_DEPTH);
    (OnlineHandle { tx }, OnlineFrontend { rx })
}

/// The submitting side of an online session. Cloneable so many producer
/// threads can share one orchestrator.
#[derive(Debug, Clone)]
pub struct OnlineHandle {
    tx: SyncSender<WorkloadEvent>,
}

impl OnlineHandle {
    /// Submits a job. The job's `submit` field is ignored — the server
    /// stamps the wall-clock arrival instant. Returns `false` when the
    /// server is gone.
    pub fn submit(&self, job: WorkloadJob) -> bool {
        self.tx
            .send(WorkloadEvent::Submit {
                job,
                hostile: false,
            })
            .is_ok()
    }

    /// Ends the stream (equivalent to dropping the last handle).
    pub fn close(self) {}
}

/// A [`TraceFrontend`] whose events arrive over a channel instead of a
/// generator: `next_event` blocks until the next submission lands or
/// every [`OnlineHandle`] is gone.
#[derive(Debug)]
pub struct OnlineFrontend {
    rx: Receiver<WorkloadEvent>,
}

impl TraceFrontend for OnlineFrontend {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.rx.recv().ok()
    }

    fn hint(&self) -> FrontendHint {
        // Nothing is known up front: the stream is open-ended.
        FrontendHint {
            expected_jobs: 0,
            horizon: SimDuration::ZERO,
            service_groups: Vec::new(),
        }
    }
}

/// What an online session did, plus the wall-clock cost of doing it.
/// The outcome counts cover the pods a replay's runs cover: submissions
/// and malicious squatters, never the pod-group autoscaler's replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Jobs accepted through the channel.
    pub submitted: usize,
    /// Pods the scheduler bound to a node (the throughput numerator;
    /// rebinds after eviction count again, denials never bind).
    pub bound: u64,
    /// Pods that completed their useful work.
    pub completed: usize,
    /// Pods killed at launch for exceeding their declared limits.
    pub denied: usize,
    /// Pods that could never fit the cluster.
    pub unschedulable: usize,
    /// Wall-clock seconds from `serve` start to the end of the drain.
    pub wall_secs: f64,
    /// Simulated instant of the last processed event.
    pub sim_end: SimTime,
}

impl OnlineReport {
    /// Sustained scheduler throughput: pods bound per wall-clock second
    /// over the whole session (ingest + drain).
    pub fn bound_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.bound as f64 / self.wall_secs
    }
}

/// A long-running orchestrator accepting submissions at wall-clock
/// speed through the in-process API.
#[derive(Debug)]
pub struct OnlineServer {
    orch: Orchestrator,
    config: ReplayConfig,
}

impl OnlineServer {
    /// Builds the cluster and orchestrator from `config`, as
    /// [`replay_stream`](crate::replay_stream) does.
    pub fn new(config: &ReplayConfig) -> Self {
        OnlineServer {
            orch: build_orchestrator(config),
            config: config.clone(),
        }
    }

    /// Serves the frontend until its stream ends, then drains the
    /// in-flight work at virtual speed.
    ///
    /// This is [`replay_stream`](crate::replay_stream)'s loop. Each
    /// event's instant is the wall time elapsed since `serve` began,
    /// read when the event comes off the frontend, and the loop blocks
    /// on the frontend between arrivals. Queue events due before an
    /// arrival run first; an arrival tied with a queue event to the
    /// microsecond runs before it. Every replay feature applies:
    /// configured failures, drains, chaos, rebalancing, autoscaling,
    /// the malicious tenant and `GroupLoad` events, with their instants
    /// read as seconds since `serve` began. `max_sim_time` caps the
    /// session and leaves the rest of the stream unread. The drain ends
    /// once the periodic ticks de-arm, as a replay's does.
    pub fn serve(self, frontend: &mut dyn TraceFrontend) -> OnlineReport {
        let epoch = Instant::now();
        let mut submitted = 0usize;
        let end = run_loop(
            self.orch,
            frontend,
            &self.config,
            Clock::Wall(epoch),
            |_, _| submitted += 1,
        );
        let (mut completed, mut denied, mut unschedulable) = (0, 0, 0);
        for (_, record) in end.job_records() {
            match record.outcome {
                PodOutcome::Completed { .. } => completed += 1,
                PodOutcome::Denied { .. } => denied += 1,
                PodOutcome::Unschedulable => unschedulable += 1,
                PodOutcome::Pending | PodOutcome::Running { .. } => {}
            }
        }
        OnlineReport {
            submitted,
            bound: end.orch.bound_count(),
            completed,
            denied,
            unschedulable,
            wall_secs: epoch.elapsed().as_secs_f64(),
            sim_end: end.result.end_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use borg_trace::{GeneratorConfig, JobId, JobKind, Workload, WorkloadParams};
    use sgx_sim::units::ByteSize;

    fn small_jobs(seed: u64) -> Vec<WorkloadJob> {
        let trace = GeneratorConfig::small(seed).generate_sampled(10);
        Workload::materialize(&trace, &WorkloadParams::paper(0.5, seed))
            .jobs()
            .to_vec()
    }

    #[test]
    fn online_session_binds_and_completes_submissions() {
        let jobs = small_jobs(31);
        let expected = jobs.len();
        let (handle, mut frontend) = online_channel();
        let submitter = std::thread::spawn(move || {
            for job in jobs {
                assert!(handle.submit(job));
            }
        });
        let server = OnlineServer::new(&ReplayConfig::paper(31));
        let report = server.serve(&mut frontend);
        submitter.join().unwrap();
        assert_eq!(report.submitted, expected);
        // Every submission reaches a terminal state.
        assert_eq!(
            report.completed + report.denied + report.unschedulable,
            expected
        );
        // Everything that was not denied at launch was bound at least
        // once.
        assert!(report.bound as usize >= expected - report.denied - report.unschedulable);
        assert!(report.wall_secs > 0.0);
        assert!(report.bound_per_sec() > 0.0);
    }

    #[test]
    fn closed_channel_ends_an_empty_session() {
        let (handle, mut frontend) = online_channel();
        handle.close();
        let report = OnlineServer::new(&ReplayConfig::paper(1)).serve(&mut frontend);
        assert_eq!(report.submitted, 0);
        assert_eq!(report.bound, 0);
        assert_eq!(report.bound_per_sec(), 0.0);
    }

    /// Serves `jobs` from a producer thread and returns the report.
    fn serve_jobs(config: &ReplayConfig, jobs: Vec<WorkloadJob>) -> OnlineReport {
        let (handle, mut frontend) = online_channel();
        let submitter = std::thread::spawn(move || {
            for job in jobs {
                assert!(handle.submit(job));
            }
        });
        let report = OnlineServer::new(config).serve(&mut frontend);
        submitter.join().unwrap();
        report
    }

    fn terminal(report: &OnlineReport) -> usize {
        report.completed + report.denied + report.unschedulable
    }

    #[test]
    fn online_mode_honours_replay_only_configuration() {
        let jobs = small_jobs(31);
        let expected = jobs.len();
        let config = ReplayConfig::paper(31)
            .with_malicious(crate::MaliciousConfig {
                submit_at_secs: 0,
                ..crate::MaliciousConfig::squatting(0.5)
            })
            .with_failure(crate::NodeFailure {
                node: "sgx-1".to_string(),
                fail_at_secs: 60,
                down_for: SimDuration::from_secs(600),
            });
        let report = serve_jobs(&config, jobs);
        assert_eq!(report.submitted, expected);
        // The squatters (one per SGX node) land and reach a terminal
        // state with every submission.
        assert_eq!(terminal(&report), expected + 2);
        // The failure and recovery are queue events: the session runs
        // at least until the node is back.
        assert!(report.sim_end >= SimTime::from_secs(660));
    }

    #[test]
    fn service_replicas_stay_out_of_the_outcome_counts() {
        let group = orchestrator::autoscale::PodGroupSpec {
            name: "svc".to_string(),
            sgx: true,
            replica_request: ByteSize::from_mib(24),
            min_replicas: 1,
            max_replicas: 4,
            capacity_per_replica: 100.0,
            profile: vec![(0, 300.0), (600, 300.0)],
        };
        let config = ReplayConfig::paper(32)
            .without_limits()
            .with_autoscale(crate::AutoscaleConfig::paper_defaults().with_pod_group(group));
        let jobs = small_jobs(32);
        let expected = jobs.len();
        let report = serve_jobs(&config, jobs);
        assert_eq!(report.submitted, expected);
        assert_eq!(terminal(&report), expected);
        // The pod-group controller ran: its replicas were bound too.
        assert!(report.bound as usize > expected, "{report:?}");
    }

    #[test]
    fn submit_fails_once_the_frontend_is_gone() {
        let (handle, frontend) = online_channel();
        drop(frontend);
        assert!(!handle.submit(small_jobs(1)[0]));
    }

    /// Tiny standard jobs that all fit the paper cluster at once.
    fn tiny_jobs(count: usize) -> Vec<WorkloadJob> {
        (0..count as u64)
            .map(|id| WorkloadJob {
                id: JobId::new(id),
                submit: SimTime::ZERO,
                duration: SimDuration::from_secs(30),
                kind: JobKind::Standard,
                mem_request: ByteSize::from_mib(1),
                mem_usage: ByteSize::from_mib(1),
            })
            .collect()
    }

    #[test]
    fn backpressure_holds_an_early_producer_until_serve_reads() {
        let jobs = tiny_jobs(CHANNEL_DEPTH + 64);
        let expected = jobs.len();
        let sent = Arc::new(AtomicUsize::new(0));
        let (handle, mut frontend) = online_channel();
        let producer = {
            let sent = sent.clone();
            std::thread::spawn(move || {
                for job in jobs {
                    assert!(handle.submit(job));
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // The channel fills, then the producer blocks on the next send.
        while sent.load(Ordering::SeqCst) < CHANNEL_DEPTH {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(sent.load(Ordering::SeqCst), CHANNEL_DEPTH);
        let report = OnlineServer::new(&ReplayConfig::paper(2)).serve(&mut frontend);
        producer.join().unwrap();
        assert_eq!(report.submitted, expected);
        assert_eq!(terminal(&report), expected);
    }

    #[test]
    fn a_producer_hanging_up_mid_stream_ends_the_session() {
        let jobs = small_jobs(33);
        let accepted = jobs.len() / 2;
        let (handle, mut frontend) = online_channel();
        let producer = std::thread::spawn(move || {
            for job in jobs.into_iter().take(accepted) {
                assert!(handle.submit(job));
            }
            drop(handle);
        });
        let report = OnlineServer::new(&ReplayConfig::paper(33)).serve(&mut frontend);
        producer.join().unwrap();
        assert_eq!(report.submitted, accepted);
        assert_eq!(terminal(&report), accepted);
    }
}
