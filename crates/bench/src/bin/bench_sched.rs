//! Scheduler-pass throughput sweep: pods bound/sec and snapshot
//! captures/sec across cluster sizes (5 → 12,500 nodes).
//!
//! Two axes are measured per size:
//!
//! * `capture` — snapshot captures/sec with ~8 nodes receiving probe
//!   frames between captures: the from-scratch Listing-1 oracle
//!   ([`ClusterSnapshot::capture`] plus the staleness stamp) vs the
//!   orchestrator's incrementally maintained snapshot. The incremental
//!   path refreshes only the dirty/in-window nodes and structurally
//!   shares the rest, so it should scale with the number of *active*
//!   nodes, not the cluster size.
//! * `bind` — pods bound/sec for one scheduler pass over 64 small SGX
//!   pods, with 100% of nodes scored and with adaptive sampling (the
//!   kube `max(5, 50 - nodes/125)` percentage). Only the pass itself is
//!   timed: cluster construction, the priming capture and submission
//!   stay outside the clock.
//!
//! Prints a JSON document with its host provenance (see
//! `BENCH_sched.json` at the repo root for a recorded run) to stdout:
//!
//! ```sh
//! cargo run --release -p bench --bin bench_sched > BENCH_sched.json
//! ```
//!
//! `--smoke` runs a reduced sweep (5/100 nodes, 1 rep) and asserts the
//! invariants CI cares about: the incremental snapshot equals the
//! Listing-1 oracle bit for bit, and every bind rate is positive.

use std::time::{Duration, Instant};

use cluster::api::PodSpec;
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::probe::MEASUREMENT_EPC;
use cluster::topology::ClusterSpec;
use des::{SimDuration, SimTime};
use orchestrator::{ClusterSnapshot, Orchestrator, OrchestratorConfig, SGX_BINPACK};
use sgx_sim::units::ByteSize;
use tsdb::PointBatch;

const SIZES: &[usize] = &[5, 100, 1_000, 5_000, 12_500];
const SMOKE_SIZES: &[usize] = &[5, 100];
/// Pods scheduled in the timed pass of the bind benchmark.
const PODS_PER_PASS: usize = 64;
/// Nodes that receive probe frames between captures — the "active" set
/// whose size, not the cluster's, should bound incremental refresh cost.
const ACTIVE_NODES: usize = 8;
const PODS_PER_FRAME: usize = 8;
const CAPTURE_PASSES: usize = 50;
const SMOKE_CAPTURE_PASSES: usize = 5;
const REPS: usize = 3;

fn node_name(i: usize) -> String {
    format!("node-{i:05}")
}

fn build_orchestrator(nodes: usize, config: OrchestratorConfig) -> Orchestrator {
    let mut spec = ClusterSpec::new();
    for i in 0..nodes {
        spec = spec.with_node(node_name(i), MachineSpec::sgx_node(), NodeRole::Worker);
    }
    Orchestrator::new(spec, config)
}

fn config(adaptive: bool) -> OrchestratorConfig {
    OrchestratorConfig::paper()
        .with_default_scheduler(SGX_BINPACK)
        .with_adaptive_percentage_of_nodes_to_score(adaptive)
}

/// The from-scratch capture the incremental snapshot must equal: the
/// literal Listing-1 grouped queries plus the staleness stamp.
fn oracle_capture(orch: &Orchestrator, now: SimTime) -> ClusterSnapshot {
    ClusterSnapshot::capture(orch.cluster(), orch.db(), now, orch.config().metrics_window)
        .with_staleness(orch.config().staleness_threshold, |name| {
            orch.metrics_age(name, now)
        })
}

/// The frame node `node` emits at capture pass `pass`.
fn frame_for(node: usize, pass: usize, now: SimTime) -> PointBatch {
    let mut batch = PointBatch::new(MEASUREMENT_EPC, "pod_name", now)
        .with_shared_tag("nodename", node_name(node));
    for pod in 0..PODS_PER_FRAME {
        batch.push(
            format!("pod-{pod}"),
            (node * 1000 + pod * 10 + pass % 7 + 1) as f64,
        );
    }
    batch
}

/// Captures/sec with `ACTIVE_NODES` nodes ingesting one frame between
/// consecutive captures, through the oracle (`oracle == true`) or the
/// incremental snapshot. Cluster construction, the priming capture, and
/// the (variant-independent) ingest work stay outside the clock: only
/// the captures themselves are timed.
fn run_captures(nodes: usize, oracle: bool, passes: usize, reps: usize) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let mut orch = build_orchestrator(nodes, config(false));
        // Prime the snapshot so the timed captures measure steady-state
        // refreshes, not the first (cold) build.
        let _ = orch.capture_snapshot(SimTime::from_secs(1));
        let active = ACTIVE_NODES.min(nodes);
        let mut timed = Duration::ZERO;
        for pass in 0..passes {
            let now = SimTime::from_secs(10 * (pass as u64 + 1));
            for node in 0..active {
                let name = cluster::api::NodeName::new(node_name(node));
                orch.ingest_frame(&name, &frame_for(node, pass, now), now);
            }
            let start = Instant::now();
            let snapshot = if oracle {
                oracle_capture(&orch, now)
            } else {
                orch.capture_snapshot(now)
            };
            timed += start.elapsed();
            assert_eq!(snapshot.nodes().len(), nodes);
        }
        best = best.max(passes as f64 / timed.as_secs_f64());
    }
    best
}

/// Best-of-`reps` pods bound/sec for one scheduler pass over
/// `PODS_PER_PASS` pods. Only `scheduler_pass` is timed.
fn run_bind(nodes: usize, adaptive: bool, reps: usize) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let mut orch = build_orchestrator(nodes, config(adaptive));
        let _ = orch.capture_snapshot(SimTime::from_secs(1));
        for i in 0..PODS_PER_PASS {
            orch.submit(
                PodSpec::builder(format!("pod-{i:03}"))
                    .sgx_resources(ByteSize::from_mib(1))
                    .duration(SimDuration::from_secs(3_600))
                    .build(),
                SimTime::from_secs(2),
            );
        }
        let start = Instant::now();
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        let elapsed = start.elapsed();
        assert_eq!(outcomes.len(), PODS_PER_PASS);
        let bound = outcomes.iter().filter(|o| o.report.started()).count();
        assert_eq!(bound, PODS_PER_PASS, "every 1 MiB pod should bind");
        best = best.max(bound as f64 / elapsed.as_secs_f64());
    }
    best
}

/// Smoke-only: the incremental snapshot must equal the Listing-1 oracle
/// after frames, binds, and a pod completion.
fn assert_snapshot_equivalence(nodes: usize) {
    let mut orch = build_orchestrator(nodes, config(false));
    let _ = orch.capture_snapshot(SimTime::from_secs(1));
    let uid = orch.submit(
        PodSpec::builder("smoke-pod")
            .sgx_resources(ByteSize::from_mib(4))
            .duration(SimDuration::from_secs(3_600))
            .build(),
        SimTime::from_secs(2),
    );
    let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
    assert!(outcomes[0].report.started());
    let now = SimTime::from_secs(20);
    for node in 0..ACTIVE_NODES.min(nodes) {
        let name = cluster::api::NodeName::new(node_name(node));
        orch.ingest_frame(&name, &frame_for(node, 0, now), now);
    }
    orch.complete_pod(uid, SimTime::from_secs(30))
        .expect("pod completes");
    let now = SimTime::from_secs(35);
    assert_eq!(
        orch.capture_snapshot(now),
        oracle_capture(&orch, now),
        "incremental snapshot must equal the Listing-1 oracle at {nodes} nodes"
    );
}

/// One line of output from `program args`, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, passes, reps) = if smoke {
        (SMOKE_SIZES, SMOKE_CAPTURE_PASSES, 1)
    } else {
        (SIZES, CAPTURE_PASSES, REPS)
    };
    let mut rows = Vec::new();
    for &nodes in sizes {
        let full_captures = run_captures(nodes, true, passes, reps);
        let incr_captures = run_captures(nodes, false, passes, reps);
        let bind_full = run_bind(nodes, false, reps);
        let bind_adaptive = run_bind(nodes, true, reps);
        if smoke {
            assert_snapshot_equivalence(nodes);
            assert!(bind_full > 0.0 && bind_adaptive > 0.0);
            eprintln!("smoke nodes={nodes}: incremental snapshot equals the Listing-1 oracle");
        }
        eprintln!(
            "nodes={nodes}: captures oracle {full_captures:.0}/s, incr {incr_captures:.0}/s \
             ({:.2}x); bind 100% {bind_full:.0} pods/s, adaptive {bind_adaptive:.0} pods/s \
             ({:.2}x)",
            incr_captures / full_captures,
            bind_adaptive / bind_full
        );
        rows.push(format!(
            concat!(
                "    {{\"nodes\": {}, ",
                "\"full_captures_per_sec\": {:.1}, ",
                "\"incremental_captures_per_sec\": {:.1}, ",
                "\"capture_speedup\": {:.2}, ",
                "\"bind_100_pods_per_sec\": {:.0}, ",
                "\"bind_adaptive_pods_per_sec\": {:.0}, ",
                "\"adaptive_speedup\": {:.2}}}"
            ),
            nodes,
            full_captures,
            incr_captures,
            incr_captures / full_captures,
            bind_full,
            bind_adaptive,
            bind_adaptive / bind_full
        ));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"]);
    println!("{{");
    println!("  \"benchmark\": \"scheduler_pass_throughput\",");
    println!(
        "  \"provenance\": {{\"nproc\": {cores}, \"profile\": \"{profile}\", \"commit\": \"{commit}\"}},"
    );
    println!("  \"pods_per_pass\": {PODS_PER_PASS},");
    println!("  \"active_nodes_between_captures\": {ACTIVE_NODES},");
    println!("  \"capture_passes\": {passes},");
    println!("  \"reps\": {reps},");
    println!("  \"smoke\": {smoke},");
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
