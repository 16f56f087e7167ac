//! Property tests for the filter/score scheduling framework.
//!
//! Three families, fuzzed over random cluster snapshots and pod
//! sequences:
//!
//! 1. **Equivalence** — every built-in pipeline places *identically* to
//!    the pre-framework `PlacementPolicy`/`SchedulerKind` enums, whose
//!    `place()` bodies are preserved verbatim in the [`oracle`] module
//!    below (operating over schedulable nodes only, exactly as the old
//!    pre-snapshot view delivered them).
//! 2. **Feasibility** — no registered pipeline ever places a pod on a
//!    cordoned node, on a non-SGX node for an SGX pod, or where the
//!    requested resources would drive free capacity negative.
//! 3. **Determinism** — placement is a pure function of the snapshot:
//!    the same snapshot (or a cheap clone of it) placed twice yields the
//!    same node, with no dependence on any hash-map iteration order.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cluster::api::{NodeName, PodSpec};
use des::SimTime;
use orchestrator::metrics::NodeView;
use orchestrator::{ClusterSnapshot, PolicyRegistry, SchedulingCycle};
use sgx_sim::units::{ByteSize, EpcPages};

/// The pre-refactor placement implementations, copied verbatim from the
/// deleted `PlacementPolicy::place_*` / `place_least_requested` (only the
/// input type changed: the old pre-snapshot view captured schedulable
/// nodes only, so the oracle first drops cordoned entries from the map).
mod oracle {
    use super::*;

    fn schedulable(nodes: &BTreeMap<NodeName, NodeView>) -> Vec<(&NodeName, &NodeView)> {
        nodes.iter().filter(|(_, v)| !v.cordoned).collect()
    }

    pub fn place_binpack(spec: &PodSpec, nodes: &BTreeMap<NodeName, NodeView>) -> Option<NodeName> {
        let (sgx_nodes, standard_nodes): (Vec<_>, Vec<_>) = schedulable(nodes)
            .into_iter()
            .partition(|(_, v)| v.has_sgx());
        let (std_degraded, std_fresh): (Vec<_>, Vec<_>) =
            standard_nodes.into_iter().partition(|(_, v)| v.degraded);
        let (sgx_degraded, sgx_fresh): (Vec<_>, Vec<_>) =
            sgx_nodes.into_iter().partition(|(_, v)| v.degraded);
        std_fresh
            .into_iter()
            .chain(std_degraded)
            .chain(sgx_fresh)
            .chain(sgx_degraded)
            .find(|(_, v)| v.fits(spec))
            .map(|(name, _)| name.clone())
    }

    pub fn place_spread(spec: &PodSpec, nodes: &BTreeMap<NodeName, NodeView>) -> Option<NodeName> {
        let tiers: Vec<Vec<(&NodeName, &NodeView)>> = if spec.needs_sgx() {
            let (degraded, fresh): (Vec<_>, Vec<_>) = schedulable(nodes)
                .into_iter()
                .filter(|(_, v)| v.has_sgx())
                .partition(|(_, v)| v.degraded);
            vec![fresh, degraded]
        } else {
            let (sgx, standard): (Vec<_>, Vec<_>) = schedulable(nodes)
                .into_iter()
                .partition(|(_, v)| v.has_sgx());
            let (std_degraded, std_fresh): (Vec<_>, Vec<_>) =
                standard.into_iter().partition(|(_, v)| v.degraded);
            let (sgx_degraded, sgx_fresh): (Vec<_>, Vec<_>) =
                sgx.into_iter().partition(|(_, v)| v.degraded);
            vec![std_fresh, std_degraded, sgx_fresh, sgx_degraded]
        };

        for tier in tiers {
            let feasible: Vec<_> = tier.iter().filter(|(_, v)| v.fits(spec)).collect();
            if feasible.is_empty() {
                continue;
            }
            let best = feasible.iter().min_by(|a, b| {
                let sa = load_stddev_with_placement(&tier, a.0, spec);
                let sb = load_stddev_with_placement(&tier, b.0, spec);
                sa.total_cmp(&sb).then_with(|| a.0.cmp(b.0))
            });
            if let Some((name, _)) = best {
                return Some((*name).clone());
            }
        }
        None
    }

    fn load_stddev_with_placement(
        tier: &[(&NodeName, &NodeView)],
        chosen: &NodeName,
        spec: &PodSpec,
    ) -> f64 {
        let loads: Vec<f64> = tier
            .iter()
            .map(|(name, v)| v.load_fraction_after(spec, *name == chosen))
            .collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        (loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / loads.len() as f64).sqrt()
    }

    pub fn place_least_requested(
        spec: &PodSpec,
        nodes: &BTreeMap<NodeName, NodeView>,
    ) -> Option<NodeName> {
        schedulable(nodes)
            .into_iter()
            .filter(|(_, v)| v.fits_by_requests(spec))
            .min_by(|a, b| {
                let fa = requested_fraction(a.1, spec);
                let fb = requested_fraction(b.1, spec);
                fa.total_cmp(&fb).then_with(|| a.0.cmp(b.0))
            })
            .map(|(name, _)| name.clone())
    }

    fn requested_fraction(view: &NodeView, spec: &PodSpec) -> f64 {
        if spec.needs_sgx() {
            let cap = view.epc_capacity.count();
            if cap == 0 {
                1.0
            } else {
                view.epc_requested.count() as f64 / cap as f64
            }
        } else {
            let cap = view.memory_capacity.as_bytes();
            if cap == 0 {
                1.0
            } else {
                view.memory_requested.as_bytes() as f64 / cap as f64
            }
        }
    }
}

/// One random node: capacities, requests possibly exceeding capacity
/// (an over-committed view must not panic or misplace), measured usage,
/// degraded and cordoned flags.
fn node_strategy() -> impl Strategy<Value = NodeView> {
    (
        any::<bool>(),                 // has SGX
        64u64..=4096,                  // memory capacity [MiB]
        0u64..=6144,                   // memory requested [MiB]
        0u64..=6144,                   // memory measured [MiB]
        256u64..=32_768,               // EPC capacity [pages] (when SGX)
        0u64..=49_152,                 // EPC requested [pages]
        0u64..=128,                    // EPC measured [MiB]
        any::<bool>(),                 // degraded
        (0u8..10).prop_map(|w| w < 2), // cordoned (~20 %)
    )
        .prop_map(
            |(sgx, mem_cap, mem_req, mem_meas, epc_cap, epc_req, epc_meas, degraded, cordoned)| {
                NodeView {
                    memory_capacity: ByteSize::from_mib(mem_cap),
                    epc_capacity: if sgx {
                        EpcPages::new(epc_cap)
                    } else {
                        EpcPages::ZERO
                    },
                    memory_requested: ByteSize::from_mib(mem_req),
                    epc_requested: if sgx {
                        EpcPages::new(epc_req)
                    } else {
                        EpcPages::ZERO
                    },
                    memory_measured: ByteSize::from_mib(mem_meas),
                    epc_measured: if sgx {
                        ByteSize::from_mib(epc_meas)
                    } else {
                        ByteSize::ZERO
                    },
                    metrics_age: None,
                    degraded,
                    cordoned,
                }
            },
        )
}

/// A random snapshot of 2–8 nodes with deterministic names (`n-0`…).
fn nodes_strategy() -> impl Strategy<Value = BTreeMap<NodeName, NodeView>> {
    prop::collection::vec(node_strategy(), 2..=8).prop_map(|views| {
        views
            .into_iter()
            .enumerate()
            .map(|(i, v)| (NodeName::new(format!("n-{i}")), v))
            .collect()
    })
}

/// A random pod: standard (memory only) or SGX (EPC only, like the
/// paper's workloads), sized to sometimes fit and sometimes not.
fn pod_strategy() -> impl Strategy<Value = (bool, u64)> {
    (any::<bool>(), 1u64..=2048)
}

fn spec_for(index: usize, sgx: bool, mib: u64) -> PodSpec {
    if sgx {
        PodSpec::builder(format!("sgx-{index}"))
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    } else {
        PodSpec::builder(format!("std-{index}"))
            .memory_resources(ByteSize::from_mib(mib))
            .build()
    }
}

proptest! {
    /// Equivalence: every built-in pipeline is placement-identical to its
    /// pre-framework enum, across a whole sequence of placements with
    /// in-pass reservations applied after each bind.
    #[test]
    fn pipelines_match_the_legacy_oracle(
        nodes in nodes_strategy(),
        pods in prop::collection::vec(pod_strategy(), 1..=10),
    ) {
        let registry = PolicyRegistry::builtin();
        for name in registry.names() {
            let pipeline = registry.by_name(&name).unwrap();
            let mut nodes = nodes.clone();
            for (i, &(sgx, mib)) in pods.iter().enumerate() {
                let spec = spec_for(i, sgx, mib);
                let expected = match name.as_str() {
                    orchestrator::SGX_BINPACK => oracle::place_binpack(&spec, &nodes),
                    orchestrator::SGX_SPREAD => oracle::place_spread(&spec, &nodes),
                    orchestrator::DEFAULT_SCHEDULER => {
                        oracle::place_least_requested(&spec, &nodes)
                    }
                    other => panic!("no oracle for pipeline `{other}`"),
                };
                let got = pipeline.place(&spec, &nodes);
                prop_assert_eq!(
                    &got, &expected,
                    "pipeline {} diverged from the legacy enum on pod {}", name, i
                );
                if let Some(target) = got {
                    nodes.get_mut(&target).unwrap().reserve(&spec);
                }
            }
        }
    }

    /// Feasibility invariant: no registered pipeline ever places a pod on
    /// a cordoned node, puts an SGX pod on a non-SGX node, or drives a
    /// node's free-by-requests capacity negative.
    #[test]
    fn placements_never_violate_feasibility(
        nodes in nodes_strategy(),
        pods in prop::collection::vec(pod_strategy(), 1..=10),
    ) {
        let registry = PolicyRegistry::builtin();
        for name in registry.names() {
            let pipeline = registry.by_name(&name).unwrap();
            let mut nodes = nodes.clone();
            for (i, &(sgx, mib)) in pods.iter().enumerate() {
                let spec = spec_for(i, sgx, mib);
                let Some(target) = pipeline.place(&spec, &nodes) else {
                    continue;
                };
                let v = &nodes[&target];
                let req = spec.resources.requests;
                prop_assert!(!v.cordoned, "{}: placed on cordoned {}", name, target);
                prop_assert!(
                    !req.needs_sgx() || v.has_sgx(),
                    "{}: SGX pod on non-SGX {}", name, target
                );
                prop_assert!(
                    req.epc_pages <= v.epc_capacity.saturating_sub(v.epc_requested),
                    "{}: free EPC would go negative on {}", name, target
                );
                prop_assert!(
                    req.memory <= v.memory_capacity.saturating_sub(v.memory_requested),
                    "{}: free memory would go negative on {}", name, target
                );
                nodes.get_mut(&target).unwrap().reserve(&spec);
            }
        }
    }

    /// Determinism: placement is a pure function of the snapshot. The
    /// same snapshot placed twice — and a clone of it — must agree, for
    /// every pipeline and pod; the scheduling cycle built from the same
    /// snapshot must agree with direct map placement.
    #[test]
    fn same_snapshot_places_identically(
        nodes in nodes_strategy(),
        pod in pod_strategy(),
    ) {
        let snapshot = ClusterSnapshot::from_nodes(SimTime::ZERO, nodes);
        let clone = snapshot.clone();
        let registry = PolicyRegistry::builtin();
        let spec = spec_for(0, pod.0, pod.1);
        for name in registry.names() {
            let pipeline = registry.by_name(&name).unwrap();
            let first = pipeline.place(&spec, snapshot.nodes());
            let second = pipeline.place(&spec, snapshot.nodes());
            let from_clone = pipeline.place(&spec, clone.nodes());
            let from_cycle = SchedulingCycle::new(snapshot.clone()).place(&pipeline, &spec);
            prop_assert_eq!(&first, &second, "{}: two passes disagreed", &name);
            prop_assert_eq!(&first, &from_clone, "{}: clone disagreed", &name);
            prop_assert_eq!(&first, &from_cycle, "{}: cycle disagreed", &name);
        }
    }
}
