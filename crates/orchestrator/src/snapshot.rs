//! The immutable cluster snapshot a scheduling cycle runs against.
//!
//! A [`ClusterSnapshot`] is captured **once per scheduling tick** and then
//! never changes: it folds everything the old ad hoc flow assembled
//! piecemeal — capacities and requests from the cluster, measured usage
//! from the Listing-1 sliding-window queries, per-node staleness
//! annotation, and cordon state — into one deterministic value. Cloning is
//! an `Arc` bump, so filters, scorers, `drain_node` and `rebalance_epc`
//! can all share the exact same view of the world without re-deriving it.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism** — nodes live in a [`BTreeMap`] keyed by name; every
//!   iteration anywhere in the scheduling framework walks them in name
//!   order. No `HashMap` ordering can leak into placement decisions.
//! * **Completeness** — a snapshot captures *every worker* including
//!   cordoned ones (with [`NodeView::cordoned`] set). Cordoned nodes are
//!   excluded from placement by the cordon **filter plugin**, not by
//!   omission, so the exclusion is visible, testable and reusable.
//!
//! The orchestrator maintains its snapshot incrementally
//! (`Orchestrator::capture_snapshot`); [`ClusterSnapshot::capture`] is
//! the from-scratch oracle that maintenance is verified against.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster::api::NodeName;
use cluster::probe::{MEASUREMENT_EPC, MEASUREMENT_MEMORY};
use cluster::topology::Cluster;
use des::{SimDuration, SimTime};
use sgx_sim::units::ByteSize;
use tsdb::{Aggregate, Predicate, Select, SeriesStore, TimeBound};

use crate::metrics::NodeView;

/// An immutable, cheaply-cloneable snapshot of every worker node, taken
/// once per scheduling cycle.
///
/// # Examples
///
/// ```
/// use cluster::topology::{Cluster, ClusterSpec};
/// use des::{SimDuration, SimTime};
/// use orchestrator::ClusterSnapshot;
/// use tsdb::Database;
///
/// let cluster = Cluster::build(&ClusterSpec::paper_cluster());
/// let snapshot = ClusterSnapshot::capture(
///     &cluster,
///     &Database::new(),
///     SimTime::ZERO,
///     SimDuration::from_secs(25),
/// );
/// assert_eq!(snapshot.len(), 4);
/// let clone = snapshot.clone(); // Arc bump, not a deep copy
/// assert_eq!(clone.len(), snapshot.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug, Clone, PartialEq)]
struct SnapshotInner {
    captured_at: SimTime,
    nodes: BTreeMap<NodeName, NodeView>,
}

impl ClusterSnapshot {
    /// Freezes an explicit node map into a snapshot — the escape hatch
    /// for tests and synthetic scenarios.
    pub fn from_nodes(captured_at: SimTime, nodes: BTreeMap<NodeName, NodeView>) -> Self {
        ClusterSnapshot {
            inner: Arc::new(SnapshotInner { captured_at, nodes }),
        }
    }

    /// Captures all workers from scratch: capacities and requests from
    /// the cluster, measured usage from the literal Listing-1 grouped
    /// queries against `db`. The oracle the orchestrator's incrementally
    /// maintained snapshot is checked against.
    ///
    /// Staleness is not annotated here (capture has no access to scrape
    /// bookkeeping); compose with
    /// [`with_staleness`](Self::with_staleness).
    pub fn capture<S: SeriesStore + ?Sized>(
        cluster: &Cluster,
        db: &S,
        now: SimTime,
        window: SimDuration,
    ) -> Self {
        let epc_measured = measured(db, MEASUREMENT_EPC, now, window);
        let mem_measured = measured(db, MEASUREMENT_MEMORY, now, window);
        let nodes = cluster
            .workers()
            .map(|node| {
                let name = node.name().clone();
                let view = NodeView {
                    memory_capacity: node.allocatable_memory(),
                    epc_capacity: node.allocatable_epc(),
                    memory_requested: node.memory_requested(),
                    epc_requested: node.epc_requested(),
                    memory_measured: mem_measured
                        .get(name.as_str())
                        .copied()
                        .unwrap_or(ByteSize::ZERO),
                    epc_measured: epc_measured
                        .get(name.as_str())
                        .copied()
                        .unwrap_or(ByteSize::ZERO),
                    metrics_age: None,
                    degraded: false,
                    cordoned: node.is_cordoned(),
                };
                (name, view)
            })
            .collect();
        Self::from_nodes(now, nodes)
    }

    /// A requests-only snapshot straight off the cluster: capacities,
    /// admitted requests and cordon flags, no database round-trip. The
    /// EPC rebalancer runs its feasibility chain against this — its
    /// accounting is requests-based, so measured usage would be dead
    /// weight queried in a loop.
    pub fn requests_only(cluster: &Cluster, now: SimTime) -> Self {
        let nodes = cluster
            .workers()
            .map(|node| {
                let view = NodeView {
                    memory_capacity: node.allocatable_memory(),
                    epc_capacity: node.allocatable_epc(),
                    memory_requested: node.memory_requested(),
                    epc_requested: node.epc_requested(),
                    memory_measured: ByteSize::ZERO,
                    epc_measured: ByteSize::ZERO,
                    metrics_age: None,
                    degraded: false,
                    cordoned: node.is_cordoned(),
                };
                (node.name().clone(), view)
            })
            .collect();
        Self::from_nodes(now, nodes)
    }

    /// Returns a snapshot with every node stamped with the age of its
    /// last delivered scrape and marked degraded once that age exceeds
    /// `threshold` (strictly greater; never-scraped nodes stay fresh).
    /// Applied at freeze time because snapshots are immutable afterwards.
    #[must_use]
    pub fn with_staleness(
        self,
        threshold: SimDuration,
        mut age_of: impl FnMut(&NodeName) -> Option<SimDuration>,
    ) -> Self {
        let mut nodes = self.inner.nodes.clone();
        for (name, view) in nodes.iter_mut() {
            let age = age_of(name);
            view.metrics_age = age;
            view.degraded = age.is_some_and(|a| a > threshold);
        }
        Self::from_nodes(self.inner.captured_at, nodes)
    }

    /// Advances the snapshot to a new capture instant, handing the node
    /// map to `apply` for in-place edits — the maintenance entry point: the orchestrator refreshes only the dirty nodes'
    /// views and re-stamps staleness, structurally sharing everything
    /// else.
    ///
    /// When this snapshot is the only live handle (the steady state
    /// between scheduling passes), the update happens in place with no
    /// copy at all; while clones are still alive (e.g. held by an open
    /// [`SchedulingCycle`](crate::SchedulingCycle)), the map is cloned
    /// first so frozen snapshots stay immutable.
    pub fn update(
        &mut self,
        captured_at: SimTime,
        apply: impl FnOnce(&mut BTreeMap<NodeName, NodeView>),
    ) {
        let inner = Arc::make_mut(&mut self.inner);
        inner.captured_at = captured_at;
        apply(&mut inner.nodes);
    }

    /// When the snapshot was captured.
    pub fn captured_at(&self) -> SimTime {
        self.inner.captured_at
    }

    /// The per-node views, in node-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeName, &NodeView)> {
        self.inner.nodes.iter()
    }

    /// The underlying node map (name-ordered).
    pub fn nodes(&self) -> &BTreeMap<NodeName, NodeView> {
        &self.inner.nodes
    }

    /// One node's view.
    pub fn node(&self, name: &NodeName) -> Option<&NodeView> {
        self.inner.nodes.get(name)
    }

    /// Number of captured workers (cordoned ones included).
    pub fn len(&self) -> usize {
        self.inner.nodes.len()
    }

    /// `true` when the cluster has no workers at all.
    pub fn is_empty(&self) -> bool {
        self.inner.nodes.is_empty()
    }

    /// `true` when any *schedulable* (non-cordoned) node is degraded —
    /// the signal the orchestrator counts degraded scheduling decisions
    /// by. Cordoned nodes are excluded: they take no placements, so
    /// their staleness cannot taint a decision.
    pub fn any_degraded(&self) -> bool {
        self.inner.nodes.values().any(|v| !v.cordoned && v.degraded)
    }
}

/// Executes the Listing 1 aggregation for one measurement: per-pod MAX
/// over the window, summed per node.
fn measured<S: SeriesStore + ?Sized>(
    db: &S,
    measurement: &str,
    now: SimTime,
    window: SimDuration,
) -> BTreeMap<String, ByteSize> {
    let per_pod = Select::from_measurement(measurement)
        .aggregate(Aggregate::Max)
        .filter(Predicate::ValueNe(0.0))
        .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(window)))
        .group_by(["pod_name", "nodename"]);
    let per_node = Select::from_subquery(per_pod)
        .aggregate(Aggregate::Sum)
        .group_by(["nodename"]);
    db.query(&per_node, now)
        .into_iter()
        .filter_map(|row| {
            let node = row.tag("nodename")?.to_string();
            Some((node, ByteSize::from_bytes(row.value.max(0.0) as u64)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::topology::ClusterSpec;
    use sgx_sim::units::EpcPages;
    use tsdb::Database;

    fn paper_snapshot() -> ClusterSnapshot {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        )
    }

    #[test]
    fn capture_matches_cluster_capacities() {
        let snapshot = paper_snapshot();
        assert_eq!(snapshot.len(), 4);
        let sgx = snapshot.node(&NodeName::new("sgx-1")).unwrap();
        assert!(sgx.has_sgx());
        assert_eq!(sgx.epc_capacity, EpcPages::new(23_936));
        assert!(!sgx.cordoned);
    }

    #[test]
    fn cordoned_workers_are_captured_with_the_flag_set() {
        let mut cluster = Cluster::build(&ClusterSpec::paper_cluster());
        cluster
            .node_mut(&NodeName::new("sgx-1"))
            .unwrap()
            .set_cordoned(true);
        let snapshot = ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        );
        // The cordoned node is present...
        assert_eq!(snapshot.len(), 4);
        // ...but flagged.
        assert!(snapshot.node(&NodeName::new("sgx-1")).unwrap().cordoned);
        assert!(!snapshot.node(&NodeName::new("sgx-2")).unwrap().cordoned);
    }

    #[test]
    fn with_staleness_marks_old_nodes_and_skips_cordoned_in_any_degraded() {
        let snapshot = paper_snapshot().with_staleness(SimDuration::from_secs(30), |name| {
            match name.as_str() {
                "sgx-1" => Some(SimDuration::from_secs(45)),
                "sgx-2" => Some(SimDuration::from_secs(30)), // at threshold: fresh
                _ => None,
            }
        });
        assert!(snapshot.node(&NodeName::new("sgx-1")).unwrap().degraded);
        assert!(!snapshot.node(&NodeName::new("sgx-2")).unwrap().degraded);
        assert!(snapshot.any_degraded());

        // If the only degraded node is cordoned it cannot taint decisions.
        let mut nodes = snapshot.nodes().clone();
        for (name, view) in nodes.iter_mut() {
            if name.as_str() == "sgx-1" {
                view.cordoned = true;
            }
        }
        let cordoned = ClusterSnapshot::from_nodes(SimTime::ZERO, nodes);
        assert!(!cordoned.any_degraded());
    }

    #[test]
    fn clones_are_shallow_and_equal() {
        let snapshot = paper_snapshot();
        let clone = snapshot.clone();
        assert_eq!(snapshot, clone);
        assert!(Arc::ptr_eq(&snapshot.inner, &clone.inner));
    }

    #[test]
    fn requests_only_skips_measurements() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        let snapshot = ClusterSnapshot::requests_only(&cluster, SimTime::from_secs(7));
        assert_eq!(snapshot.captured_at(), SimTime::from_secs(7));
        assert!(snapshot
            .iter()
            .all(|(_, v)| v.epc_measured == ByteSize::ZERO && v.metrics_age.is_none()));
    }
}
