//! Property tests: the time-bounded streaming scan behind
//! [`Database::query`] must agree **bit-for-bit** with the naive
//! full-scan reference executor on every query, across random insert
//! patterns (including out-of-order arrivals), random sliding-window
//! sizes, every aggregate, several group-bys, and interleaved retention
//! evictions — including evictions that cut into the query window.

use des::{SimDuration, SimTime};
use proptest::prelude::*;
use tsdb::{Aggregate, Database, Point, Predicate, Select, TimeBound};

const AGGREGATES: [Aggregate; 6] = [
    Aggregate::Max,
    Aggregate::Min,
    Aggregate::Mean,
    Aggregate::Sum,
    Aggregate::Count,
    Aggregate::Last,
];

#[derive(Debug, Clone)]
enum Op {
    /// Advance time by `dt` seconds, then insert into series `series` a
    /// sample timestamped `back` seconds in the past (out of order when
    /// another sample landed in between).
    Insert {
        dt: u64,
        series: u8,
        back: u64,
        value: f64,
    },
    /// Enforce a retention of `keep` seconds — sometimes shorter than the
    /// query window, so evictions cut into it.
    Evict { keep: u64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..4, 0u8..6, 0u64..3, 0.0f64..100.0).prop_map(|(dt, series, back, value)| {
                Op::Insert {
                    dt,
                    series,
                    back,
                    value,
                }
            }),
            (1u64..40).prop_map(|keep| Op::Evict { keep }),
        ],
        1..100,
    )
}

fn point_for(series: u8, time: SimTime, value: f64) -> Point {
    Point::new("sgx/epc", time, value)
        .with_tag("pod_name", format!("p{}", series % 3))
        .with_tag("nodename", format!("n{}", series % 2))
}

fn windowed_select(
    aggregate: Aggregate,
    window: SimDuration,
    group_by: &[&str],
    filter_zero: bool,
) -> Select {
    let mut select = Select::from_measurement("sgx/epc")
        .aggregate(aggregate)
        .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(window)))
        .group_by(group_by.iter().copied());
    if filter_zero {
        select = select.filter(Predicate::ValueNe(0.0));
    }
    select
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_engine_matches_full_scan(
        ops in ops(),
        window_secs in 1u64..30,
        agg_idx in 0usize..6,
        group_idx in 0usize..3,
        filter_zero in any::<bool>(),
    ) {
        let window = SimDuration::from_secs(window_secs);
        let groups: [&[&str]; 3] = [&["pod_name", "nodename"], &["nodename"], &[]];
        let select = windowed_select(
            AGGREGATES[agg_idx],
            window,
            groups[group_idx],
            filter_zero,
        );

        let mut db = Database::new();
        let mut now = SimTime::from_secs(5);
        for op in &ops {
            match *op {
                Op::Insert { dt, series, back, value } => {
                    now += SimDuration::from_secs(dt);
                    let at = TimeBound::SinceNowMinus(SimDuration::from_secs(back)).resolve(now);
                    db.insert(point_for(series, at, value));
                }
                Op::Evict { keep } => {
                    db.enforce_retention(now, SimDuration::from_secs(keep));
                }
            }
            let reference = db.query_full_scan(&select, now);
            prop_assert_eq!(&db.query(&select, now), &reference,
                "streaming scan diverged at now={}", now);
        }
    }

    #[test]
    fn nested_listing1_shape_matches_full_scan(
        ops in ops(),
        window_secs in 1u64..30,
    ) {
        let per_pod = windowed_select(
            Aggregate::Max,
            SimDuration::from_secs(window_secs),
            &["pod_name", "nodename"],
            true,
        );
        let per_node = Select::from_subquery(per_pod)
            .aggregate(Aggregate::Sum)
            .group_by(["nodename"]);

        let mut db = Database::new();
        let mut now = SimTime::from_secs(5);
        for op in &ops {
            match *op {
                Op::Insert { dt, series, back, value } => {
                    now += SimDuration::from_secs(dt);
                    let at = TimeBound::SinceNowMinus(SimDuration::from_secs(back)).resolve(now);
                    db.insert(point_for(series, at, value));
                }
                Op::Evict { keep } => {
                    db.enforce_retention(now, SimDuration::from_secs(keep));
                }
            }
            let reference = db.query_full_scan(&per_node, now);
            prop_assert_eq!(&db.query(&per_node, now), &reference);
        }
    }
}
