//! Property tests: the sharded concurrent store must agree
//! **bit-for-bit** with the sequential [`Database`] — same snapshot
//! bytes, same counters, same query rows from both executors (streaming
//! scan and full scan) — across random insert patterns
//! (including out-of-order arrivals), shard counts, retention evictions
//! and concurrent multi-writer interleavings. Also: the [`PointBatch`]
//! wire frame round-trips exactly and batched insertion is equivalent to
//! per-point insertion.

use des::{SimDuration, SimTime};
use proptest::prelude::*;
use tsdb::{
    wire, Aggregate, Database, Point, PointBatch, Predicate, Select, ShardedDatabase, TimeBound,
};

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
    /// Enforce a retention of `keep` seconds.
    Evict { keep: u64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..4, 0u8..8, 0u64..3, 0.0f64..100.0).prop_map(|(dt, series, back, value)| {
                Op::Insert {
                    dt,
                    series,
                    back,
                    value,
                }
            }),
            (1u64..40).prop_map(|keep| Op::Evict { keep }),
        ],
        1..80,
    )
}

fn point_for(series: u8, time: SimTime, value: f64) -> Point {
    Point::new("sgx/epc", time, value)
        .with_tag("pod_name", format!("p{}", series % 4))
        .with_tag("nodename", format!("n{}", series % 3))
}

fn listing1(window_secs: u64) -> Select {
    let per_pod = Select::from_measurement("sgx/epc")
        .aggregate(Aggregate::Max)
        .filter(Predicate::ValueNe(0.0))
        .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
            SimDuration::from_secs(window_secs),
        )))
        .group_by(["pod_name", "nodename"]);
    Select::from_subquery(per_pod)
        .aggregate(Aggregate::Sum)
        .group_by(["nodename"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential oracle: applying the same op stream to the unsharded
    /// store and to a sharded store (any shard count) yields identical
    /// observable state at every step.
    #[test]
    fn sharded_store_matches_sequential_database(
        ops in ops(),
        shards in 1usize..8,
        window_secs in 1u64..30,
    ) {
        let select = listing1(window_secs);
        let mut single = Database::new();
        let sharded = ShardedDatabase::new(shards);
        let mut now = SimTime::from_secs(5);
        for op in &ops {
            match *op {
                Op::Insert { dt, series, back, value } => {
                    now += SimDuration::from_secs(dt);
                    let at = TimeBound::SinceNowMinus(SimDuration::from_secs(back)).resolve(now);
                    single.insert(point_for(series, at, value));
                    sharded.insert(point_for(series, at, value));
                }
                Op::Evict { keep } => {
                    let evicted = single.enforce_retention(now, SimDuration::from_secs(keep));
                    prop_assert_eq!(
                        sharded.enforce_retention(now, SimDuration::from_secs(keep)),
                        evicted
                    );
                }
            }
            prop_assert_eq!(sharded.points_inserted(), single.points_inserted());
            prop_assert_eq!(sharded.points_evicted(), single.points_evicted());
            prop_assert_eq!(sharded.out_of_order_inserts(), single.out_of_order_inserts());
            prop_assert_eq!(sharded.point_count(), single.point_count());
            prop_assert_eq!(sharded.series_count(), single.series_count());
            let reference = single.query_full_scan(&select, now);
            prop_assert_eq!(&single.query(&select, now), &reference);
            prop_assert_eq!(&sharded.query(&select, now), &reference,
                "sharded streaming query diverged at now={}", now);
            prop_assert_eq!(&sharded.query_full_scan(&select, now), &reference);
        }
        prop_assert_eq!(sharded.snapshot(), single.snapshot());
    }

    /// Concurrent ingestion: writers own disjoint series subsets (the
    /// probe topology — one producer per node) and race into the sharded
    /// store; the result is bit-identical to the sequential insert loop.
    #[test]
    fn concurrent_ingestion_matches_sequential_inserts(
        ops in ops(),
        shards in 1usize..8,
        writers in 1usize..5,
        window_secs in 1u64..30,
    ) {
        // Materialise the per-op points once (sequential order).
        let mut now = SimTime::from_secs(5);
        let mut points = Vec::new();
        for op in &ops {
            if let Op::Insert { dt, series, back, value } = *op {
                now += SimDuration::from_secs(dt);
                let at = TimeBound::SinceNowMinus(SimDuration::from_secs(back)).resolve(now);
                points.push((series, point_for(series, at, value)));
            }
        }

        let mut single = Database::new();
        for (_, point) in &points {
            single.insert(point.clone());
        }

        let sharded = ShardedDatabase::new(shards);
        crossbeam::thread::scope(|scope| {
            for writer in 0..writers {
                let points = &points;
                let sharded = &sharded;
                scope.spawn(move || {
                    // Each writer owns the series with
                    // `series % writers == writer`, and inserts them in
                    // the sequential stream's relative order.
                    for (series, point) in points {
                        if *series as usize % writers == writer {
                            sharded.insert(point.clone());
                        }
                    }
                });
            }
        });

        prop_assert_eq!(sharded.snapshot(), single.snapshot());
        prop_assert_eq!(sharded.points_inserted(), single.points_inserted());
        prop_assert_eq!(sharded.out_of_order_inserts(), single.out_of_order_inserts());
        let select = listing1(window_secs);
        prop_assert_eq!(
            sharded.query(&select, now),
            single.query(&select, now)
        );
    }

    /// Retention racing concurrent writers: writers own disjoint series
    /// with per-series monotone timestamps while a retention thread
    /// fires trims whose cutoffs never exceed the final cutoff. Whatever
    /// samples the racing trims catch, the final trim finishes the job —
    /// so the surviving window must be bit-identical to the sequential
    /// ingest-everything-then-trim-once oracle.
    #[test]
    fn retention_racing_writers_matches_ingest_then_trim_oracle(
        rows in prop::collection::vec((0u8..6, 0u64..3, 0.0f64..100.0), 1..120),
        racing_keeps in prop::collection::vec(5u64..60, 1..6),
        final_keep in 5u64..60,
        shards in 1usize..6,
        writers in 1usize..4,
        window_secs in 1u64..30,
    ) {
        // Globally (hence per-series) monotone sample times: the probe
        // topology — each tick's samples are newer than the last's.
        let mut t = 0u64;
        let points: Vec<(u8, Point)> = rows
            .iter()
            .map(|&(series, dt, value)| {
                t += dt;
                (series, point_for(series, SimTime::from_secs(t), value))
            })
            .collect();
        let now = SimTime::from_secs(t + 60);

        // Sequential oracle: ingest everything, then trim once.
        let mut single = Database::new();
        for (_, point) in &points {
            single.insert(point.clone());
        }
        single.enforce_retention(now, SimDuration::from_secs(final_keep));

        let sharded = ShardedDatabase::new(shards);
        crossbeam::thread::scope(|scope| {
            for writer in 0..writers {
                let points = &points;
                let sharded = &sharded;
                scope.spawn(move || {
                    for (series, point) in points {
                        if *series as usize % writers == writer {
                            sharded.insert(point.clone());
                        }
                    }
                });
            }
            // Retention ticks racing the writers. Clamping keep to
            // ≥ final_keep keeps every racing cutoff ≤ the final cutoff,
            // which is what makes the end state interleaving-independent.
            let keeps = &racing_keeps;
            let sharded = &sharded;
            scope.spawn(move || {
                for &keep in keeps {
                    sharded.enforce_retention(
                        now,
                        SimDuration::from_secs(keep.max(final_keep)),
                    );
                }
            });
        });
        sharded.enforce_retention(now, SimDuration::from_secs(final_keep));

        prop_assert_eq!(sharded.snapshot(), single.snapshot());
        prop_assert_eq!(sharded.point_count(), single.point_count());
        prop_assert_eq!(sharded.points_inserted(), single.points_inserted());
        // Every sample below the final cutoff is dropped exactly once
        // (by whichever trim reaches it first), and no racing cutoff can
        // touch a surviving sample — so the lifetime eviction counters
        // agree too.
        prop_assert_eq!(sharded.points_evicted(), single.points_evicted());
        prop_assert_eq!(sharded.out_of_order_inserts(), single.out_of_order_inserts());
        let select = listing1(window_secs);
        prop_assert_eq!(sharded.query(&select, now), single.query(&select, now));
        prop_assert_eq!(
            sharded.query_full_scan(&select, now),
            single.query_full_scan(&select, now)
        );
    }

    /// The instrumented lock-free guarantee: once every series exists,
    /// replaying the whole stream — per point and batched — takes zero
    /// whole-shard exclusive lock acquisitions.
    #[test]
    fn warmed_append_path_takes_no_exclusive_shard_locks(
        rows in prop::collection::vec((0u8..8, 0u64..1000, 0.0f64..100.0), 1..60),
        shards in 1usize..6,
    ) {
        let sharded = ShardedDatabase::new(shards);
        for &(series, t, value) in &rows {
            sharded.insert(point_for(series, SimTime::from_secs(t), value));
        }
        let creations = sharded.append_write_lock_acquisitions();
        prop_assert!(creations >= 1, "first contact must grow the registry");

        // Warmed per-point replay: no exclusive registry locks.
        for &(series, t, value) in &rows {
            sharded.insert(point_for(series, SimTime::from_secs(t + 1), value));
        }
        prop_assert_eq!(sharded.append_write_lock_acquisitions(), creations);

        // Warmed batched replay over the same series keys: still none.
        for node in 0..3u8 {
            let mut batch = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(2000))
                .with_shared_tag("nodename", format!("n{node}"));
            for &(series, _, value) in &rows {
                if series % 3 == node {
                    batch.push(format!("p{}", series % 4), value);
                }
            }
            if !batch.is_empty() {
                sharded.insert_batch(&batch);
            }
        }
        prop_assert_eq!(sharded.append_write_lock_acquisitions(), creations);
    }

    /// The batch wire frame decodes back to exactly the encoded batch,
    /// and ingesting a batch equals ingesting its expanded points.
    #[test]
    fn point_batch_wire_round_trip(
        time_secs in 0u64..1000,
        node in 0u8..5,
        rows in prop::collection::vec((0u16..500, 0.0f64..1e9), 0..40),
        shards in 1usize..6,
    ) {
        let mut batch = PointBatch::new(
            "sgx/epc",
            "pod_name",
            SimTime::from_secs(time_secs),
        )
        .with_shared_tag("nodename", format!("n{node}"));
        for (pod, value) in &rows {
            batch.push(format!("pod-{pod}"), *value);
        }

        let frame = wire::encode_batch(&batch);
        let decoded = wire::decode_batch(&frame).expect("round trip");
        prop_assert_eq!(&decoded, &batch);

        // Corrupting the magic is always detected.
        let mut corrupt = frame.to_vec();
        corrupt[0] ^= 0xFF;
        prop_assert!(wire::decode_batch(&corrupt).is_err());

        // Batched ingestion ⇔ per-point ingestion, sharded or not.
        let mut unbatched = Database::new();
        unbatched.extend(batch.to_points());
        let mut batched = Database::new();
        batched.insert_batch(&batch);
        prop_assert_eq!(batched.snapshot(), unbatched.snapshot());
        let sharded = ShardedDatabase::new(shards);
        sharded.insert_batch(&decoded);
        prop_assert_eq!(sharded.snapshot(), unbatched.snapshot());
    }
}
