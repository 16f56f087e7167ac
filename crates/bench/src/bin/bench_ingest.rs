//! Ingestion throughput sweep: points/sec for the probe→database path,
//! across shard counts (1/4/8) and cluster sizes (1/5/20 nodes).
//!
//! Three transports are measured per cell:
//!
//! * `per_point` — the seed path: one [`Point`] per sample, measurement
//!   and both tag strings cloned for every insert, single writer behind
//!   one lock.
//! * `batched` — one [`PointBatch`] frame per node per scrape, shipped
//!   over bounded crossbeam channels from per-node producer threads to
//!   writer threads calling [`ShardedDatabase::insert_batch`].
//! * `coalesced` — the batched topology with writer-local frame buffers
//!   flushed through [`ShardedDatabase::insert_batches`], which groups
//!   rows by shard across frames; combined with the per-series append
//!   path, a warmed run takes zero whole-shard exclusive locks (the
//!   sweep asserts this via
//!   [`ShardedDatabase::append_write_lock_acquisitions`]).
//!
//! Prints a JSON document (see `BENCH_ingest.json` at the repo root for
//! a recorded run) to stdout:
//!
//! ```sh
//! cargo run --release -p bench --bin bench_ingest > BENCH_ingest.json
//! ```
//!
//! `--smoke` skips the timing sweep and runs the correctness gate only:
//! buffered concurrent ingest with racing readers, then asserts the
//! store is bit-identical to the sequential oracle and that the warmed
//! append path took no exclusive shard locks. CI runs this on every
//! push.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use des::{SimDuration, SimTime};
use tsdb::{Aggregate, Database, Point, PointBatch, Predicate, Select, ShardedDatabase, TimeBound};

const PODS_PER_NODE: usize = 8;
/// Target sample volume per measured cell; passes scale inversely with
/// cluster size so every cell moves roughly this many points.
const TARGET_POINTS: usize = 240_000;
const REPS: usize = 3;
/// Frames a writer buffers before flushing them through
/// `insert_batches`.
const FLUSH_FRAMES: usize = 32;

fn passes_for(nodes: usize) -> usize {
    (TARGET_POINTS / (nodes * PODS_PER_NODE)).max(1)
}

fn node_name(node: usize) -> String {
    format!("node-{node:02}")
}

/// The frame node `node` emits at scrape pass `pass`.
fn frame_for(node: usize, pass: usize) -> PointBatch {
    let now = SimTime::from_secs(10 * (pass as u64 + 1));
    let mut batch =
        PointBatch::new("sgx/epc", "pod_name", now).with_shared_tag("nodename", node_name(node));
    for pod in 0..PODS_PER_NODE {
        batch.push(
            format!("pod-{pod}"),
            (node * 1000 + pod * 10 + pass % 7 + 1) as f64,
        );
    }
    batch
}

/// Seed transport: the same samples as standalone points, every tag
/// cloned per point, inserted one by one from a single thread.
fn run_per_point(db: &ShardedDatabase, nodes: usize, passes: usize) {
    for pass in 0..passes {
        let now = SimTime::from_secs(10 * (pass as u64 + 1));
        for node in 0..nodes {
            for pod in 0..PODS_PER_NODE {
                db.insert(
                    Point::new(
                        "sgx/epc",
                        now,
                        (node * 1000 + pod * 10 + pass % 7 + 1) as f64,
                    )
                    .with_tag("pod_name", format!("pod-{pod}"))
                    .with_tag("nodename", node_name(node)),
                );
            }
        }
    }
}

/// Batched transport, no threads: the same frames inserted from the
/// probe loop directly — isolates the wire-format/allocation win from
/// parallelism.
fn run_batched_direct(db: &ShardedDatabase, nodes: usize, passes: usize) {
    for pass in 0..passes {
        for node in 0..nodes {
            db.insert_batch(&frame_for(node, pass));
        }
    }
}

/// Batched transport: per-node producer threads ship one frame per node
/// per pass over bounded channels to writer threads; a node's frames
/// always land on the same writer, preserving per-series order.
fn run_batched(db: &ShardedDatabase, nodes: usize, passes: usize, writers: usize) {
    crossbeam::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(writers);
        for _ in 0..writers {
            let (tx, rx) = crossbeam::channel::bounded::<PointBatch>(16);
            senders.push(tx);
            scope.spawn(move || {
                while let Ok(batch) = rx.recv() {
                    db.insert_batch(&batch);
                }
            });
        }
        let producers = writers.min(nodes);
        for offset in 0..producers {
            let senders = senders.clone();
            scope.spawn(move || {
                for pass in 0..passes {
                    for node in (offset..nodes).step_by(producers) {
                        let mut hasher = DefaultHasher::new();
                        node_name(node).hash(&mut hasher);
                        let writer = hasher.finish() as usize % senders.len();
                        senders[writer]
                            .send(frame_for(node, pass))
                            .expect("writer alive");
                    }
                }
            });
        }
        drop(senders);
    });
}

/// Coalesced transport: producers accumulate each writer's frames
/// locally and ship them in runs, and writers coalesce arriving runs
/// into a writer-local buffer flushed through
/// [`ShardedDatabase::insert_batches`]. Channel traffic drops by the run
/// length, and each shard's registry guard is taken once per flush
/// instead of once per frame. Frames cover scrape passes
/// `first_pass..first_pass + passes`, so a second wave over a warmed
/// store appends strictly newer samples (in time order, as real scrape
/// ticks would) instead of splicing into history.
fn run_coalesced(
    db: &ShardedDatabase,
    nodes: usize,
    first_pass: usize,
    passes: usize,
    writers: usize,
) {
    crossbeam::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(writers);
        for _ in 0..writers {
            let (tx, rx) = crossbeam::channel::bounded::<Vec<PointBatch>>(16);
            senders.push(tx);
            scope.spawn(move || {
                let mut buffer: Vec<PointBatch> = Vec::with_capacity(FLUSH_FRAMES);
                while let Ok(frames) = rx.recv() {
                    buffer.extend(frames);
                    if buffer.len() >= FLUSH_FRAMES {
                        db.insert_batches(&buffer);
                        buffer.clear();
                    }
                }
                // Tick boundary: flush the remainder.
                db.insert_batches(&buffer);
            });
        }
        let producers = writers.min(nodes);
        for offset in 0..producers {
            let senders = senders.clone();
            scope.spawn(move || {
                let mut pending: Vec<Vec<PointBatch>> =
                    (0..senders.len()).map(|_| Vec::new()).collect();
                for pass in first_pass..first_pass + passes {
                    for node in (offset..nodes).step_by(producers) {
                        let mut hasher = DefaultHasher::new();
                        node_name(node).hash(&mut hasher);
                        let writer = hasher.finish() as usize % senders.len();
                        pending[writer].push(frame_for(node, pass));
                        if pending[writer].len() >= FLUSH_FRAMES {
                            senders[writer]
                                .send(std::mem::take(&mut pending[writer]))
                                .expect("writer alive");
                        }
                    }
                }
                for (writer, frames) in pending.into_iter().enumerate() {
                    if !frames.is_empty() {
                        senders[writer].send(frames).expect("writer alive");
                    }
                }
            });
        }
        drop(senders);
    });
}

/// The paper's Listing-1 query, as the racing smoke readers run it.
fn listing1() -> Select {
    let per_pod = Select::from_measurement("sgx/epc")
        .aggregate(Aggregate::Max)
        .filter(Predicate::ValueNe(0.0))
        .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
            SimDuration::from_secs(25),
        )))
        .group_by(["pod_name", "nodename"]);
    Select::from_subquery(per_pod)
        .aggregate(Aggregate::Sum)
        .group_by(["nodename"])
}

/// Best-of-`REPS` throughput in points/sec.
fn measure(points: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..REPS {
        let start = Instant::now();
        run();
        let rate = points as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// Correctness gate (`--smoke`): buffered concurrent ingest with racing
/// readers must land bit-identical to the sequential oracle, and the
/// warmed append path must take zero whole-shard exclusive locks.
fn smoke() {
    const NODES: usize = 20;
    const PASSES: usize = 50;
    const WRITERS: usize = 4;
    const SHARDS: usize = 4;

    let db = ShardedDatabase::new(SHARDS);
    let done = AtomicBool::new(false);
    crossbeam::thread::scope(|outer| {
        // Readers race the ingest: any intermediate answer is fine, but
        // the query must never panic or fabricate groups.
        for _ in 0..2 {
            let db = &db;
            let done = &done;
            outer.spawn(move || {
                let select = listing1();
                while !done.load(Ordering::Relaxed) {
                    let rows = db.query(&select, SimTime::from_secs(10 * PASSES as u64));
                    assert!(rows.len() <= NODES, "more groups than nodes");
                }
            });
        }
        run_coalesced(&db, NODES, 0, PASSES, WRITERS);
        done.store(true, Ordering::Relaxed);
    });

    let mut oracle = Database::new();
    for pass in 0..PASSES {
        for node in 0..NODES {
            oracle.insert_batch(&frame_for(node, pass));
        }
    }

    assert_eq!(db.points_inserted(), oracle.points_inserted());
    assert_eq!(db.out_of_order_inserts(), oracle.out_of_order_inserts());
    assert_eq!(db.snapshot(), oracle.snapshot(), "store diverged");
    let select = listing1();
    let now = SimTime::from_secs(10 * PASSES as u64);
    assert_eq!(db.query(&select, now), oracle.query(&select, now));

    // Warmed second wave (newer passes): every series exists, so the
    // whole run must not take a single whole-shard exclusive lock.
    let creations = db.append_write_lock_acquisitions();
    assert!(creations > 0, "first contact must grow the registry");
    run_coalesced(&db, NODES, PASSES, PASSES, WRITERS);
    assert_eq!(
        db.append_write_lock_acquisitions(),
        creations,
        "warmed append path took an exclusive shard lock"
    );
    eprintln!(
        "bench_ingest --smoke ok: {} points concurrent == oracle, \
         0 exclusive locks on warmed appends",
        db.points_inserted()
    );
}

/// The PR-2 run recorded on this repo's single-core container, before
/// the per-series append path existed — kept so regenerating the file
/// never loses the labeled baseline the new rows are compared against.
const SINGLE_CORE_BASELINE_PRE_PER_SERIES: &str = r#"    {"shards": 1, "nodes": 1, "writers": 1, "points": 240000, "per_point_pts_per_sec": 2812949, "batched_pts_per_sec": 4930423, "batched_threaded_pts_per_sec": 2823850, "batched_speedup": 1.75, "threaded_speedup": 1.00},
    {"shards": 1, "nodes": 5, "writers": 1, "points": 240000, "per_point_pts_per_sec": 2453922, "batched_pts_per_sec": 3933640, "batched_threaded_pts_per_sec": 2407305, "batched_speedup": 1.60, "threaded_speedup": 0.98},
    {"shards": 1, "nodes": 20, "writers": 1, "points": 240000, "per_point_pts_per_sec": 2071377, "batched_pts_per_sec": 3261623, "batched_threaded_pts_per_sec": 1900884, "batched_speedup": 1.57, "threaded_speedup": 0.92},
    {"shards": 4, "nodes": 1, "writers": 4, "points": 240000, "per_point_pts_per_sec": 3335005, "batched_pts_per_sec": 4143783, "batched_threaded_pts_per_sec": 2529846, "batched_speedup": 1.24, "threaded_speedup": 0.76},
    {"shards": 4, "nodes": 5, "writers": 4, "points": 240000, "per_point_pts_per_sec": 2703344, "batched_pts_per_sec": 3250207, "batched_threaded_pts_per_sec": 2036723, "batched_speedup": 1.20, "threaded_speedup": 0.75},
    {"shards": 4, "nodes": 20, "writers": 4, "points": 240000, "per_point_pts_per_sec": 1900270, "batched_pts_per_sec": 2779174, "batched_threaded_pts_per_sec": 2244476, "batched_speedup": 1.46, "threaded_speedup": 1.18},
    {"shards": 8, "nodes": 1, "writers": 4, "points": 240000, "per_point_pts_per_sec": 3230673, "batched_pts_per_sec": 4182771, "batched_threaded_pts_per_sec": 2582630, "batched_speedup": 1.29, "threaded_speedup": 0.80},
    {"shards": 8, "nodes": 5, "writers": 4, "points": 240000, "per_point_pts_per_sec": 2881959, "batched_pts_per_sec": 3849423, "batched_threaded_pts_per_sec": 2657132, "batched_speedup": 1.34, "threaded_speedup": 0.92},
    {"shards": 8, "nodes": 20, "writers": 4, "points": 240000, "per_point_pts_per_sec": 2659726, "batched_pts_per_sec": 3395070, "batched_threaded_pts_per_sec": 2433782, "batched_speedup": 1.28, "threaded_speedup": 0.92}"#;

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores == 1 {
        eprintln!(
            "warning: only 1 core detected — the threaded rows below measure a \
             degenerate configuration (writers time-slice one core and cannot \
             beat 1x); rerun on a multi-core host for meaningful speedups. \
             The lock-free hot path is still verified: the sweep asserts zero \
             whole-shard exclusive locks on warmed appends."
        );
    }
    let mut rows = Vec::new();
    for &shards in &[1usize, 4, 8] {
        for &nodes in &[1usize, 5, 20] {
            let passes = passes_for(nodes);
            let points = nodes * PODS_PER_NODE * passes;
            let per_point = measure(points, || {
                let db = ShardedDatabase::new(shards);
                run_per_point(&db, nodes, passes);
                assert_eq!(db.points_inserted() as usize, points);
            });
            let batched_direct = measure(points, || {
                let db = ShardedDatabase::new(shards);
                run_batched_direct(&db, nodes, passes);
                assert_eq!(db.points_inserted() as usize, points);
            });
            let writers = shards.min(4);
            let batched_threaded = measure(points, || {
                let db = ShardedDatabase::new(shards);
                run_batched(&db, nodes, passes, writers);
                assert_eq!(db.points_inserted() as usize, points);
            });
            let coalesced = measure(points, || {
                let db = ShardedDatabase::new(shards);
                run_coalesced(&db, nodes, 0, passes, writers);
                assert_eq!(db.points_inserted() as usize, points);
            });
            // Lock-free gate, untimed: warm a store, then ship a second
            // wave of newer passes — with every series registered it
            // must take zero whole-shard exclusive locks.
            let db = ShardedDatabase::new(shards);
            run_coalesced(&db, nodes, 0, passes, writers);
            let creations = db.append_write_lock_acquisitions();
            run_coalesced(&db, nodes, passes, passes, writers);
            assert_eq!(
                db.append_write_lock_acquisitions(),
                creations,
                "warmed append path took an exclusive shard lock"
            );
            eprintln!(
                "shards={shards} nodes={nodes}: per_point {per_point:.0} pts/s, \
                 batched {batched_direct:.0} pts/s ({:.2}x), \
                 threaded {batched_threaded:.0} pts/s ({:.2}x), \
                 coalesced {coalesced:.0} pts/s ({:.2}x)",
                batched_direct / per_point,
                batched_threaded / per_point,
                coalesced / per_point
            );
            rows.push(format!(
                concat!(
                    "    {{\"shards\": {}, \"nodes\": {}, \"writers\": {}, ",
                    "\"points\": {}, \"per_point_pts_per_sec\": {:.0}, ",
                    "\"batched_pts_per_sec\": {:.0}, ",
                    "\"batched_threaded_pts_per_sec\": {:.0}, ",
                    "\"coalesced_pts_per_sec\": {:.0}, ",
                    "\"batched_speedup\": {:.2}, \"threaded_speedup\": {:.2}, ",
                    "\"coalesced_speedup\": {:.2}}}"
                ),
                shards,
                nodes,
                writers,
                points,
                per_point,
                batched_direct,
                batched_threaded,
                coalesced,
                batched_direct / per_point,
                batched_threaded / per_point,
                coalesced / per_point
            ));
        }
    }
    println!("{{");
    println!("  \"benchmark\": \"probe_to_tsdb_ingestion\",");
    println!("  \"unit\": \"points_per_second\",");
    println!("  \"cores\": {cores},");
    if cores == 1 {
        println!(
            "  \"note\": \"single-core runner: the threaded pipeline cannot \
             exceed 1x; shard-parallel speedups need a multi-core host. The \
             per-series hot path is verified structurally instead: zero \
             whole-shard exclusive locks on warmed appends (asserted by the \
             coalesced cells, --smoke, and the sharded_props suite)\","
        );
    }
    println!("  \"pods_per_node\": {PODS_PER_NODE},");
    println!("  \"reps\": {REPS},");
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ],");
    println!("  \"baseline_single_core_pre_per_series\": [");
    println!("{SINGLE_CORE_BASELINE_PRE_PER_SERIES}");
    println!("  ]");
    println!("}}");
}
