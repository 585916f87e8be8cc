//! Criterion bench: what durability *costs* per commit — the same
//! churn-batch commit round as `incremental_validation/delta_incremental`,
//! priced through the write-ahead-logged catalog at each
//! [`FsyncPolicy`], against the in-memory catalog as the floor.
//!
//! Four shapes over the 16k-row referential workload, one 64-pair churn
//! batch plus its inverse per iteration:
//!
//! * `in_memory` — no durability at all: the baseline commit path.
//! * `wal_never` — WAL appends, no fsync: the pure serialization +
//!   page-cache-write overhead of the log.
//! * `wal_interval64` — group durability: fsync every 64th append, the
//!   amortized middle ground.
//! * `wal_always` — fsync inside every commit's write-lock window:
//!   ack-implies-durable at its strictest, dominated by device sync
//!   latency.
//!
//! The gap between `in_memory` and `wal_never` is the logging tax
//! (target: small multiples of the baseline); the gap between
//! `wal_never` and `wal_always` is the device's sync price, which the
//! interval policy exists to amortize.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use depkit_bench::{commit_round, referential_workload, scoped_churn_delta};
use depkit_core::wal::FsyncPolicy;
use depkit_solver::incremental::{CatalogState, Durability, DurabilityConfig};
use std::hint::black_box;
use std::path::PathBuf;

const EMPS: usize = 16_000;
const DEPTS: usize = 64;
const BATCH: usize = 64;

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("depkit-bench-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn bench_durable_commit(c: &mut Criterion) {
    let (schema, sigma, db) = referential_workload(EMPS, DEPTS);
    let delta = scoped_churn_delta(EMPS, DEPTS, BATCH, 0);
    let inverse = delta.inverse();
    let mut group = c.benchmark_group("durable_commit");
    // Each iteration commits the batch and its inverse.
    group.throughput(Throughput::Elements(2 * delta.len() as u64));

    group.bench_with_input(BenchmarkId::new("in_memory", EMPS), &EMPS, |b, _| {
        let cat = CatalogState::new(&schema, &sigma).expect("FD/IND sigma compiles");
        cat.seed(&db).expect("workload rows fit the schema");
        b.iter(|| {
            black_box(commit_round(&cat, &delta));
            black_box(commit_round(&cat, &inverse));
        })
    });

    for (tag, fsync) in [
        ("wal_never", FsyncPolicy::Never),
        ("wal_interval64", FsyncPolicy::Interval(64)),
        ("wal_always", FsyncPolicy::Always),
    ] {
        group.bench_with_input(BenchmarkId::new(tag, EMPS), &EMPS, |b, _| {
            let dir = bench_dir(tag);
            let (cat, dur, _report) = Durability::open(
                &schema,
                &sigma,
                DurabilityConfig {
                    dir: dir.clone(),
                    fsync,
                    // Manual checkpointing only: the bench prices the
                    // append path, not checkpoint serialization.
                    checkpoint_every: 0,
                },
            )
            .expect("fresh data dir opens");
            cat.seed(&db).expect("workload rows fit the schema");
            // Keep the replay-on-reopen cost out of scope and the log
            // from growing across the whole sample run.
            dur.checkpoint(&cat).expect("seed checkpoint");
            b.iter(|| {
                black_box(commit_round(&cat, &delta));
                black_box(commit_round(&cat, &inverse));
            });
            drop(cat);
            drop(dur);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_durable_commit);
criterion_main!(benches);
