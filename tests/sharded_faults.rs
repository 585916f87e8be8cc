//! Fault-injection tests for the sharded discovery harness: each
//! scenario plants a deterministic [`FaultPlan`] in every worker (only
//! the worker that draws the targeted shard at attempt 0 fires it, so
//! exactly one fault occurs regardless of scheduling), then requires the
//! run to converge to the byte-identical local cover *through the
//! recovery path*, asserted via the coordinator's [`ShardStats`].
//!
//! * **kill** — the worker dies mid-shard without reporting; the dropped
//!   connection (or heartbeat timeout) requeues the shard.
//! * **stall** — the worker goes silent past the heartbeat timeout; the
//!   shard is reassigned, and the latecomer's eventual completion is
//!   rejected as stale rather than merged twice.
//! * **corrupt** — the worker publishes a run, then flips one byte of
//!   it; manifest verification rejects the completion and the shard is
//!   re-run, never silently merged.
//!
//! The refute-pass drills also run under a tolerance, where passes report
//! miss counts that the coordinator *sums*: there a late duplicate merged
//! twice would inflate the scores, so those runs must match the local
//! `scored` set too.

use depkit_core::column::ColumnStore;
use depkit_core::{Database, DatabaseSchema};
use depkit_serve::shard::{Coordinator, FaultPlan, ShardConfig, ShardStats};
use depkit_solver::discover::{discover_with_config, Discovery, DiscoveryConfig};
use std::time::Duration;

/// The running example: two relations with real FDs, INDs, and a
/// nontrivial *binary* IND (`EMP[DEPT, MGR] ⊆ DEPT[DNO, HEAD]`), so both
/// shard shapes — profile columns and n-ary refutation passes — carry
/// work in every scenario.
fn worked_example() -> Database {
    let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT, MGR)", "DEPT(DNO, HEAD)"]).unwrap();
    let mut db = Database::empty(schema);
    db.insert_str(
        "EMP",
        &[
            &["hilbert", "math", "klein"],
            &["noether", "math", "klein"],
            &["curie", "phys", "curie"],
        ],
    )
    .unwrap();
    db.insert_str("DEPT", &[&["math", "klein"], &["phys", "curie"]])
        .unwrap();
    db
}

/// Timeouts tightened so stall recovery happens in test time.
fn fast_cfg() -> ShardConfig {
    ShardConfig {
        chunk_ids: 16,
        heartbeat_interval: Duration::from_millis(40),
        heartbeat_timeout: Duration::from_millis(250),
        progress_timeout: Duration::from_secs(20),
        ..ShardConfig::default()
    }
}

/// Run sharded discovery with `workers` thread-backed workers, every one
/// of them carrying `fault`. Returns the discovery, the stats snapshot
/// at completion, and the final stats after all workers drained (a
/// stalled worker reports — and is counted stale — *after* the run
/// finishes without it).
fn run_with_fault(
    db: &Database,
    workers: usize,
    cfg: ShardConfig,
    fault: &str,
) -> (Discovery, ShardStats, ShardStats) {
    run_with_fault_under(db, workers, cfg, fault, &DiscoveryConfig::default())
}

/// [`run_with_fault`] under an explicit discovery configuration.
fn run_with_fault_under(
    db: &Database,
    workers: usize,
    cfg: ShardConfig,
    fault: &str,
    config: &DiscoveryConfig,
) -> (Discovery, ShardStats, ShardStats) {
    let fault = FaultPlan::parse(fault).unwrap();
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            let db = db.clone();
            let fault = fault.clone();
            std::thread::spawn(move || {
                let schema = db.schema().clone();
                let store = ColumnStore::new(&db);
                depkit_serve::run_worker(&addr, &schema, &store, &fault)
            })
        })
        .collect();
    let schema = db.schema().clone();
    let store = ColumnStore::new(db);
    let (found, at_completion) = coordinator.run(&schema, &store, config, workers).unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    let drained = coordinator.stats();
    coordinator.shutdown().unwrap();
    (found, at_completion, drained)
}

fn assert_identical(local: &Discovery, sharded: &Discovery, scenario: &str) {
    assert_eq!(local.raw, sharded.raw, "{scenario}: raw deps diverged");
    assert_eq!(local.cover, sharded.cover, "{scenario}: cover diverged");
    assert_eq!(local.stats, sharded.stats, "{scenario}: stats diverged");
}

#[test]
fn killed_worker_mid_profile_shard_retries_and_completes_identically() {
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    let (sharded, stats, _) = run_with_fault(&db, 2, fast_cfg(), "kill:profile:0");
    assert_identical(&local, &sharded, "kill:profile");
    assert_eq!(stats.completed, stats.shards, "every shard must complete");
    assert!(
        stats.retried + stats.reassigned >= 1,
        "the kill must surface as a disconnect requeue or a timeout reassignment: {stats:?}"
    );
}

#[test]
fn killed_worker_mid_refute_shard_retries_and_completes_identically() {
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    let (sharded, stats, _) = run_with_fault(&db, 2, fast_cfg(), "kill:refute:0");
    assert_identical(&local, &sharded, "kill:refute");
    assert_eq!(stats.completed, stats.shards);
    assert!(
        stats.retried + stats.reassigned >= 1,
        "the refute-phase kill must exercise the retry path: {stats:?}"
    );
}

#[test]
fn stalled_worker_is_reassigned_and_its_late_result_is_rejected_not_merged() {
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    // Stall well past the 250ms heartbeat timeout; the staller then
    // finishes its shard and reports into a world that moved on.
    let (sharded, stats, drained) = run_with_fault(&db, 2, fast_cfg(), "stall:profile:1:1200");
    assert_identical(&local, &sharded, "stall:profile");
    assert_eq!(
        stats.completed, stats.shards,
        "each shard completed exactly once"
    );
    assert!(
        stats.reassigned >= 1,
        "the stall must trip the heartbeat timeout: {stats:?}"
    );
    assert!(
        drained.stale_results >= 1,
        "the staller's late completion must be rejected as stale, not merged: {drained:?}"
    );
    // Stale rejection is the no-duplicate guarantee: accepted completions
    // still number exactly one per shard.
    assert_eq!(drained.completed, drained.shards);
}

#[test]
fn corrupted_published_run_is_checksum_rejected_and_the_shard_rerun() {
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    let (sharded, stats, _) = run_with_fault(&db, 2, fast_cfg(), "corrupt:profile:2");
    assert_identical(&local, &sharded, "corrupt:profile");
    assert_eq!(stats.completed, stats.shards);
    assert_eq!(
        stats.checksum_rejected, 1,
        "exactly one completion carries the flipped byte: {stats:?}"
    );
    assert!(
        stats.retried >= 1,
        "the rejected shard must be re-run: {stats:?}"
    );
}

#[test]
fn every_fault_scenario_converges_on_a_multi_fault_plan() {
    // All three faults in one run, on distinct shards: the harness
    // recovers from each independently and still lands on the local
    // cover byte for byte.
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    let (sharded, stats, drained) = run_with_fault(
        &db,
        3,
        fast_cfg(),
        "kill:profile:0;stall:profile:3:1200;corrupt:profile:4",
    );
    assert_identical(&local, &sharded, "multi-fault");
    assert_eq!(stats.completed, stats.shards);
    assert_eq!(stats.checksum_rejected, 1, "{stats:?}");
    assert!(stats.reassigned >= 1, "{stats:?}");
    assert!(stats.retried >= 2, "{stats:?}");
    assert_eq!(drained.completed, drained.shards);
}

/// The running example with one dangling employee: `EMP[DEPT] ⊆
/// DEPT[DNO]`, `EMP[MGR] ⊆ DEPT[HEAD]` and the binary IND over both
/// miss on one of EMP's four rows, so a 30% tolerance (cap 1) admits all
/// three with misses and the refute passes carry nonzero counts.
fn dirtied_example() -> Database {
    let mut db = worked_example();
    db.insert_str("EMP", &[&["galois", "duel", "nobody"]])
        .unwrap();
    db
}

fn tolerant() -> DiscoveryConfig {
    DiscoveryConfig {
        max_error: 0.3,
        ..DiscoveryConfig::default()
    }
}

/// Tolerant runs must match the local run on the scores too: a merged
/// duplicate of a refute pass would add its miss counts twice.
fn assert_identical_scored(local: &Discovery, sharded: &Discovery, scenario: &str) {
    assert_identical(local, sharded, scenario);
    assert_eq!(local.scored, sharded.scored, "{scenario}: scores diverged");
    let binary = local
        .scored
        .iter()
        .find(|s| s.dep.to_string() == "EMP[DEPT, MGR] <= DEPT[DNO, HEAD]")
        .expect("the dirty binary IND is mined at 30% tolerance");
    assert_eq!((binary.misses, binary.support), (1, 4), "{scenario}");
}

#[test]
fn tolerant_killed_refute_worker_retries_to_identical_scores() {
    let db = dirtied_example();
    let local = discover_with_config(&db, &tolerant());
    let (sharded, stats, _) =
        run_with_fault_under(&db, 2, fast_cfg(), "kill:refute:0", &tolerant());
    assert_identical_scored(&local, &sharded, "tolerant kill:refute");
    assert_eq!(stats.completed, stats.shards);
    assert!(
        stats.retried + stats.reassigned >= 1,
        "the refute-phase kill must exercise the retry path: {stats:?}"
    );
}

#[test]
fn tolerant_stalled_refute_worker_is_counted_once_not_twice() {
    let db = dirtied_example();
    let local = discover_with_config(&db, &tolerant());
    let (sharded, stats, drained) =
        run_with_fault_under(&db, 2, fast_cfg(), "stall:refute:0:1200", &tolerant());
    assert_identical_scored(&local, &sharded, "tolerant stall:refute");
    assert_eq!(stats.completed, stats.shards);
    assert!(
        stats.reassigned >= 1,
        "the stall must trip the heartbeat timeout: {stats:?}"
    );
    assert!(
        drained.stale_results > 0,
        "the staller's late counts must be rejected as stale, not summed: {drained:?}"
    );
    assert_eq!(drained.completed, drained.shards);
}
