//! Differential tests for the discovery engine: everything it mines must
//! pass the exact `core::satisfy` checker on the source database
//! (soundness), planted dependencies must be rediscovered (completeness),
//! the emitted cover must be minimal (the acceptance criterion), and a
//! discovered cover must drive the incremental `CatalogState` without
//! violations — closing the loop between discovery and serving.

use depkit_bench::referential_workload;
use depkit_core::delta::Delta;
use depkit_core::generate::{
    random_database, random_ind, random_satisfying_database, random_schema, Rng, SchemaConfig,
};
use depkit_core::{Database, DatabaseSchema, Dependency};
use depkit_solver::discover::{discover, implied_by};
use depkit_solver::incremental::CatalogState;

fn small_schema(rng: &mut Rng) -> DatabaseSchema {
    random_schema(
        rng,
        &SchemaConfig {
            relations: 2,
            min_arity: 2,
            max_arity: 3,
        },
    )
}

/// Soundness: every mined dependency — raw and cover alike — holds in the
/// database it was mined from, and the cover both sits inside the raw set
/// and still implies all of it.
#[test]
fn discovered_dependencies_are_satisfied() {
    let mut rng = Rng::new(0xD15C0);
    for round in 0..12 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 6, 3);
        let found = discover(&db);
        for d in &found.raw {
            assert!(
                db.satisfies(d).unwrap(),
                "round {round}: discovered {d} is violated by its own database"
            );
        }
        for d in &found.cover {
            assert!(found.raw.contains(d), "round {round}: cover ⊄ raw ({d})");
        }
        for d in &found.raw {
            assert!(
                implied_by(&found.cover, d),
                "round {round}: cover does not imply raw member {d}"
            );
        }
    }
}

/// Completeness round-trip: a unary IND planted by construction is always
/// present in the raw mined set (SPIDER is exact on unary INDs), and the
/// minimized cover still implies it.
#[test]
fn planted_unary_inds_are_discovered() {
    let mut rng = Rng::new(0xC0FFEE);
    for round in 0..12 {
        // Arity 2 keeps the post-repair accidental IND cliques small; the
        // property under test (planted unary INDs reappear) is arity-blind.
        let schema = random_schema(
            &mut rng,
            &SchemaConfig {
                relations: 2,
                min_arity: 2,
                max_arity: 2,
            },
        );
        let mut planted: Vec<Dependency> = Vec::new();
        for _ in 0..3 {
            if let Some(ind) = random_ind(&mut rng, &schema, 1) {
                if !ind.is_trivial() {
                    planted.push(ind.into());
                }
            }
        }
        let db = random_satisfying_database(&mut rng, &schema, &planted, 6, 3);
        for d in &planted {
            assert!(db.satisfies(d).unwrap(), "round {round}: planting failed");
        }
        let found = discover(&db);
        for d in &planted {
            assert!(
                found.raw.contains(d),
                "round {round}: planted {d} missing from the raw mined set"
            );
            assert!(
                implied_by(&found.cover, d),
                "round {round}: planted {d} not implied by the cover"
            );
        }
    }
}

/// The acceptance criterion: on the referential workload the curated
/// Section 1 constraints are rediscovered, and the emitted cover is
/// minimal — removing any member leaves a set that no longer implies the
/// raw discovered set.
#[test]
fn cover_is_minimal_on_the_referential_workload() {
    let (_schema, sigma, db) = referential_workload(200, 8);
    let found = discover(&db);
    for d in &sigma {
        assert!(
            implied_by(&found.cover, d),
            "curated constraint {d} not rediscovered"
        );
    }
    assert!(!found.cover.is_empty());
    for i in 0..found.cover.len() {
        let mut rest = found.cover.clone();
        rest.remove(i);
        let still_complete = found.raw.iter().all(|d| implied_by(&rest, d));
        assert!(
            !still_complete,
            "cover member {} is redundant: the remainder still implies the raw set",
            found.cover[i]
        );
    }
}

/// Minimality also holds on random databases, where the raw set is mostly
/// accidental structure: dropping any cover member loses part of the raw
/// set.
#[test]
fn cover_is_minimal_on_random_databases() {
    let mut rng = Rng::new(0x4D31);
    for round in 0..10 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 6, 3);
        let found = discover(&db);
        for i in 0..found.cover.len() {
            let mut rest = found.cover.clone();
            rest.remove(i);
            let still_complete = found.raw.iter().all(|d| implied_by(&rest, d));
            assert!(
                !still_complete,
                "round {round}: cover member {} is redundant",
                found.cover[i]
            );
        }
    }
}

/// Discovery → serving loop: seed the incremental catalog with a
/// discovered cover (always consistent, since discovery is sound), then
/// stream random delta batches that only re-insert existing projections —
/// delete-and-reinsert pairs and duplicate inserts. No batch may surface a
/// violation.
#[test]
fn discovered_cover_validates_reinsertion_deltas() {
    let mut rng = Rng::new(0xBEEF);
    for round in 0..15 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 10, 4);
        let found = discover(&db);
        let catalog =
            CatalogState::new(&schema, &found.cover).expect("discovered covers are FDs and INDs");
        catalog.seed(&db).expect("rows fit their schema");
        assert!(
            catalog.snapshot().is_consistent(),
            "round {round}: a sound discovery must validate its own source"
        );
        for batch in 0..5 {
            let mut delta = Delta::new();
            for relation in db.relations() {
                let rel = relation.scheme().name().clone();
                for t in relation.tuples() {
                    match rng.below(4) {
                        // Net no-op: delete then re-insert the same row.
                        0 => {
                            delta.delete(rel.clone(), t.clone());
                            delta.insert(rel.clone(), t.clone());
                        }
                        // Duplicate insert of a live row.
                        1 => {
                            delta.insert(rel.clone(), t.clone());
                        }
                        _ => {}
                    }
                }
            }
            if delta.is_empty() {
                continue;
            }
            let mut session = catalog.begin();
            session.stage(&delta).expect("delta applies");
            let out = session.commit().applied;
            assert_eq!(
                out.inserted, out.deleted,
                "round {round} batch {batch}: only deleted rows are re-inserted"
            );
            assert_eq!(catalog.total_rows(), db.total_tuples());
            assert!(
                catalog.snapshot().is_consistent(),
                "round {round} batch {batch}: re-inserting existing projections must not violate"
            );
        }
    }
}

/// The raw set is exactly the satisfied fragment for unary INDs: brute-force
/// every ordered column pair against `core::satisfy` and compare.
#[test]
fn unary_raw_set_matches_brute_force() {
    let mut rng = Rng::new(0x5A5A);
    for round in 0..15 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 6, 3);
        let found = discover(&db);
        for ls in schema.schemes() {
            for rs in schema.schemes() {
                for la in ls.attrs().attrs() {
                    for ra in rs.attrs().attrs() {
                        let ind = depkit_core::Ind::new(
                            ls.name().clone(),
                            depkit_core::attr::AttrSeq::new(vec![la.clone()]).unwrap(),
                            rs.name().clone(),
                            depkit_core::attr::AttrSeq::new(vec![ra.clone()]).unwrap(),
                        )
                        .unwrap();
                        if ind.is_trivial() {
                            continue;
                        }
                        let dep: Dependency = ind.into();
                        let satisfied = db.satisfies(&dep).unwrap();
                        assert_eq!(
                            found.raw.contains(&dep),
                            satisfied,
                            "round {round}: {dep} (satisfied = {satisfied})"
                        );
                    }
                }
            }
        }
    }
}

/// Discovery is read-only: the database is bit-identical afterwards.
#[test]
fn discovery_does_not_mutate_the_database() {
    let (_schema, _sigma, db) = referential_workload(50, 5);
    let before: Database = db.clone();
    let _found = discover(&db);
    assert_eq!(db, before);
}
