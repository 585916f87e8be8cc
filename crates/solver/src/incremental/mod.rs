//! Incremental FD/IND validation for mutating databases.
//!
//! The paper frames INDs as *the* referential-integrity constraints a live
//! database must maintain (Section 1: "each manager's department is an
//! existing department"), and the checking workload — not implication — is
//! what a serving system executes on every write. Re-running the
//! [`depkit_core::satisfy`] scans after each mutation costs time
//! proportional to the whole database; this module maintains constraint
//! state *incrementally*, so a [`Delta`](depkit_core::delta::Delta) of `k`
//! row changes is validated in `O(k · Σ proj)` hash work, independent of
//! the total row count.
//!
//! There is one engine, the snapshot-isolated [`catalog`]: a
//! [`CatalogState`] compiles a `(Schema, Σ_FD, Σ_IND)` pair once into
//! generation-stamped projection counts over interned value ids — per IND
//! the multisets of left and right projections (a key is *violating* iff
//! its left count is positive and its right count zero), per FD the
//! distinct-RHS count of every LHS group (violating iff ≥ 2). Any number
//! of [`Session`]s stage, preview and commit deltas against it while
//! pinned [`Snapshot`]s read; `depkit serve`, write-ahead-log recovery
//! ([`durable`]) and `depkit validate` all run this same commit path.
//!
//! [`full_violations`] is the from-scratch reference path: it recomputes the
//! same normalized [`ViolationKey`] set by scanning the whole database.
//! The differential-testing contract — *incremental == full recheck after
//! every delta* — is enforced by `tests/incremental_vs_full.rs` and is the
//! pattern every future serving feature should follow.

pub mod catalog;
pub mod durable;

pub use catalog::{
    CatalogState, CommitOutcome, CommitRecord, CommitSink, DepHealth, FrozenRelation, Session,
    Snapshot,
};
pub use durable::{Durability, DurabilityConfig, RecoveryReport};

use depkit_core::database::Database;
use depkit_core::dependency::Dependency;
use depkit_core::error::CoreError;
use depkit_core::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// A normalized, order-independent identification of one constraint
/// violation, shared by the incremental and full-recheck paths.
///
/// `dep` is the index of the violated dependency in the `Σ` slice the
/// engine was built from; the payload pins down *where* it fails, so two
/// violation sets are comparable as plain [`BTreeSet`]s.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKey {
    /// FD `Σ[dep]` fails on the group of rows whose LHS projection is
    /// `lhs` (that group holds at least two distinct RHS projections).
    Fd {
        /// Index into `Σ`.
        dep: usize,
        /// The LHS projection shared by the conflicting rows.
        lhs: Vec<Value>,
    },
    /// IND `Σ[dep]` fails on `missing`: some left-side row projects to it
    /// but no right-side row does.
    Ind {
        /// Index into `Σ`.
        dep: usize,
        /// The uncovered projection.
        missing: Vec<Value>,
    },
}

/// `a, b, c` — a projection's values as the violation texts print them.
fn join_values(vs: &[Value]) -> String {
    vs.iter()
        .map(Value::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for ViolationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKey::Fd { dep, lhs } => write!(
                f,
                "FD #{dep} violated: key group ({}) maps to multiple RHS values",
                join_values(lhs)
            ),
            ViolationKey::Ind { dep, missing } => write!(
                f,
                "IND #{dep} violated: projection ({}) has no covering right-side row",
                join_values(missing)
            ),
        }
    }
}

impl ViolationKey {
    /// Human-readable description of the violation, naming the
    /// dependency: `sigma` is the `Σ` slice the violation was reported
    /// against (`dep` indexes into it).
    ///
    /// # Examples
    ///
    /// The delta-validate round trip — seed a catalog, break referential
    /// integrity in one committed session, repair it in the next:
    ///
    /// ```
    /// use depkit_core::prelude::*;
    /// use depkit_solver::incremental::CatalogState;
    ///
    /// let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO)"]).unwrap();
    /// let sigma: Vec<Dependency> = vec![
    ///     "EMP[DEPT] <= DEPT[DNO]".parse().unwrap(),
    ///     "EMP: NAME -> DEPT".parse().unwrap(),
    /// ];
    /// let cat = CatalogState::new(&schema, &sigma).unwrap();
    /// let mut db = Database::empty(schema);
    /// db.insert_str("DEPT", &[&["math"]]).unwrap();
    /// db.insert_str("EMP", &[&["hilbert", "math"]]).unwrap();
    /// cat.seed(&db).unwrap();
    /// assert!(cat.snapshot().is_consistent());
    ///
    /// // A write that dangles: hausdorff joins a department that doesn't exist.
    /// let mut s = cat.begin();
    /// s.stage_insert("EMP", Tuple::strs(&["hausdorff", "topology"])).unwrap();
    /// s.commit();
    /// let violations = cat.snapshot().violations();
    /// let v = violations.iter().next().unwrap();
    /// assert_eq!(
    ///     v.explain(&sigma),
    ///     "IND EMP[DEPT] <= DEPT[DNO] violated: projection (topology) missing on the right"
    /// );
    ///
    /// // Repair by creating the department; the violation clears.
    /// let mut s = cat.begin();
    /// s.stage_insert("DEPT", Tuple::strs(&["topology"])).unwrap();
    /// s.commit();
    /// assert!(cat.snapshot().is_consistent());
    /// ```
    pub fn explain(&self, sigma: &[Dependency]) -> String {
        match self {
            ViolationKey::Fd { dep, lhs } => format!(
                "FD {} violated: rows with ({}) on the LHS disagree on the RHS",
                sigma[*dep],
                join_values(lhs)
            ),
            ViolationKey::Ind { dep, missing } => format!(
                "IND {} violated: projection ({}) missing on the right",
                sigma[*dep],
                join_values(missing)
            ),
        }
    }
}

/// The full-revalidation reference path: recompute the violation set of
/// `sigma` against `db` from scratch, in time proportional to the whole
/// database.
///
/// Produces exactly the normalized [`ViolationKey`] set a [`Snapshot`]
/// holding the same rows reports — the differential-testing oracle for the
/// incremental engine, and the baseline the `incremental_validation` bench
/// measures against.
pub fn full_violations(
    db: &Database,
    sigma: &[Dependency],
) -> Result<BTreeSet<ViolationKey>, CoreError> {
    let mut out = BTreeSet::new();
    for (dep, d) in sigma.iter().enumerate() {
        match d {
            Dependency::Fd(fd) => {
                let r = db.relation(&fd.rel)?;
                let lhs_cols = r.scheme().columns(&fd.lhs)?;
                let rhs_cols = r.scheme().columns(&fd.rhs)?;
                let mut groups: HashMap<Vec<Value>, HashSet<Vec<Value>>> = HashMap::new();
                for t in r.tuples() {
                    groups
                        .entry(t.project(&lhs_cols))
                        .or_default()
                        .insert(t.project(&rhs_cols));
                }
                for (lhs, rhs_set) in groups {
                    if rhs_set.len() >= 2 {
                        out.insert(ViolationKey::Fd { dep, lhs });
                    }
                }
            }
            Dependency::Ind(ind) => {
                let left = db.relation(&ind.lhs_rel)?;
                let right = db.relation(&ind.rhs_rel)?;
                let lcols = left.scheme().columns(&ind.lhs_attrs)?;
                let rcols = right.scheme().columns(&ind.rhs_attrs)?;
                let covered: HashSet<Vec<Value>> =
                    right.tuples().map(|t| t.project(&rcols)).collect();
                // Borrow-keyed membership probe; the owned projection is
                // materialized only for actual violations.
                let mut buf: Vec<Value> = Vec::with_capacity(lcols.len());
                for t in left.tuples() {
                    buf.clear();
                    buf.extend(t.project_ref(&lcols).cloned());
                    if !covered.contains(buf.as_slice()) {
                        out.insert(ViolationKey::Ind {
                            dep,
                            missing: buf.clone(),
                        });
                    }
                }
            }
            other => {
                return Err(CoreError::UnsupportedDependency(format!(
                    "full revalidation handles FDs and INDs only, got `{other}`"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::delta::{Delta, DeltaOutcome};
    use depkit_core::relation::Tuple;
    use depkit_core::schema::DatabaseSchema;

    fn setup() -> (DatabaseSchema, Vec<Dependency>) {
        let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO, MGR)"]).unwrap();
        let sigma: Vec<Dependency> = vec![
            "EMP[DEPT] <= DEPT[DNO]".parse().unwrap(),
            "EMP: NAME -> DEPT".parse().unwrap(),
            "DEPT: DNO -> MGR".parse().unwrap(),
        ];
        (schema, sigma)
    }

    /// One session round trip: stage `d`, commit, report what changed.
    fn apply(cat: &CatalogState, d: &Delta) -> Result<DeltaOutcome, CoreError> {
        let mut s = cat.begin();
        s.stage(d)?;
        Ok(s.commit().applied)
    }

    fn check_against_full(cat: &CatalogState, db: &Database, sigma: &[Dependency]) {
        let snap = cat.snapshot();
        let viols = full_violations(db, sigma).unwrap();
        assert_eq!(
            snap.violations(),
            viols,
            "incremental and full recheck disagree"
        );
        assert_eq!(snap.is_consistent(), viols.is_empty());
    }

    #[test]
    fn ind_violation_appears_and_clears() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut db = Database::empty(schema);
        assert!(cat.snapshot().is_consistent());

        // Dangling EMP row.
        let mut d = Delta::new();
        d.insert("EMP", Tuple::strs(&["h", "math"]));
        apply(&cat, &d).unwrap();
        db.apply_delta(&d).unwrap();
        assert_eq!(cat.snapshot().violations().len(), 1);
        check_against_full(&cat, &db, &sigma);

        // Covering DEPT row clears it.
        let mut d2 = Delta::new();
        d2.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        apply(&cat, &d2).unwrap();
        db.apply_delta(&d2).unwrap();
        assert!(cat.snapshot().is_consistent());
        check_against_full(&cat, &db, &sigma);

        // Deleting the covering row re-violates.
        let mut d3 = Delta::new();
        d3.delete("DEPT", Tuple::strs(&["math", "gauss"]));
        apply(&cat, &d3).unwrap();
        db.apply_delta(&d3).unwrap();
        assert_eq!(cat.snapshot().violations().len(), 1);
        check_against_full(&cat, &db, &sigma);

        // Deleting the dangling row restores consistency.
        let mut d4 = Delta::new();
        d4.delete("EMP", Tuple::strs(&["h", "math"]));
        apply(&cat, &d4).unwrap();
        db.apply_delta(&d4).unwrap();
        assert!(cat.snapshot().is_consistent());
        assert_eq!(cat.total_rows(), 0);
        check_against_full(&cat, &db, &sigma);
    }

    #[test]
    fn fd_violation_tracks_distinct_rhs_groups() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut db = Database::empty(schema);

        let mut d = Delta::new();
        d.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        d.insert("DEPT", Tuple::strs(&["math", "euler"])); // FD DNO -> MGR broken
        d.insert("DEPT", Tuple::strs(&["cs", "knuth"]));
        apply(&cat, &d).unwrap();
        db.apply_delta(&d).unwrap();
        assert_eq!(cat.snapshot().violations().len(), 1);
        check_against_full(&cat, &db, &sigma);

        // Removing one of the two conflicting rows repairs the group.
        let mut d2 = Delta::new();
        d2.delete("DEPT", Tuple::strs(&["math", "euler"]));
        apply(&cat, &d2).unwrap();
        db.apply_delta(&d2).unwrap();
        assert!(cat.snapshot().is_consistent());
        check_against_full(&cat, &db, &sigma);
    }

    #[test]
    fn duplicate_inserts_and_absent_deletes_are_noops() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut d = Delta::new();
        d.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        d.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        d.delete("EMP", Tuple::strs(&["ghost", "cs"]));
        let out = apply(&cat, &d).unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(out.deleted, 0);
        assert_eq!(cat.total_rows(), 1);
        assert!(cat.snapshot().is_consistent());
    }

    #[test]
    fn self_ind_updates_both_sides() {
        let schema = DatabaseSchema::parse(&["R(A, B)"]).unwrap();
        let sigma: Vec<Dependency> = vec!["R[A] <= R[B]".parse().unwrap()];
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut db = Database::empty(schema);

        // (1, 1) covers itself; (2, 3) leaves A-value 2 uncovered.
        let mut d = Delta::new();
        d.insert_ints("R", &[1, 1]).insert_ints("R", &[2, 3]);
        apply(&cat, &d).unwrap();
        db.apply_delta(&d).unwrap();
        assert_eq!(cat.snapshot().violations().len(), 1); // A-value 2 uncovered by B
        check_against_full(&cat, &db, &sigma);

        // Covering row for 2 and 3.
        let mut d2 = Delta::new();
        d2.insert_ints("R", &[3, 2]);
        apply(&cat, &d2).unwrap();
        db.apply_delta(&d2).unwrap();
        check_against_full(&cat, &db, &sigma);
        assert!(cat.snapshot().is_consistent());

        // Deleting the row that covers B-value 2 uncovers A-value 2 again,
        // and the same row leaves the left side: the IND is re-checked
        // from both sides of one row.
        let mut d3 = Delta::new();
        d3.delete_ints("R", &[3, 2]);
        apply(&cat, &d3).unwrap();
        db.apply_delta(&d3).unwrap();
        check_against_full(&cat, &db, &sigma);
        assert_eq!(cat.snapshot().violations().len(), 1);
    }

    #[test]
    fn seed_matches_bulk_delta() {
        let (schema, sigma) = setup();
        let mut db = Database::empty(schema.clone());
        db.insert_str("DEPT", &[&["math", "gauss"], &["cs", "knuth"]])
            .unwrap();
        db.insert_str("EMP", &[&["h", "math"], &["k", "cs"], &["x", "bio"]])
            .unwrap();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let out = cat.seed(&db).unwrap();
        assert_eq!(out.applied.inserted, 5);
        assert_eq!(cat.total_rows(), db.total_tuples());
        check_against_full(&cat, &db, &sigma);
        assert_eq!(cat.snapshot().violations().len(), 1); // ("bio") dangling

        // The same rows committed as one delta reach the same state.
        let bulk = CatalogState::new(&schema, &sigma).unwrap();
        let mut d = Delta::new();
        for rel in db.relations() {
            for t in rel.tuples() {
                d.insert(rel.scheme().name().clone(), t.clone());
            }
        }
        assert_eq!(apply(&bulk, &d).unwrap(), out.applied);
        assert_eq!(bulk.snapshot().violations(), cat.snapshot().violations());
    }

    #[test]
    fn failed_seed_mutates_nothing() {
        // A database whose *last* relation is unknown to the catalog: the
        // error must surface before any earlier relation's rows touch the
        // indexes.
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let bad_schema =
            DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO, MGR)", "X(C)"]).unwrap();
        let mut bad = Database::empty(bad_schema);
        // Two EMP rows that would violate the FD NAME -> DEPT.
        bad.insert_str("EMP", &[&["h", "math"], &["h", "cs"]])
            .unwrap();
        bad.insert_str("X", &[&["boom"]]).unwrap();
        assert!(matches!(cat.seed(&bad), Err(CoreError::UnknownRelation(_))));
        assert_eq!(cat.total_rows(), 0);
        assert!(cat.snapshot().is_consistent());
        assert!(cat.snapshot().violations().is_empty());

        // Arity mismatch under a known name is likewise rejected up front.
        let widened = DatabaseSchema::parse(&["EMP(NAME, DEPT, EXTRA)"]).unwrap();
        let mut wide = Database::empty(widened);
        wide.insert_str("EMP", &[&["h", "math", "x"]]).unwrap();
        assert!(matches!(cat.seed(&wide), Err(CoreError::TupleArity { .. })));
        assert_eq!(cat.total_rows(), 0);
        assert_eq!(cat.generation(), 0);
    }

    #[test]
    fn rejects_unsupported_dependencies_and_bad_tuples() {
        let schema = DatabaseSchema::parse(&["R(A, B)"]).unwrap();
        let rd: Dependency = "R[A = B]".parse().unwrap();
        assert!(matches!(
            CatalogState::new(&schema, std::slice::from_ref(&rd)),
            Err(CoreError::UnsupportedDependency(_))
        ));
        assert!(matches!(
            full_violations(&Database::empty(schema.clone()), &[rd]),
            Err(CoreError::UnsupportedDependency(_))
        ));

        let cat = CatalogState::new(&schema, &[]).unwrap();
        let mut bad_rel = Delta::new();
        bad_rel.insert_ints("S", &[1, 2]);
        assert!(apply(&cat, &bad_rel).is_err());
        let mut bad_arity = Delta::new();
        bad_arity.insert_ints("R", &[1]);
        assert!(apply(&cat, &bad_arity).is_err());
        assert_eq!(cat.generation(), 0);
    }

    #[test]
    fn explain_names_the_dependency() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut d = Delta::new();
        d.insert("EMP", Tuple::strs(&["h", "math"]));
        d.insert("DEPT", Tuple::strs(&["cs", "knuth"]));
        d.insert("DEPT", Tuple::strs(&["cs", "dijkstra"]));
        apply(&cat, &d).unwrap();
        let vs = cat.snapshot().violations();
        let mut it = vs.iter();
        let fd = it.next().unwrap();
        assert_eq!(
            fd.explain(&sigma),
            "FD DEPT: DNO -> MGR violated: rows with (cs) on the LHS disagree on the RHS"
        );
        assert!(fd.to_string().contains("FD #2"));
        let ind = it.next().unwrap();
        assert_eq!(
            ind.explain(&sigma),
            "IND EMP[DEPT] <= DEPT[DNO] violated: projection (math) missing on the right"
        );
        assert!(ind.to_string().contains("IND #0"));
    }
}
