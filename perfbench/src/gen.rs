//! Seeded input generators and their oracles.
//!
//! Everything the program sees is produced here from `--seed`: the serve
//! seed spec and the per-client request streams.
//! The same seed always yields byte-identical files and streams.

use depkit_core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Rows of one relation, in file order.
pub type Rows = Vec<Vec<i64>>;

/// A generated `.dep` spec: schema, declared dependencies and rows.
#[derive(Debug, Clone)]
pub struct Spec {
    pub schemes: Vec<&'static str>,
    pub deps: Vec<&'static str>,
    /// `(relation, rows)` in the order they are written.
    pub rels: Vec<(&'static str, Rows)>,
}

impl Spec {
    /// The spec file text the `depkit` binary parses.
    pub fn text(&self, header: &str) -> String {
        let rows: usize = self.rels.iter().map(|(_, r)| r.len()).sum();
        let mut out = String::with_capacity(rows * 32 + 256);
        let _ = writeln!(out, "# {header}");
        for s in &self.schemes {
            let _ = writeln!(out, "schema {s}");
        }
        for d in &self.deps {
            let _ = writeln!(out, "dep {d}");
        }
        for (rel, rows) in &self.rels {
            for row in rows {
                out.push_str("row ");
                out.push_str(rel);
                for v in row {
                    let _ = write!(out, " {v}");
                }
                out.push('\n');
            }
        }
        out
    }

    pub fn schema(&self) -> DatabaseSchema {
        DatabaseSchema::parse(&self.schemes).expect("generated schema parses")
    }

    pub fn sigma(&self) -> Vec<Dependency> {
        self.deps
            .iter()
            .map(|d| d.parse().expect("generated dependency parses"))
            .collect()
    }

    /// The database the spec describes, built in file order exactly as
    /// the spec parser builds it.
    pub fn database(&self) -> Database {
        let mut db = Database::empty(self.schema());
        for (rel, rows) in &self.rels {
            let name = RelName::new(rel);
            for row in rows {
                db.insert(&name, Tuple::ints(row)).expect("row fits scheme");
            }
        }
        db
    }
}

/// Committed state as relation name → set of rows: the shape `dump`
/// returns and the gates compare.
pub type State = BTreeMap<String, BTreeSet<Vec<i64>>>;

pub fn state_of(spec: &Spec) -> State {
    let mut st = State::new();
    for s in &spec.schemes {
        let name = s.split('(').next().expect("scheme has a name").trim();
        st.entry(name.to_owned()).or_default();
    }
    for (rel, rows) in &spec.rels {
        st.entry((*rel).to_owned())
            .or_default()
            .extend(rows.iter().cloned());
    }
    st
}

/// Build a database for `schema` holding exactly `state`.
pub fn database_of(schema: &DatabaseSchema, state: &State) -> Database {
    let mut db = Database::empty(schema.clone());
    for (rel, rows) in state {
        let name = RelName::new(rel);
        for row in rows {
            db.insert(&name, Tuple::ints(row)).expect("row fits scheme");
        }
    }
    db
}

// ---------------------------------------------------------------------
// Serve inputs: the paper's §1 referential example.

pub const SERVE_DEPTS: usize = 1_792;
pub const SERVE_EMPS: usize = 64_000;
const DNO_BASE: i64 = 10_000;
const MGR_BASE: i64 = 900_000;
/// Planted violations in the serve-read seed: dangling hires (IND),
/// employees in two departments (EMP FD), departments with two managers
/// (DEPT FD).
pub const PLANTED_DANGLING: usize = 24;
pub const PLANTED_EMP_FD: usize = 8;
pub const PLANTED_DEPT_FD: usize = 8;
/// The foreign key the dangling hires break.
pub const PLANTED_FK: &str = "EMP[DNO] <= DEPT[DNO]";

/// The referential seed: `SERVE_DEPTS` departments and `SERVE_EMPS`
/// employees, consistent unless `plant` adds the planted violations.
pub fn serve_seed(seed: u64, plant: bool) -> Spec {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(1));
    let mut dept: Rows = (0..SERVE_DEPTS as i64)
        .map(|i| vec![DNO_BASE + i, MGR_BASE + i])
        .collect();
    let mut emp: Rows = (1..=SERVE_EMPS as i64)
        .map(|eid| vec![eid, DNO_BASE + rng.below(SERVE_DEPTS as u64) as i64])
        .collect();
    if plant {
        for k in 0..PLANTED_DANGLING as i64 {
            emp.push(vec![200_000 + k, 20_000 + k]);
        }
        for k in 0..PLANTED_EMP_FD {
            let eid = 1 + k as i64 * 1_000;
            let dno = emp[k * 1_000][1];
            let other = DNO_BASE + (dno - DNO_BASE + 1) % SERVE_DEPTS as i64;
            emp.push(vec![eid, other]);
        }
        for k in 0..PLANTED_DEPT_FD as i64 {
            dept.push(vec![DNO_BASE + k * 100, 950_000 + k]);
        }
    }
    Spec {
        schemes: vec!["EMP(EID, DNO)", "DEPT(DNO, MGR)"],
        deps: vec![
            "EMP[DNO] <= DEPT[DNO]",
            "EMP: EID -> DNO",
            "DEPT: DNO -> MGR",
        ],
        rels: vec![("DEPT", dept), ("EMP", emp)],
    }
}

/// One staged operation of a client stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub insert: bool,
    pub rel: &'static str,
    pub row: Vec<i64>,
}

impl Op {
    /// The protocol request line (no newline).
    pub fn line(&self) -> String {
        let cmd = if self.insert { "insert" } else { "delete" };
        let vals: Vec<String> = self.row.iter().map(i64::to_string).collect();
        format!(
            r#"{{"cmd":"{cmd}","rel":"{}","row":[{}]}}"#,
            self.rel,
            vals.join(",")
        )
    }
}

/// What a client does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unit {
    /// `begin`, ops, `commit` — applied to the oracle once acknowledged.
    Commit(Vec<Op>),
    /// `begin`, ops, `query`, `abort` — never changes state.
    Probe(Vec<Op>),
    /// One `health` line.
    Health,
}

/// A client's own rows: it inserts and deletes only keys from its own
/// disjoint range, so the final state does not depend on interleaving.
#[derive(Debug, Clone, Default)]
pub struct ClientState {
    /// Employees this client hired and has not fired, in hire order.
    pub hires: Vec<(i64, i64)>,
    /// Departments this client created.
    pub depts: Vec<(i64, i64)>,
    next_eid: i64,
    next_dno: i64,
    next_dangling: i64,
}

/// A deterministic, endless request stream for one client.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    read_mix: bool,
    /// State as of the last acknowledged unit.
    pub state: ClientState,
    pending: Option<ClientState>,
}

impl Stream {
    /// Client `client` of a serve workload; `read_mix` selects the
    /// serve-read traffic mix, otherwise every unit is a commit batch.
    pub fn new(seed: u64, client: u64, read_mix: bool) -> Stream {
        let c = client as i64 + 1;
        Stream {
            rng: Rng::new(seed ^ (client + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            read_mix,
            state: ClientState {
                next_eid: 10_000_000 * c,
                next_dno: 5_000_000 + 100_000 * c,
                next_dangling: 30_000_000 + 1_000_000 * c,
                ..ClientState::default()
            },
            pending: None,
        }
    }

    /// The next unit. Its effect on this client's state takes hold only
    /// after [`Stream::ack`].
    pub fn next_unit(&mut self) -> Unit {
        if !self.read_mix {
            let n = 2 + self.rng.below(3) as usize;
            return Unit::Commit(self.plan(n));
        }
        let r = self.rng.below(100);
        if r < 70 {
            let n = 1 + self.rng.below(3) as usize;
            let ops = self.plan(n);
            self.pending = None;
            Unit::Probe(ops)
        } else if r < 90 {
            self.pending = None;
            Unit::Health
        } else {
            let n = 1 + self.rng.below(3) as usize;
            Unit::Commit(self.plan(n))
        }
    }

    /// The last commit unit was acknowledged: its ops are now state.
    pub fn ack(&mut self) {
        if let Some(next) = self.pending.take() {
            self.state = next;
        }
    }

    /// Plan `n` effective ops against the acknowledged state: new hires
    /// into existing departments, firings of this client's own earlier
    /// hires, the occasional new department and, on the read mix,
    /// dangling hires into departments that do not exist.
    fn plan(&mut self, n: usize) -> Vec<Op> {
        let read_mix = self.read_mix;
        let mut next = self.state.clone();
        let mut hired = Vec::new();
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let r = self.rng.below(100);
            if !read_mix && r < 10 {
                let dno = next.next_dno;
                next.next_dno += 1;
                let row = vec![dno, dno + 7];
                next.depts.push((row[0], row[1]));
                ops.push(Op {
                    insert: true,
                    rel: "DEPT",
                    row,
                });
            } else if r < 35 && !next.hires.is_empty() {
                // Fire one of the hires acknowledged before this unit.
                let i = self.rng.below(next.hires.len() as u64) as usize;
                let (eid, dno) = next.hires.swap_remove(i);
                ops.push(Op {
                    insert: false,
                    rel: "EMP",
                    row: vec![eid, dno],
                });
            } else {
                let eid = next.next_eid;
                next.next_eid += 1;
                let dno = if read_mix && r.is_multiple_of(3) {
                    next.next_dangling += 1;
                    next.next_dangling
                } else if !next.depts.is_empty() && r.is_multiple_of(5) {
                    next.depts[self.rng.below(next.depts.len() as u64) as usize].0
                } else {
                    DNO_BASE + self.rng.below(SERVE_DEPTS as u64) as i64
                };
                hired.push((eid, dno));
                ops.push(Op {
                    insert: true,
                    rel: "EMP",
                    row: vec![eid, dno],
                });
            }
        }
        next.hires.extend(hired);
        self.pending = Some(next);
        ops
    }
}

/// The oracle: the seed plus every acknowledged unit of every client.
pub fn serve_oracle(seed: &Spec, clients: &[ClientState]) -> State {
    let mut st = state_of(seed);
    for c in clients {
        let emp = st.get_mut("EMP").expect("EMP relation");
        emp.extend(c.hires.iter().map(|&(e, d)| vec![e, d]));
        let dept = st.get_mut("DEPT").expect("DEPT relation");
        dept.extend(c.depts.iter().map(|&(d, m)| vec![d, m]));
    }
    st
}

/// Bytes of the distinct-value footprint: every column's distinct
/// values as 4-byte ids, the form spilled runs store.
pub fn distinct_footprint(spec: &Spec) -> usize {
    let mut total = 0;
    for (_, rows) in &spec.rels {
        let arity = rows.first().map_or(0, Vec::len);
        for c in 0..arity {
            let distinct: BTreeSet<i64> = rows.iter().map(|r| r[c]).collect();
            total += distinct.len() * 4;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for plant in [false, true] {
            assert_eq!(
                serve_seed(7, plant).text("x"),
                serve_seed(7, plant).text("x")
            );
        }
        assert_ne!(
            serve_seed(7, false).text("x"),
            serve_seed(8, false).text("x")
        );
        let streams = |s| {
            let mut st = Stream::new(s, 1, true);
            (0..200)
                .map(|_| {
                    let u = st.next_unit();
                    st.ack();
                    u
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(streams(7), streams(7));
        assert_ne!(streams(7), streams(8));
    }

    #[test]
    fn planted_violations_are_counted() {
        let spec = serve_seed(3, true);
        let db = spec.database();
        let v = depkit_solver::incremental::full_violations(&db, &spec.sigma()).unwrap();
        assert_eq!(v.len(), PLANTED_DANGLING + PLANTED_EMP_FD + PLANTED_DEPT_FD);
        let clean = serve_seed(3, false);
        let v = depkit_solver::incremental::full_violations(&clean.database(), &clean.sigma());
        assert!(v.unwrap().is_empty());
    }
}
