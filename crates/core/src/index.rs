//! Mutation-oriented index structures over raw `u32` rows.
//!
//! The offline engines (the Rule (*) chase, the satisfaction scans in
//! [`crate::satisfy`]) process a database once and throw their state away.
//! A *serving* workload is different: the database mutates continuously and
//! constraints must be re-checked per delta, in time proportional to the
//! delta — so the indexes have to be persistent, refcounted, and cheap to
//! update in both directions. This module provides the building blocks,
//! all operating on rows of dense `u32` ids rather than heap [`Value`]s:
//!
//! * [`ValueInterner`] — an append-only bidirectional [`Value`] ↔ `u32`
//!   table. Interning happens once per distinct value at the mutation
//!   boundary; every comparison after that is integer equality. Deletions
//!   use the non-allocating [`ValueInterner::lookup`]: a value the
//!   interner has never seen cannot be in any row, so the delete is a
//!   no-op. Ids are never recycled, so a reader pinned at an old
//!   generation can resolve ids whose rows the head has long deleted; the
//!   table grows with the distinct values ever seen, not the live ones.
//! * [`RowSet`] — a per-relation set of raw `u32` rows with set semantics
//!   (duplicate insert and absent delete are no-ops, mirroring
//!   [`crate::relation::Relation`]), addressed like the Rule (*) chase of
//!   `depkit-chase` addresses relations, by
//!   [`RelId`](crate::intern::RelId).
//! * [`ProjectionIndex`] — a counted multiset of projection keys
//!   (`key → number of rows projecting to it`), built once per IND
//!   right-hand side by discovery's row-based reference path.
//! * [`GenValue`] / [`VersionedIndex`] — the generation-stamped forms of a
//!   counter and of a [`ProjectionIndex`]: per-key count histories that
//!   answer "what was the count as of generation `g`?".
//!
//! The snapshot-isolated catalog (`depkit_solver::incremental`) composes
//! the interner and the versioned indexes into per-IND left/right
//! projection counts and per-FD witness counts.

use crate::database::Database;
use crate::hashing::{FastMap, FastSet};
use crate::value::Value;

/// An append-only bidirectional [`Value`] ↔ `u32` table, for compiling
/// tuples into raw rows.
///
/// Ids are dense (`0..len()`, in first-interning order) and only
/// meaningful against the interner that produced them (the same contract
/// as [`crate::intern::Catalog`]). Nothing is ever unmapped, so an id
/// resolves to the same value for the interner's whole lifetime — the
/// contract the snapshot-isolated catalog's pinned readers rely on, and
/// what lets bulk compilers address per-value side tables by id.
#[derive(Debug, Clone, Default)]
pub struct ValueInterner {
    /// Fast path for [`Value::Int`] — the dominant case in compiled
    /// workloads. A bare `i64` key hashes one word and packs 16-byte
    /// entries, so bulk interning probes a table half the size of the
    /// general map's.
    int_ids: FastMap<i64, u32>,
    /// All other value kinds.
    ids: FastMap<Value, u32>,
    values: Vec<Value>,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value is interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Pre-size the table for `additional` more distinct values. Bulk
    /// compilers ([`CompiledRows`], the columnar
    /// [`ColumnStore`](crate::column::ColumnStore)) reserve the cell count
    /// up front so interning never pays an incremental rehash.
    pub fn reserve(&mut self, additional: usize) {
        self.int_ids.reserve(additional);
        self.values.reserve(additional);
    }

    /// Pre-size **both** hash tables for `additional` more distinct values
    /// of any kind. [`ValueInterner::reserve`] deliberately sizes only the
    /// `Int` fast path — right for row compilers, whose non-int vocabulary
    /// is a handful of column names' worth — but the spill/merge re-read
    /// path ([`crate::spill::reintern_merged`]) bulk-interns runs of
    /// arbitrary values, and feeding those through an unsized general
    /// table rehashes it repeatedly mid-stream. With a sized hint from the
    /// run manifest, the intake allocates once and never rehashes (see the
    /// capacity-stability unit test).
    pub fn reserve_distinct(&mut self, additional: usize) {
        self.int_ids.reserve(additional);
        self.ids.reserve(additional);
        self.values.reserve(additional);
    }

    /// Current capacities of the `(int, general)` hash tables. This is the
    /// observability hook for the no-rehash contract of sized bulk
    /// intakes: capacities that are unchanged after an intake prove no
    /// rehash happened.
    pub fn table_capacities(&self) -> (usize, usize) {
        (self.int_ids.capacity(), self.ids.capacity())
    }

    /// Append a slot for a fresh value.
    fn fresh_slot(values: &mut Vec<Value>, v: &Value) -> u32 {
        let id = u32::try_from(values.len()).expect("fewer than 2^32 distinct values");
        values.push(v.clone());
        id
    }

    /// Intern a value, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Value::Int(i) = v {
            // One probe for hit and miss alike (the key is `Copy`).
            let values = &mut self.values;
            return *self
                .int_ids
                .entry(*i)
                .or_insert_with(|| Self::fresh_slot(values, v));
        }
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let id = Self::fresh_slot(&mut self.values, v);
        self.ids.insert(v.clone(), id);
        id
    }

    /// Id of an already-interned value, without allocating.
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Int(i) => self.int_ids.get(i).copied(),
            _ => self.ids.get(v).copied(),
        }
    }

    /// The value behind an id. Panics on ids from another interner.
    pub fn resolve(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// Intern every entry of a tuple slice into a raw row.
    pub fn intern_row(&mut self, values: &[Value]) -> Vec<u32> {
        values.iter().map(|v| self.intern(v)).collect()
    }

    /// Look up every entry of a tuple slice; `None` when any entry has
    /// never been interned (so the row cannot exist in any [`RowSet`]).
    pub fn lookup_row(&self, values: &[Value]) -> Option<Vec<u32>> {
        values.iter().map(|v| self.lookup(v)).collect()
    }

    /// Resolve a raw row back to values.
    pub fn resolve_row(&self, row: &[u32]) -> Vec<Value> {
        row.iter().map(|&id| self.resolve(id).clone()).collect()
    }
}

/// A set of raw `u32` rows — one relation's live tuples in compiled form.
///
/// Mirrors the set semantics of [`crate::relation::Relation`]: inserting a
/// present row and removing an absent row are no-ops, and both report
/// whether they changed the set so callers can skip index maintenance for
/// no-op mutations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSet {
    rows: FastSet<Vec<u32>>,
}

impl RowSet {
    /// An empty row set.
    pub fn new() -> Self {
        RowSet::default()
    }

    /// Insert a row; returns whether it was new.
    pub fn insert(&mut self, row: Vec<u32>) -> bool {
        self.rows.insert(row)
    }

    /// Remove a row; returns whether it was present.
    pub fn remove(&mut self, row: &[u32]) -> bool {
        self.rows.remove(row)
    }

    /// Whether the row is present.
    pub fn contains(&self, row: &[u32]) -> bool {
        self.rows.contains(row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate the rows (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.rows.iter()
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = &'a Vec<u32>;
    type IntoIter = std::collections::hash_set::Iter<'a, Vec<u32>>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// A [`Database`] compiled once into raw rows for whole-database scans: a
/// shared [`ValueInterner`] plus each relation's tuples as `u32` rows, in
/// schema order.
///
/// This is the row-major **reference representation**: the hot
/// scans now run over the struct-of-arrays
/// [`ColumnStore`](crate::column::ColumnStore) (same interner, same
/// row-major id assignment), and the differential tests compare the two.
/// The interner is append-only, so the ids stay dense
/// (`0..self.interner().len()`) and stable for the lifetime of the
/// compilation; callers may address per-value side tables by id. Rows of
/// the relation at schema index `i` follow the same
/// [`RelId::index`](crate::intern::RelId::index) addressing convention as
/// the chase, and preserve the relation's deterministic tuple order.
#[derive(Debug, Clone)]
pub struct CompiledRows {
    interner: ValueInterner,
    rows: Vec<Vec<Vec<u32>>>,
}

impl CompiledRows {
    /// Compile every tuple of `db`, relation by relation in schema order.
    pub fn new(db: &Database) -> Self {
        let mut interner = ValueInterner::new();
        interner.reserve(
            db.relations()
                .iter()
                .map(|r| r.len() * r.scheme().arity())
                .sum(),
        );
        let rows = db
            .relations()
            .iter()
            .map(|r| {
                r.tuples()
                    .map(|t| interner.intern_row(t.values()))
                    .collect()
            })
            .collect();
        CompiledRows { interner, rows }
    }

    /// The shared value table. Ids are dense: `0..interner().len()`.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// The raw rows of the relation at schema index `rel`.
    pub fn rows(&self, rel: usize) -> &[Vec<u32>] {
        &self.rows[rel]
    }

    /// Number of relations (= number of schema schemes).
    pub fn relation_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct values across the whole database.
    pub fn distinct_values(&self) -> usize {
        self.interner.len()
    }

    /// Total number of compiled rows.
    pub fn total_rows(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// A refcounted multiset of projection keys: `key → count of rows
/// projecting to it`.
///
/// Discovery's row-based reference path builds one per right-hand side
/// and validates IND candidates against it: a left projection is
/// witnessed iff its [`count`](ProjectionIndex::count) is nonzero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProjectionIndex {
    counts: FastMap<Vec<u32>, u32>,
}

impl ProjectionIndex {
    /// An empty index.
    pub fn new() -> Self {
        ProjectionIndex::default()
    }

    /// Add one reference to `key`, returning the count after the add (so
    /// `1` means the key just became present).
    pub fn add(&mut self, key: Vec<u32>) -> u32 {
        let c = self.counts.entry(key).or_insert(0);
        *c += 1;
        *c
    }

    /// Current reference count of `key` (zero when absent).
    pub fn count(&self, key: &[u32]) -> u32 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

/// A generation-stamped `u32` value: the full history of `(generation,
/// value)` changes, pruned below a caller-supplied watermark.
///
/// This is the cell type of [`VersionedIndex`] — the multi-version sibling
/// of a plain refcount. Readers ask for the value *as of* a pinned
/// generation ([`GenValue::at`]); writers stamp a new value at the commit
/// generation ([`GenValue::set`]). History below the watermark — the
/// oldest generation any reader still has pinned — is unobservable and is
/// pruned on every touch, so a hot cell's history stays as short as the
/// snapshot horizon, not as long as the commit log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenValue {
    /// `(generation, value)` entries, strictly ascending by generation.
    hist: Vec<(u64, u32)>,
}

impl GenValue {
    /// The value as of generation `gen`: the last entry stamped at or
    /// before `gen`, or `0` when the cell had not been written yet (zero
    /// is the universal initial state of every counter here).
    pub fn at(&self, gen: u64) -> u32 {
        match self.hist.partition_point(|e| e.0 <= gen) {
            0 => 0,
            i => self.hist[i - 1].1,
        }
    }

    /// The most recently stamped value (`0` when never written).
    pub fn latest(&self) -> u32 {
        self.hist.last().map_or(0, |e| e.1)
    }

    /// Stamp `value` at `gen`, then prune history that no reader at or
    /// above `watermark` can observe. Re-stamping the current generation
    /// overwrites in place (several changes within one commit collapse to
    /// the committed outcome); stamping a generation below the newest is a
    /// caller bug.
    pub fn set(&mut self, gen: u64, value: u32, watermark: u64) {
        match self.hist.last_mut() {
            Some(last) if last.0 == gen => last.1 = value,
            Some(last) => {
                debug_assert!(last.0 < gen, "generation stamps must be monotone");
                self.hist.push((gen, value));
            }
            None => self.hist.push((gen, value)),
        }
        self.prune(watermark);
    }

    /// Drop entries no reader at or above `watermark` can observe: entry
    /// `0` is dead as soon as entry `1` is already visible at the
    /// watermark. Histories are short (they are pruned on every touch), so
    /// the front-removal is cheap.
    pub fn prune(&mut self, watermark: u64) {
        while self.hist.len() >= 2 && self.hist[1].0 <= watermark {
            self.hist.remove(0);
        }
    }

    /// Drop entries no *live* reader can observe, given the full sorted
    /// set of pinned generations rather than just their minimum.
    ///
    /// [`GenValue::prune`]'s single watermark keeps every entry above the
    /// oldest pin — so one long-lived snapshot pinned below an oscillating
    /// counter makes its history grow with the commit log even though the
    /// generations between the pin and the head are unobservable. Here an
    /// entry `(g_i, v)` survives only if it is the newest (it serves the
    /// head and every future snapshot) or some pin `p` satisfies
    /// `g_i ≤ p < g_{i+1}`: exactly the entries some reader can still
    /// resolve through [`GenValue::at`]. With no pins the history
    /// collapses to its newest entry.
    pub fn prune_sparse(&mut self, pins: &[u64]) {
        debug_assert!(pins.windows(2).all(|w| w[0] <= w[1]), "pins must be sorted");
        if self.hist.len() <= 1 {
            return;
        }
        let last = self.hist.len() - 1;
        let mut kept = 0;
        for i in 0..self.hist.len() {
            let observable = i == last || {
                let lo = self.hist[i].0;
                let hi = self.hist[i + 1].0;
                let p = pins.partition_point(|&p| p < lo);
                p < pins.len() && pins[p] < hi
            };
            if observable {
                self.hist[kept] = self.hist[i];
                kept += 1;
            }
        }
        self.hist.truncate(kept);
    }

    /// Whether the cell is unobservable at every generation at or above
    /// the pruning watermark — a single all-zero entry (or none), i.e. a
    /// candidate for eviction by [`VersionedIndex::vacuum`].
    pub fn is_dead(&self) -> bool {
        match self.hist.as_slice() {
            [] => true,
            [(_, v)] => *v == 0,
            _ => false,
        }
    }

    /// Number of retained history entries (diagnostics and tests).
    pub fn depth(&self) -> usize {
        self.hist.len()
    }
}

/// The generation-counted sibling of [`ProjectionIndex`]: a multiset of
/// projection keys whose per-key count is a full [`GenValue`] history
/// instead of a single `u32`.
///
/// This is what lets one catalog serve snapshot reads *during* writes: a
/// writer commits generation `g+1` by stamping new counts at `g+1`
/// ([`VersionedIndex::add`] / [`VersionedIndex::remove`]), while a reader
/// pinned at `g` keeps probing [`VersionedIndex::count_at`]`(key, g)` and
/// observes the exact pre-commit counts. Both mutators return the
/// post-operation count at the head, so callers react to the `0 ↔ 1`
/// transitions that flip a constraint between satisfied and violated.
///
/// Space discipline: histories are pruned against the snapshot watermark
/// on every touch, and [`VersionedIndex::vacuum`] evicts keys whose entire
/// observable history is zero. Between vacuums a dead key costs one map
/// entry — the price of readers being allowed to lag.
#[derive(Debug, Clone, Default)]
pub struct VersionedIndex {
    counts: FastMap<Vec<u32>, GenValue>,
}

impl VersionedIndex {
    /// An empty index.
    pub fn new() -> Self {
        VersionedIndex::default()
    }

    /// The count of `key` as of generation `gen` (zero when absent).
    pub fn count_at(&self, key: &[u32], gen: u64) -> u32 {
        self.counts.get(key).map_or(0, |g| g.at(gen))
    }

    /// The count of `key` at the newest generation (zero when absent).
    pub fn latest(&self, key: &[u32]) -> u32 {
        self.counts.get(key).map_or(0, GenValue::latest)
    }

    /// Add one reference to `key`, stamped at `gen`; returns the count
    /// after the add (so `1` means the key just became present at `gen`).
    pub fn add(&mut self, key: &[u32], gen: u64, watermark: u64) -> u32 {
        match self.counts.get_mut(key) {
            Some(g) => {
                let c = g.latest() + 1;
                g.set(gen, c, watermark);
                c
            }
            None => {
                let mut g = GenValue::default();
                g.set(gen, 1, watermark);
                self.counts.insert(key.to_vec(), g);
                1
            }
        }
    }

    /// Drop one reference to `key`, stamped at `gen`; returns the count
    /// after the drop (so `0` means the key just disappeared at `gen`).
    /// Removing an absent key is a logic error upstream; it debug-panics
    /// and returns `0` in release.
    pub fn remove(&mut self, key: &[u32], gen: u64, watermark: u64) -> u32 {
        match self.counts.get_mut(key) {
            Some(g) if g.latest() > 0 => {
                let c = g.latest() - 1;
                g.set(gen, c, watermark);
                c
            }
            _ => {
                debug_assert!(false, "removed a key that was never added");
                0
            }
        }
    }

    /// Stamp an explicit count for `key` at `gen` (used for 0/1-valued
    /// membership and violation flags).
    pub fn set(&mut self, key: &[u32], gen: u64, value: u32, watermark: u64) {
        match self.counts.get_mut(key) {
            Some(g) => g.set(gen, value, watermark),
            None => {
                if value == 0 {
                    return; // absent and zero: nothing to record
                }
                let mut g = GenValue::default();
                g.set(gen, value, watermark);
                self.counts.insert(key.to_vec(), g);
            }
        }
    }

    /// Iterate the keys whose count at generation `gen` is positive
    /// (arbitrary order).
    pub fn keys_at(&self, gen: u64) -> impl Iterator<Item = &Vec<u32>> {
        self.counts
            .iter()
            .filter(move |(_, g)| g.at(gen) > 0)
            .map(|(k, _)| k)
    }

    /// Iterate every key with its count as of generation `gen`, zero
    /// counts included (arbitrary order) — the enumeration primitive
    /// violation reporting filters over.
    pub fn iter_at(&self, gen: u64) -> impl Iterator<Item = (&Vec<u32>, u32)> {
        self.counts.iter().map(move |(k, g)| (k, g.at(gen)))
    }

    /// Prune every history against `watermark` and evict keys left with no
    /// observable nonzero count. `O(keys)` — run occasionally, not per
    /// commit.
    pub fn vacuum(&mut self, watermark: u64) {
        self.counts.retain(|_, g| {
            g.prune(watermark);
            !g.is_dead()
        });
    }

    /// [`VersionedIndex::vacuum`] against the full pinned-generation set
    /// (see [`GenValue::prune_sparse`]): drops the history entries between
    /// pins that a min-watermark prune would retain forever under a
    /// long-lived snapshot.
    pub fn vacuum_sparse(&mut self, pins: &[u64]) {
        self.counts.retain(|_, g| {
            g.prune_sparse(pins);
            !g.is_dead()
        });
    }

    /// Number of keys currently stored, dead histories included
    /// (diagnostics and tests; see [`VersionedIndex::vacuum`]).
    pub fn key_count(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_distinct_prevents_rehash_during_bulk_intake() {
        let n = 10_000;
        let mut vi = ValueInterner::new();
        vi.reserve_distinct(2 * n);
        let (int_cap, gen_cap) = vi.table_capacities();
        assert!(int_cap >= n && gen_cap >= n);
        // A merged-run-sized intake of mixed kinds: with the sized hint in
        // place, neither table may grow (capacity growth == a rehash).
        for i in 0..n as i64 {
            vi.intern(&Value::Int(i));
            vi.intern(&Value::Str(format!("s{i}").into()));
        }
        assert_eq!(
            vi.table_capacities(),
            (int_cap, gen_cap),
            "bulk intake rehashed a table despite the sized hint"
        );
        // Contrast: the row-compiler `reserve` leaves the general table
        // unsized, so the same intake without `reserve_distinct` *does*
        // grow it — the bug the sized-hint intake exists to fix.
        let mut unsized_vi = ValueInterner::new();
        unsized_vi.reserve(2 * n);
        let (_, gen_before) = unsized_vi.table_capacities();
        for i in 0..n as i64 {
            unsized_vi.intern(&Value::Str(format!("s{i}").into()));
        }
        let (_, gen_after) = unsized_vi.table_capacities();
        assert!(gen_after > gen_before);
    }

    #[test]
    fn interner_roundtrip_and_lookup() {
        let mut vi = ValueInterner::new();
        let a = vi.intern(&Value::Int(7));
        let b = vi.intern(&Value::str("x"));
        assert_eq!(vi.intern(&Value::Int(7)), a);
        assert_ne!(a, b);
        assert_eq!(vi.len(), 2);
        assert_eq!(vi.resolve(a), &Value::Int(7));
        assert_eq!(vi.lookup(&Value::str("x")), Some(b));
        assert_eq!(vi.lookup(&Value::Int(8)), None);

        let row = vi.intern_row(&[Value::Int(7), Value::str("x")]);
        assert_eq!(
            vi.lookup_row(&[Value::Int(7), Value::str("x")]),
            Some(row.clone())
        );
        assert_eq!(vi.lookup_row(&[Value::Int(9)]), None);
        assert_eq!(vi.resolve_row(&row), vec![Value::Int(7), Value::str("x")]);
    }

    #[test]
    fn compiled_rows_share_one_interner() {
        use crate::database::Database;
        use crate::schema::DatabaseSchema;

        let schema = DatabaseSchema::parse(&["R(A, B)", "S(B)"]).unwrap();
        let mut db = Database::empty(schema);
        db.insert_ints("R", &[&[1, 2], &[3, 2]]).unwrap();
        db.insert_ints("S", &[&[2]]).unwrap();

        let compiled = CompiledRows::new(&db);
        assert_eq!(compiled.relation_count(), 2);
        assert_eq!(compiled.total_rows(), 3);
        // Values 1, 2, 3 — the shared 2 interned once.
        assert_eq!(compiled.distinct_values(), 3);
        let two = compiled.interner().lookup(&Value::Int(2)).unwrap();
        assert!(compiled.rows(0).iter().all(|row| row[1] == two));
        assert_eq!(compiled.rows(1), &[vec![two]]);
    }

    #[test]
    fn rowset_has_set_semantics() {
        let mut rs = RowSet::new();
        assert!(rs.insert(vec![1, 2]));
        assert!(!rs.insert(vec![1, 2]));
        assert!(rs.contains(&[1, 2]));
        assert_eq!(rs.len(), 1);
        assert!(rs.remove(&[1, 2]));
        assert!(!rs.remove(&[1, 2]));
        assert!(rs.is_empty());
    }

    #[test]
    fn append_only_interner_never_recycles() {
        let mut vi = ValueInterner::new();
        assert!(vi.is_empty());
        let row = vi.intern_row(&[Value::Int(1), Value::Int(2)]);
        assert_eq!(row, vec![0, 1], "ids are dense, in interning order");
        // A fresh value gets the next slot; earlier ids keep resolving.
        let fresh = vi.intern(&Value::str("later"));
        assert_eq!(fresh, 2);
        assert_eq!(vi.resolve(row[0]), &Value::Int(1));
        assert_eq!(vi.lookup(&Value::Int(1)), Some(row[0]));
        // Re-interning existing values does not grow the table.
        vi.intern(&Value::Int(1));
        assert_eq!(vi.len(), 3);
    }

    #[test]
    fn gen_value_reads_as_of_any_generation() {
        let mut g = GenValue::default();
        assert_eq!(g.at(0), 0);
        assert_eq!(g.latest(), 0);
        g.set(3, 5, 0);
        g.set(7, 2, 0);
        g.set(7, 9, 0); // same-generation overwrite collapses
        assert_eq!(g.at(2), 0);
        assert_eq!(g.at(3), 5);
        assert_eq!(g.at(6), 5);
        assert_eq!(g.at(7), 9);
        assert_eq!(g.at(100), 9);
        assert_eq!(g.latest(), 9);
        assert_eq!(g.depth(), 2);
        // Pruning at watermark 7: the (3, 5) entry is unobservable.
        g.prune(7);
        assert_eq!(g.depth(), 1);
        assert_eq!(g.at(7), 9);
        // Readers at/above the watermark still see the same world; a read
        // below the watermark would be a protocol violation anyway.
        assert!(!g.is_dead());
        g.set(9, 0, 9);
        assert!(g.is_dead());
    }

    #[test]
    fn sparse_prune_keeps_exactly_what_pins_can_observe() {
        // An oscillating counter stamped at generations 1..=8.
        let mut g = GenValue::default();
        for gen in 1..=8u64 {
            g.set(gen, (gen % 2) as u32, 0);
        }
        assert_eq!(g.depth(), 8);
        // A pin at 3 and one at 6: every pinned read and every read at or
        // past the head must survive the prune; everything else may go.
        let before: Vec<u32> = [3u64, 6, 8, 100].iter().map(|&p| g.at(p)).collect();
        g.prune_sparse(&[3, 6]);
        let after: Vec<u32> = [3u64, 6, 8, 100].iter().map(|&p| g.at(p)).collect();
        assert_eq!(before, after);
        assert_eq!(g.depth(), 3, "entries at 3, 6, and the head remain");
        // No pins at all: only the newest entry is observable.
        g.prune_sparse(&[]);
        assert_eq!(g.depth(), 1);
        assert_eq!(g.at(100), 0);
    }

    #[test]
    fn sparse_vacuum_evicts_dead_keys_like_the_watermark_form() {
        let mut idx = VersionedIndex::new();
        assert_eq!(idx.add(&[1], 1, 0), 1);
        assert_eq!(idx.remove(&[1], 2, 0), 0);
        assert_eq!(idx.add(&[2], 2, 0), 1);
        // A pin at generation 1 keeps key [1] observable.
        idx.vacuum_sparse(&[1]);
        assert_eq!(idx.count_at(&[1], 1), 1);
        assert_eq!(idx.key_count(), 2);
        // Pin released: the dead key is evicted, the live one survives.
        idx.vacuum_sparse(&[]);
        assert_eq!(idx.key_count(), 1);
        assert_eq!(idx.latest(&[2]), 1);
    }

    #[test]
    fn versioned_index_serves_old_generations_during_writes() {
        let mut idx = VersionedIndex::new();
        assert_eq!(idx.add(&[1], 1, 0), 1);
        assert_eq!(idx.add(&[1], 2, 0), 2);
        assert_eq!(idx.add(&[2], 2, 0), 1);
        // A reader pinned at generation 1 sees the pre-commit counts.
        assert_eq!(idx.count_at(&[1], 1), 1);
        assert_eq!(idx.count_at(&[2], 1), 0);
        assert_eq!(idx.count_at(&[1], 2), 2);
        assert_eq!(idx.latest(&[2]), 1);
        // Removal stamps a new generation without disturbing old readers.
        assert_eq!(idx.remove(&[1], 3, 0), 1);
        assert_eq!(idx.remove(&[1], 4, 0), 0);
        assert_eq!(idx.count_at(&[1], 2), 2);
        assert_eq!(idx.count_at(&[1], 4), 0);
        let at2: Vec<_> = idx.keys_at(2).collect();
        assert_eq!(at2.len(), 2);
        let at4: Vec<_> = idx.keys_at(4).collect();
        assert_eq!(at4, vec![&vec![2]]);
        // Vacuum at watermark 4 evicts the dead key entirely.
        assert_eq!(idx.key_count(), 2);
        idx.vacuum(4);
        assert_eq!(idx.key_count(), 1);
        assert_eq!(idx.count_at(&[2], 4), 1);
    }

    #[test]
    fn versioned_index_set_skips_dead_zero_writes() {
        let mut idx = VersionedIndex::new();
        idx.set(&[7], 1, 0, 0); // absent + zero: not recorded
        assert_eq!(idx.key_count(), 0);
        idx.set(&[7], 2, 1, 0);
        idx.set(&[7], 3, 0, 0);
        assert_eq!(idx.count_at(&[7], 2), 1);
        assert_eq!(idx.count_at(&[7], 3), 0);
    }

    #[test]
    fn projection_index_refcounts() {
        let mut idx = ProjectionIndex::new();
        assert_eq!(idx.add(vec![1]), 1);
        assert_eq!(idx.add(vec![1]), 2);
        assert_eq!(idx.add(vec![2]), 1);
        assert_eq!(idx.count(&[1]), 2);
        assert_eq!(idx.count(&[2]), 1);
        assert_eq!(idx.count(&[3]), 0);
    }
}
