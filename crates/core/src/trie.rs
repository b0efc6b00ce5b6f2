//! The AggregateTrie: the query-driven aggregate cache (§3.6, Figure 7).
//!
//! The cache holds one aggregate record (count plus per-column
//! min/max/sum) per cached cell, for cells of any level below its root —
//! the smallest cell enclosing the GeoBlock's data ("typically just a
//! small fraction of the possible earth-wide input space"). In memory the
//! trie *is* its cell set: one `CellTable` sorted by raw id, the layout
//! every pyramid layer uses too. Raw order is curve order, so a
//! covering's ascending probe stream sweeps the table monotonically and
//! a [`FlatCursor`] resolves each probe with a short forward scan — the
//! same seek the pyramid layers and the block's records use.
//!
//! **The paper's layout is arithmetic.** Figure 7 encodes the trie as
//! nodes of two 32-bit offsets, allocating the four children of a node
//! together: "Since we store only the offset to the first child, we need
//! to always allocate space for all children in a node." That layout is
//! a function of the cell set: a cell below the root owns a child quartet
//! exactly when some cached cell lies strictly below it. So the Figure-18
//! byte budget is computed, not stored — [`AggregateTrie::size_bytes`] is
//! 8 × (1 + 4 × quartets) + records × record bytes. The one place that
//! prices and counts quartets is `TrieBuilder`, which keeps the quartet
//! set only while a trie is built: a budgeted rebuild uses it, so it
//! picks exactly the cells the paper's allocator would, and
//! [`AggregateTrie::insertion_cost`] / [`AggregateTrie::insert`] go
//! through a builder seeded with the cached cells. The snapshot `TRIE` section keeps the node arrays:
//! the encoder lays them out from the sorted table in one canonical
//! order (cells inserted in ascending raw order), and the decoder
//! validates a stored layout and collects its `(cell, record)` pairs.
//!
//! **Records are copies.** The engine fills every cached record from the
//! block's canonical fold (`GeoBlock::cell_record`: a pyramid layer
//! record, or the block's own record at the block level) when it
//! rebuilds the trie, and re-copies all of them after every update
//! batch (`AggregateTrie::refresh_records`). A cached record is thus
//! always bit-equal to what the pyramid path would combine for the same
//! cell. [`AggregateTrie::update_along_path`] — §5's in-place walk, which
//! adds each new tuple to the cached sums and so reassociates them — is
//! kept as the paper-literal variant; no engine path calls it.

use crate::table::{seek, CellRecord, CellTable, FlatCursor};
use gb_cell::{CellId, MAX_LEVEL};
use gb_common::FxHashSet;

/// Figure 7 sentinel: no child quartet. Index 0 is always the root.
const NO_CHILD: u32 = 0;
/// Figure 7 sentinel: no cached aggregate.
const NO_AGG: u32 = u32::MAX;
/// Bytes of one Figure-7 node: two 32-bit offsets.
const NODE_BYTES: usize = 8;

/// Bytes of one cached record: count + 3 × `n_cols` values.
fn record_bytes(n_cols: usize) -> usize {
    8 + 24 * n_cols
}

/// The Figure-7 footprint of `records` cached cells whose layout holds
/// `quartets` child quartets: the root node, four nodes per quartet, and
/// the record storage.
fn layout_bytes(quartets: usize, records: usize, n_cols: usize) -> usize {
    NODE_BYTES * (1 + 4 * quartets) + records * record_bytes(n_cols)
}

/// The `TRIE` snapshot section: Figure 7's node arrays (per node, the
/// offset of its first child and of its record) plus the records, each
/// stored as count and `mins ‖ maxs ‖ sums`.
pub(crate) struct TrieParts {
    pub root_cell: CellId,
    pub n_cols: usize,
    pub first_children: Vec<u32>,
    pub aggs: Vec<u32>,
    pub agg_counts: Vec<u64>,
    pub agg_values: Vec<f64>,
}

impl TrieParts {
    /// Digest of the parts as stored (floats by bit pattern), fed in the
    /// order the snapshot state hash has always used, so files written
    /// with any node order verify.
    pub(crate) fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = gb_common::FxHasher::default();
        self.root_cell.raw().hash(&mut h);
        self.n_cols.hash(&mut h);
        for (first_child, agg) in self.first_children.iter().zip(&self.aggs) {
            first_child.hash(&mut h);
            agg.hash(&mut h);
        }
        self.agg_counts.hash(&mut h);
        for v in &self.agg_values {
            v.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

/// The trie-shaped aggregate cache (see the module docs).
#[derive(Debug, Clone)]
pub struct AggregateTrie {
    root_cell: CellId,
    /// One record per cached cell, sorted by raw id.
    table: CellTable,
    /// Cells with a Figure-7 child quartet: those with a cached cell
    /// strictly below them.
    quartets: usize,
}

/// A trie under construction. It keeps the set of cells that own a
/// child quartet, so each insertion is priced exactly as the paper's
/// allocator would price it; [`TrieBuilder::finish`] drops the set and
/// sorts the chosen cells into the trie's table.
pub(crate) struct TrieBuilder {
    root_cell: CellId,
    n_cols: usize,
    quartets: FxHashSet<u64>,
    cells: Vec<u64>,
}

impl TrieBuilder {
    pub(crate) fn new(root_cell: CellId, n_cols: usize) -> TrieBuilder {
        TrieBuilder {
            root_cell,
            n_cols,
            quartets: FxHashSet::default(),
            cells: Vec::new(),
        }
    }

    /// A builder holding the cells of `trie`, to price or add more.
    fn of(trie: &AggregateTrie) -> TrieBuilder {
        let mut builder = TrieBuilder::new(trie.root_cell, trie.table.n_cols);
        for cell in trie.cells() {
            builder.insert(cell);
        }
        builder
    }

    /// [`AggregateTrie::size_bytes`] of the cells added so far.
    pub(crate) fn size_bytes(&self) -> usize {
        layout_bytes(self.quartets.len(), self.cells.len(), self.n_cols)
    }

    /// Bytes adding `cell` would add: the child quartets Figure 7
    /// allocates on the way down to it (one per ancestor from the root on
    /// that does not own one yet) plus the record. `None` outside the
    /// root.
    pub(crate) fn insertion_cost(&self, cell: CellId) -> Option<usize> {
        let root = self.root_cell;
        root.contains(cell).then(|| {
            let missing = (root.level()..cell.level())
                .filter(|&level| !self.quartets.contains(&cell.parent_at(level).raw()))
                .count();
            missing * 4 * NODE_BYTES + record_bytes(self.n_cols)
        })
    }

    /// Add `cell`, which must lie inside the root and not be added yet.
    pub(crate) fn insert(&mut self, cell: CellId) {
        for level in (self.root_cell.level()..cell.level()).rev() {
            if !self.quartets.insert(cell.parent_at(level).raw()) {
                break; // this ancestor, and so every coarser one, has its quartet
            }
        }
        self.cells.push(cell.raw());
    }

    /// The trie over the added cells, each record copied from
    /// `record_of` (`None` caches the empty record).
    pub(crate) fn finish<'r>(
        mut self,
        record_of: impl Fn(CellId) -> Option<CellRecord<'r>>,
    ) -> AggregateTrie {
        self.cells.sort_unstable();
        let mut table = CellTable::with_capacity(self.n_cols, self.cells.len());
        for &raw in &self.cells {
            table.push(raw, record_of(CellId::from_raw(raw)));
        }
        AggregateTrie {
            root_cell: self.root_cell,
            table,
            quartets: self.quartets.len(),
        }
    }
}

impl AggregateTrie {
    /// An empty trie rooted at `root_cell` for `n_cols` columns.
    pub fn new(root_cell: CellId, n_cols: usize) -> Self {
        TrieBuilder::new(root_cell, n_cols).finish(|_| None)
    }

    /// The cell the root node represents.
    #[inline]
    pub fn root_cell(&self) -> CellId {
        self.root_cell
    }

    /// Number of cached aggregates.
    #[inline]
    pub fn num_cached(&self) -> usize {
        self.table.len()
    }

    /// Number of Figure-7 nodes: the root plus four per child quartet
    /// (the paper's encoding always allocates all four children).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        1 + 4 * self.quartets
    }

    /// Bytes of one aggregate record: count + 3 × n_cols values.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        record_bytes(self.table.n_cols)
    }

    /// Total cache footprint in Figure 7's layout: 8 bytes per node +
    /// record storage — the quantity bounded by the Figure-18 aggregate
    /// threshold.
    pub fn size_bytes(&self) -> usize {
        layout_bytes(self.quartets, self.table.len(), self.table.n_cols)
    }

    /// The cached cells, in ascending raw order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.table.keys.iter().map(|&raw| CellId::from_raw(raw))
    }

    /// A stateful probe for sorted probe streams — the covering loop's
    /// lookup path (the engine's SELECT probes covering cells in
    /// ascending raw order, so consecutive lookups resolve from one
    /// forward cache-line scan instead of a full search).
    pub fn flat_cursor(&self) -> FlatCursor<'_> {
        self.table.cursor()
    }

    /// The cached aggregate of `cell`, if any: one stand-alone probe.
    pub fn get(&self, cell: CellId) -> Option<CellRecord<'_>> {
        self.table.find_from(&mut 0, cell.raw())
    }

    /// How many bytes inserting `cell` would add (missing child quartets
    /// plus the aggregate record). Returns `None` for cells outside the
    /// root. Prices through the same builder a budgeted rebuild uses.
    pub fn insertion_cost(&self, cell: CellId) -> Option<usize> {
        TrieBuilder::of(self).insertion_cost(cell)
    }

    /// Insert (or overwrite) the cached aggregate for `cell`.
    ///
    /// `mins`/`maxs`/`sums` must each have `n_cols` entries.
    pub fn insert(&mut self, cell: CellId, count: u64, mins: &[f64], maxs: &[f64], sums: &[f64]) {
        let n_cols = self.table.n_cols;
        assert!(mins.len() == n_cols && maxs.len() == n_cols && sums.len() == n_cols);
        let record = CellRecord {
            count,
            mins,
            maxs,
            sums,
        };
        self.insert_record(cell, Some(record));
    }

    /// Insert (or overwrite) `cell` with a copy of `record`; `None` caches
    /// the empty record (count 0), which answers "no data here" without
    /// touching the block. A new cell rebuilds the trie through
    /// `TrieBuilder`, the one Figure-7 accounting.
    pub(crate) fn insert_record(&mut self, cell: CellId, record: Option<CellRecord<'_>>) {
        assert!(self.root_cell.contains(cell), "cell outside trie root");
        let i = seek(&self.table.keys, 0, cell.raw());
        if self.table.keys.get(i) == Some(&cell.raw()) {
            self.table.write(i, record);
            return;
        }
        let mut builder = TrieBuilder::of(self);
        builder.insert(cell);
        *self = builder.finish(|c| if c == cell { record } else { self.get(c) });
    }

    /// Re-copy every cached record from `record_of` (the block's
    /// canonical fold) in place.
    pub(crate) fn refresh_records<'r>(
        &mut self,
        record_of: impl Fn(CellId) -> Option<CellRecord<'r>>,
    ) {
        for i in 0..self.table.len() {
            let cell = CellId::from_raw(self.table.keys[i]);
            self.table.write(i, record_of(cell));
        }
    }

    /// A digest over the whole cache (root, Figure-7 layout, records;
    /// floats by bit pattern) — the digest of its canonical `TRIE`
    /// encoding, used by the persistence round-trip gate to prove a
    /// loaded cache is bit-identical. It depends on the cached cells and
    /// records only, not on the order they were inserted in.
    pub fn content_hash(&self) -> u64 {
        self.to_parts().content_hash()
    }

    /// The canonical `TRIE` encoding: the node arrays Figure 7's
    /// allocator produces when the cells are inserted in ascending raw
    /// order, record offsets equal to table positions.
    pub(crate) fn to_parts(&self) -> TrieParts {
        let t = &self.table;
        let mut first_children = vec![NO_CHILD];
        let mut aggs = vec![NO_AGG];
        for (i, &raw) in t.keys.iter().enumerate() {
            let cell = CellId::from_raw(raw);
            let mut node = 0usize;
            for level in (self.root_cell.level() + 1)..=cell.level() {
                if first_children[node] == NO_CHILD {
                    first_children[node] = first_children.len() as u32;
                    first_children.extend([NO_CHILD; 4]);
                    aggs.extend([NO_AGG; 4]);
                }
                node = first_children[node] as usize + usize::from(cell.child_position(level));
            }
            aggs[node] = i as u32;
        }
        let agg_values = (0..t.len())
            .flat_map(|i| {
                let r = t.record(i);
                r.mins.iter().chain(r.maxs).chain(r.sums).copied()
            })
            .collect();
        TrieParts {
            root_cell: self.root_cell,
            n_cols: t.n_cols,
            first_children,
            aggs,
            agg_counts: t.counts.clone(),
            agg_values,
        }
    }

    /// Decode a stored `TRIE` layout (any node order), validating it so
    /// corrupt input yields an error instead of a panic: a depth-first
    /// walk from the root must reach every node exactly once through
    /// in-bounds, quartet-aligned child offsets, and name every record
    /// exactly once.
    pub(crate) fn from_parts(parts: &TrieParts) -> Result<AggregateTrie, String> {
        let (root, c) = (parts.root_cell, parts.n_cols);
        let (first_children, aggs) = (&parts.first_children, &parts.aggs);
        let n = first_children.len();
        if aggs.len() != n {
            return Err("trie node arrays disagree in length".into());
        }
        if n == 0 || !(n - 1).is_multiple_of(4) {
            return Err(format!("trie node count {n} is not 1 + 4k"));
        }
        let n_aggs = parts.agg_counts.len();
        if parts.agg_values.len() != n_aggs * 3 * c {
            return Err(format!(
                "trie aggregate storage must hold {} values, found {}",
                n_aggs * 3 * c,
                parts.agg_values.len()
            ));
        }
        let mut reached = vec![false; n];
        let mut named = vec![false; n_aggs];
        let mut cells: Vec<(u64, usize)> = Vec::with_capacity(n_aggs);
        let mut stack = vec![(0usize, root)];
        while let Some((node, cell)) = stack.pop() {
            match reached.get_mut(node) {
                Some(seen) if !*seen => *seen = true,
                _ => return Err(format!("trie node {node} is reached twice")),
            }
            let agg = aggs[node];
            if agg != NO_AGG {
                match named.get_mut(agg as usize) {
                    Some(seen) if !*seen => *seen = true,
                    Some(_) => return Err(format!("trie record {agg} is named twice")),
                    None => {
                        return Err(format!(
                            "trie node {node} points past the aggregate storage"
                        ))
                    }
                }
                cells.push((cell.raw(), agg as usize));
            }
            let first = first_children[node] as usize;
            if first != NO_CHILD as usize {
                // Child quartets are appended after the root, so a valid
                // offset is 1 + 4m with the whole quartet in bounds.
                if !(first - 1).is_multiple_of(4) || first + 4 > n || cell.level() >= MAX_LEVEL {
                    return Err(format!(
                        "trie node {node} has invalid child pointer {first}"
                    ));
                }
                for k in 0..4u8 {
                    stack.push((first + usize::from(k), cell.child(k)));
                }
            }
        }
        if let Some(node) = reached.iter().position(|&seen| !seen) {
            return Err(format!("trie node {node} is unreachable"));
        }
        if cells.len() != n_aggs {
            return Err(format!(
                "trie stores {n_aggs} records but names {}",
                cells.len()
            ));
        }
        cells.sort_unstable();
        let mut builder = TrieBuilder::new(root, c);
        for &(raw, _) in &cells {
            builder.insert(CellId::from_raw(raw));
        }
        Ok(builder.finish(|cell| {
            let i = cells
                .binary_search_by_key(&cell.raw(), |&(raw, _)| raw)
                .ok()?;
            let agg = cells.get(i)?.1;
            let v = parts.agg_values.get(agg * 3 * c..(agg + 1) * 3 * c)?;
            let (mins, rest) = v.split_at(c);
            let (maxs, sums) = rest.split_at(c);
            Some(CellRecord {
                count: *parts.agg_counts.get(agg)?,
                mins,
                maxs,
                sums,
            })
        }))
    }

    /// Apply one new tuple to every cached ancestor of `leaf`, at levels
    /// from the root to the leaf (the §5 update path: "we can do this in
    /// a single depth-first traversal").
    ///
    /// Paper-literal variant with no engine caller: adding tuples to
    /// cached sums reassociates them, so the engine re-copies records
    /// from the block instead (`AggregateTrie::refresh_records`).
    pub fn update_along_path(&mut self, leaf: CellId, values: &[f64]) {
        let c = self.table.n_cols;
        assert_eq!(values.len(), c);
        if !self.root_cell.contains(leaf) {
            return;
        }
        // The cached cells at or below each ancestor are one key range,
        // nested inside the previous ancestor's: narrow it level by level
        // and stop once it is empty.
        let t = &mut self.table;
        let (mut lo, mut hi) = (0, t.keys.len());
        for level in self.root_cell.level()..=leaf.level() {
            let cell = leaf.parent_at(level);
            let (first, last) = (cell.range_min().raw(), cell.range_max().raw());
            let range = &t.keys[lo..hi];
            (lo, hi) = (
                lo + range.partition_point(|&k| k < first),
                lo + range.partition_point(|&k| k <= last),
            );
            if lo == hi {
                break;
            }
            let Ok(j) = t.keys[lo..hi].binary_search(&cell.raw()) else {
                continue;
            };
            let i = lo + j;
            t.counts[i] += 1;
            let at = i * c..(i + 1) * c;
            for (((min, max), sum), &v) in t.mins[at.clone()]
                .iter_mut()
                .zip(&mut t.maxs[at.clone()])
                .zip(&mut t.sums[at])
                .zip(values)
            {
                if v < *min {
                    *min = v;
                }
                if v > *max {
                    *max = v;
                }
                *sum += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> CellId {
        CellId::from_leaf_pos(0x1234 << 40).parent_at(4)
    }

    fn sample_record() -> ([f64; 2], [f64; 2], [f64; 2]) {
        ([1.0, -5.0], [10.0, 5.0], [30.0, 0.0])
    }

    #[test]
    fn empty_trie() {
        let t = AggregateTrie::new(root(), 2);
        assert_eq!(t.num_cached(), 0);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.size_bytes(), 8);
        assert!(t.get(root()).is_none());
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = AggregateTrie::new(root(), 2);
        let cell = root().child(2).child(1);
        let (mins, maxs, sums) = sample_record();
        t.insert(cell, 7, &mins, &maxs, &sums);
        let agg = t.get(cell).expect("agg cached");
        assert_eq!(agg.count, 7);
        assert_eq!(agg.min(0), 1.0);
        assert_eq!(agg.max(1), 5.0);
        assert_eq!(agg.sum(0), 30.0);
        // The path and the sibling carry no aggregate.
        assert!(t.get(root().child(2)).is_none());
        assert!(t.get(root().child(2).child(3)).is_none());
    }

    #[test]
    fn lookup_misses() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        assert!(t.get(root().child(1).child(0)).is_none());
        // Outside the root entirely.
        let outside = root().next();
        assert!(t.get(outside).is_none());
        assert!(t.insertion_cost(outside).is_none());
    }

    #[test]
    fn node_blocks_allocated_in_fours() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        assert_eq!(t.num_nodes(), 5); // root + one block of 4
        t.insert(root().child(3), 1, &mins, &maxs, &sums);
        assert_eq!(t.num_nodes(), 5); // sibling reuses the block
        t.insert(root().child(3).child(2), 1, &mins, &maxs, &sums);
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.to_parts().first_children.len(), 9);
    }

    #[test]
    fn insertion_cost_predicts_size_growth() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        let cell = root().child(1).child(1).child(1);
        let cost = t.insertion_cost(cell).unwrap();
        let before = t.size_bytes();
        t.insert(cell, 3, &mins, &maxs, &sums);
        assert_eq!(t.size_bytes(), before + cost);
        // Inserting a sibling now only costs the record.
        let sib = root().child(1).child(1).child(2);
        assert_eq!(t.insertion_cost(sib).unwrap(), t.record_bytes());
    }

    #[test]
    fn overwrite_replaces_record() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        let cell = root().child(2);
        t.insert(cell, 7, &mins, &maxs, &sums);
        let size = t.size_bytes();
        t.insert(cell, 9, &[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(t.num_cached(), 1);
        assert_eq!(t.size_bytes(), size);
        let agg = t.get(cell).unwrap();
        assert_eq!(agg.count, 9);
        assert_eq!(agg.sum(1), 2.0);
    }

    #[test]
    fn update_along_path_touches_cached_ancestors_only() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root(), 10, &[0.0], &[5.0], &[20.0]);
        t.insert(root().child(1), 4, &[1.0], &[4.0], &[8.0]);
        // A leaf below child(1): both cached records update.
        let leaf = root().child(1).child_begin(30);
        t.update_along_path(leaf, &[9.0]);
        let r = t.get(root()).unwrap();
        assert_eq!(r.count, 11);
        assert_eq!(r.max(0), 9.0);
        assert_eq!(r.sum(0), 29.0);
        let c = t.get(root().child(1)).unwrap();
        assert_eq!(c.count, 5);
        assert_eq!(c.sum(0), 17.0);
        // A leaf below child(0): only the root updates.
        let leaf0 = root().child(0).child_begin(30);
        t.update_along_path(leaf0, &[-3.0]);
        let r = t.get(root()).unwrap();
        assert_eq!(r.count, 12);
        assert_eq!(r.min(0), -3.0);
        let c = t.get(root().child(1)).unwrap();
        assert_eq!(c.count, 5, "sibling path untouched");
    }

    #[test]
    fn refresh_records_recopies_in_place() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root().child(1), 4, &[1.0], &[4.0], &[8.0]);
        t.insert(root().child(2), 2, &[0.5], &[0.5], &[1.0]);
        let (h0, s0) = (t.content_hash(), t.size_bytes());
        // Child 1 gains data, child 2 becomes empty.
        t.refresh_records(|cell| {
            (cell == root().child(1)).then_some(CellRecord {
                count: 5,
                mins: &[1.0],
                maxs: &[9.0],
                sums: &[17.0],
            })
        });
        assert_eq!(t.size_bytes(), s0);
        assert_ne!(t.content_hash(), h0);
        let mut cursor = t.flat_cursor();
        let one = cursor.lookup(root().child(1)).unwrap();
        assert_eq!((one.count, one.max(0), one.sum(0)), (5, 9.0, 17.0));
        let two = cursor.lookup(root().child(2)).unwrap();
        assert_eq!(two.count, 0);
        assert_eq!(two.min(0), f64::INFINITY);
    }

    #[test]
    fn parts_roundtrip_and_corrupt_layouts_are_errors() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root().child(3).child(1), 4, &[1.0], &[4.0], &[8.0]);
        t.insert(root().child(0), 2, &[0.5], &[0.5], &[1.0]);
        let back = AggregateTrie::from_parts(&t.to_parts()).unwrap();
        assert_eq!(back.content_hash(), t.content_hash());
        assert_eq!(back.size_bytes(), t.size_bytes());

        let mangle = |f: &dyn Fn(&mut TrieParts)| {
            let mut parts = t.to_parts();
            f(&mut parts);
            AggregateTrie::from_parts(&parts)
        };
        // A quartet reached from two parents (a DAG / cycle).
        assert!(mangle(&|p| p.first_children[2] = p.first_children[0]).is_err());
        // A record named twice, or past the storage.
        assert!(mangle(&|p| p.aggs[1] = p.aggs[4]).is_err());
        assert!(mangle(&|p| p.aggs[2] = 7).is_err());
        // A misaligned child offset, and an orphaned quartet.
        assert!(mangle(&|p| p.first_children[0] = 2).is_err());
        assert!(mangle(&|p| {
            p.first_children.extend([NO_CHILD; 4]);
            p.aggs.extend([NO_AGG; 4]);
        })
        .is_err());
        assert!(mangle(&|p| {
            p.agg_values.pop();
        })
        .is_err());
    }

    #[test]
    fn size_accounting_matches_paper_layout() {
        // 40-byte aggregates (Figure 7): count 8 B + 3 agg × 8 B... with
        // n_cols such that the record is comparable. For n_cols = 2:
        // 8 + 48 = 56 B per record, 8 B per node.
        let mut t = AggregateTrie::new(root(), 2);
        assert_eq!(t.record_bytes(), 56);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        assert_eq!(t.size_bytes(), 5 * 8 + 56);
    }
}
