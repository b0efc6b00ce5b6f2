//! The AggregateTrie: the query-driven aggregate cache (§3.6, Figure 7).
//!
//! A trie over cell ids where each trie level encodes exactly one cell
//! level (fanout 4). Nodes are two 32-bit offsets — a pointer to the first
//! of four contiguously-allocated children, and a pointer to the node's
//! cached aggregate record — exactly the paper's compact in-place encoding:
//! "Nodes consist of just two 32-bit integers. […] Since we store only the
//! offset to the first child, we need to always allocate space for all
//! children in a node."
//!
//! The root corresponds to the smallest cell enclosing the GeoBlock's data
//! ("typically just a small fraction of the possible earth-wide input
//! space"). Aggregate records are `count` plus per-column min/max/sum.
//!
//! **Read-side hot lane.** The node encoding is write-compact but the
//! per-cell [`AggregateTrie::node_for`] walk chases one pointer per
//! level — a dependent-load chain that dominates covering-sized probe
//! loops. Because every allocated node corresponds to exactly one cell
//! id, the trie also carries a *derived* read-side layout, built once at
//! publish time ([`AggregateTrie::build_flat_index`]): the raw ids of the
//! cells that carry a cached record, sorted ascending (raw order *is*
//! space-filling-curve order, so a covering's probe stream sweeps it
//! monotonically), with the record offset stored alongside. A
//! [`FlatCursor`] resolves each probe with a short forward scan from the
//! previous match: a cached hit costs ~one compare and never touches the
//! node array, and a cell absent from the lane is simply not cached. The
//! lane is pure acceleration state: cleared by structural mutation
//! ([`AggregateTrie::insert`]), preserved by in-place record rewrites
//! (which never reassign record offsets), excluded from
//! [`AggregateTrie::content_hash`] and the snapshot encoding, and not
//! counted by [`AggregateTrie::size_bytes`] (the Figure-18 budget
//! bounds the paper's node + record layout; the lane is reconstructible
//! from it). Lookups fall back to the walk whenever the lane is stale,
//! so the two paths are interchangeable — and a proptest holds them
//! equal.
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

use crate::block::CellRecord;
use gb_cell::{CellId, MAX_LEVEL};

/// Sentinel: no child block. Index 0 is always the root, so 0 is free.
const NO_CHILD: u32 = 0;
/// Sentinel: no cached aggregate.
const NO_AGG: u32 = u32::MAX;

/// One trie node: Figure 7's `(child offset, aggregate offset)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct TrieNode {
    first_child: u32,
    agg: u32,
}

/// Flat, borrow-friendly view of a trie for the snapshot encoder.
pub(crate) struct TrieRawParts<'a> {
    pub root_cell: CellId,
    pub n_cols: usize,
    pub first_children: Vec<u32>,
    pub aggs: Vec<u32>,
    pub agg_counts: &'a [u64],
    pub agg_values: &'a [f64],
}

/// How far a [`FlatCursor`] scans forward from its last position before
/// giving up and binary-searching. Covering probes arrive in ascending
/// raw order with small gaps, so a one-cache-line window catches nearly
/// every probe.
const FLAT_WINDOW: usize = 8;

/// The trie-shaped aggregate cache.
#[derive(Debug, Clone)]
pub struct AggregateTrie {
    root_cell: CellId,
    nodes: Vec<TrieNode>,
    n_cols: usize,
    /// Cached record counts (one per cached cell).
    agg_counts: Vec<u64>,
    /// Cached record payload, stride `3 × n_cols`: mins, then maxs, then
    /// sums (column-indexed within each third).
    agg_values: Vec<f64>,
    /// The hot lane: the raw ids of the cells whose node carries a
    /// cached aggregate, sorted ascending, with the record offset
    /// (`TrieNode::agg`) aligned index-for-index in `hot_aggs`. Raw order
    /// is curve order, so a covering's sorted probe stream advances
    /// through it monotonically. Record offsets stay valid across
    /// in-place record rewrites, which never reassign them. Built ⇔ it
    /// lists one entry per record (a stale lane is empty while records
    /// exist); stale ⇒ lookups walk.
    hot_keys: Vec<u64>,
    hot_aggs: Vec<u32>,
}

/// A stateful probe over the hot lane for ascending probe streams
/// (covering cells arrive sorted by raw id): each lookup scans one small
/// window forward from the previous match and only falls back to a full
/// binary search when the stream jumps. Any probe order is correct —
/// out-of-order probes just pay the binary search — and every answer
/// equals [`AggregateTrie::node_for`] + [`AggregateTrie::agg_of`].
#[derive(Debug)]
pub struct FlatCursor<'a> {
    trie: &'a AggregateTrie,
    /// Borrowed lane columns — one pointer hop shorter than going
    /// through `trie` on every probe.
    keys: &'a [u64],
    aggs: &'a [u32],
    /// Whether the lane is current; if not, every lookup walks.
    indexed: bool,
    /// Position of the previous match in the lane.
    pos: usize,
}

/// First index `i ≥ pos` (clamped) with `keys[i] >= raw`, assuming the
/// probe stream is usually ascending: scan a short window forward from
/// the previous match, binary-search the tail on a long forward jump,
/// and restart with a full binary search if the stream moved backward.
#[inline]
fn lower_bound_from(keys: &[u64], pos: usize, raw: u64) -> usize {
    // Resume forward only when the stream is still ascending past the
    // previous position; a backward jump (new covering, out-of-order
    // probe) or a position past the end restarts with a binary search.
    let resumable = matches!(keys.get(pos), Some(&k) if k <= raw);
    if !resumable {
        return keys.partition_point(|&key| key < raw);
    }
    let mut i = pos;
    let limit = keys.len().min(pos + FLAT_WINDOW);
    loop {
        match keys.get(i) {
            Some(&k) if k < raw => {
                i += 1;
                if i >= limit {
                    // Forward jump past the window: finish in the tail.
                    let tail = keys.get(i..).unwrap_or_default();
                    return i + tail.partition_point(|&key| key < raw);
                }
            }
            _ => return i,
        }
    }
}

impl<'a> FlatCursor<'a> {
    /// The cached aggregate of `cell`, if the trie holds one — straight
    /// from the hot lane (~one compare per probe on a sorted covering).
    pub fn lookup(&mut self, cell: CellId) -> Option<CachedAgg<'a>> {
        if !self.indexed {
            // No lane published: the walk is the source of truth.
            return self
                .trie
                .node_for(cell)
                .and_then(|node| self.trie.agg_of(node));
        }
        let raw = cell.raw();
        let i = lower_bound_from(self.keys, self.pos, raw);
        self.pos = i;
        match (self.keys.get(i), self.aggs.get(i)) {
            (Some(&key), Some(&agg)) if key == raw => Some(self.trie.agg_view(agg)),
            _ => None,
        }
    }
}

/// A cached aggregate record view.
#[derive(Debug, Clone, Copy)]
pub struct CachedAgg<'a> {
    pub count: u64,
    mins: &'a [f64],
    maxs: &'a [f64],
    sums: &'a [f64],
}

impl CachedAgg<'_> {
    /// Fold this cached record into `result` through a compiled plan —
    /// the same single-record combine the pyramid path performs, so a
    /// trie hit and a pyramid lookup of the same cell are bit-identical.
    #[inline]
    pub fn combine_into(&self, plan: &crate::aggregate::AggPlan, result: &mut crate::AggResult) {
        result.combine_record_plan(plan, self.count, self.mins, self.maxs, self.sums);
    }

    #[inline]
    pub fn min(&self, col: usize) -> f64 {
        self.mins[col]
    }

    #[inline]
    pub fn max(&self, col: usize) -> f64 {
        self.maxs[col]
    }

    #[inline]
    pub fn sum(&self, col: usize) -> f64 {
        self.sums[col]
    }
}

impl AggregateTrie {
    /// An empty trie rooted at `root_cell` for `n_cols` columns.
    pub fn new(root_cell: CellId, n_cols: usize) -> Self {
        AggregateTrie {
            root_cell,
            nodes: vec![TrieNode {
                first_child: NO_CHILD,
                agg: NO_AGG,
            }],
            n_cols,
            agg_counts: Vec::new(),
            agg_values: Vec::new(),
            hot_keys: Vec::new(),
            hot_aggs: Vec::new(),
        }
    }

    /// The cell the root node represents.
    #[inline]
    pub fn root_cell(&self) -> CellId {
        self.root_cell
    }

    /// Number of cached aggregates.
    #[inline]
    pub fn num_cached(&self) -> usize {
        self.agg_counts.len()
    }

    /// Number of allocated nodes (including the root and empty slots in
    /// child blocks — the paper's encoding always allocates all four).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes of one aggregate record: count + 3 × n_cols values.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        8 + 24 * self.n_cols
    }

    /// Total cache footprint: 8 bytes per node + record storage — the
    /// quantity bounded by the Figure-18 aggregate threshold.
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * 8 + self.agg_counts.len() * self.record_bytes()
    }

    /// A stateful probe for sorted probe streams — the covering loop's
    /// lookup path (the engine's SELECT probes covering cells in
    /// ascending raw order, so consecutive lookups resolve from one
    /// forward cache-line scan instead of a full search).
    pub fn flat_cursor(&self) -> FlatCursor<'_> {
        FlatCursor {
            trie: self,
            keys: &self.hot_keys,
            aggs: &self.hot_aggs,
            indexed: self.has_flat_index(),
            pos: 0,
        }
    }

    /// Index of the trie node for `cell`, if the path exists: the
    /// per-level pointer walk, and the reference [`FlatCursor::lookup`]
    /// is benchmarked and property-tested against.
    pub fn node_for(&self, cell: CellId) -> Option<u32> {
        if !self.root_cell.contains(cell) {
            return None;
        }
        let mut cur = 0u32;
        for level in (self.root_cell.level() + 1)..=cell.level() {
            let first = self.nodes[cur as usize].first_child;
            if first == NO_CHILD {
                return None;
            }
            cur = first + u32::from(cell.child_position(level));
        }
        Some(cur)
    }

    /// Whether the read-side hot lane is current.
    #[inline]
    pub fn has_flat_index(&self) -> bool {
        self.hot_keys.len() == self.agg_counts.len()
    }

    /// Every `(cell raw id, record offset)` pair the walk can reach, in
    /// no particular order: a DFS from the root that names each node by
    /// its cell.
    fn cached_cells(&self) -> Vec<(u64, u32)> {
        let mut pairs = Vec::with_capacity(self.agg_counts.len());
        let mut stack = vec![(0u32, self.root_cell)];
        while let Some((node, cell)) = stack.pop() {
            let Some(&TrieNode { first_child, agg }) = self.nodes.get(node as usize) else {
                continue;
            };
            if agg != NO_AGG {
                pairs.push((cell.raw(), agg));
            }
            if first_child != NO_CHILD && cell.level() < MAX_LEVEL {
                for k in 0..4u8 {
                    stack.push((first_child + u32::from(k), cell.child(k)));
                }
            }
        }
        pairs
    }

    /// (Re)build the read-side hot lane from the cached cells, sorted by
    /// raw id. Called at publish time (trie rebuild, snapshot load) so
    /// queries never pay the pointer walk.
    pub fn build_flat_index(&mut self) {
        let mut pairs = self.cached_cells();
        pairs.sort_unstable_by_key(|&(raw, _)| raw);
        self.hot_keys = pairs.iter().map(|&(raw, _)| raw).collect();
        self.hot_aggs = pairs.iter().map(|&(_, agg)| agg).collect();
    }

    /// The cached aggregate of a node, if present.
    pub fn agg_of(&self, node: u32) -> Option<CachedAgg<'_>> {
        let idx = self.nodes[node as usize].agg;
        (idx != NO_AGG).then(|| self.agg_view(idx))
    }

    fn agg_view(&self, idx: u32) -> CachedAgg<'_> {
        let c = self.n_cols;
        let base = idx as usize * 3 * c;
        CachedAgg {
            count: self.agg_counts[idx as usize],
            mins: &self.agg_values[base..base + c],
            maxs: &self.agg_values[base + c..base + 2 * c],
            sums: &self.agg_values[base + 2 * c..base + 3 * c],
        }
    }

    /// How many bytes inserting `cell` would add (missing child blocks plus
    /// the aggregate record). Returns `None` for cells outside the root.
    pub fn insertion_cost(&self, cell: CellId) -> Option<usize> {
        if !self.root_cell.contains(cell) {
            return None;
        }
        let mut missing_blocks = 0usize;
        let mut cur = 0u32;
        let mut detached = false;
        for level in (self.root_cell.level() + 1)..=cell.level() {
            if detached {
                missing_blocks += 1;
                continue;
            }
            let first = self.nodes[cur as usize].first_child;
            if first == NO_CHILD {
                missing_blocks += 1;
                detached = true;
            } else {
                cur = first + u32::from(cell.child_position(level));
            }
        }
        Some(missing_blocks * 4 * 8 + self.record_bytes())
    }

    /// Insert (or overwrite) the cached aggregate for `cell`.
    ///
    /// `mins`/`maxs`/`sums` must each have `n_cols` entries.
    pub fn insert(&mut self, cell: CellId, count: u64, mins: &[f64], maxs: &[f64], sums: &[f64]) {
        assert_eq!(mins.len(), self.n_cols);
        assert_eq!(maxs.len(), self.n_cols);
        assert_eq!(sums.len(), self.n_cols);
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
    /// touching the block.
    pub(crate) fn insert_record(&mut self, cell: CellId, record: Option<CellRecord<'_>>) {
        assert!(self.root_cell.contains(cell), "cell outside trie root");

        // Structural mutation may allocate nodes and records; drop the
        // derived lane and let the publisher rebuild it once after the
        // batch.
        self.hot_keys.clear();
        self.hot_aggs.clear();

        let mut cur = 0u32;
        for level in (self.root_cell.level() + 1)..=cell.level() {
            let first = self.nodes[cur as usize].first_child;
            let first = if first == NO_CHILD {
                let new_first = self.nodes.len() as u32;
                self.nodes.extend(
                    [TrieNode {
                        first_child: NO_CHILD,
                        agg: NO_AGG,
                    }; 4],
                );
                self.nodes[cur as usize].first_child = new_first;
                new_first
            } else {
                first
            };
            cur = first + u32::from(cell.child_position(level));
        }

        let node = &mut self.nodes[cur as usize];
        if node.agg == NO_AGG {
            node.agg = self.agg_counts.len() as u32;
            self.agg_counts.push(0);
            self.agg_values
                .resize(self.agg_values.len() + 3 * self.n_cols, 0.0);
        }
        let idx = node.agg;
        self.write_record(idx, record);
    }

    /// Re-copy every cached record from `record_of` (the block's
    /// canonical fold) in place. Structure and record offsets stay as
    /// they are, so the hot lane stays current.
    pub(crate) fn refresh_records<'r>(
        &mut self,
        record_of: impl Fn(CellId) -> Option<CellRecord<'r>>,
    ) {
        for (raw, agg) in self.cached_cells() {
            self.write_record(agg, record_of(CellId::from_raw(raw)));
        }
    }

    /// Overwrite record `idx` with `record`, or with the empty record.
    fn write_record(&mut self, idx: u32, record: Option<CellRecord<'_>>) {
        let c = self.n_cols;
        let idx = idx as usize;
        let base = idx * 3 * c;
        let (mins, rest) = self.agg_values[base..base + 3 * c].split_at_mut(c);
        let (maxs, sums) = rest.split_at_mut(c);
        self.agg_counts[idx] = match record {
            Some(r) => {
                mins.copy_from_slice(r.mins);
                maxs.copy_from_slice(r.maxs);
                sums.copy_from_slice(r.sums);
                r.count
            }
            None => {
                mins.fill(f64::INFINITY);
                maxs.fill(f64::NEG_INFINITY);
                sums.fill(0.0);
                0
            }
        };
    }

    /// A digest over the whole trie (structure + cached records, floats
    /// by bit pattern) — the cache-side counterpart of
    /// [`crate::GeoBlock::content_hash`], used by the persistence
    /// round-trip gate to prove a loaded cache is bit-identical.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = gb_common::FxHasher::default();
        self.root_cell.raw().hash(&mut h);
        self.n_cols.hash(&mut h);
        for n in &self.nodes {
            n.first_child.hash(&mut h);
            n.agg.hash(&mut h);
        }
        self.agg_counts.hash(&mut h);
        for v in &self.agg_values {
            v.to_bits().hash(&mut h);
        }
        h.finish()
    }

    /// Decompose into flat arrays for the snapshot encoder: per-node
    /// `first_child` and `agg` offsets, plus the aggregate storage.
    pub(crate) fn to_raw_parts(&self) -> TrieRawParts<'_> {
        TrieRawParts {
            root_cell: self.root_cell,
            n_cols: self.n_cols,
            first_children: self.nodes.iter().map(|n| n.first_child).collect(),
            aggs: self.nodes.iter().map(|n| n.agg).collect(),
            agg_counts: &self.agg_counts,
            agg_values: &self.agg_values,
        }
    }

    /// Rebuild a trie from flat arrays (the snapshot decoder), validating
    /// the structure so corrupt input yields an error instead of
    /// out-of-bounds panics at query time.
    pub(crate) fn from_raw_parts(
        root_cell: CellId,
        n_cols: usize,
        first_children: Vec<u32>,
        aggs: Vec<u32>,
        agg_counts: Vec<u64>,
        agg_values: Vec<f64>,
    ) -> Result<AggregateTrie, String> {
        let n = first_children.len();
        if aggs.len() != n {
            return Err("trie node arrays disagree in length".into());
        }
        if n == 0 || !(n - 1).is_multiple_of(4) {
            return Err(format!("trie node count {n} is not 1 + 4k"));
        }
        let n_aggs = agg_counts.len();
        if agg_values.len() != n_aggs * 3 * n_cols {
            return Err(format!(
                "trie aggregate storage must hold {} values, found {}",
                n_aggs * 3 * n_cols,
                agg_values.len()
            ));
        }
        for (i, &fc) in first_children.iter().enumerate() {
            if fc == NO_CHILD {
                continue;
            }
            let fc = fc as usize;
            // Child blocks are quartets appended after the root, so a
            // valid pointer is 1 + 4m with the whole quartet in bounds.
            if fc < 1 || !(fc - 1).is_multiple_of(4) || fc + 4 > n {
                return Err(format!("trie node {i} has invalid child pointer {fc}"));
            }
        }
        for (i, &a) in aggs.iter().enumerate() {
            if a != NO_AGG && a as usize >= n_aggs {
                return Err(format!("trie node {i} points past the aggregate storage"));
            }
        }
        let nodes = first_children
            .into_iter()
            .zip(aggs)
            .map(|(first_child, agg)| TrieNode { first_child, agg })
            .collect();
        let mut trie = AggregateTrie {
            root_cell,
            nodes,
            n_cols,
            agg_counts,
            agg_values,
            hot_keys: Vec::new(),
            hot_aggs: Vec::new(),
        };
        // Snapshot loads are publish points: hand queries the flat path.
        trie.build_flat_index();
        Ok(trie)
    }

    /// Apply one new tuple to every cached ancestor of `leaf` (the §5
    /// update path: "we can do this in a single depth-first traversal").
    ///
    /// Paper-literal variant with no engine caller: adding tuples to
    /// cached sums reassociates them, so the engine re-copies records
    /// from the block instead (`AggregateTrie::refresh_records`).
    pub fn update_along_path(&mut self, leaf: CellId, values: &[f64]) {
        assert_eq!(values.len(), self.n_cols);
        if !self.root_cell.contains(leaf) {
            return;
        }
        let c = self.n_cols;
        let mut cur = 0u32;
        let mut level = self.root_cell.level();
        loop {
            let agg = self.nodes[cur as usize].agg;
            if agg != NO_AGG {
                let idx = agg as usize;
                self.agg_counts[idx] += 1;
                let base = idx * 3 * c;
                // `col` addresses three interleaved thirds of one record.
                #[allow(clippy::needless_range_loop)]
                for col in 0..c {
                    let v = values[col];
                    if v < self.agg_values[base + col] {
                        self.agg_values[base + col] = v;
                    }
                    if v > self.agg_values[base + c + col] {
                        self.agg_values[base + c + col] = v;
                    }
                    self.agg_values[base + 2 * c + col] += v;
                }
            }
            if level >= leaf.level() {
                break;
            }
            level += 1;
            let first = self.nodes[cur as usize].first_child;
            if first == NO_CHILD {
                break;
            }
            cur = first + u32::from(leaf.child_position(level));
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
        assert!(t.node_for(root()).is_some());
        assert!(t.agg_of(t.node_for(root()).unwrap()).is_none());
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = AggregateTrie::new(root(), 2);
        let cell = root().child(2).child(1);
        let (mins, maxs, sums) = sample_record();
        t.insert(cell, 7, &mins, &maxs, &sums);
        let node = t.node_for(cell).expect("path exists");
        let agg = t.agg_of(node).expect("agg cached");
        assert_eq!(agg.count, 7);
        assert_eq!(agg.min(0), 1.0);
        assert_eq!(agg.max(1), 5.0);
        assert_eq!(agg.sum(0), 30.0);
        // Interior path node exists but carries no aggregate.
        let mid = t.node_for(root().child(2)).unwrap();
        assert!(t.agg_of(mid).is_none());
        // Sibling exists structurally (block allocation) but is empty.
        let sib = t.node_for(root().child(2).child(3)).unwrap();
        assert!(t.agg_of(sib).is_none());
    }

    #[test]
    fn lookup_misses() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        // No path below child(1).
        assert!(t.node_for(root().child(1).child(0)).is_none());
        // Outside the root entirely.
        let outside = root().next();
        assert!(t.node_for(outside).is_none());
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
        t.insert(cell, 9, &[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(t.num_cached(), 1);
        let agg = t.agg_of(t.node_for(cell).unwrap()).unwrap();
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
        let r = t.agg_of(t.node_for(root()).unwrap()).unwrap();
        assert_eq!(r.count, 11);
        assert_eq!(r.max(0), 9.0);
        assert_eq!(r.sum(0), 29.0);
        let c = t.agg_of(t.node_for(root().child(1)).unwrap()).unwrap();
        assert_eq!(c.count, 5);
        assert_eq!(c.sum(0), 17.0);
        // A leaf below child(0): only the root updates.
        let leaf0 = root().child(0).child_begin(30);
        t.update_along_path(leaf0, &[-3.0]);
        let r = t.agg_of(t.node_for(root()).unwrap()).unwrap();
        assert_eq!(r.count, 12);
        assert_eq!(r.min(0), -3.0);
        let c = t.agg_of(t.node_for(root().child(1)).unwrap()).unwrap();
        assert_eq!(c.count, 5, "sibling path untouched");
    }

    #[test]
    fn flat_index_matches_walk_and_survives_updates() {
        let mut t = AggregateTrie::new(root(), 1);
        assert!(t.has_flat_index(), "a fresh trie is indexed");
        t.insert(root().child(2).child(1), 7, &[1.0], &[2.0], &[3.0]);
        assert!(!t.has_flat_index(), "insert clears the derived index");
        t.insert(root().child(0), 1, &[0.0], &[0.0], &[0.0]);
        t.build_flat_index();
        assert!(t.has_flat_index());
        // Every allocated node, plus misses inside and outside the root,
        // agree between the two paths.
        let probes = [
            root(),
            root().child(0),
            root().child(1),
            root().child(2),
            root().child(2).child(1),
            root().child(2).child(3),
            root().child(1).child(0),          // no path
            root().child(2).child(1).child(0), // below a leaf
            root().next(),                     // outside the root
            root().parent_at(2),               // above the root
        ];
        let mut cursor = t.flat_cursor();
        for cell in probes {
            let via_walk = t.node_for(cell).and_then(|n| t.agg_of(n)).map(|a| a.count);
            let via_lane = cursor.lookup(cell).map(|a| a.count);
            assert_eq!(via_lane, via_walk, "{cell:?}");
        }
        // In-place aggregate updates keep the lane current.
        t.update_along_path(root().child(2).child(1).child_begin(30), &[9.0]);
        assert!(t.has_flat_index());
        let agg = t.flat_cursor().lookup(root().child(2).child(1)).unwrap();
        assert_eq!(agg.count, 8);
    }

    #[test]
    fn refresh_records_recopies_in_place() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root().child(1), 4, &[1.0], &[4.0], &[8.0]);
        t.insert(root().child(2), 2, &[0.5], &[0.5], &[1.0]);
        t.build_flat_index();
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
        assert!(t.has_flat_index(), "no structural change");
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
    fn flat_index_is_invisible_to_hash_and_size() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root().child(1), 3, &[1.0], &[1.0], &[1.0]);
        let (h0, s0) = (t.content_hash(), t.size_bytes());
        t.build_flat_index();
        assert_eq!(t.content_hash(), h0);
        assert_eq!(t.size_bytes(), s0);
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
