//! The sorted cell-record table: the one record layout a SELECT reads,
//! whichever structure answers it.
//!
//! A `CellTable` holds one aggregate record per cell, sorted by raw
//! cell id, struct-of-arrays: `u64` counts and per-column min/max/sum
//! flattened `cell × column`. Raw order is space-filling-curve order with
//! every ancestor adjacent to its descendants, so cells of mixed levels
//! sort into one table as naturally as cells of one level:
//!
//! * each aggregate-pyramid layer (`crate::pyramid`) is a table of one
//!   level;
//! * the [`crate::AggregateTrie`] (§3.6) is a table of the cached cells,
//!   at any level below its root.
//!
//! Both are probed through the one `seek`: covering cells arrive in
//! ascending raw order, so a probe scans a short window forward from the
//! previous position and binary-searches the tail only on a long jump.
//! The block's own records (`u32` counts plus base-data linkage) use the
//! same seek over their key column, and every record — pyramid, cached or
//! block — is folded into a result by the one [`CellRecord::combine_into`].

use crate::aggregate::{AggPlan, AggResult};
use gb_cell::CellId;

/// How far [`seek`] scans forward from its last position before
/// binary-searching the tail. Covering probes ascend with small gaps, so
/// a one-cache-line window catches nearly every probe.
const SEEK_WINDOW: usize = 8;

/// First index `i` with `keys[i] >= raw` in the sorted `keys`, searched
/// from `pos` (the previous probe's answer): a backward move restarts
/// with a binary search of the prefix, a forward move scans a short
/// window, then binary-searches the tail. The answer does not depend on
/// `pos`; only the cost does.
#[inline]
pub(crate) fn seek(keys: &[u64], pos: usize, raw: u64) -> usize {
    let pos = pos.min(keys.len());
    let before = &keys[..pos];
    if before.last().is_some_and(|&k| k >= raw) {
        // The stream moved backward (a new covering, an out-of-order probe).
        return before.partition_point(|&k| k < raw);
    }
    let end = keys.len().min(pos + SEEK_WINDOW);
    match keys[pos..end].iter().position(|&k| k >= raw) {
        Some(j) => pos + j,
        None => end + keys[end..].partition_point(|&k| k < raw),
    }
}

/// One cell's aggregate record: borrowed from a `CellTable` or from a
/// block's own records.
#[derive(Debug, Clone, Copy)]
pub struct CellRecord<'a> {
    pub count: u64,
    pub(crate) mins: &'a [f64],
    pub(crate) maxs: &'a [f64],
    pub(crate) sums: &'a [f64],
}

impl CellRecord<'_> {
    /// Fold this record into `result` through a compiled plan — the one
    /// single-record combine of every SELECT path, so a cache hit, a
    /// pyramid lookup and a scanned run of the same cell are bit-identical.
    #[inline]
    pub fn combine_into(&self, plan: &AggPlan, result: &mut AggResult) {
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

/// Cell records sorted by raw cell id (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CellTable {
    pub(crate) n_cols: usize,
    /// Raw cell ids, strictly ascending.
    pub(crate) keys: Vec<u64>,
    /// Tuples per cell. `u64`: coarse cells aggregate entire subtrees, so
    /// the block's per-cell `u32` bound does not apply.
    pub(crate) counts: Vec<u64>,
    /// Per-column minima, flattened `cell × column`.
    pub(crate) mins: Vec<f64>,
    /// Per-column maxima, flattened `cell × column`.
    pub(crate) maxs: Vec<f64>,
    /// Per-column sums, flattened `cell × column`.
    pub(crate) sums: Vec<f64>,
}

impl CellTable {
    /// An empty table for `n_cols` columns with room for `cap` records.
    pub(crate) fn with_capacity(n_cols: usize, cap: usize) -> CellTable {
        CellTable {
            n_cols,
            keys: Vec::with_capacity(cap),
            counts: Vec::with_capacity(cap),
            mins: Vec::with_capacity(cap * n_cols),
            maxs: Vec::with_capacity(cap * n_cols),
            sums: Vec::with_capacity(cap * n_cols),
        }
    }

    /// Number of records.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Record `i`.
    #[inline]
    pub(crate) fn record(&self, i: usize) -> CellRecord<'_> {
        let at = i * self.n_cols..(i + 1) * self.n_cols;
        CellRecord {
            count: self.counts[i],
            mins: &self.mins[at.clone()],
            maxs: &self.maxs[at.clone()],
            sums: &self.sums[at],
        }
    }

    /// The record of `raw`, seeking from `*pos`; leaves `*pos` at the
    /// seek's answer so the next ascending probe resumes there.
    #[inline]
    pub(crate) fn find_from(&self, pos: &mut usize, raw: u64) -> Option<CellRecord<'_>> {
        let i = seek(&self.keys, *pos, raw);
        *pos = i;
        (self.keys.get(i) == Some(&raw)).then(|| self.record(i))
    }

    /// A stateful probe for ascending probe streams.
    pub(crate) fn cursor(&self) -> FlatCursor<'_> {
        FlatCursor {
            table: self,
            pos: 0,
        }
    }

    /// Append `raw` with a copy of `record` — or the empty record (count
    /// 0) for `None`. `raw` must exceed every key already stored.
    pub(crate) fn push(&mut self, raw: u64, record: Option<CellRecord<'_>>) {
        debug_assert!(self.keys.last().is_none_or(|&k| k < raw));
        self.keys.push(raw);
        self.counts.push(0);
        let c = self.n_cols;
        self.mins.resize(self.mins.len() + c, 0.0);
        self.maxs.resize(self.maxs.len() + c, 0.0);
        self.sums.resize(self.sums.len() + c, 0.0);
        self.write(self.keys.len() - 1, record);
    }

    /// Overwrite record `i` with `record`, or with the empty record.
    pub(crate) fn write(&mut self, i: usize, record: Option<CellRecord<'_>>) {
        let at = i * self.n_cols..(i + 1) * self.n_cols;
        let (mins, maxs, sums) = (
            &mut self.mins[at.clone()],
            &mut self.maxs[at.clone()],
            &mut self.sums[at],
        );
        self.counts[i] = match record {
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

    /// Heap bytes: key (8) + count (8) + 3 × 8 per column, per record.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.keys.len() * (16 + 24 * self.n_cols)
    }

    /// Feed keys, counts and the min/max/sum columns (floats by bit
    /// pattern) into `h`.
    pub(crate) fn hash_into(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.keys.hash(h);
        self.counts.hash(h);
        for v in self.mins.iter().chain(&self.maxs).chain(&self.sums) {
            v.to_bits().hash(h);
        }
    }

    /// Structural validation of an untrusted (snapshot-decoded) table:
    /// array lengths, well-formed strictly ascending cell ids.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.keys.len();
        if self.counts.len() != n {
            return Err(format!("{} counts for {n} keys", self.counts.len()));
        }
        let nc = n * self.n_cols;
        if self.mins.len() != nc || self.maxs.len() != nc || self.sums.len() != nc {
            return Err(format!("aggregate arrays must hold {nc} values"));
        }
        if !self.keys.windows(2).all(|w| w.first() < w.get(1)) {
            return Err("keys not strictly ascending".into());
        }
        match self
            .keys
            .iter()
            .find(|&&k| CellId::try_from_raw(k).is_none())
        {
            Some(k) => Err(format!("malformed cell id {k:#x}")),
            None => Ok(()),
        }
    }
}

/// A stateful probe over a `CellTable` for ascending probe streams
/// (covering cells arrive sorted by raw id): each lookup `seek`s from
/// the previous answer. Any probe order is correct — out-of-order probes
/// just pay a binary search.
#[derive(Debug)]
pub struct FlatCursor<'a> {
    table: &'a CellTable,
    /// Where the previous probe landed.
    pos: usize,
}

impl<'a> FlatCursor<'a> {
    /// The record of `cell`, if the table holds one.
    #[inline]
    pub fn lookup(&mut self, cell: CellId) -> Option<CellRecord<'a>> {
        self.table.find_from(&mut self.pos, cell.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_is_a_lower_bound_from_any_position() {
        let keys: Vec<u64> = (0..40).map(|i| 10 + 3 * i).collect();
        for raw in 0..140 {
            let want = keys.partition_point(|&k| k < raw);
            for pos in [0, 1, 5, 17, 39, 40, 99] {
                assert_eq!(seek(&keys, pos, raw), want, "raw {raw} from {pos}");
            }
        }
        assert_eq!(seek(&[], 3, 7), 0);
    }

    #[test]
    fn push_write_and_find() {
        let mut t = CellTable::with_capacity(1, 0);
        let rec = |count, v: &'static [f64]| CellRecord {
            count,
            mins: v,
            maxs: v,
            sums: v,
        };
        let root = CellId::from_leaf_pos(0).parent_at(3);
        let mut cells = [root.child(2), root, root.child(0).child(1)];
        cells.sort_unstable();
        for (n, cell) in cells.iter().enumerate() {
            t.push(cell.raw(), Some(rec(n as u64 + 1, &[1.0])));
        }
        let at_root = t.keys.binary_search(&root.raw()).unwrap();
        t.write(at_root, None);
        assert_eq!(t.len(), 3);
        let empty = t.find_from(&mut 0, root.raw()).unwrap();
        assert_eq!((empty.count, empty.min(0)), (0, f64::INFINITY));
        let two = t.find_from(&mut 0, root.child(2).raw()).unwrap();
        assert_eq!(two.sum(0), 1.0);
        assert!(t.find_from(&mut 0, root.child(3).raw()).is_none());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_mangled_tables() {
        let mut t = CellTable::with_capacity(2, 2);
        let root = CellId::from_leaf_pos(0).parent_at(3);
        t.push(root.child(0).raw(), None);
        t.push(root.child(1).raw(), None);
        assert!(t.validate().is_ok());
        let mut bad = t.clone();
        bad.keys.swap(0, 1);
        assert!(bad.validate().is_err());
        let mut bad = t.clone();
        bad.sums.pop();
        assert!(bad.validate().is_err());
        let mut bad = t;
        bad.keys[1] = 0;
        assert!(bad.validate().is_err());
    }
}
