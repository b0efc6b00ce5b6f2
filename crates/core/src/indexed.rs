//! Indexed cell-aggregate storage — the §5 alternative layout.
//!
//! "Other indexing approaches on the cell aggregates (e.g., a clustered
//! B-tree) could eliminate the need to rebuild by reserving storage for new
//! aggregates. Preliminary experiments using std::map and a B-tree as an
//! index showed similar lookup performance at the cost of increased size
//! overhead."
//!
//! [`IndexedBlock`] stores one aggregate record per cell in an ordered tree
//! keyed by the cell's spatial key. Queries use the same covering + range
//! machinery as the flat [`GeoBlock`]; updates for previously empty regions
//! are plain inserts — **no layout rebuild** — at the cost of per-record
//! allocation and pointer-chasing overhead (quantified by the
//! `storage_ablation` bench and the equivalence tests below).

use crate::aggregate::AggResult;
use crate::block::GeoBlock;
use crate::query::QueryStats;
use crate::update::{UpdateBatch, UpdateReport};
use gb_cell::{CellId, Grid};
use gb_data::{AggSpec, Schema};
use gb_geom::Polygon;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One cell's aggregate record in the indexed layout.
#[derive(Debug, Clone)]
struct CellRecord {
    count: u64,
    key_min: u64,
    key_max: u64,
    /// Per-column `[mins… maxs… sums…]`, stride = 3 × n_cols.
    cols: Box<[f64]>,
}

/// A GeoBlock variant whose cell aggregates live in an ordered index
/// instead of a sorted array.
#[derive(Debug, Clone)]
pub struct IndexedBlock {
    grid: Grid,
    level: u8,
    schema: Schema,
    cells: BTreeMap<u64, CellRecord>,
    n_rows: u64,
}

impl IndexedBlock {
    /// Convert a flat GeoBlock into the indexed layout.
    pub fn from_block(block: &GeoBlock) -> IndexedBlock {
        let c = block.schema().len();
        let mut cells = BTreeMap::new();
        for i in 0..block.num_cells() {
            let base = i * c;
            let mut cols = Vec::with_capacity(3 * c);
            cols.extend_from_slice(&block.mins[base..base + c]);
            cols.extend_from_slice(&block.maxs[base..base + c]);
            cols.extend_from_slice(&block.sums[base..base + c]);
            cells.insert(
                block.keys[i],
                CellRecord {
                    count: u64::from(block.counts[i]),
                    key_min: block.key_mins[i],
                    key_max: block.key_maxs[i],
                    cols: cols.into_boxed_slice(),
                },
            );
        }
        IndexedBlock {
            grid: *block.grid(),
            level: block.level(),
            schema: block.schema().clone(),
            cells,
            n_rows: block.num_rows(),
        }
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total tuples aggregated.
    pub fn num_rows(&self) -> u64 {
        self.n_rows
    }

    /// The block level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Approximate heap bytes — per-record allocations and tree nodes make
    /// this larger than the flat layout's (§5 "increased size overhead").
    pub fn memory_bytes(&self) -> usize {
        let record = 8 // map key
            + std::mem::size_of::<CellRecord>()
            + 3 * 8 * self.schema.len();
        // ~1.3× for B-tree node slack/internal nodes.
        (self.cells.len() * record) * 13 / 10
    }

    /// SELECT with the same covering semantics as [`GeoBlock::select`].
    pub fn select(&self, polygon: &Polygon, spec: &AggSpec) -> (AggResult, QueryStats) {
        let covering = gb_cell::cover_polygon(
            &self.grid,
            polygon,
            gb_cell::CovererOptions::at_level(self.level),
        );
        let mut result = AggResult::new(spec);
        let mut stats = QueryStats::default();
        let c = self.schema.len();
        for qcell in covering.iter() {
            stats.query_cells += 1;
            stats.searches += 1;
            let lo = qcell.range_min().raw();
            let hi = qcell.range_max().raw();
            for (_, rec) in self.cells.range((Bound::Included(lo), Bound::Included(hi))) {
                result.combine_record(
                    spec,
                    rec.count,
                    |col| rec.cols[col],
                    |col| rec.cols[c + col],
                    |col| rec.cols[2 * c + col],
                );
                stats.cells_combined += 1;
            }
        }
        (result.finalize(spec), stats)
    }

    /// COUNT by summing per-cell counts over the covering ranges.
    ///
    /// The flat layout's Listing-2 offset trick needs contiguous offsets;
    /// the indexed layout (whose point is offset-free updatability) sums
    /// counts instead.
    pub fn count(&self, polygon: &Polygon) -> (u64, QueryStats) {
        let covering = gb_cell::cover_polygon(
            &self.grid,
            polygon,
            gb_cell::CovererOptions::at_level(self.level),
        );
        let mut stats = QueryStats::default();
        let mut total = 0u64;
        for qcell in covering.iter() {
            stats.query_cells += 1;
            stats.searches += 1;
            let lo = qcell.range_min().raw();
            let hi = qcell.range_max().raw();
            for (_, rec) in self.cells.range((Bound::Included(lo), Bound::Included(hi))) {
                total += rec.count;
                stats.cells_combined += 1;
            }
        }
        (total, stats)
    }

    /// Apply updates. Unlike [`GeoBlock::apply_updates`], new regions are
    /// ordinary inserts: there is **no rebuild path**.
    pub fn apply_updates(&mut self, batch: &UpdateBatch) -> UpdateReport {
        let c = self.schema.len();
        let mut report = UpdateReport::default();
        for (loc, values) in &batch.rows {
            assert_eq!(values.len(), c, "update row arity mismatch");
            let leaf = self.grid.leaf_for_point(*loc);
            let cell = leaf.parent_at(self.level);
            self.n_rows += 1;
            match self.cells.get_mut(&cell.raw()) {
                Some(rec) => {
                    report.in_place += 1;
                    rec.count += 1;
                    rec.key_min = rec.key_min.min(leaf.raw());
                    rec.key_max = rec.key_max.max(leaf.raw());
                    for (col, &v) in values.iter().enumerate() {
                        if v < rec.cols[col] {
                            rec.cols[col] = v;
                        }
                        if v > rec.cols[c + col] {
                            rec.cols[c + col] = v;
                        }
                        rec.cols[2 * c + col] += v;
                    }
                }
                None => {
                    report.new_cells += 1;
                    let mut cols = Vec::with_capacity(3 * c);
                    cols.extend_from_slice(values);
                    cols.extend_from_slice(values);
                    cols.extend_from_slice(values);
                    self.cells.insert(
                        cell.raw(),
                        CellRecord {
                            count: 1,
                            key_min: leaf.raw(),
                            key_max: leaf.raw(),
                            cols: cols.into_boxed_slice(),
                        },
                    );
                }
            }
        }
        report
    }

    /// Internal consistency checks (tests).
    pub fn check_invariants(&self) {
        let total: u64 = self.cells.values().map(|r| r.count).sum();
        assert_eq!(total, self.n_rows);
        for (&key, rec) in &self.cells {
            let cell = CellId::from_raw(key);
            assert_eq!(cell.level(), self.level);
            assert!(rec.count > 0);
            assert!(cell.contains(CellId::from_raw(rec.key_min)));
            assert!(cell.contains(CellId::from_raw(rec.key_max)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_data::{extract, CleaningRules, ColumnDef, Filter, RawTable, Rows};
    use gb_geom::{Point, Rect};

    fn base_data(n: usize) -> gb_data::BaseTable {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        let mut state = 21u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 16) % 10_000) as f64 / 100.0
        };
        for i in 0..n {
            raw.push_row(Point::new(next(), next()), &[i as f64]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        extract(&raw, grid, &CleaningRules::none(), None).base
    }

    fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(cx, cy - r),
            Point::new(cx + r, cy),
            Point::new(cx, cy + r),
            Point::new(cx - r, cy),
        ])
    }

    #[test]
    fn conversion_preserves_query_results() {
        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let indexed = IndexedBlock::from_block(&block);
        indexed.check_invariants();
        assert_eq!(indexed.num_cells(), block.num_cells());
        assert_eq!(indexed.num_rows(), block.num_rows());

        let spec = AggSpec::k_aggregates(base.schema(), 4);
        for (cx, cy, r) in [(50.0, 50.0, 25.0), (20.0, 70.0, 10.0), (85.0, 15.0, 8.0)] {
            let poly = diamond(cx, cy, r);
            let (a, _) = block.select(&poly, &spec);
            let (b, _) = indexed.select(&poly, &spec);
            assert!(a.approx_eq(&b, 1e-9), "select mismatch at ({cx},{cy})");
            assert_eq!(block.count(&poly).0, indexed.count(&poly).0);
        }
    }

    #[test]
    fn updates_without_rebuild() {
        let base = base_data(1000);
        let (block, _) = build(&base, 7, &Filter::all());
        let mut indexed = IndexedBlock::from_block(&block);
        let cells_before = indexed.num_cells();

        // Batch with both existing-region and new-region tuples.
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(50.0, 50.0), vec![1.0]);
        batch.push(Point::new(0.01, 99.99), vec![2.0]);
        let report = indexed.apply_updates(&batch);
        indexed.check_invariants();
        assert_eq!(report.in_place + report.new_cells, 2);
        assert!(indexed.num_cells() >= cells_before);
        assert_eq!(indexed.num_rows(), 1002);

        let whole = Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 101.0, 101.0));
        assert_eq!(indexed.count(&whole).0, 1002);
    }

    #[test]
    fn indexed_and_flat_agree_after_same_updates() {
        let base = base_data(2000);
        let (mut block, _) = build(&base, 8, &Filter::all());
        let mut indexed = IndexedBlock::from_block(&block);

        let mut batch = UpdateBatch::new();
        for i in 0..60 {
            batch.push(
                Point::new((i % 10) as f64 * 9.5, (i / 10) as f64 * 16.0),
                vec![i as f64],
            );
        }
        block.apply_updates(&batch);
        indexed.apply_updates(&batch);
        indexed.check_invariants();
        block.check_invariants();

        let spec = AggSpec::k_aggregates(base.schema(), 4);
        for (cx, cy, r) in [(50.0, 50.0, 40.0), (10.0, 10.0, 9.0)] {
            let poly = diamond(cx, cy, r);
            let (a, _) = block.select(&poly, &spec);
            let (b, _) = indexed.select(&poly, &spec);
            assert!(a.approx_eq(&b, 1e-9));
            assert_eq!(block.count(&poly).0, indexed.count(&poly).0);
        }
    }

    #[test]
    fn indexed_layout_costs_more_memory() {
        // §5 compares storage *layouts* for the same records, so the flat
        // side is the cell-aggregate bytes — `memory_bytes` additionally
        // counts the derived pyramid and count prefix.
        let base = base_data(5000);
        let (block, _) = build(&base, 9, &Filter::all());
        let indexed = IndexedBlock::from_block(&block);
        assert!(
            indexed.memory_bytes() > block.aggregate_bytes(),
            "indexed {} should exceed flat {}",
            indexed.memory_bytes(),
            block.aggregate_bytes()
        );
        assert!(block.memory_bytes() > block.aggregate_bytes());
        assert!(block.derived_bytes() > 0);
    }
}
