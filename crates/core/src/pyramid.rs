//! The aggregate pyramid: precomputed cell aggregates at **every** level
//! from the block level up to the root (§3.4 "aggregate granularity",
//! turned from a build-time choice into a query-time structure).
//!
//! The covering of a query polygon consists of grid-aligned cells whose
//! levels range from the block level (boundary cells) up to much coarser
//! interior cells. The base query path expands a coarse interior cell into
//! a scan over up to 4^Δ block-level records; the pyramid instead holds
//! one precomputed record per non-empty cell per level, so any covering
//! cell is answered by **one** seek and **one** record combine. Each layer
//! is a `CellTable` — the record layout the AggregateTrie shares — and
//! is probed through the same cursor-resumed [`crate::table`] seek.
//!
//! Every layer is defined as the *in-order fold* of the block-level
//! records it covers — the same fold [`GeoBlock::coarsen`] uses — so a
//! pyramid lookup is bit-identical to scanning the underlying records
//! into a fresh accumulator (floating-point association included). That
//! definition is what lets the query tests assert exact (`approx_eq` at
//! `0.0`) agreement between the pyramid path and the range-scan path.
//!
//! Layers are independent of one another (each folds directly from the
//! block level, never from the next-finer layer), which makes the build
//! embarrassingly parallel: `build_parallel` fans one task per layer over
//! [`gb_common::Pool`] and the result is bit-identical at any thread
//! count.

use crate::block::GeoBlock;
use crate::table::CellTable;
use gb_cell::CellId;
use gb_common::Pool;

/// In-order fold of a block's records into their ancestors at `level` —
/// the canonical aggregation shared (statement for statement) with
/// [`GeoBlock::coarsen`]: the first record of each group seeds the
/// accumulator, later records fold in ascending key order.
pub(crate) fn fold_level(
    level: u8,
    keys: &[u64],
    counts: &[u32],
    mins: &[f64],
    maxs: &[f64],
    sums: &[f64],
    c: usize,
) -> CellTable {
    // At most one cell per distinct level-`level` ancestor: the layer can
    // never exceed `4^level` cells nor the block's own cell count.
    // Reserving the bound up front keeps the grouping loop reallocation-
    // free (builds run this once per level); `shrink_to_fit` afterwards
    // returns the slack so the resident pyramid stays honest.
    let cap = (1usize << (2 * u32::from(level)).min(62)).min(keys.len());
    let mut out = CellTable::with_capacity(c, cap);
    // Sentinel bit of `level`: `parent + (lsb − 1)` is the raw id of the
    // group's last descendant leaf (`CellId::range_max`, hoisted to pure
    // arithmetic for the hot loop).
    let lsb = 1u64 << (2 * u64::from(gb_cell::MAX_LEVEL - level));
    let mut i = 0usize;
    while i < keys.len() {
        let parent = CellId::raw_parent_at(keys[i], level);
        let hi = parent + (lsb - 1);
        out.keys.push(parent);
        let col_base = out.mins.len();
        out.mins.extend_from_slice(&mins[i * c..(i + 1) * c]);
        out.maxs.extend_from_slice(&maxs[i * c..(i + 1) * c]);
        out.sums.extend_from_slice(&sums[i * c..(i + 1) * c]);
        let mut count = u64::from(counts[i]);
        i += 1;
        while i < keys.len() && keys[i] <= hi {
            count += u64::from(counts[i]);
            let base = i * c;
            let (gmins, gmaxs, gsums) = (
                &mut out.mins[col_base..col_base + c],
                &mut out.maxs[col_base..col_base + c],
                &mut out.sums[col_base..col_base + c],
            );
            for col in 0..c {
                gmins[col] = gmins[col].min(mins[base + col]);
                gmaxs[col] = gmaxs[col].max(maxs[base + col]);
                gsums[col] += sums[base + col];
            }
            i += 1;
        }
        out.counts.push(count);
    }
    out.keys.shrink_to_fit();
    out.counts.shrink_to_fit();
    out.mins.shrink_to_fit();
    out.maxs.shrink_to_fit();
    out.sums.shrink_to_fit();
    out
}

/// Precomputed cell aggregates at every level strictly coarser than the
/// block level. `levels[l]` is the layer for cell level `l`, for
/// `l ∈ 0..block_level` — one `CellTable` of level-`l` cells (the
/// block's own records *are* the block-level layer and are not
/// duplicated). The default value is an empty
/// placeholder for a block whose pyramid is about to be built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggPyramid {
    pub(crate) n_cols: usize,
    pub(crate) levels: Vec<CellTable>,
}

impl AggPyramid {
    /// Build the pyramid for `block`, one independent fold per layer. With
    /// a pool, layers are fanned out as parallel tasks; results are
    /// bit-identical either way because no layer depends on another.
    pub(crate) fn build(block: &GeoBlock, pool: Option<&Pool>) -> AggPyramid {
        let c = block.schema().len();
        let n_levels = block.level() as usize;
        let make = |l: usize| {
            fold_level(
                l as u8,
                &block.keys,
                &block.counts,
                &block.mins,
                &block.maxs,
                &block.sums,
                c,
            )
        };
        let levels = match pool {
            Some(pool) => pool.run(n_levels, make),
            None => (0..n_levels).map(make).collect(),
        };
        AggPyramid { n_cols: c, levels }
    }

    /// The layer for cells at `level`, if the pyramid reaches it (it never
    /// holds the block level itself — the block's records serve that).
    #[inline]
    pub(crate) fn layer(&self, level: u8) -> Option<&CellTable> {
        self.levels.get(level as usize)
    }

    /// Number of layers (== the block level).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total records across all layers.
    pub fn num_records(&self) -> usize {
        self.levels.iter().map(CellTable::len).sum()
    }

    /// Heap bytes of every layer — the pyramid's share of
    /// [`GeoBlock::memory_bytes`] (Figure 11b accounting).
    pub fn memory_bytes(&self) -> usize {
        self.levels.iter().map(CellTable::memory_bytes).sum()
    }

    /// Digest over every layer (floats by bit pattern) — the pyramid's
    /// contribution to the snapshot state hash, so a PYRA section grafted
    /// from another (individually valid) snapshot is a typed load error.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = gb_common::FxHasher::default();
        self.n_cols.hash(&mut h);
        self.levels.len().hash(&mut h);
        for (level, layer) in self.levels.iter().enumerate() {
            (level as u8).hash(&mut h);
            layer.hash_into(&mut h);
        }
        h.finish()
    }

    /// Structural validation for untrusted (snapshot-decoded) pyramids:
    /// layer count and levels, array lengths, sorted unique keys of the
    /// right level, per-layer counts summing to the block's row count.
    /// (Aggregate *values* are covered by the container checksums and the
    /// snapshot state hash, not re-derived here.)
    pub(crate) fn validate(&self, block: &GeoBlock) -> Result<(), String> {
        if self.n_cols != block.schema().len() {
            return Err(format!(
                "pyramid has {} columns, block has {}",
                self.n_cols,
                block.schema().len()
            ));
        }
        if self.levels.len() != block.level() as usize {
            return Err(format!(
                "pyramid has {} layers, block level is {}",
                self.levels.len(),
                block.level()
            ));
        }
        for (l, layer) in self.levels.iter().enumerate() {
            layer.validate().map_err(|e| format!("layer {l}: {e}"))?;
            if let Some(k) = layer
                .keys
                .iter()
                .find(|&&k| usize::from(CellId::from_raw(k).level()) != l)
            {
                return Err(format!("layer {l}: cell {k:#x} at another level"));
            }
            // Checked sum: counts are untrusted u64s from a snapshot
            // file — a crafted pair like [u64::MAX, 2] must be a typed
            // error, not a debug-build overflow panic.
            let mut total: u64 = 0;
            for &x in &layer.counts {
                total = total
                    .checked_add(x)
                    .ok_or_else(|| format!("layer {l}: cell counts overflow u64"))?;
            }
            if total != block.num_rows() {
                return Err(format!(
                    "layer {l}: counts sum to {total}, block has {} rows",
                    block.num_rows()
                ));
            }
            if layer.counts.contains(&0) {
                return Err(format!("layer {l}: empty cell stored"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_cell::Grid;
    use gb_data::{extract, CleaningRules, ColumnDef, Filter, RawTable, Schema};
    use gb_geom::{Point, Rect};

    fn base_data(n: usize) -> gb_data::BaseTable {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("w")]));
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 16) % 10_000) as f64 / 100.0
        };
        for i in 0..n {
            raw.push_row(
                Point::new(next(), next()),
                &[i as f64 * 0.25, (i % 13) as f64],
            );
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        extract(&raw, grid, &CleaningRules::none(), None).base
    }

    #[test]
    fn layers_match_coarsened_blocks_bitwise() {
        let base = base_data(3000);
        let (block, _) = build(&base, 9, &Filter::all());
        let pyramid = block.pyramid();
        assert_eq!(pyramid.num_levels(), 9);
        for l in 0..9u8 {
            let coarse = block.coarsen(l);
            let layer = pyramid.layer(l).unwrap();
            assert_eq!(layer.keys, coarse.keys, "level {l}");
            let coarse_counts: Vec<u64> = coarse.counts.iter().map(|&x| u64::from(x)).collect();
            assert_eq!(layer.counts, coarse_counts, "level {l}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&layer.mins), bits(&coarse.mins), "level {l}");
            assert_eq!(bits(&layer.maxs), bits(&coarse.maxs), "level {l}");
            assert_eq!(bits(&layer.sums), bits(&coarse.sums), "level {l}");
        }
    }

    #[test]
    fn parallel_layer_build_is_bit_identical() {
        let base = base_data(2500);
        let (block, _) = build(&base, 8, &Filter::all());
        let serial = AggPyramid::build(&block, None);
        for threads in [2usize, 4, 8] {
            let pool = Pool::new(threads);
            let par = AggPyramid::build(&block, Some(&pool));
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn validate_accepts_built_and_rejects_mangled() {
        let base = base_data(1000);
        let (block, _) = build(&base, 6, &Filter::all());
        let mut pyramid = block.pyramid().clone();
        assert!(pyramid.validate(&block).is_ok());
        pyramid.levels[3].counts[0] += 1;
        assert!(pyramid.validate(&block).is_err());

        // Adversarial counts whose sum overflows u64: a typed error, not
        // a debug-build arithmetic panic.
        let mut pyramid = block.pyramid().clone();
        assert!(pyramid.levels[3].counts.len() >= 2, "need two cells");
        pyramid.levels[3].counts[0] = u64::MAX;
        pyramid.levels[3].counts[1] = 2;
        assert!(pyramid.validate(&block).is_err());
    }

    #[test]
    fn empty_block_has_empty_pyramid() {
        let base = base_data(50);
        let f = Filter::on(&base, "v", gb_data::CmpOp::Lt, -1.0).unwrap();
        let (block, _) = build(&base, 7, &f);
        let pyramid = block.pyramid();
        assert_eq!(pyramid.num_records(), 0);
        assert_eq!(pyramid.memory_bytes(), 0);
        assert!(pyramid.validate(&block).is_ok());
    }
}
