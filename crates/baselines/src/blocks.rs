//! GeoBlocks adapters to the unified [`SpatialAggIndex`] interface.

use crate::SpatialAggIndex;
use gb_data::AggSpec;
use gb_geom::Polygon;
use geoblocks::trace::Tracer;
use geoblocks::{AggResult, GeoBlock, GeoBlockEngine};
use std::sync::Arc;

/// "Block": GeoBlocks without query caching.
pub struct BlockIndex {
    block: GeoBlock,
}

impl BlockIndex {
    pub fn new(block: GeoBlock) -> Self {
        BlockIndex { block }
    }

    pub fn block(&self) -> &GeoBlock {
        &self.block
    }
}

impl SpatialAggIndex for BlockIndex {
    fn name(&self) -> &'static str {
        "Block"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        self.block.select(polygon, spec).0
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        self.block.count(polygon).0
    }

    fn index_bytes(&self) -> usize {
        self.block.memory_bytes()
    }
}

/// "BlockQC": GeoBlocks with the AggregateTrie query cache, answered by a
/// [`GeoBlockEngine`].
///
/// The engine's covering memo is off, so every query computes its
/// covering, as the paper's BlockQC does and as [`BlockIndex`] does; its
/// tracer is off too, so the figures time the query path alone.
pub struct BlockQcIndex {
    engine: GeoBlockEngine,
}

impl BlockQcIndex {
    /// Wrap `block` with a cache budget of `threshold` (a fraction of the
    /// cell-aggregate storage, Figure 18's "aggregate threshold").
    pub fn new(block: GeoBlock, threshold: f64) -> Self {
        let engine = GeoBlockEngine::new(block, threshold)
            .with_memo_capacity(0)
            .with_tracer(Arc::new(Tracer::disabled()));
        BlockQcIndex { engine }
    }

    /// The engine: rebuild the cache, read or reset its metrics.
    pub fn engine(&self) -> &GeoBlockEngine {
        &self.engine
    }
}

impl SpatialAggIndex for BlockQcIndex {
    fn name(&self) -> &'static str {
        "BlockQC"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        self.engine.select(polygon, spec).result
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        self.engine.count(polygon).result
    }

    fn index_bytes(&self) -> usize {
        self.engine.block_snapshot().memory_bytes() + self.engine.trie_snapshot().size_bytes()
    }
}
