//! The BlockQC kernel: query-cache acceleration for GeoBlocks (§3.6,
//! Figure 8).
//!
//! [`crate::GeoBlockEngine`] is the one front-end; this module holds the
//! pieces of §3.6 it runs on: the adapted SELECT (`select_adapted`:
//! probe the [`AggregateTrie`] per query cell, use the cached aggregate
//! when present, otherwise answer the cell with the block's tiered
//! path), hit scoring and the budgeted trie rebuild (`rebuild_trie`),
//! and the [`CacheMetrics`] / [`RebuildPolicy`] types the engine exposes.
//! The trie and the pyramid layers are the same sorted record table
//! ([`crate::table`]), probed by the same seek and folded by the same
//! combine, so the adapted SELECT has one record layout whichever
//! structure answers a cell.
//!
//! The trie caches no numbers of its own: `rebuild_trie` copies each
//! chosen cell's record from the block's canonical fold (its pyramid
//! layer record, or the block record at the block level), and the
//! engine re-copies every cached record after each update batch. So a
//! cache hit combines exactly the record the pyramid path would.
//!
//! Figure 8's middle step — combine the cached direct children of a
//! partially cached cell — is left out on purpose: the aggregate pyramid
//! answers that cell in one lookup, and exactly, whereas adding the
//! children one by one reassociates float sums.
//!
//! COUNT queries bypass the cache ("as the runtime of COUNT queries is
//! mostly independent of the cell level […] we do not expect noticeable
//! speedups for them").

use crate::aggregate::{AggPlan, AggResult};
use crate::block::GeoBlock;
use crate::query::{Cursors, QueryStats};
use crate::trie::{AggregateTrie, TrieBuilder};
use gb_cell::CellId;
use gb_common::FxHashMap;
use gb_data::AggSpec;
use gb_trace::{Stage, StageAcc};

/// When the cache is (re)built from the hit statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// Only on explicit [`crate::GeoBlockEngine::rebuild_cache`] calls.
    Manual,
    /// Automatically after every `n` queries.
    EveryN(usize),
}

/// Cache-related counters for one query (or an accumulated run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Query cells probed against the trie.
    pub probes: u64,
    /// Query cells answered entirely from a cached aggregate.
    pub direct_hits: u64,
    /// Query cells partially answered via cached direct children.
    /// Always 0: the adapted SELECT no longer combines cached children
    /// (see the module docs); the field stays for metric readers.
    pub child_hits: u64,
    /// Coverings served from the engine's covering memo.
    pub covering_memo_hits: u64,
    /// Coverings computed because the memo had no (verified) entry.
    pub covering_memo_misses: u64,
}

impl CacheMetrics {
    /// Fraction of probes answered directly from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.direct_hits as f64 / self.probes as f64
        }
    }
}

/// The smallest cell enclosing every key of `block` — the natural trie
/// root.
pub(crate) fn root_cell_of(block: &GeoBlock) -> CellId {
    if block.num_cells() == 0 {
        CellId::ROOT
    } else {
        CellId::from_raw(block.min_cell).common_ancestor(CellId::from_raw(block.max_cell))
    }
}

/// The Figure-8 adapted SELECT over an explicit `(block, trie)` pair.
///
/// Takes the polygon's `covering` rather than the polygon itself: the
/// covering fully determines the answer, which is what lets the engine
/// memoize coverings by polygon content and lets a batch share one
/// covering across requests — the caller obtains it from `block.cover` (the
/// reference path) or the covering memo (bit-identical by construction).
///
/// `record_hit` is called once per query cell that may overlap the block
/// (§3.6 hit statistics); the engine feeds its sharded hit maps.
///
/// A cell the trie answers uses a copy of the block's canonical record
/// for that cell, the same fold the scan performs; every other cell takes
/// the block's tiered path. So every answer, before and after updates,
/// is bit-identical to [`GeoBlock::select_scan`].
///
/// `acc` attributes per-cell time to tracing stages (`TrieLookup` for
/// cache probes, `PyramidCombine`/`ScanFallback` for residual combines).
/// It is a pure observer — a disarmed accumulator (an unsampled request)
/// runs the identical code with zero timing overhead, so traced and
/// untraced execution are bit-identical by construction.
pub(crate) fn select_adapted(
    block: &GeoBlock,
    trie: &AggregateTrie,
    covering: &gb_cell::CellUnion,
    spec: &AggSpec,
    record_hit: &mut dyn FnMut(u64),
    metrics: &mut CacheMetrics,
    acc: &mut StageAcc,
) -> (AggResult, QueryStats) {
    let plan = AggPlan::compile(spec);
    let mut result = AggResult::new(spec);
    let mut scratch = AggResult::new(spec);
    let mut stats = QueryStats::default();
    let mut cursors = Cursors::new();
    // Covering cells arrive sorted by raw id, so the trie cursor resolves
    // almost every probe from a forward scan.
    let mut probe = trie.flat_cursor();

    for qcell in covering.iter() {
        if !block.may_overlap(qcell) {
            continue;
        }
        stats.query_cells += 1;
        // Track the hit for future cache decisions (§3.6 "for each query
        // cell that intersects with the GeoBlock").
        record_hit(qcell.raw());
        metrics.probes += 1;

        // Probe the cache: the cursor seeks the trie's record table, the
        // same seek and record layout the pyramid layers use.
        match acc.time(Stage::TrieLookup, || probe.lookup(qcell)) {
            Some(record) => {
                // Fully cached: answer from the trie.
                record.combine_into(&plan, &mut result);
                metrics.direct_hits += 1;
            }
            // Not cached: the base tiered path, timed under its tier's stage.
            None => block.combine_covering_cell(
                qcell,
                spec,
                &plan,
                &mut scratch,
                &mut result,
                &mut stats,
                &mut cursors,
                acc,
            ),
        }
    }
    (result.finalize(spec), stats)
}

/// Score of a query cell: own hits plus parent hits (§3.6 "the score of a
/// cell is the sum of the cell's hits and the hits of its parent").
fn score_of(hits: &FxHashMap<u64, u64>, cell: CellId) -> u64 {
    let own = hits.get(&cell.raw()).copied().unwrap_or(0);
    let parent = if cell.level() > 0 {
        hits.get(&cell.parent().raw()).copied().unwrap_or(0)
    } else {
        0
    };
    own + parent
}

/// Build a fresh AggregateTrie from hit statistics: sort candidate cells
/// by (score desc, level asc, key asc) and insert until `budget` bytes of
/// Figure 7's layout are filled (§3.6 "Determining Relevant Aggregates").
/// The trie is rooted at the block's current [`root_cell_of`], so cells
/// that updates added outside the previous root become cacheable. Each
/// record is a copy of `GeoBlock::cell_record`. Deterministic for a given
/// block and hit map, so the same statistics always rebuild the same
/// cache.
pub(crate) fn rebuild_trie(
    block: &GeoBlock,
    budget: usize,
    hits: &FxHashMap<u64, u64>,
) -> AggregateTrie {
    let mut trie = TrieBuilder::new(root_cell_of(block), block.schema().len());

    let mut candidates: Vec<(u64, u8, u64)> = hits
        .keys()
        .map(|&raw| {
            let cell = CellId::from_raw(raw);
            (score_of(hits, cell), cell.level(), raw)
        })
        .collect();
    // Score desc, then level asc (coarser first), then key asc.
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    for (_, _, raw) in candidates {
        let cell = CellId::from_raw(raw);
        let Some(cost) = trie.insertion_cost(cell) else {
            continue;
        };
        if trie.size_bytes() + cost > budget {
            // Reserved area full (the paper inserts by descending
            // relevance until the space is exhausted).
            break;
        }
        trie.insert(cell);
    }
    // Empty cells are cached too (`None` ⇒ a count-0 record): it answers
    // "no data here" without touching the aggregates, and Figure 18's
    // cache hit rate reaching 100 % requires every queried cell to become
    // cacheable.
    trie.finish(|cell| block.cell_record(cell))
}
