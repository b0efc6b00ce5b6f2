//! Property tests for the query hot path (ISSUE 9): the three
//! optimizations — covering memo, flat trie lookup, batched execution —
//! must be invisible to results for *any* data, *any* polygon (including
//! degenerate rings), and *any* trie shape.
//!
//! 1. Memoized coverings answer bit-identically to fresh coverings, and
//!    rotated rings (same geometry, different start vertex) hit the memo.
//! 2. The trie's computed Figure-7 accounting equals a literal quartet
//!    allocator, and its cursor equals a reference map on random tries,
//!    for hits and misses alike and in any probe order.
//! 3. Batched execution is bit-identical to per-request execution — on
//!    one thread and many — across an update epoch bump.

use gb_cell::{CellId, Grid};
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::trie::AggregateTrie;
use geoblocks::{build, GeoBlockEngine, UpdateBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;

const DOMAIN: f64 = 100.0;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::f64("v"), ColumnDef::i64("k")])
}

fn spec() -> AggSpec {
    AggSpec::new(vec![
        AggRequest::new(AggFunc::Count, 0),
        AggRequest::new(AggFunc::Sum, 0),
        AggRequest::new(AggFunc::Min, 0),
        AggRequest::new(AggFunc::Max, 1),
        AggRequest::new(AggFunc::Avg, 1),
    ])
}

fn make_base(points: &[(f64, f64)]) -> gb_data::BaseTable {
    let mut raw = RawTable::new(schema());
    for (i, &(x, y)) in points.iter().enumerate() {
        raw.push_row(Point::new(x, y), &[i as f64 * 0.5 - 3.0, (i % 11) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN));
    extract(&raw, grid, &CleaningRules::none(), None).base
}

fn make_polygon(seeds: &[(f64, f64)]) -> Option<Polygon> {
    let pts: Vec<Point> = seeds.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let hull = convex_hull(&pts);
    (hull.len() >= 3).then(|| Polygon::new(hull))
}

/// A possibly-degenerate ring straight from the seeds: no hull, so
/// collinear runs, duplicated vertices, slivers, and self-intersections
/// all occur — only the ≥3-vertex constructor contract is upheld.
fn make_raw_polygon(seeds: &[(f64, f64)]) -> Polygon {
    assert!(seeds.len() >= 3);
    Polygon::new(seeds.iter().map(|&(x, y)| Point::new(x, y)).collect())
}

/// The same ring started at vertex `k` — identical geometry, different
/// vertex order, so it must share the memo entry with the original.
fn rotate_ring(poly: &Polygon, k: usize) -> Polygon {
    let ring = poly.exterior();
    let k = k % ring.len();
    let mut rotated = ring[k..].to_vec();
    rotated.extend_from_slice(&ring[..k]);
    Polygon::new(rotated)
}

/// Figure 7 literally: an array of `(first child, has record)` nodes,
/// the four children of a node allocated together on first use — the
/// reference the trie's computed accounting is checked against.
struct Figure7 {
    root: CellId,
    first_child: Vec<usize>,
    has_record: Vec<bool>,
}

impl Figure7 {
    fn new(root: CellId) -> Self {
        Figure7 {
            root,
            first_child: vec![0],
            has_record: vec![false],
        }
    }

    fn num_nodes(&self) -> usize {
        self.first_child.len()
    }

    fn num_records(&self) -> usize {
        self.has_record.iter().filter(|&&r| r).count()
    }

    /// Nodes inserting `cell` would allocate.
    fn insertion_cost(&self, cell: CellId) -> usize {
        let mut node = 0;
        for level in (self.root.level() + 1)..=cell.level() {
            if self.first_child[node] == 0 {
                return 4 * usize::from(cell.level() - level + 1);
            }
            node = self.first_child[node] + usize::from(cell.child_position(level));
        }
        0
    }

    fn insert(&mut self, cell: CellId) {
        let mut node = 0;
        for level in (self.root.level() + 1)..=cell.level() {
            if self.first_child[node] == 0 {
                self.first_child[node] = self.first_child.len();
                self.first_child.extend([0; 4]);
                self.has_record.extend([false; 4]);
            }
            node = self.first_child[node] + usize::from(cell.child_position(level));
        }
        self.has_record[node] = true;
    }
}

/// Walk `root` down `path` (child indices), clamped to `MAX_LEVEL`.
fn descend(root: CellId, path: &[u8]) -> CellId {
    let mut cell = root;
    for &k in path {
        if cell.level() >= gb_cell::MAX_LEVEL {
            break;
        }
        cell = cell.child(k % 4);
    }
    cell
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Memoized covering ≡ fresh covering: the engine (memo path) must
    /// agree bit-for-bit with the bare block (no memo), the second
    /// identical query must be a memo hit, and a rotated ring must both
    /// hit the memo *and* still answer identically.
    #[test]
    fn memoized_covering_answers_bit_identically(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..300),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..10),
        level in 4u8..12,
        rot in 0usize..8,
        degenerate in any::<bool>(),
    ) {
        let poly = if degenerate {
            make_raw_polygon(&seeds)
        } else {
            prop_assume!(make_polygon(&seeds).is_some());
            make_polygon(&seeds).unwrap()
        };
        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let s = spec();
        let (want_sel, _) = block.select(&poly, &s);
        let (want_cnt, _) = block.count(&poly);

        let engine = GeoBlockEngine::new(block, 0.1);
        prop_assert_eq!(engine.metrics().covering_memo_hits, 0);

        // First query misses the memo, second hits — both bit-identical
        // to the memo-free block answer.
        let first = engine.select(&poly, &s).result;
        prop_assert!(first.approx_eq(&want_sel, 0.0), "{:?} vs {:?}", first, want_sel);
        prop_assert_eq!(engine.metrics().covering_memo_misses, 1);
        let second = engine.select(&poly, &s).result;
        prop_assert!(second.approx_eq(&want_sel, 0.0));
        prop_assert!(engine.metrics().covering_memo_hits >= 1, "repeat query missed the memo");
        prop_assert_eq!(engine.count(&poly).result, want_cnt);

        // A rotated ring is the same polygon content: memo hit, same answer.
        let hits_before = engine.metrics().covering_memo_hits;
        let rotated = rotate_ring(&poly, rot);
        let via_rot = engine.select(&rotated, &s).result;
        prop_assert!(via_rot.approx_eq(&want_sel, 0.0), "rotation changed the answer");
        prop_assert!(
            engine.metrics().covering_memo_hits > hits_before,
            "rotated ring missed the memo"
        );
    }

    /// The trie's computed Figure-7 accounting equals a literal quartet
    /// allocator, and its lookups equal a reference map — for random
    /// cells inserted in random orders (re-inserts included). `insert`
    /// and `insertion_cost` price through the same builder a budgeted
    /// rebuild uses, so this checks the accounting that sets the
    /// Figure-18 budget. The same cells inserted in the reverse order
    /// give the same digest.
    #[test]
    fn trie_matches_figure7_allocator_and_reference_map(
        root_pos in 0u64..(1u64 << 30),
        paths in prop::collection::vec(prop::collection::vec(0u8..4, 0..10), 1..40),
        probes in prop::collection::vec(prop::collection::vec(0u8..4, 0..12), 0..60),
    ) {
        let root = CellId::from_leaf_pos(root_pos << 20).parent_at(4);
        let mut trie = AggregateTrie::new(root, 1);
        let mut figure7 = Figure7::new(root);
        let mut reference = BTreeMap::new();
        let mut inserted = Vec::new();
        for path in &paths {
            let cell = descend(root, path);
            let want_cost = figure7.insertion_cost(cell) * 8 + trie.record_bytes();
            prop_assert_eq!(trie.insertion_cost(cell), Some(want_cost), "cost of {:?}", cell);
            let count = 1 + path.len() as u64;
            trie.insert(cell, count, &[0.0], &[1.0], &[2.0]);
            figure7.insert(cell);
            reference.insert(cell.raw(), count);
            inserted.push(cell);
            prop_assert_eq!(trie.num_nodes(), figure7.num_nodes());
            prop_assert_eq!(
                trie.size_bytes(),
                figure7.num_nodes() * 8 + figure7.num_records() * trie.record_bytes()
            );
            prop_assert_eq!(trie.num_cached(), reference.len());
        }

        let mut all_probes: Vec<CellId> = inserted.clone();
        // Ancestors and children of inserted cells, random paths (hits
        // and misses), and cells outside the root.
        for cell in &inserted {
            if cell.level() > root.level() {
                all_probes.push(cell.parent_at(cell.level() - 1));
            }
            if cell.level() < gb_cell::MAX_LEVEL {
                all_probes.push(cell.child(0));
            }
        }
        for path in &probes {
            let cell = descend(root, path);
            let want_cost = figure7.insertion_cost(cell) * 8 + trie.record_bytes();
            prop_assert_eq!(trie.insertion_cost(cell), Some(want_cost), "cost of {:?}", cell);
            all_probes.push(cell);
        }
        all_probes.push(root);
        all_probes.push(root.next());
        prop_assert!(trie.insertion_cost(root.next()).is_none());
        if root.level() > 1 {
            all_probes.push(root.parent_at(root.level() - 1));
        }

        // The stateful cursor, fed the probes in this arbitrary — not
        // sorted — order, must agree with the reference, hit or miss.
        let mut cursor = trie.flat_cursor();
        for cell in &all_probes {
            let want = reference.get(&cell.raw()).copied();
            prop_assert_eq!(cursor.lookup(*cell).map(|a| a.count), want, "cursor at {:?}", cell);
            prop_assert_eq!(trie.get(*cell).map(|a| a.count), want, "get at {:?}", cell);
        }

        // One canonical layout: the reverse insertion order ends in the
        // same cells and records, hence the same digest and footprint.
        let mut reversed = AggregateTrie::new(root, 1);
        for cell in inserted.iter().rev() {
            let count = reference[&cell.raw()];
            reversed.insert(*cell, count, &[0.0], &[1.0], &[2.0]);
        }
        prop_assert_eq!(reversed.content_hash(), trie.content_hash());
        prop_assert_eq!(reversed.size_bytes(), trie.size_bytes());
    }

    /// Batched execution ≡ sequential execution, across an epoch bump:
    /// the single-threaded and pooled batch replies are byte-identical,
    /// every item matches its individual per-request answer, and after
    /// an update the batch answers at the bumped epoch with the new data.
    #[test]
    fn batch_matches_sequential_across_epoch_bump(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..250),
        polys in prop::collection::vec(
            prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8),
            1..6,
        ),
        updates in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 1..20),
        threads in 2usize..5,
    ) {
        prop_assume!(polys.iter().all(|s| make_polygon(s).is_some()));
        let base = make_base(&points);
        let (block, _) = build(&base, 9, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.1);
        let s = spec();

        // Alternate Select/Count items, repeating each polygon twice so
        // the batch exercises the shared-covering grouping.
        let mut requests: Vec<QueryRequest> = Vec::new();
        for (i, seeds) in polys.iter().enumerate() {
            let polygon = make_polygon(seeds).unwrap();
            if i % 2 == 0 {
                requests.push(QueryRequest::Select { polygon: polygon.clone(), spec: s.clone() });
                requests.push(QueryRequest::Count { polygon });
            } else {
                requests.push(QueryRequest::Count { polygon: polygon.clone() });
                requests.push(QueryRequest::Select { polygon, spec: s.clone() });
            }
        }

        let check_epoch = |engine: &GeoBlockEngine, want_epoch: u64| -> Result<(), TestCaseError> {
            let seq = engine.query_batch(&requests, 1).expect("sequential batch");
            let par = engine.query_batch(&requests, threads).expect("pooled batch");
            prop_assert_eq!(
                api::encode_reply(&Ok(seq.clone())),
                api::encode_reply(&Ok(par)),
                "pooled batch bytes diverged from sequential"
            );
            prop_assert_eq!(seq.epoch(), want_epoch);
            let QueryReply::Batch(ref outer) = seq else {
                return Err(TestCaseError::fail("batch reply has wrong variant".to_string()));
            };
            prop_assert_eq!(outer.result.len(), requests.len());
            for (req, item) in requests.iter().zip(&outer.result) {
                prop_assert_eq!(item.epoch(), want_epoch, "item answered off the pinned epoch");
                match (req, item) {
                    (QueryRequest::Select { polygon, spec }, QueryReply::Select(r)) => {
                        let solo = engine.select(polygon, spec);
                        prop_assert!(r.result.approx_eq(&solo.result, 0.0));
                    }
                    (QueryRequest::Count { polygon }, QueryReply::Count(r)) => {
                        prop_assert_eq!(r.result, engine.count(polygon).result);
                    }
                    _ => return Err(TestCaseError::fail("batch item variant mismatch".to_string())),
                }
            }
            Ok(())
        };

        let epoch0 = engine.data_epoch();
        check_epoch(&engine, epoch0)?;

        // Bump the data epoch and re-check: the batch must see the new
        // data, at the new epoch, still bit-identical across modes.
        let mut batch = UpdateBatch::new();
        for &(x, y) in &updates {
            batch.push(Point::new(x, y), vec![1.0, 2.0]);
        }
        engine.apply_updates(&batch).expect("update");
        prop_assert_eq!(engine.data_epoch(), epoch0 + 1);
        check_epoch(&engine, epoch0 + 1)?;
    }
}
