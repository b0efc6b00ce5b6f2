//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * **curve**: Hilbert vs Morton enumeration — same prefix machinery,
//!   different locality; measures covering size effects end-to-end.
//! * **select algorithm**: the pyramid-tiered production path vs the
//!   optimised forward range scan vs the paper's literal Listing-1
//!   per-child successor walk.
//! * **select pyramid**: the coarse-interior workload (deep block level,
//!   large polygons) where interior covering cells expand to thousands of
//!   block records — the regime the aggregate pyramid exists for.
//! * **cache**: Block vs warm BlockQC on a skewed workload, and the trie
//!   probe overhead on an unskewed one.
//! * **count vs select**: Listing 2's range-sum against a count-only
//!   SELECT — the reason COUNT skips the cache.

use criterion::{criterion_group, criterion_main, Criterion};
use gb_cell::{CurveKind, Grid};
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use geoblocks::{build, GeoBlockEngine};
use std::hint::black_box;

fn taxi_base(curve: CurveKind) -> gb_data::BaseTable {
    let ds = datasets::nyc_taxi(200_000, 7);
    let grid = Grid::new(datasets::nyc_domain(), curve);
    extract(&ds.raw, grid, &datasets::nyc_cleaning_rules(), None).base
}

fn ablate_curve(c: &mut Criterion) {
    let mut g = c.benchmark_group("curve_ablation");
    for curve in [CurveKind::Hilbert, CurveKind::Morton] {
        let base = taxi_base(curve);
        let (block, _) = build(&base, 10, &Filter::all());
        let polys = polygons::neighborhoods(48, 7);
        let spec = AggSpec::k_aggregates(base.schema(), 7);
        g.bench_function(format!("{curve:?}_select"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let poly = &polys[i % polys.len()];
                i += 1;
                black_box(block.select(poly, &spec).0.count)
            })
        });
    }
    g.finish();
}

fn ablate_select_algorithm(c: &mut Criterion) {
    let base = taxi_base(CurveKind::Hilbert);
    let (block, _) = build(&base, 10, &Filter::all());
    let polys = polygons::neighborhoods(48, 7);
    let spec = AggSpec::k_aggregates(base.schema(), 7);

    let mut g = c.benchmark_group("select_ablation");
    g.bench_function("pyramid", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select(poly, &spec).0.count)
        })
    });
    g.bench_function("range_scan", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select_scan(poly, &spec).0.count)
        })
    });
    g.bench_function("listing1_faithful", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select_listing1(poly, &spec).0.count)
        })
    });
    g.finish();
}

/// The coarse-interior regime: block level 12 over the taxi data and
/// polygons spanning whole boroughs, so interior covering cells sit many
/// levels above the block level and the scan path combines thousands of
/// records per query while the pyramid path combines one per cell.
fn ablate_select_pyramid(c: &mut Criterion) {
    let base = taxi_base(CurveKind::Hilbert);
    let (block, _) = build(&base, 12, &Filter::all());
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    let domain = datasets::nyc_domain();
    let (cx, cy) = (
        (domain.min.x + domain.max.x) / 2.0,
        (domain.min.y + domain.max.y) / 2.0,
    );
    let (w, h) = (domain.max.x - domain.min.x, domain.max.y - domain.min.y);
    // Borough-scale diamonds centered on the data's hotspots.
    let polys: Vec<gb_geom::Polygon> = (0..6)
        .map(|i| {
            let r = (0.18 + 0.05 * i as f64) * w.min(h);
            let (px, py) = (cx - w * 0.1 + i as f64 * w * 0.04, cy + h * 0.05);
            gb_geom::Polygon::new(vec![
                gb_geom::Point::new(px, py - r),
                gb_geom::Point::new(px + r, py),
                gb_geom::Point::new(px, py + r),
                gb_geom::Point::new(px - r, py),
            ])
        })
        .collect();

    let mut g = c.benchmark_group("select_pyramid");
    g.bench_function("pyramid", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select(poly, &spec).0.count)
        })
    });
    g.bench_function("range_scan", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select_scan(poly, &spec).0.count)
        })
    });
    g.finish();
}

fn ablate_cache(c: &mut Criterion) {
    let base = taxi_base(CurveKind::Hilbert);
    let (block, _) = build(&base, 10, &Filter::all());
    let polys = polygons::neighborhoods(48, 7);
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    // The "hot" 10% subset, as in the skewed workload.
    let hot: Vec<_> = polys.iter().take(5).cloned().collect();

    // Memo off: both sides compute every covering, so the pair isolates
    // the trie.
    let warm = GeoBlockEngine::new(block.clone(), 0.1).with_memo_capacity(0);
    for _ in 0..4 {
        for p in &hot {
            warm.select(p, &spec);
        }
    }
    warm.rebuild_cache();

    let mut g = c.benchmark_group("cache_ablation");
    g.bench_function("block_hot_queries", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &hot[i % hot.len()];
            i += 1;
            black_box(block.select(poly, &spec).0.count)
        })
    });
    g.bench_function("blockqc_warm_hot_queries", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &hot[i % hot.len()];
            i += 1;
            black_box(warm.select(poly, &spec).result.count)
        })
    });
    g.finish();
}

fn ablate_count_vs_select(c: &mut Criterion) {
    let base = taxi_base(CurveKind::Hilbert);
    let (block, _) = build(&base, 10, &Filter::all());
    let polys = polygons::neighborhoods(48, 7);
    let count_spec = AggSpec::count_only();

    let mut g = c.benchmark_group("count_vs_select");
    g.bench_function("count_listing2", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.count(poly).0)
        })
    });
    g.bench_function("select_count_only", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select(poly, &count_spec).0.count)
        })
    });
    g.finish();
}

fn ablate_storage_layout(c: &mut Criterion) {
    // §5: sorted-array cell aggregates vs a B-tree-indexed store. The
    // paper's preliminary experiments found "similar lookup performance at
    // the cost of increased size overhead" — this bench quantifies both
    // claims for our implementation.
    let base = taxi_base(CurveKind::Hilbert);
    let (block, _) = build(&base, 10, &Filter::all());
    let indexed = geoblocks::IndexedBlock::from_block(&block);
    let polys = polygons::neighborhoods(48, 7);
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    println!(
        "storage bytes: flat {} vs indexed {}",
        block.memory_bytes(),
        indexed.memory_bytes()
    );

    let mut g = c.benchmark_group("storage_ablation");
    g.bench_function("flat_sorted_array", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select(poly, &spec).0.count)
        })
    });
    g.bench_function("btree_indexed", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(indexed.select(poly, &spec).0.count)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = ablate_curve, ablate_select_algorithm, ablate_select_pyramid, ablate_cache, ablate_count_vs_select, ablate_storage_layout
}
criterion_main!(benches);
