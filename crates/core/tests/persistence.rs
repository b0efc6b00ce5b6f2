//! Integration gate for snapshot persistence — the acceptance criteria of
//! the persistence PR, enforced as tests:
//!
//! 1. **Lossless round-trip**: the loaded block's `content_hash` equals
//!    the saved one, for clean and updated (`dirty_offsets`) blocks.
//! 2. **Warm start ≡ fresh build**: `GeoBlockEngine::from_snapshot`
//!    answers bit-identically to a freshly built engine, with the
//!    restored trie hitting from the first query.
//! 3. **No panics on bad input**: corrupt, truncated, wrong-magic, and
//!    wrong-version snapshots all come back as typed `SnapshotError`s.

use gb_cell::Grid;
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
};
use gb_geom::{Point, Polygon, Rect};
use geoblocks::{build, GeoBlock, GeoBlockEngine, Snapshot, SnapshotError, UpdateBatch};
use std::path::PathBuf;

fn base_data(n: usize) -> gb_data::BaseTable {
    let mut raw = RawTable::new(Schema::new(vec![
        ColumnDef::f64("fare"),
        ColumnDef::i64("pax"),
    ]));
    let mut state = 2024u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 16) % 10_000) as f64 / 100.0
    };
    for i in 0..n {
        raw.push_row(Point::new(next(), next()), &[next(), (i % 6) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
    extract(&raw, grid, &CleaningRules::none(), None).base
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

fn polys() -> Vec<Polygon> {
    (0..10)
        .map(|i| {
            let (cx, cy, r) = (12.0 + 8.0 * i as f64, 25.0 + 5.5 * i as f64, 7.0);
            Polygon::new(vec![
                Point::new(cx, cy - r),
                Point::new(cx + r, cy),
                Point::new(cx, cy + r),
                Point::new(cx - r, cy),
            ])
        })
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gb_persistence_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn roundtrip_is_lossless_clean_and_dirty() {
    let base = base_data(5000);
    let (block, _) = build(&base, 9, &Filter::all());
    let path = temp_path("clean.gbsnap");
    block.write_snapshot(&path).expect("save clean");
    let loaded = GeoBlock::read_snapshot(&path).expect("load clean");
    assert_eq!(loaded.content_hash(), block.content_hash());

    // Mixed updates → dirty offsets → still lossless.
    let mut dirty = block.clone();
    let mut batch = UpdateBatch::new();
    for i in 0..30 {
        batch.push(
            Point::new(3.3 * i as f64 + 0.5, 97.0 - 3.1 * i as f64),
            vec![i as f64, 1.0],
        );
    }
    dirty.apply_updates(&batch);
    let path = temp_path("dirty.gbsnap");
    dirty.write_snapshot(&path).expect("save dirty");
    let loaded = GeoBlock::read_snapshot(&path).expect("load dirty");
    assert_eq!(loaded.content_hash(), dirty.content_hash());
    // And the loaded block still answers like the original.
    for p in &polys() {
        assert_eq!(loaded.count(p).0, dirty.count(p).0);
    }
}

#[test]
fn loaded_engine_matches_freshly_built_engine() {
    let base = base_data(6000);
    let (block, _) = build(&base, 9, &Filter::all());
    let s = spec();
    let workload = polys();

    // "Production" engine: serve traffic, learn, rebuild the cache.
    let engine = GeoBlockEngine::new(block.clone(), 0.25);
    for p in &workload {
        engine.select(p, &s);
    }
    engine.rebuild_cache();
    let path = temp_path("engine.gbsnap");
    engine.write_snapshot(&path).expect("save");

    // "Restarted" engine from the snapshot vs a freshly built engine fed
    // the same history.
    let restarted = GeoBlockEngine::from_snapshot(&path, 0.25).expect("load");
    let fresh = GeoBlockEngine::new(block.clone(), 0.25);
    for p in &workload {
        fresh.select(p, &s);
    }
    fresh.rebuild_cache();

    assert_eq!(
        restarted.block_snapshot().content_hash(),
        block.content_hash()
    );
    assert_eq!(
        restarted.trie_snapshot().content_hash(),
        fresh.trie_snapshot().content_hash(),
        "restored cache must be bit-identical to a rebuilt one"
    );
    restarted.reset_metrics();
    for p in &workload {
        let a = restarted.select(p, &s).result;
        let b = fresh.select(p, &s).result;
        let (c, _) = block.select(p, &s);
        assert!(
            a.approx_eq(&b, 0.0),
            "loaded vs fresh engine: {a:?} vs {b:?}"
        );
        assert!(
            a.approx_eq(&c, 1e-9),
            "loaded engine vs block: {a:?} vs {c:?}"
        );
        assert_eq!(restarted.count(p).result, block.count(p).0);
    }
    assert!(
        restarted.metrics().direct_hits > 0,
        "warm start must hit the restored cache immediately"
    );

    // The learned statistics survived: a post-restart rebuild reproduces
    // the same cache the fresh engine rebuilds.
    restarted.rebuild_cache();
    fresh.rebuild_cache();
    assert_eq!(
        restarted.trie_snapshot().content_hash(),
        fresh.trie_snapshot().content_hash(),
        "post-restart rebuild must see the pre-restart statistics"
    );
}

#[test]
fn bad_snapshots_yield_typed_errors_never_panics() {
    let base = base_data(1500);
    let (block, _) = build(&base, 8, &Filter::all());
    let bytes = Snapshot::new(block).to_bytes();

    // Wrong magic.
    let mut m = bytes.clone();
    m[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        Snapshot::from_bytes(&m).unwrap_err(),
        SnapshotError::BadMagic
    ));

    // Future version.
    let mut m = bytes.clone();
    m[8] = 0x7F;
    m[9] = 0x7F;
    assert!(matches!(
        Snapshot::from_bytes(&m).unwrap_err(),
        SnapshotError::UnsupportedVersion { .. }
    ));

    // Truncations at a spread of byte positions.
    for cut in (0..bytes.len()).step_by(101) {
        assert!(Snapshot::from_bytes(&bytes[..cut]).is_err());
    }

    // Bit flips across the whole file: typed error or (impossible here)
    // an identical block — never a panic, never silent corruption.
    for i in (0..bytes.len()).step_by(13) {
        let mut m = bytes.clone();
        m[i] ^= 0x40;
        let _ = Snapshot::from_bytes(&m);
    }

    // The same guarantees through the file-based engine API.
    let path = temp_path("corrupt.gbsnap");
    std::fs::write(&path, b"GBSNAP\r\nbut then garbage follows").unwrap();
    assert!(GeoBlockEngine::from_snapshot(&path, 0.1).is_err());
    assert!(matches!(
        GeoBlock::read_snapshot(&temp_path("does-not-exist.gbsnap")).unwrap_err(),
        SnapshotError::Io(_)
    ));
}
