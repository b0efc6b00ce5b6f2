//! CI gate: snapshot persistence round-trip + rejection checks.
//!
//! Runs in tier-1 CI (`persist-roundtrip` step). Builds a GeoBlock from
//! the synthetic taxi data, serves a short workload, snapshots the
//! engine, reloads it, and verifies the acceptance criteria of the
//! persistence subsystem end-to-end:
//!
//! 1. loaded `GeoBlock::content_hash()` == saved hash (lossless),
//! 2. `GeoBlockEngine::from_snapshot` answers bit-identically to the
//!    engine it was saved from, warm from the first query,
//! 3. corrupt / truncated / wrong-magic / wrong-version snapshots return
//!    typed errors — never panics,
//! 4. the hardened request path: an unknown filter column is a clean
//!    `DataError`, not a process kill,
//! 5. a checked-in version-2 file whose `TRIE` node arrays follow the
//!    older insertion-order layout still verifies, and its warm engine
//!    answers bit-identically to the range scan.
//!
//! Prints one `ok:`/`FAIL:` line per check; exits 1 on any failure.

use gb_data::{datasets, extract, AggSpec, CmpOp, Filter, Rows};
use gb_geom::Polygon;
use geoblocks::{build, GeoBlock, GeoBlockEngine, Snapshot, SnapshotError, SnapshotRef};

struct Gate {
    failed: bool,
}

impl Gate {
    fn check(&mut self, name: &str, ok: bool, detail: &str) {
        if ok {
            println!("ok:   {name}");
        } else {
            println!("FAIL: {name} — {detail}");
            self.failed = true;
        }
    }
}

fn main() {
    let mut gate = Gate { failed: false };
    let dir = std::env::temp_dir().join("gb_persist_check");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("gate.gbsnap");

    // Build + serve: small but real (taxi skew, 7-column schema).
    let ds = datasets::nyc_taxi(60_000, 42);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, 9, &Filter::all());
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    let polys: Vec<Polygon> = gb_data::polygons::neighborhoods(30, 42);
    let engine = GeoBlockEngine::new(block.clone(), 0.1);
    for p in &polys {
        engine.select(p, &spec);
    }
    engine.rebuild_cache();

    // 1. Save → load → content-hash identity.
    engine.write_snapshot(&path).expect("snapshot save");
    let loaded_block = GeoBlock::read_snapshot(&path).expect("block load");
    gate.check(
        "block round-trip content_hash",
        loaded_block.content_hash() == block.content_hash(),
        "loaded hash differs from saved hash",
    );

    // 2. Warm engine identity: same answers, cache hits from query one.
    let warm = GeoBlockEngine::from_snapshot(&path, 0.1).expect("engine load");
    gate.check(
        "restored trie is bit-identical",
        warm.trie_snapshot().content_hash() == engine.trie_snapshot().content_hash(),
        "trie content hash differs",
    );
    warm.reset_metrics();
    let mut identical = true;
    for p in &polys {
        let a = warm.select(p, &spec);
        let b = engine.select(p, &spec);
        identical &= a.result.approx_eq(&b.result, 0.0);
        identical &= warm.count(p).result == engine.count(p).result;
    }
    gate.check(
        "loaded engine answers bit-identically",
        identical,
        "SELECT/COUNT diverged between saved and loaded engines",
    );
    gate.check(
        "warm start hits the cache immediately",
        warm.metrics().direct_hits > 0,
        "no direct hits — restored cache is cold",
    );

    // 3. Rejection paths: typed errors, no panics.
    let bytes = std::fs::read(&path).expect("read snapshot");
    let mut m = bytes.clone();
    m[0] ^= 0xFF;
    gate.check(
        "wrong magic rejected",
        matches!(Snapshot::from_bytes(&m), Err(SnapshotError::BadMagic)),
        "expected BadMagic",
    );
    let mut m = bytes.clone();
    m[8] = 0xFF;
    m[9] = 0x7F;
    gate.check(
        "future version rejected",
        matches!(
            Snapshot::from_bytes(&m),
            Err(SnapshotError::UnsupportedVersion { .. })
        ),
        "expected UnsupportedVersion",
    );
    // ~48 flip probes spread across the file (each probe re-parses the
    // whole snapshot, so the count — not the file size — bounds runtime).
    let flip_step = (bytes.len() / 48).max(1);
    let flips_ok = (0..bytes.len()).step_by(flip_step).all(|i| {
        let mut m = bytes.clone();
        m[i] ^= 0x10;
        Snapshot::from_bytes(&m).is_err()
    });
    gate.check(
        "single-byte corruption rejected",
        flips_ok,
        "a bit flip slipped through the checksums",
    );
    let cut_step = (bytes.len() / 16).max(1);
    let cuts_ok = (0..bytes.len())
        .step_by(cut_step)
        .all(|c| Snapshot::from_bytes(&bytes[..c]).is_err());
    gate.check("truncation rejected", cuts_ok, "a truncated file parsed");
    gate.check(
        "missing file is a typed Io error",
        matches!(
            GeoBlock::read_snapshot(&dir.join("missing.gbsnap")),
            Err(SnapshotError::Io(_))
        ),
        "expected Io error",
    );

    // 3b. The PYRA section: corruption inside the pyramid payload must be
    // a typed rejection, and a pre-PYRA (version 1) snapshot must load
    // via rebuild-on-load and answer bit-identically.
    //
    // Locate the section by walking the container framing (magic 8 +
    // version 2 + flags 2 + count 4, then per section tag 4 + len 8 +
    // checksum 8 + payload) — a raw byte scan for "PYRA" could match
    // float payload data in an earlier section and corrupt that instead,
    // making this probe vacuous.
    let pyra_payload_at = {
        let mut off = 16usize;
        loop {
            assert!(off + 20 <= bytes.len(), "walked off the container");
            let tag = &bytes[off..off + 4];
            let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
            if tag == b"PYRA" {
                break off + 20;
            }
            off += 20 + len;
        }
    };
    let mut m = bytes.clone();
    m[pyra_payload_at + 64] ^= 0x20; // a byte well inside the payload
    gate.check(
        "corrupted PYRA section rejected",
        Snapshot::from_bytes(&m).is_err(),
        "a flipped pyramid byte slipped through",
    );
    let v1_bytes = SnapshotRef {
        block: &block,
        trie: None,
        hits: None,
        hot_queries: None,
    }
    .to_bytes_v1();
    match Snapshot::from_bytes(&v1_bytes) {
        Err(e) => gate.check("pre-PYRA snapshot loads", false, &format!("{e}")),
        Ok(old) => {
            gate.check(
                "pre-PYRA snapshot loads with rebuilt pyramid",
                old.block.content_hash() == block.content_hash()
                    && old.block.pyramid().content_hash() == block.pyramid().content_hash(),
                "content or pyramid drifted after rebuild-on-load",
            );
            let mut identical = true;
            for p in polys.iter().take(8) {
                let (a, _) = old.block.select(p, &spec);
                let (b, _) = block.select(p, &spec);
                identical &= a.approx_eq(&b, 0.0);
            }
            gate.check(
                "rebuilt pyramid answers bit-identically",
                identical,
                "SELECT diverged after rebuild-on-load",
            );
        }
    }

    // 4. Hardened request path.
    gate.check(
        "unknown filter column is a clean error",
        Filter::on(&base, "definitely_not_a_column", CmpOp::Eq, 1.0).is_err(),
        "expected DataError::UnknownColumn",
    );

    // 5. A file written with the insertion-order TRIE layout (see
    // `crates/core/tests/fixtures`): same diamonds as its writer queried.
    let fixture = include_bytes!("../../../core/tests/fixtures/insertion_order_v2.gbsnap");
    let fixture_path = dir.join("insertion_order_v2.gbsnap");
    std::fs::write(&fixture_path, fixture).expect("write fixture copy");
    match (
        Snapshot::from_bytes(fixture),
        GeoBlockEngine::from_snapshot(&fixture_path, 0.5),
    ) {
        (Ok(snap), Ok(warm)) => {
            let spec = AggSpec::k_aggregates(snap.block.schema(), 4);
            let diamond = |cx: f64, cy: f64, r: f64| {
                Polygon::new(vec![
                    gb_geom::Point::new(cx, cy - r),
                    gb_geom::Point::new(cx + r, cy),
                    gb_geom::Point::new(cx, cy + r),
                    gb_geom::Point::new(cx - r, cy),
                ])
            };
            let identical = [(30.0, 30.0, 18.0), (70.0, 40.0, 14.0), (45.0, 75.0, 20.0)]
                .iter()
                .all(|&(cx, cy, r)| {
                    let poly = diamond(cx, cy, r);
                    let (scan, _) = snap.block.select_scan(&poly, &spec);
                    warm.select(&poly, &spec).result.approx_eq(&scan, 0.0)
                });
            gate.check(
                "insertion-order TRIE file loads warm and exact",
                snap.trie.is_some() && identical && warm.metrics().direct_hits > 0,
                "fixture answers diverged from the scan, or its cache is cold",
            );
        }
        (Err(e), _) | (_, Err(e)) => {
            gate.check("insertion-order TRIE file loads", false, &format!("{e}"))
        }
    }
    let _ = std::fs::remove_file(&fixture_path);

    let _ = std::fs::remove_file(&path);
    if gate.failed {
        eprintln!("persist_check: FAILED");
        std::process::exit(1);
    }
    println!("persist_check: all checks passed");
}
