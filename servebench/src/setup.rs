//! The fixed set-up every workload shares: the synthetic taxi set built
//! at the paper's level 17, an adaptive engine with a 5 % cache budget,
//! and a `gb_serve` server with its default configuration on loopback.

use gb_bench::{paper_level, Ctx};
use gb_data::{datasets, extract, Filter};
use gb_serve::{GbServer, RunningServer, ServeConfig};
use geoblocks::trace::{TraceConfig, Tracer};
use geoblocks::{build, GeoBlock, GeoBlockEngine, RebuildPolicy};
use std::sync::Arc;
use std::time::Instant;

/// Cache budget as a share of the block's cell-aggregate bytes (fig17).
pub const CACHE_BUDGET: f64 = 0.05;

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub extract_s: f64,
    pub build_s: f64,
    /// Engine construction and server start.
    pub serve_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.extract_s + self.build_s + self.serve_s
    }
}

/// A built engine behind a running server, plus an untouched copy of the
/// block the correctness gate uses as its reference.
pub struct Served {
    pub running: RunningServer,
    pub engine: Arc<GeoBlockEngine>,
    pub initial: GeoBlock,
    pub times: SetupTimes,
    pub block_bytes: usize,
}

/// Generate `rows` taxi rows, extract, build, and start the server. The
/// data seed is fixed: workloads vary only their request streams.
pub fn serve(rows: usize, rebuild_every: usize) -> Result<Served, String> {
    let ctx = Ctx::default();
    let t = Instant::now();
    let ds = datasets::nyc_taxi(rows, ctx.seed);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let extract_s = t.elapsed().as_secs_f64();
    drop(ds);

    let t = Instant::now();
    let (block, _) = build(&base, paper_level(17), &Filter::all());
    let build_s = t.elapsed().as_secs_f64();
    drop(base);

    let initial = block.clone();
    let t = Instant::now();
    let block_bytes = block.memory_bytes();
    // The tracer is pinned to its documented defaults so that no
    // environment variable changes what a run measures.
    let engine = Arc::new(
        GeoBlockEngine::new(block, CACHE_BUDGET)
            .with_policy(RebuildPolicy::EveryN(rebuild_every))
            .with_tracer(Arc::new(Tracer::new(TraceConfig::default()))),
    );
    let running = RunningServer::start(
        GbServer::new(Arc::clone(&engine), ServeConfig::default()),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let serve_s = t.elapsed().as_secs_f64();

    Ok(Served {
        running,
        engine,
        initial,
        times: SetupTimes {
            generate_s,
            extract_s,
            build_s,
            serve_s,
        },
        block_bytes,
    })
}
