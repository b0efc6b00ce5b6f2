//! The traced run: the workload's seeded stream replayed single-threaded
//! and in process, with spans recorded by the benchmark around calls into
//! each layer's public functions (no program code is instrumented).
//!
//! Reads rotate through four modes so that every comparison sees the
//! same stream and the same cache state:
//!
//! 0. a real socket round trip (client view, for the transport residual);
//! 1. `GbServer::handle` in process (the server without the socket);
//! 2. the benchmark's mirror of the server's query path, untraced;
//! 3. the same mirror with spans: a `request` root whose children wrap
//!    decode, the result-cache key and lookup, the engine call, encode
//!    and the cache insert, in the order the server makes them. Right
//!    after it, sibling `est.*` spans time `GeoBlock::cover` and
//!    `select_covering` / `count_covering` on the same polygon and the
//!    same pinned block — the engine's internal split, estimated.
//!
//! Updates (the ingest schedule, or the commit phase after the reads)
//! always take the traced mirror path.

use crate::gen::{self, Inputs, Read, ReadStream};
use crate::load::{nanos, Client};
use gb_common::Pool;
use gb_serve::http::HttpRequest;
use gb_serve::GbServer;
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::{GeoBlockEngine, QueryStats, UpdateBatch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval. Spans of one request share `req`; `parent` is the
/// index of the enclosing span, `None` for roots and estimates. Traced
/// reads are numbered from 0, updates down from `u32::MAX`, and detached
/// update estimates up from `u32::MAX / 2`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    pub fn open(&mut self, name: &'static str, req: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        u32::try_from(self.spans.len() - 1).unwrap_or(u32::MAX)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one parent never overlap here — the
    /// replay is single-threaded).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                if let Some(c) = covered.get_mut(p as usize) {
                    *c += span.dur_ns();
                }
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\treq\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

/// Spans for one mirrored request, or nothing when untraced.
struct Timing<'s> {
    spans: Option<&'s mut Spans>,
    req: u32,
    root: Option<u32>,
}

impl Timing<'_> {
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.spans.as_deref_mut() {
            Some(spans) => spans.time(name, self.req, self.root, f),
            None => f(),
        }
    }
}

/// What the mirror did with one request.
struct Mirrored {
    body: Vec<u8>,
    hit: bool,
    /// Span id of the engine call, when the engine was called.
    engine_span: Option<u32>,
}

/// The server's query path, step by step through public calls.
struct Mirror<'a> {
    server: &'a GbServer,
    engine: &'a GeoBlockEngine,
    filter_key: u64,
}

impl<'a> Mirror<'a> {
    fn new(server: &'a GbServer, engine: &'a GeoBlockEngine) -> Mirror<'a> {
        Mirror {
            server,
            engine,
            // The server keys its cache with the hash of its filter label.
            filter_key: gb_store::fnv1a64(server.config().filter_label.as_bytes()),
        }
    }

    fn serve(&self, body: &[u8], mut t: Timing<'_>) -> Result<Mirrored, String> {
        let parsed = t
            .run("codec.decode", || api::decode_request(body))
            .map_err(|e| format!("decode: {e}"))?;
        let key = t.run("result_cache.key", || {
            api::request_cache_key(&parsed, self.filter_key)
        });
        if let Some(key) = key {
            let cache = self.server.cache();
            let cached = t.run("result_cache.get", || {
                cache.get(key, self.engine.data_epoch())
            });
            if let Some(body) = cached {
                return Ok(Mirrored {
                    body,
                    hit: true,
                    engine_span: None,
                });
            }
        }
        let engine_name = match &parsed {
            QueryRequest::Select { .. } => "engine.select",
            QueryRequest::Count { .. } => "engine.count",
            QueryRequest::Batch { .. } => "engine.batch",
            QueryRequest::Update { .. } => "engine.update",
        };
        let outcome = t.run(engine_name, || match &parsed {
            QueryRequest::Batch { requests } => self
                .engine
                .query_batch(requests, self.server.config().threads),
            _ => self.engine.query(&parsed),
        });
        let engine_span = t.spans.as_ref().map(|s| s.spans.len() as u32 - 1);
        let reply = t.run("codec.encode", || api::encode_reply(&outcome));
        let outcome = outcome.map_err(|e| format!("engine: {e}"))?;
        if let Some(key) = key {
            let copy = reply.clone();
            t.run("result_cache.insert", || {
                self.server.cache().insert(key, copy, outcome.epoch())
            });
        }
        if matches!(parsed, QueryRequest::Update { .. }) {
            t.run("result_cache.purge", || {
                self.server.cache().purge_stale(self.engine.data_epoch())
            });
        }
        Ok(Mirrored {
            body: reply,
            hit: false,
            engine_span,
        })
    }
}

/// Per traced read: what the metrics need beyond the spans.
#[derive(Debug, Clone, Default)]
struct ReadRecord {
    kind: &'static str,
    hit: bool,
    root_ns: u64,
    engine_ns: Option<u64>,
    cover_ns: u64,
    combine_ns: u64,
    /// Pool fan-out of a batch's item combines minus their sequential sum.
    fanout_extra_ns: Option<i64>,
    covering_cells: usize,
    reply_bytes: usize,
    stats: QueryStats,
}

/// Everything the traced replay measured.
#[derive(Debug, Default)]
pub struct ReplayLog {
    pub spans: Spans,
    records: Vec<ReadRecord>,
    pub socket_ns: Vec<u64>,
    pub handle_ns: Vec<u64>,
    pub mirror_ns: Vec<u64>,
    pub lag_ns: Vec<u64>,
    pub update_apply_ns: Vec<u64>,
    pub committed: Vec<usize>,
    pub reads: u64,
    pub failed: u64,
    pub samples: Vec<(Read, Vec<u8>)>,
    pub problems: Vec<String>,
    /// Pool tasks and busy time spent by the `est.fanout` estimates, to
    /// be taken out of the window's pool counters.
    pub est_pool_tasks: u64,
    pub est_pool_busy_ns: u64,
}

/// The replay's inputs.
pub struct ReplayPlan<'a> {
    pub server: &'a GbServer,
    pub engine: &'a GeoBlockEngine,
    pub addr: std::net::SocketAddr,
    pub inputs: &'a Inputs,
    pub streams: Vec<ReadStream>,
    pub batches: &'a [UpdateBatch],
    /// Open-loop update period during the reads (`None`: read-only).
    pub update_period: Option<Duration>,
    pub deadline: Instant,
    pub sample_every: usize,
}

/// Replay the plan's reads (and scheduled updates) until the deadline.
pub fn replay(mut plan: ReplayPlan<'_>, log: &mut ReplayLog) {
    let mirror = Mirror::new(plan.server, plan.engine);
    let mut client = Client::new(plan.addr);
    let start = Instant::now();
    let mut next_update = 0usize;
    let mut i = 0usize;
    while Instant::now() < plan.deadline {
        if let Some(period) = plan.update_period {
            let due = start + period * next_update as u32;
            if next_update < plan.batches.len() && due < plan.deadline && Instant::now() >= due {
                traced_update(&mirror, plan.batches, next_update, due, log);
                next_update += 1;
                continue;
            }
        }
        // Streams take turns in blocks of four, so each passes every mode.
        let n_streams = plan.streams.len();
        let read = plan.streams[(i / 4) % n_streams].next_read();
        let body = plan.inputs.body(&read);
        let reply = match i % 4 {
            0 => {
                // A failed connect fails the post below as well.
                let _ = client.connect();
                let t = Instant::now();
                let r = client.post(gen::path(&read), &body);
                let ns = nanos(t.elapsed());
                match r {
                    Ok(r) if r.status == 200 => {
                        log.socket_ns.push(ns);
                        Some(r.body)
                    }
                    _ => None,
                }
            }
            1 => {
                let req = HttpRequest::new("POST", gen::path(&read)).with_body(body.to_vec());
                let t = Instant::now();
                let r = plan.server.handle(&req);
                let ns = nanos(t.elapsed());
                (r.status == 200).then(|| {
                    log.handle_ns.push(ns);
                    r.body
                })
            }
            2 => {
                let t = Instant::now();
                let r = mirror.serve(
                    &body,
                    Timing {
                        spans: None,
                        req: 0,
                        root: None,
                    },
                );
                let ns = nanos(t.elapsed());
                r.ok().map(|m| {
                    log.mirror_ns.push(ns);
                    m.body
                })
            }
            _ => traced_read(&mirror, plan.inputs, &read, &body, log),
        };
        log.reads += 1;
        match reply {
            Some(body) => {
                if log.reads.is_multiple_of(plan.sample_every as u64) {
                    log.samples.push((read, body));
                }
            }
            None => log.failed += 1,
        }
        i += 1;
    }
}

/// Replay `batches` back to back, traced (the commit phase after reads).
pub fn replay_commits(
    server: &GbServer,
    engine: &GeoBlockEngine,
    batches: &[UpdateBatch],
    log: &mut ReplayLog,
) {
    let mirror = Mirror::new(server, engine);
    for k in 0..batches.len() {
        traced_update(&mirror, batches, k, Instant::now(), log);
    }
}

fn traced_read(
    mirror: &Mirror<'_>,
    inputs: &Inputs,
    read: &Read,
    body: &[u8],
    log: &mut ReplayLog,
) -> Option<Vec<u8>> {
    let req = log.records.len() as u32;
    let root = log.spans.open("request", req, None);
    let served = mirror.serve(
        body,
        Timing {
            spans: Some(&mut log.spans),
            req,
            root: Some(root),
        },
    );
    log.spans.close(root);
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            log.problems.push(format!("traced read failed: {e}"));
            return None;
        }
    };
    let mut rec = ReadRecord {
        kind: match read {
            Read::Select(_) => "select",
            Read::Count(_) => "count",
            Read::Batch(_) => "batch",
        },
        hit: served.hit,
        root_ns: log.spans.spans[root as usize].dur_ns(),
        engine_ns: served
            .engine_span
            .map(|id| log.spans.spans[id as usize].dur_ns()),
        reply_bytes: served.body.len(),
        ..ReadRecord::default()
    };
    if let Ok(reply) = api::decode_reply(&served.body) {
        rec.stats = reply.stats();
    }
    estimate(
        mirror,
        &inputs.request(read),
        &inputs.spec,
        req,
        log,
        &mut rec,
    );
    log.records.push(rec);
    Some(served.body)
}

/// The engine's internal split, estimated by sibling spans on the same
/// polygon(s) and the same pinned block.
fn estimate(
    mirror: &Mirror<'_>,
    request: &QueryRequest,
    spec: &gb_data::AggSpec,
    req: u32,
    log: &mut ReplayLog,
    rec: &mut ReadRecord,
) {
    let block = mirror.engine.block_snapshot();
    let polygons: Vec<(&gb_geom::Polygon, bool)> = match request {
        QueryRequest::Select { polygon, .. } => vec![(polygon, true)],
        QueryRequest::Count { polygon } => vec![(polygon, false)],
        QueryRequest::Batch { requests } => requests
            .iter()
            .filter_map(|r| match r {
                QueryRequest::Select { polygon, .. } => Some((polygon, true)),
                QueryRequest::Count { polygon } => Some((polygon, false)),
                _ => None,
            })
            .collect(),
        QueryRequest::Update { .. } => Vec::new(),
    };
    let mut coverings = Vec::with_capacity(polygons.len());
    for &(polygon, select) in &polygons {
        let t = log.spans.open("est.cover", req, None);
        let covering = block.cover(polygon);
        log.spans.close(t);
        rec.cover_ns += log.spans.spans[t as usize].dur_ns();
        rec.covering_cells += covering.len();
        let t = log.spans.open("est.combine", req, None);
        if select {
            black_box(block.select_covering(&covering, spec));
        } else {
            black_box(block.count_covering(&covering));
        }
        log.spans.close(t);
        rec.combine_ns += log.spans.spans[t as usize].dur_ns();
        coverings.push((covering, select));
    }
    if matches!(request, QueryRequest::Batch { .. }) {
        let threads = mirror.server.config().threads;
        let pool_before = gb_common::pool::stats();
        let t = log.spans.open("est.fanout", req, None);
        black_box(Pool::new(threads).run(coverings.len(), |i| {
            let (covering, select) = &coverings[i];
            if *select {
                block.select_covering(covering, spec).0.count
            } else {
                block.count_covering(covering).0
            }
        }));
        log.spans.close(t);
        let pool_after = gb_common::pool::stats();
        log.est_pool_tasks += pool_after.tasks_total - pool_before.tasks_total;
        log.est_pool_busy_ns += pool_after.busy_ns_total - pool_before.busy_ns_total;
        let fanout = log.spans.spans[t as usize].dur_ns() as i64;
        rec.fanout_extra_ns = Some(fanout - rec.combine_ns as i64);
    }
}

fn traced_update(
    mirror: &Mirror<'_>,
    batches: &[UpdateBatch],
    k: usize,
    due: Instant,
    log: &mut ReplayLog,
) {
    log.lag_ns
        .push(nanos(Instant::now().saturating_duration_since(due)));
    let body = api::encode_request(&QueryRequest::Update {
        batch: batches[k].clone(),
    });
    let req = u32::MAX - k as u32;
    let root = log.spans.open("request", req, None);
    let served = mirror.serve(
        &body,
        Timing {
            spans: Some(&mut log.spans),
            req,
            root: Some(root),
        },
    );
    log.spans.close(root);
    let want_epoch = log.committed.len() as u64 + 1;
    let ok = served.as_ref().is_ok_and(|s| {
        matches!(api::decode_reply(&s.body), Ok(QueryReply::Update(r)) if r.epoch == want_epoch)
    });
    match served {
        Ok(Mirrored {
            engine_span: Some(id),
            ..
        }) if ok => {
            log.update_apply_ns
                .push(log.spans.spans[id as usize].dur_ns());
            log.committed.push(k);
        }
        _ => {
            log.failed += 1;
            log.problems
                .push(format!("update {k} did not commit epoch {want_epoch}"));
        }
    }
}

/// Detached update-path estimates: clone, merge and trie-path walk on
/// copies of the current block and trie, one per batch.
pub fn estimate_updates(
    engine: &GeoBlockEngine,
    batches: &[&UpdateBatch],
    spans: &mut Spans,
) -> [Vec<u64>; 3] {
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    for (k, batch) in batches.iter().enumerate() {
        let req = u32::MAX / 2 + k as u32;
        let block = engine.block_snapshot();
        let trie = engine.trie_snapshot();
        let t = spans.open("est.update.clone", req, None);
        let mut copy = (*block).clone();
        spans.close(t);
        out[0].push(spans.spans[t as usize].dur_ns());
        let t = spans.open("est.update.merge", req, None);
        black_box(copy.apply_updates(batch));
        spans.close(t);
        out[1].push(spans.spans[t as usize].dur_ns());
        let t = spans.open("est.update.trie_path", req, None);
        let mut trie_copy = (*trie).clone();
        for (at, values) in &batch.rows {
            trie_copy.update_along_path(block.grid().leaf_for_point(*at), values);
        }
        spans.close(t);
        out[2].push(spans.spans[t as usize].dur_ns());
        black_box((copy, trie_copy));
    }
    out
}

/// Per-name self-time breakdown of the traced reads.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Name → (spans, total self ns), read requests only.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Total root (request) duration over traced reads.
    pub request_ns: u64,
    /// Root self time: time no child span covers.
    pub unattributed_ns: u64,
    pub requests: u64,
}

/// Summarize the traced reads' span trees.
pub fn breakdown(log: &ReplayLog) -> Breakdown {
    let self_ns = log.spans.self_times();
    let n_reads = log.records.len() as u32;
    let mut b = Breakdown::default();
    for (span, &own) in log.spans.spans.iter().zip(&self_ns) {
        // Read requests carry ids below the number of read records;
        // estimates are siblings and stay out of the request tree.
        if span.req >= n_reads || span.name.starts_with("est.") {
            continue;
        }
        if span.parent.is_none() {
            b.request_ns += span.dur_ns();
            b.unattributed_ns += own;
            b.requests += 1;
        } else {
            let e = b.layers.entry(span.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += own;
        }
    }
    b
}

/// Per-layer figures computed from the traced reads' records.
pub struct ReadFigures {
    pub median_us: BTreeMap<&'static str, Option<f64>>,
    pub cover_cells: Option<f64>,
    pub reply_bytes: Option<f64>,
    pub cells_combined: Option<f64>,
    pub searches: Option<f64>,
    pub query_cells: Option<f64>,
    pub engine_residual_us: Option<f64>,
    pub fanout_us: Option<f64>,
}

pub fn read_figures(log: &ReplayLog) -> ReadFigures {
    use crate::stats::Samples;
    let us = |v: Vec<f64>| Samples::new(v).median().map(|ns| ns / 1e3);
    let mut median_us = BTreeMap::new();
    for name in [
        "codec.decode",
        "codec.encode",
        "result_cache.get",
        "result_cache.insert",
        "engine.select",
        "engine.count",
        "engine.batch",
        "est.cover",
        "est.combine",
    ] {
        let v: Vec<f64> = log
            .spans
            .spans
            .iter()
            .filter(|s| s.name == name && (s.req as usize) < log.records.len())
            .map(|s| s.dur_ns() as f64)
            .collect();
        median_us.insert(name, us(v));
    }
    let mean =
        |f: &dyn Fn(&ReadRecord) -> f64| Samples::new(log.records.iter().map(f).collect()).mean();
    let residuals: Vec<f64> = log
        .records
        .iter()
        .filter(|r| r.kind != "batch")
        .filter_map(|r| {
            r.engine_ns
                .map(|e| e as f64 - r.cover_ns as f64 - r.combine_ns as f64)
        })
        .collect();
    let fanout: Vec<f64> = log
        .records
        .iter()
        .filter_map(|r| r.fanout_extra_ns.map(|f| f as f64))
        .collect();
    let n_polys = |r: &ReadRecord| {
        if r.kind == "batch" {
            gen::PAGE_ITEMS
        } else {
            1
        }
    };
    ReadFigures {
        median_us,
        cover_cells: mean(&|r| r.covering_cells as f64 / n_polys(r) as f64),
        reply_bytes: mean(&|r| r.reply_bytes as f64),
        cells_combined: mean(&|r| r.stats.cells_combined as f64),
        searches: mean(&|r| r.stats.searches as f64),
        query_cells: mean(&|r| r.stats.query_cells as f64),
        engine_residual_us: us(residuals),
        fanout_us: us(fanout),
    }
}

/// Traced reads that hit the result cache, of all traced reads.
pub fn traced_hits(log: &ReplayLog) -> (u64, u64) {
    let hits = log.records.iter().filter(|r| r.hit).count() as u64;
    (hits, log.records.len() as u64)
}

/// Root durations of the traced reads, in ns.
pub fn traced_request_ns(log: &ReplayLog) -> crate::stats::Samples {
    crate::stats::Samples::new(log.records.iter().map(|r| r.root_ns as f64).collect())
}
