//! The correctness gate: replies from the server against the reference
//! block's `select_scan` / `count`, at the reply's data epoch.
//!
//! Counts, MIN, MAX and epochs must match exactly. SUM and AVG must
//! match bit for bit or, failing that, agree to [`REL_TOL`]: the engine's
//! warm-cache path folds cached trie children into the result one by
//! one, while the scan folds each covering cell from zero, so the two can
//! round differently in the last bit. Such answers are counted as
//! *inexact* (reported as `trie.inexact_ratio`) rather than failed.

use gb_data::{AggFunc, AggSpec};
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::{AggResult, GeoBlock, UpdateBatch};

/// Largest relative difference accepted for SUM and AVG values.
pub const REL_TOL: f64 = 1e-9;

/// Tally of checked answers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Replies checked (a batch counts once).
    pub checked: u64,
    /// Replies with any mismatch.
    pub failed: u64,
    /// SELECT answers checked (batch items included).
    pub selects: u64,
    /// SELECT answers within [`REL_TOL`] but not bit-identical.
    pub inexact: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.checked += other.checked;
        self.failed += other.failed;
        self.selects += other.selects;
        self.inexact += other.inexact;
    }

    /// Count the outcome of checking one reply; a failure is also
    /// described in `problems`, prefixed by `context`.
    pub fn record(
        &mut self,
        outcome: Result<Tally, String>,
        problems: &mut Vec<String>,
        context: impl FnOnce() -> String,
    ) {
        match outcome {
            Ok(t) => self.add(t),
            Err(why) => {
                self.checked += 1;
                self.failed += 1;
                problems.push(format!("{}: {why}", context()));
            }
        }
    }
}

/// The reference block after the `committed` batches: the initial block
/// with their rows applied, in commit order, by one `apply_updates` call
/// (one call instead of one per batch keeps the post-run check cheap).
/// Rows keep their order, so cells receive the same values in the same
/// sequence; and what the gate compares does not depend on the grouping
/// anyway — counts, MIN and MAX are order-free, and a regrouped SUM
/// stays within [`REL_TOL`].
pub fn reference_at(initial: &GeoBlock, committed: &[&UpdateBatch]) -> GeoBlock {
    let mut block = initial.clone();
    let mut all = UpdateBatch::new();
    for batch in committed {
        for (at, values) in &batch.rows {
            all.push(*at, values.clone());
        }
    }
    block.apply_updates(&all);
    block
}

enum Verdict {
    Exact,
    Inexact,
    Wrong(String),
}

fn compare(got: &AggResult, want: &AggResult, spec: &AggSpec) -> Verdict {
    if got.count != want.count || got.values().len() != want.values().len() {
        return Verdict::Wrong(format!("count {} vs {}", got.count, want.count));
    }
    let mut verdict = Verdict::Exact;
    for ((g, w), req) in got.values().iter().zip(want.values()).zip(&spec.requests) {
        if g.to_bits() == w.to_bits() {
            continue;
        }
        let close = (g - w).abs() <= REL_TOL * g.abs().max(w.abs());
        match req.func {
            AggFunc::Sum | AggFunc::Avg if close => verdict = Verdict::Inexact,
            _ => return Verdict::Wrong(format!("{:?} {g} vs {w}", req.func)),
        }
    }
    verdict
}

/// Check one reply (wire bytes) to `req` against `reference` at `epoch`.
pub fn check_reply(
    reference: &GeoBlock,
    epoch: u64,
    req: &QueryRequest,
    reply: &[u8],
    spec: &AggSpec,
) -> Result<Tally, String> {
    let mut tally = Tally {
        checked: 1,
        ..Tally::default()
    };
    let reply = api::decode_reply(reply).map_err(|e| format!("error reply: {e}"))?;
    check_typed(reference, epoch, req, &reply, spec, &mut tally)?;
    Ok(tally)
}

fn check_typed(
    reference: &GeoBlock,
    epoch: u64,
    req: &QueryRequest,
    reply: &QueryReply,
    spec: &AggSpec,
    tally: &mut Tally,
) -> Result<(), String> {
    if reply.epoch() != epoch {
        return Err(format!("epoch {} vs {epoch}", reply.epoch()));
    }
    match (req, reply) {
        (QueryRequest::Select { polygon, .. }, QueryReply::Select(r)) => {
            tally.selects += 1;
            let (want, _) = reference.select_scan(polygon, spec);
            match compare(&r.result, &want, spec) {
                Verdict::Exact => Ok(()),
                Verdict::Inexact => {
                    tally.inexact += 1;
                    Ok(())
                }
                Verdict::Wrong(why) => Err(format!("select: {why}")),
            }
        }
        (QueryRequest::Count { polygon }, QueryReply::Count(r)) => {
            let (want, _) = reference.count(polygon);
            if r.result == want {
                Ok(())
            } else {
                Err(format!("count {} vs {want}", r.result))
            }
        }
        (QueryRequest::Batch { requests }, QueryReply::Batch(r)) => {
            if requests.len() != r.result.len() {
                return Err(format!(
                    "{} batch items for {}",
                    r.result.len(),
                    requests.len()
                ));
            }
            for (item_req, item) in requests.iter().zip(&r.result) {
                check_typed(reference, epoch, item_req, item, spec, tally)?;
            }
            Ok(())
        }
        _ => Err("reply kind does not match the request".to_string()),
    }
}
