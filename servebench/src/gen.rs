//! Seeded input generation: the read streams and update batches every
//! workload replays. Inputs are a pure function of the workload seed, so
//! the same seed always yields the same request sequence, and the traced
//! run replays exactly what the untraced run sends.

use gb_data::AggSpec;
use gb_geom::{Point, Polygon};
use geoblocks::api::{self, QueryRequest};
use geoblocks::UpdateBatch;
use std::borrow::Cow;

/// Neighbourhoods per dashboard page (`/v1/batch` items).
pub const PAGE_ITEMS: usize = 4;
/// Share of dashboard requests that are a page (`/v1/batch`).
const BATCH_SHARE: f64 = 1.0 / 9.0;
/// Share of dashboard and explore requests that are COUNTs.
const COUNT_SHARE: f64 = 0.2;
/// Largest explore offset from a neighbourhood, in km (the domain unit).
const EXPLORE_SHIFT_KM: f64 = 0.2;
/// Rows per ingest update batch.
pub const UPDATE_ROWS: usize = 16;
/// Side of the square data domain, in km (`datasets::nyc_domain`).
const DOMAIN_KM: f64 = 60.0;

/// Stream ids, so that no two consumers draw from the same sequence.
pub const STREAM_WRITER: u64 = 100;
pub const STREAM_GATE_BEFORE: u64 = 200;
pub const STREAM_GATE_AFTER: u64 = 201;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` under workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Zipf(1) over ranks `0..n`: rank `k` has weight `1 / (k + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64 + 1.0);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let x = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

/// A query polygon: one of the fixed neighbourhoods, or one shifted by an
/// offset (a new shape the caches have never seen).
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Hood(usize),
    Shifted(usize, f64, f64),
}

/// One read request of a stream.
#[derive(Debug, Clone, Copy)]
pub enum Read {
    Select(Shape),
    Count(Shape),
    /// A dashboard page: [`PAGE_ITEMS`] consecutive neighbourhoods from
    /// the given one on.
    Batch(usize),
}

/// Which read mix a stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeated keys: Zipf neighbourhoods, pages of four.
    Dashboard,
    /// Distinct keys: every request a freshly shifted neighbourhood.
    Explore,
}

/// An endless, seeded read stream.
#[derive(Debug, Clone)]
pub struct ReadStream {
    rng: Rng,
    mix: Mix,
    hoods: Zipf,
    pages: Zipf,
}

impl ReadStream {
    pub fn new(mix: Mix, seed: u64, stream: u64, n_hoods: usize) -> ReadStream {
        ReadStream {
            rng: Rng::new(seed, stream),
            mix,
            hoods: Zipf::new(n_hoods),
            pages: Zipf::new(n_pages(n_hoods)),
        }
    }

    pub fn next_read(&mut self) -> Read {
        let u = self.rng.unit();
        match self.mix {
            Mix::Dashboard => {
                if u < BATCH_SHARE {
                    Read::Batch(self.pages.sample(&mut self.rng))
                } else if u < BATCH_SHARE + COUNT_SHARE {
                    Read::Count(Shape::Hood(self.hoods.sample(&mut self.rng)))
                } else {
                    Read::Select(Shape::Hood(self.hoods.sample(&mut self.rng)))
                }
            }
            Mix::Explore => {
                let hood = self.hoods.sample(&mut self.rng);
                let dx = self.rng.range(-EXPLORE_SHIFT_KM, EXPLORE_SHIFT_KM);
                let dy = self.rng.range(-EXPLORE_SHIFT_KM, EXPLORE_SHIFT_KM);
                let shape = Shape::Shifted(hood, dx, dy);
                if u < COUNT_SHARE {
                    Read::Count(shape)
                } else {
                    Read::Select(shape)
                }
            }
        }
    }
}

/// Pages of the dashboard: page `p` shows neighbourhoods
/// `PAGE_ITEMS·p ..` — the most popular ones.
pub const PAGES: usize = 8;

/// Distinct dashboard pages over `n_hoods` neighbourhoods.
pub fn n_pages(n_hoods: usize) -> usize {
    (n_hoods / PAGE_ITEMS).clamp(1, PAGES)
}

/// The fixed query material: neighbourhoods, the aggregate spec, and the
/// wire bodies of every repeated request, encoded once before timing.
#[derive(Debug)]
pub struct Inputs {
    pub hoods: Vec<Polygon>,
    pub spec: AggSpec,
    /// Encoded bodies: selects `0..n`, counts `n..2n`, pages after.
    bodies: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn new(hoods: Vec<Polygon>, spec: AggSpec) -> Inputs {
        let mut inputs = Inputs {
            hoods,
            spec,
            bodies: Vec::new(),
        };
        let n = inputs.hoods.len();
        let mut bodies = Vec::with_capacity(2 * n + n_pages(n));
        for hood in 0..n {
            bodies.push(api::encode_request(
                &inputs.request(&Read::Select(Shape::Hood(hood))),
            ));
        }
        for hood in 0..n {
            bodies.push(api::encode_request(
                &inputs.request(&Read::Count(Shape::Hood(hood))),
            ));
        }
        for page in 0..n_pages(n) {
            bodies.push(api::encode_request(&inputs.request(&Read::Batch(page))));
        }
        inputs.bodies = bodies;
        inputs
    }

    fn polygon(&self, shape: Shape) -> Polygon {
        match shape {
            Shape::Hood(i) => self.hoods[i].clone(),
            Shape::Shifted(i, dx, dy) => Polygon::new(
                self.hoods[i]
                    .exterior()
                    .iter()
                    .map(|p| Point::new(p.x + dx, p.y + dy))
                    .collect(),
            ),
        }
    }

    /// The typed request for `read`.
    pub fn request(&self, read: &Read) -> QueryRequest {
        match *read {
            Read::Select(shape) => QueryRequest::Select {
                polygon: self.polygon(shape),
                spec: self.spec.clone(),
            },
            Read::Count(shape) => QueryRequest::Count {
                polygon: self.polygon(shape),
            },
            // Items alternate SELECT and COUNT, as a dashboard page mixes
            // aggregate tiles with counters.
            Read::Batch(page) => QueryRequest::Batch {
                requests: (0..PAGE_ITEMS)
                    .map(|j| {
                        let shape = Shape::Hood((page * PAGE_ITEMS + j) % self.hoods.len());
                        if j % 2 == 0 {
                            self.request(&Read::Select(shape))
                        } else {
                            self.request(&Read::Count(shape))
                        }
                    })
                    .collect(),
            },
        }
    }

    /// The wire body for `read`: pre-encoded for repeated shapes, encoded
    /// here for a shifted (never repeated) one.
    pub fn body(&self, read: &Read) -> Cow<'_, [u8]> {
        let n = self.hoods.len();
        match *read {
            Read::Select(Shape::Hood(i)) => Cow::Borrowed(&self.bodies[i]),
            Read::Count(Shape::Hood(i)) => Cow::Borrowed(&self.bodies[n + i]),
            Read::Batch(page) => Cow::Borrowed(&self.bodies[2 * n + page]),
            Read::Select(Shape::Shifted(..)) | Read::Count(Shape::Shifted(..)) => {
                Cow::Owned(api::encode_request(&self.request(read)))
            }
        }
    }
}

/// The endpoint a read is posted to.
pub fn path(read: &Read) -> &'static str {
    match read {
        Read::Select(_) => "/v1/select",
        Read::Count(_) => "/v1/count",
        Read::Batch(_) => "/v1/batch",
    }
}

/// `n` update batches of [`UPDATE_ROWS`] rows at uniformly random points
/// of the domain, with values in the taxi schema's ranges.
pub fn update_batches(seed: u64, n: usize, n_cols: usize) -> Vec<UpdateBatch> {
    // fare, distance, tip, tip rate, passengers, pickup, dropoff.
    const RANGES: [(f64, f64); 7] = [
        (2.5, 60.0),
        (0.1, 20.0),
        (0.0, 10.0),
        (0.0, 0.35),
        (1.0, 7.0),
        (1_420_070_400.0, 1_427_846_400.0),
        (1_420_070_400.0, 1_427_850_000.0),
    ];
    let mut rng = Rng::new(seed, STREAM_WRITER);
    (0..n)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for _ in 0..UPDATE_ROWS {
                let at = Point::new(rng.range(0.0, DOMAIN_KM), rng.range(0.0, DOMAIN_KM));
                let values = (0..n_cols)
                    .map(|c| {
                        let (lo, hi) = RANGES[c % RANGES.len()];
                        let v = rng.range(lo, hi);
                        if c >= 4 {
                            v.floor()
                        } else {
                            v
                        }
                    })
                    .collect();
                batch.push(at, values);
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut s = ReadStream::new(Mix::Explore, seed, 1, 195);
            (0..50)
                .map(|_| format!("{:?}", s.next_read()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(195);
        let mut rng = Rng::new(1, 1);
        let mut hist = vec![0u32; 195];
        for _ in 0..100_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(195) ≈ 17 % of the mass.
        assert!((15_000..19_000).contains(&hist[0]), "{}", hist[0]);
        assert!(hist[0] > hist[1] && hist[1] > hist[10]);
    }
}
