//! Load over real loopback sockets: closed-loop readers (a dashboard tab
//! waits for each tile before asking for the next) and an open-loop
//! writer (an independent feed that posts on a fixed schedule).

use crate::gen::{self, Inputs, Read, ReadStream};
use gb_serve::client::{ClientResponse, Connection};
use gb_serve::ServeConfig;
use geoblocks::api::{self, QueryReply};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A keep-alive client that reconnects before the server's
/// per-connection request cap closes the connection under it, and after
/// any transport error.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Connection>,
    served: usize,
    cap: usize,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            served: 0,
            cap: ServeConfig::default().keep_alive_max_requests.max(1),
        }
    }

    /// Open a fresh connection if there is none, or if the server's cap
    /// would close the current one after its next reply.
    pub fn connect(&mut self) -> Result<(), String> {
        if self.served >= self.cap {
            self.conn = None;
        }
        if self.conn.is_none() {
            self.served = 0;
            self.conn = Some(Connection::connect(self.addr).map_err(|e| e.to_string())?);
        }
        Ok(())
    }

    /// POST `body` to `path`; a transport error is returned as text.
    pub fn post(&mut self, path: &str, body: &[u8]) -> Result<ClientResponse, String> {
        self.connect()?;
        let conn = self.conn.as_mut().ok_or("not connected")?;
        self.served += 1;
        let response = conn.request("POST", path, &[], body);
        if response.is_err() {
            self.conn = None;
        }
        response.map_err(|e| e.to_string())
    }
}

/// What one closed-loop reader saw.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Client-side round trip of every successful read, in ns, grouped
    /// by the slice of the window the read completed in.
    pub slices: Vec<Vec<u64>>,
    pub completed: u64,
    pub failed: u64,
    /// Every `sample_every`-th successful reply, kept for the post-run
    /// correctness check.
    pub samples: Vec<(Read, Vec<u8>)>,
}

/// Send reads from `stream` one after another from `start` until
/// `deadline`, sorting latencies into slices of `slice` length.
pub fn read_closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    stream: &mut ReadStream,
    (start, deadline, slice): (Instant, Instant, Duration),
    sample_every: usize,
) -> ReaderLog {
    let mut client = Client::new(addr);
    let n_slices = (deadline - start)
        .as_nanos()
        .div_ceil(slice.as_nanos().max(1))
        .max(1);
    let mut log = ReaderLog {
        slices: vec![Vec::new(); n_slices as usize],
        ..ReaderLog::default()
    };
    while Instant::now() < deadline {
        let read = stream.next_read();
        let body = inputs.body(&read);
        // Connection set-up (every `keep_alive_max_requests` reads) is
        // paid inside the window but kept out of the read's latency.
        if client.connect().is_err() {
            log.failed += 1;
            continue;
        }
        let t = Instant::now();
        let response = client.post(gen::path(&read), &body);
        let done = Instant::now();
        let ns = nanos(done - t);
        match response {
            Ok(r) if r.status == 200 => {
                if log.completed.is_multiple_of(sample_every as u64) {
                    log.samples.push((read, r.body));
                }
                log.completed += 1;
                // The read that crosses the deadline joins the last slice.
                let k = ((done - start).as_nanos() / slice.as_nanos().max(1)) as usize;
                let last = log.slices.len() - 1;
                log.slices[k.min(last)].push(ns);
            }
            _ => log.failed += 1,
        }
    }
    log
}

/// When the writer posts each batch.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Open loop: batch `k` is due at `start + k × period`; batches due
    /// at or after the deadline are not sent.
    Every(Duration, Instant),
    /// Closed loop: each batch is due when the previous one completed.
    BackToBack,
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriterLog {
    /// Due time to reply, per committed batch, in ns.
    pub latencies_ns: Vec<u64>,
    /// Due time to send, per batch sent, in ns: how late the generator ran.
    pub lag_ns: Vec<u64>,
    /// Indices of the committed batches, in commit order.
    pub committed: Vec<usize>,
    pub failed: u64,
}

/// Post encoded update `bodies` on `schedule`, checking that each reply
/// commits the next data epoch. `epoch0` is the epoch before the first.
pub fn write(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    schedule: Schedule,
    deadline: Option<Instant>,
    epoch0: u64,
) -> WriterLog {
    let mut client = Client::new(addr);
    let mut log = WriterLog::default();
    for (k, body) in bodies.iter().enumerate() {
        let due = match schedule {
            Schedule::Every(period, start) => start + period * k as u32,
            Schedule::BackToBack => Instant::now(),
        };
        if deadline.is_some_and(|d| due >= d) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.lag_ns
            .push(nanos(Instant::now().saturating_duration_since(due)));
        let response = client.post("/v1/update", body);
        let latency = nanos(Instant::now().saturating_duration_since(due));
        let next_epoch = epoch0 + log.committed.len() as u64 + 1;
        match response.map(|r| (r.status, api::decode_reply(&r.body))) {
            Ok((200, Ok(QueryReply::Update(reply)))) if reply.epoch == next_epoch => {
                log.committed.push(k);
                log.latencies_ns.push(latency);
            }
            _ => log.failed += 1,
        }
    }
    log
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
