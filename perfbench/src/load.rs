//! The closed-loop clients: each sends its next request only after the
//! previous answer arrived, over one keep-alive connection.

use crate::served::IO_TIMEOUT;
use crate::spec::{Inputs, K};
use earthmover_core::{HistogramDb, RetrievalMode};
use earthmover_serve::{Client, ClientError, Outcome};
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One answered (or failed) request.
pub struct Record {
    /// Index into `Inputs::queries`.
    pub query: usize,
    pub latency: Duration,
    /// False for the warm-up pass.
    pub timed: bool,
    pub outcome: Result<Outcome, String>,
}

/// Buffer-pool and filter-cache counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub pool_bypasses: u64,
    pub filter_hits: u64,
    pub filter_misses: u64,
}

impl CacheCounters {
    pub fn read(db: &HistogramDb) -> CacheCounters {
        let mut c = CacheCounters::default();
        if let Some(p) = db.pool_stats() {
            c.pool_hits = p.hits;
            c.pool_misses = p.misses;
            c.pool_evictions = p.evictions;
            c.pool_bypasses = p.bypasses;
        }
        let f = db.filter_cache().stats();
        c.filter_hits = f.hits;
        c.filter_misses = f.misses;
        c
    }

    pub fn since(&self, before: &CacheCounters) -> CacheCounters {
        CacheCounters {
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            pool_evictions: self.pool_evictions - before.pool_evictions,
            pool_bypasses: self.pool_bypasses - before.pool_bypasses,
            filter_hits: self.filter_hits - before.filter_hits,
            filter_misses: self.filter_misses - before.filter_misses,
        }
    }
}

/// What the untraced closed-loop run saw.
pub struct LoadRun {
    pub records: Vec<Record>,
    /// From the release of the timed window to the last timed answer.
    pub window: Duration,
    /// Counter deltas over the timed window.
    pub caches: CacheCounters,
}

/// One k-NN request in the workload's mode.
pub fn send(
    client: &mut Client,
    inputs: &Inputs,
    query: usize,
    sketch_only: bool,
) -> Result<Outcome, ClientError> {
    let q = &inputs.queries[query];
    if sketch_only {
        client.knn_mode(q, K as u32, 0, RetrievalMode::SketchOnly)
    } else {
        client.knn(q, K as u32, 0)
    }
}

/// Issues one request and records it; a wire failure reconnects so the
/// client can go on.
fn issue(
    client: &mut Option<Client>,
    addr: SocketAddr,
    inputs: &Inputs,
    query: usize,
    sketch_only: bool,
    timed: bool,
) -> Record {
    let start = Instant::now();
    let outcome = match client.as_mut() {
        Some(c) => send(c, inputs, query, sketch_only).map_err(|e| e.to_string()),
        None => Err("no connection".to_string()),
    };
    let latency = start.elapsed();
    if outcome.is_err() {
        *client = Client::connect(addr, IO_TIMEOUT).ok();
    }
    Record {
        query,
        latency,
        timed,
        outcome,
    }
}

/// Runs every client's list once as warm-up, then replays the lists in
/// a closed loop for `window`. Requests still in flight at the end of
/// the window complete and count.
pub fn closed_loop(
    addr: SocketAddr,
    db: &HistogramDb,
    inputs: &Inputs,
    sketch_only: bool,
    window: Duration,
) -> Result<LoadRun, String> {
    let clients = inputs.lists.len();
    // Warm-up done → counters read and the window starts → timed loop.
    let warmed = Barrier::new(clients + 1);
    let release = Barrier::new(clients + 1);
    let deadline: Mutex<Option<Instant>> = Mutex::new(None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .lists
            .iter()
            .map(|list| {
                let (warmed, release, deadline) = (&warmed, &release, &deadline);
                scope.spawn(move || {
                    let mut client = Client::connect(addr, IO_TIMEOUT).ok();
                    let mut records = Vec::new();
                    for &q in list {
                        records.push(issue(&mut client, addr, inputs, q, sketch_only, false));
                    }
                    warmed.wait();
                    release.wait();
                    let end = deadline
                        .lock()
                        .expect("deadline lock poisoned")
                        .expect("deadline set before release");
                    let mut last = Instant::now();
                    for &q in list.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        records.push(issue(&mut client, addr, inputs, q, sketch_only, true));
                        last = Instant::now();
                    }
                    (records, last)
                })
            })
            .collect();
        warmed.wait();
        let before = CacheCounters::read(db);
        let start = Instant::now();
        *deadline.lock().expect("deadline lock poisoned") = Some(start + window);
        release.wait();
        let mut records = Vec::new();
        let mut last = start;
        for h in handles {
            let (mut r, l) = h.join().map_err(|_| "client thread panicked".to_string())?;
            records.append(&mut r);
            last = last.max(l);
        }
        let caches = CacheCounters::read(db).since(&before);
        Ok(LoadRun {
            records,
            window: last - start,
            caches,
        })
    })
}

/// The clients' lists interleaved into one sequence — the order the
/// traced and in-process passes replay.
pub fn interleaved(inputs: &Inputs) -> Vec<usize> {
    let longest = inputs.lists.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| inputs.lists.iter().filter_map(move |l| l.get(i).copied()))
        .collect()
}
