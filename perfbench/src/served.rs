//! Set-up and lifetime of the in-process `emdd` server.
//!
//! Set-up runs from the generated histograms in memory to the first
//! answered `health`: ingest, the paged write and mount, the sketch
//! build, and the server's own engine (R-tree) build. Each piece is
//! timed on its own so work moved between them shows.

use crate::spec::{Inputs, Spec, WORKERS};
use earthmover_core::{storage, HistogramDb, SketchTier};
use earthmover_serve::{Client, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Seconds spent in each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub ingest_s: f64,
    pub paged_write_s: f64,
    pub sketch_build_s: f64,
    /// Server start, including its engine and R-tree build, up to the
    /// first answered `health`.
    pub engine_build_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.ingest_s + self.paged_write_s + self.sketch_build_s + self.engine_build_s
    }
}

/// What the server ran on, handed back once it has stopped.
pub struct Mounted {
    pub db: HistogramDb,
    /// A copy of the sketch tier the server was given.
    pub sketch: Option<SketchTier>,
}

/// I/O timeout of every benchmark connection: far above any query here.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds the served state from `inputs`, starts a server on loopback,
/// waits for its first answered `health`, runs `live` against it, then
/// stops it and waits for it to end.
pub fn serve<R>(
    spec: &Spec,
    inputs: &Inputs,
    work: &Path,
    sketch_seed: u64,
    live: impl FnOnce(SocketAddr, &HistogramDb) -> Result<R, String>,
) -> Result<(SetupTimes, Mounted, R), String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let mut db = HistogramDb::new(spec.dims);
    for h in &inputs.rows {
        db.try_push(h.clone())
            .map_err(|e| format!("ingest failed: {e}"))?;
    }
    times.ingest_s = t.elapsed().as_secs_f64();

    if let Some(divisor) = spec.pool_divisor {
        let t = Instant::now();
        let path = work.join("rows.emdc");
        storage::save_paged(&db, &path).map_err(|e| format!("paged write failed: {e}"))?;
        let budget = db.len() * db.dims() * std::mem::size_of::<f64>() / divisor;
        drop(db);
        db = storage::open_paged(&path, budget).map_err(|e| format!("paged open failed: {e}"))?;
        times.paged_write_s = t.elapsed().as_secs_f64();
    }

    let sketch = if spec.builds_sketch {
        let t = Instant::now();
        let tier = SketchTier::build(&db, &inputs.grid, sketch_seed)
            .map_err(|e| format!("sketch build failed: {e}"))?;
        times.sketch_build_s = t.elapsed().as_secs_f64();
        Some(tier)
    } else {
        None
    };
    let served_sketch = sketch.clone();

    let t = Instant::now();
    let cfg = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?;
    let stop = server.stop_handle();
    let grid = &inputs.grid;
    let db_ref = &db;
    let out = std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.run_with(db_ref, grid, None, served_sketch));
        let out = first_health(addr).and_then(|()| {
            times.engine_build_s = t.elapsed().as_secs_f64();
            live(addr, db_ref)
        });
        stop.stop();
        let ran = handle
            .join()
            .map_err(|_| "server thread panicked".to_string())
            .and_then(|r| r.map_err(|e| format!("server failed: {e}")));
        out.and_then(|out| ran.map(|()| out))
    })?;
    Ok((times, Mounted { db, sketch }, out))
}

/// Blocks until the server answers `health`. The listener is bound
/// before the server builds its engine, so the connect succeeds at
/// once and the answer waits for the build.
fn first_health(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    client.health().map_err(|e| format!("health: {e}"))?;
    Ok(())
}
