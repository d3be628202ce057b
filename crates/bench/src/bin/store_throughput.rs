//! `store_throughput` — resident arena vs paged column store scans.
//!
//! Measures full-database `LB_Man` filter scans through three storage
//! tiers:
//!
//! * **resident**: the in-RAM arena (the pre-pagefile layout);
//! * **warm pool**: the paged column store with a block pool big enough
//!   to hold every block — pure streaming/lease overhead;
//! * **cold pool**: the same store with a pool holding a quarter of the
//!   blocks, so most block reads miss, evict, and go back through the
//!   CRC-checked pagefile.
//!
//! All three paths must produce bit-identical distances (asserted on
//! every run) — the paged executor is an admissibility-preserving
//! drop-in, so the ratios are pure storage cost. Results go to one JSON
//! document (`BENCH_store.json` by default, schema `bench_store/v1`)
//! with pairs/second per tier and the observed pool hit rates; CI
//! archives it so storage regressions leave a machine-readable trail.
//!
//! ```sh
//! store_throughput --out BENCH_store.json
//! ```

use earthmover_bench::Workload;
use earthmover_core::lower_bounds::LbManhattan;
use earthmover_core::parallel::try_scan_distances;
use earthmover_core::storage;
use earthmover_core::HistogramDb;
use earthmover_obs::json_f64;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    seed: u64,
    /// Minimum measured wall time per tier, in seconds.
    min_time: f64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 2006,
        min_time: 0.05,
        out: "BENCH_store.json".to_string(),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value} is not a number"))?
            }
            "--min-time" => {
                args.min_time = value
                    .parse()
                    .map_err(|_| format!("--min-time {value} is not a number"))?
            }
            "--out" => args.out = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Best observed scans-per-second over timed epochs totalling at least
/// `min_time` (see `kernel_throughput` for why best-of beats average).
fn scans_per_sec(min_time: f64, mut scan: impl FnMut()) -> f64 {
    scan();
    let t0 = Instant::now();
    scan();
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let per_epoch = ((min_time / (8.0 * one)).ceil() as u64).max(1);
    let mut best = 0.0f64;
    let mut total = 0.0;
    while total < min_time {
        let start = Instant::now();
        for _ in 0..per_epoch {
            scan();
        }
        let dt = start.elapsed().as_secs_f64().max(1e-9);
        total += dt;
        best = best.max(per_epoch as f64 / dt);
    }
    best
}

/// One full-database filter scan; panics (benchmark, not library code)
/// if a block read fails.
fn scan_once(db: &HistogramDb, q: &earthmover_core::Histogram, measure: &LbManhattan) -> Vec<f64> {
    match try_scan_distances(db, q, measure, 1) {
        Ok(d) => d,
        Err(e) => panic!("scan failed: {e}"),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Corpus sized so the cold pool's working set is a real multiple of
    // its capacity: 4096 rows over 64-row blocks = 64 blocks; the cold
    // pool keeps 16.
    let dims = 32usize;
    let db_size = 4096usize;
    let rows_per_block = 64usize;
    let w = Workload::build(dims, db_size, 1, args.seed);
    let cost = w.grid.cost_matrix();
    let measure = LbManhattan::new(&cost);
    let q = &w.queries[0];

    let path = std::env::temp_dir().join(format!("store_throughput_{}.emdc", std::process::id()));
    storage::save_paged_with(&storage::StdVfs, &w.db, &path, rows_per_block)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let block_bytes = rows_per_block * dims * std::mem::size_of::<f64>();
    let blocks = db_size.div_ceil(rows_per_block);
    let warm = storage::open_paged(&path, blocks * block_bytes).map_err(|e| e.to_string())?;
    let cold = storage::open_paged(&path, (blocks / 4) * block_bytes).map_err(|e| e.to_string())?;

    // Correctness gate: every tier must agree bit for bit.
    let resident_dists = scan_once(&w.db, q, &measure);
    for (tier, db) in [("warm", &warm), ("cold", &cold)] {
        let dists = scan_once(db, q, &measure);
        assert_eq!(
            resident_dists, dists,
            "{tier} paged scan diverged from the resident path"
        );
    }

    let resident = scans_per_sec(args.min_time, || {
        black_box(scan_once(black_box(&w.db), q, &measure));
    });
    let warm_rate = scans_per_sec(args.min_time, || {
        black_box(scan_once(black_box(&warm), q, &measure));
    });
    let cold_rate = scans_per_sec(args.min_time, || {
        black_box(scan_once(black_box(&cold), q, &measure));
    });
    let _ = std::fs::remove_file(&path);

    let warm_stats = warm.pool_stats().ok_or("warm store is not paged")?;
    let cold_stats = cold.pool_stats().ok_or("cold store is not paged")?;
    let n = db_size as f64;
    eprintln!(
        "store_throughput: dims={dims} rows={db_size} blocks={blocks} \
         (pool warm={} cold={} frames)",
        warm.pool_capacity(),
        cold.pool_capacity()
    );
    eprintln!(
        "  resident {:>12.0} pairs/s\n  warm     {:>12.0} pairs/s  (hit rate {:.3})\n  \
         cold     {:>12.0} pairs/s  (hit rate {:.3})",
        resident * n,
        warm_rate * n,
        warm_stats.hit_rate(),
        cold_rate * n,
        cold_stats.hit_rate()
    );

    let doc = format!(
        "{{\"schema\":\"bench_store/v1\",\"seed\":{},\"dims\":{dims},\"rows\":{db_size},\
         \"rows_per_block\":{rows_per_block},\"blocks\":{blocks},\"measure\":\"LB_Man\",\
         \"resident_pairs_per_sec\":{},\"warm_pairs_per_sec\":{},\"cold_pairs_per_sec\":{},\
         \"warm_pool_frames\":{},\"cold_pool_frames\":{},\
         \"warm_hit_rate\":{},\"cold_hit_rate\":{}}}",
        args.seed,
        json_f64(resident * n),
        json_f64(warm_rate * n),
        json_f64(cold_rate * n),
        warm.pool_capacity(),
        cold.pool_capacity(),
        json_f64(warm_stats.hit_rate()),
        json_f64(cold_stats.hit_rate()),
    );
    std::fs::write(&args.out, &doc).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!("wrote {}", args.out);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
