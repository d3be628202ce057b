//! Concurrency test: the block pool's mutex-guarded frames must stay
//! consistent when many threads lease overlapping blocks at once.

use earthmover_storage::{BlockPool, ColumnWriter, FaultVfs};
use std::path::Path;
use std::sync::Arc;

const DIMS: usize = 4;
const ROWS_PER_BLOCK: usize = 8;
const BLOCKS: usize = 24;
const THREADS: usize = 16;
const ROUNDS: usize = 200;

/// Row `i` is `(i + 1, 1, 1, 1) / (i + 4)`: every block holds rows no
/// other block does, so a lease showing another block's bytes is caught.
fn rows() -> Vec<f64> {
    (0..BLOCKS * ROWS_PER_BLOCK)
        .flat_map(|i| {
            let total = i as f64 + 4.0;
            [
                (i as f64 + 1.0) / total,
                1.0 / total,
                1.0 / total,
                1.0 / total,
            ]
        })
        .collect()
}

#[test]
fn concurrent_leases_see_their_own_rows() {
    let data = Arc::new(rows());
    let vfs = FaultVfs::new();
    let mut writer =
        ColumnWriter::create_with(&vfs, Path::new("conc.emdc"), DIMS, ROWS_PER_BLOCK).unwrap();
    writer.append_rows(&data).unwrap();
    // A pool smaller than the working set forces constant eviction under
    // contention — the worst case for frame bookkeeping.
    let pool = Arc::new(BlockPool::new(writer.finish().unwrap(), 4));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let data = Arc::clone(&data);
            std::thread::spawn(move || {
                let block_len = ROWS_PER_BLOCK * DIMS;
                let mut held = Vec::new();
                for round in 0..ROUNDS {
                    // Neighbouring threads walk overlapping blocks.
                    let b = (t + round * (t % 3 + 1)) % BLOCKS;
                    let lease = pool.lease(b).unwrap();
                    assert_eq!(
                        &*lease,
                        &data[b * block_len..(b + 1) * block_len],
                        "thread {t} round {round}: block {b} holds other rows"
                    );
                    // Keep a few leases pinned so some misses bypass.
                    if round % 5 == 0 {
                        held.push(lease);
                        if held.len() > 2 {
                            held.remove(0);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }

    let stats = pool.stats();
    assert!(stats.evictions > 0, "the test must have exercised eviction");
    assert_eq!(
        stats.hits + stats.misses + stats.bypasses,
        (THREADS * ROUNDS) as u64,
        "every lease is counted exactly once: {stats:?}"
    );
}
