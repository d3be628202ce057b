//! Model-based property test: a random sequence of block leases, some
//! held and some released, against a column file behind a small
//! `BlockPool` must behave exactly like slicing the in-memory rows.

use earthmover_storage::{BlockLease, BlockPool, ColumnWriter, FaultVfs};
use proptest::prelude::*;
use std::path::Path;

const DIMS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Lease the i-th block (modulo the block count) and drop it.
    Lease(usize),
    /// Lease the i-th block and keep it pinned.
    Hold(usize),
    /// Release the i-th held lease (modulo the number held).
    Release(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::Lease),
        (0usize..64).prop_map(Op::Hold),
        (0usize..64).prop_map(Op::Release),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_matches_in_memory_model(
        ops in prop::collection::vec(arb_op(), 1..80),
        masses in prop::collection::vec(1u32..100, 1..200),
        rows_per_block in 1usize..9,
        frames in 1usize..6,
    ) {
        // Row i is (m, 1, 1) / (m + 2) for the i-th drawn mass m.
        let model: Vec<f64> = masses
            .iter()
            .flat_map(|&m| {
                let total = f64::from(m) + 2.0;
                [f64::from(m) / total, 1.0 / total, 1.0 / total]
            })
            .collect();
        let vfs = FaultVfs::new();
        let path = Path::new("model.emdc");
        let mut writer = ColumnWriter::create_with(&vfs, path, DIMS, rows_per_block).unwrap();
        writer.append_rows(&model).unwrap();
        let pool = BlockPool::new(writer.finish().unwrap(), frames);
        let blocks = pool.meta().num_blocks();
        prop_assert_eq!(blocks, masses.len().div_ceil(rows_per_block));

        let block_len = rows_per_block * DIMS;
        let expect = |b: usize| &model[b * block_len..((b + 1) * block_len).min(model.len())];
        let mut held: Vec<(usize, BlockLease)> = Vec::new();
        let mut leases = 0u64;
        for op in ops {
            match op {
                Op::Lease(i) | Op::Hold(i) => {
                    let b = i % blocks;
                    let lease = pool.lease(b).unwrap();
                    leases += 1;
                    prop_assert_eq!(&*lease, expect(b));
                    if matches!(op, Op::Hold(_)) {
                        held.push((b, lease));
                    }
                }
                Op::Release(i) if !held.is_empty() => {
                    held.remove(i % held.len());
                }
                Op::Release(_) => {}
            }
            prop_assert!(pool.resident_blocks() <= frames);
            // Pinned leases never change under eviction.
            for (b, lease) in &held {
                prop_assert_eq!(&**lease, expect(*b));
            }
        }
        let s = pool.stats();
        prop_assert_eq!(s.hits + s.misses + s.bypasses, leases);
    }
}
