//! Crash-consistency tests: column files written through the
//! fault-injecting VFS, with simulated power loss at arbitrary points.
//!
//! The contract under test (see DESIGN.md, "Failure model and recovery"):
//! a column file exists, for a reader, only once `ColumnWriter::finish`
//! has synced it. After a crash, reopening either yields exactly the
//! rows that were written (the file was finished), or a *typed*
//! [`StorageError`] — torn and corrupt pages are caught by their
//! checksums. The store never panics and never returns rows that were
//! not written.

use earthmover_core::pipeline::QueryEngine;
use earthmover_core::storage::open_paged_with;
use earthmover_core::{BinGrid, Histogram, PipelineError};
use earthmover_storage::vfs::FaultVfs;
use earthmover_storage::{
    crc32, ColumnStore, ColumnWriter, PageFile, PageId, StorageError, Vfs, PAGE_SIZE,
};
use proptest::prelude::*;
use std::path::Path;

const DIMS: usize = 4;
/// Physical bytes per page slot: content plus the 8-byte CRC trailer.
const PHYS: usize = PAGE_SIZE + 8;
/// Page of the first block: page 0 is the page-file header, page 1 the
/// column meta page.
const FIRST_BLOCK_PAGE: usize = 2;
const PATH: &str = "crash.emdc";

/// `n` mass-normalized rows of `DIMS` bins.
fn rows(n: usize, seed: u64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * DIMS);
    for i in 0..n as u64 {
        let w: Vec<f64> = (0..DIMS as u64)
            .map(|j| ((seed ^ (i * 31 + j * 7)) % 13) as f64 + 1.0)
            .collect();
        let total: f64 = w.iter().sum();
        out.extend(w.iter().map(|x| x / total));
    }
    out
}

/// Reads every block of the column file at [`PATH`] back as one arena.
fn read_all(vfs: &FaultVfs) -> Result<Vec<f64>, StorageError> {
    let mut store = ColumnStore::open_with(vfs, Path::new(PATH))?;
    let mut all = Vec::new();
    for b in 0..store.meta().num_blocks() {
        all.extend(store.read_block(b)?);
    }
    Ok(all)
}

/// Writes `data` in `chunks` appends of `rows_per_block`-row blocks and,
/// when `finish` is set, finishes (syncs) the file.
fn write(vfs: &FaultVfs, data: &[f64], rows_per_block: usize, chunks: usize, finish: bool) {
    let mut w =
        ColumnWriter::create_with(vfs, Path::new(PATH), DIMS, rows_per_block).expect("create");
    let rows_per_chunk = (data.len() / DIMS).div_ceil(chunks.max(1)).max(1);
    for chunk in data.chunks(rows_per_chunk * DIMS) {
        w.append_rows(chunk).expect("append");
    }
    if finish {
        w.finish().expect("finish");
    }
}

/// Overwrites bytes of `path`'s durable image by flipping exactly the
/// bits that differ — the only mutation the fault VFS offers.
fn patch(vfs: &FaultVfs, path: &Path, at: usize, new: &[u8]) {
    let mut file = vfs.open(path).unwrap();
    let mut old = vec![0u8; new.len()];
    file.read_exact_at(&mut old, at as u64).unwrap();
    for (i, (o, n)) in old.iter().zip(new).enumerate() {
        for bit in 0..8 {
            if (o ^ n) & (1 << bit) != 0 {
                assert!(vfs.flip_bit(path, at + i, bit));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A clean crash (nothing unsynced persists) before `finish` leaves
    /// no readable store — a typed error, never rows; after `finish` the
    /// file reopens with exactly the written rows.
    #[test]
    fn clean_crash_restores_last_sync(
        n in 0usize..60,
        rows_per_block in 1usize..8,
        chunks in 1usize..5,
        finish in any::<bool>(),
    ) {
        let vfs = FaultVfs::new();
        let data = rows(n, n as u64);
        write(&vfs, &data, rows_per_block, chunks, finish);
        vfs.crash();
        match read_all(&vfs) {
            Ok(back) => {
                prop_assert!(finish, "an unfinished file reopened with {} values", back.len());
                prop_assert_eq!(back, data);
            }
            Err(e) => prop_assert!(!finish, "a finished file failed to reopen: {}", e),
        }
    }

    /// A crash that persists an arbitrary prefix of the unsynced writes —
    /// tearing the next one at a sector boundary — either yields a typed
    /// error or exactly the finished rows. `finish` may itself run out of
    /// space after `budget` writes (none when `budget >= 40`), so the
    /// crash can land inside it.
    #[test]
    fn partial_crash_is_typed_error_or_valid_state(
        n in 1usize..60,
        rows_per_block in 1usize..8,
        budget in 0u64..50,
        persist in 0usize..60,
        torn in 0usize..8192,
    ) {
        let vfs = FaultVfs::new();
        let data = rows(n, 7);
        let mut w = ColumnWriter::create_with(&vfs, Path::new(PATH), DIMS, rows_per_block)
            .expect("create");
        w.append_rows(&data).expect("append");
        vfs.set_write_budget((budget < 40).then_some(budget));
        let finished = w.finish().is_ok();
        vfs.set_write_budget(None);
        vfs.crash_with_partial(persist, torn);
        match read_all(&vfs) {
            Err(_typed) => prop_assert!(!finished, "a finished file failed to reopen"),
            Ok(back) => prop_assert_eq!(back, data, "reopened with other rows"),
        }
    }
}

/// Bit rot in a synced block page is caught by that page's checksum and
/// named by its id: from `ColumnStore::read_block`, from a recovery
/// scan, and as the reason of the typed error a paged k-NN returns.
#[test]
fn flipped_bit_reports_corrupt_page_id() {
    // 256 rows of 4 bins are 8 KiB: two pages per block, four blocks.
    let rows_per_block = 256;
    let data = rows(4 * rows_per_block, 3);
    let grid = BinGrid::new(vec![2, 2]);
    let query = Histogram::new(data[..DIMS].to_vec()).unwrap();
    for page in [FIRST_BLOCK_PAGE, FIRST_BLOCK_PAGE + 3, FIRST_BLOCK_PAGE + 7] {
        let block = (page - FIRST_BLOCK_PAGE) / 2;
        let vfs = FaultVfs::new();
        write(&vfs, &data, rows_per_block, 1, true);
        assert!(vfs.flip_bit(PATH, page * PHYS + 1000, 5));
        let expected = PageId(page as u32);

        let mut store = ColumnStore::open_with(&vfs, Path::new(PATH)).unwrap();
        for b in 0..store.meta().num_blocks() {
            match store.read_block(b) {
                Err(StorageError::PageChecksum(p)) if b == block => assert_eq!(p, expected),
                Ok(rows) if b != block => {
                    let at = b * rows_per_block * DIMS;
                    assert_eq!(rows, data[at..at + rows.len()]);
                }
                other => panic!("block {b} with page {page} flipped: {other:?}"),
            }
        }

        let (_, report) = PageFile::open_with_recovery_with(&vfs, Path::new(PATH)).unwrap();
        assert_eq!(report.corrupt_pages, vec![expected]);

        // The paged query stack scans every block, so the flip surfaces
        // as a typed source error naming the page.
        let paged = open_paged_with(&vfs, Path::new(PATH), 1 << 20).unwrap();
        let engine = QueryEngine::builder(&paged, &grid).build();
        match engine.knn(&query, 3) {
            Err(PipelineError::Source { reason, .. }) => assert!(
                reason.contains(&format!("page {page} checksum mismatch")),
                "{reason}"
            ),
            Err(other) => panic!("expected a Source error, got {other}"),
            Ok(_) => panic!("a k-NN over a corrupt block must not succeed"),
        }
    }
}

/// ENOSPC during `append_rows` or `finish` is a typed I/O error. The
/// half-written file never reopens with rows, and once space is back a
/// rewrite of the same path reads back exactly.
#[test]
fn enospc_mid_append_is_typed_and_recoverable() {
    let data = rows(40, 11);
    for budget in 0..30u64 {
        let vfs = FaultVfs::new();
        let mut w = ColumnWriter::create_with(&vfs, Path::new(PATH), DIMS, 3).unwrap();
        vfs.set_write_budget(Some(budget));
        let err = match w.append_rows(&data) {
            Err(e) => e,
            Ok(()) => match w.finish() {
                Err(e) => e,
                Ok(_) => panic!("budget {budget} covered the whole file"),
            },
        };
        assert!(matches!(err, StorageError::Io(_)), "budget {budget}: {err}");
        assert!(err.to_string().contains("ENOSPC"), "budget {budget}: {err}");

        vfs.set_write_budget(None);
        vfs.crash();
        assert!(
            read_all(&vfs).is_err(),
            "budget {budget}: a half-written file reopened"
        );
        write(&vfs, &data, 3, 2, true);
        assert_eq!(read_all(&vfs).unwrap(), data, "budget {budget}");
    }
}

/// Short reads and writes at the VFS layer are invisible above it.
#[test]
fn short_io_does_not_affect_store_correctness() {
    let vfs = FaultVfs::new();
    vfs.set_short_writes(Some(100));
    vfs.set_short_reads(Some(64));
    let data = rows(700, 5);
    write(&vfs, &data, 300, 3, true);
    assert_eq!(read_all(&vfs).unwrap(), data);
}

/// A page-file header of version 1 (pages without checksum trailers) is
/// rejected as a typed `BadHeader`, even with a valid header CRC.
#[test]
fn v1_header_is_rejected() {
    let vfs = FaultVfs::new();
    let data = rows(10, 1);
    write(&vfs, &data, 4, 1, true);
    let path = Path::new(PATH);
    let mut header = [0u8; 16];
    vfs.open(path)
        .unwrap()
        .read_exact_at(&mut header, 0)
        .unwrap();
    header[4..8].copy_from_slice(&1u32.to_le_bytes());
    patch(&vfs, path, 0, &header);
    patch(&vfs, path, 16, &crc32(&header).to_le_bytes());
    match ColumnStore::open_with(&vfs, path) {
        Err(StorageError::BadHeader(msg)) => assert!(msg.contains("version 1"), "{msg}"),
        Err(other) => panic!("expected BadHeader, got {other}"),
        Ok(_) => panic!("a v1 header must not open"),
    }
}
