//! A small paged storage engine: a checksummed page file, the EMDC
//! column format on top of it, and one LRU block cache.
//!
//! The paper's problem setting (§1) rests on three pillars: feature
//! extraction, a distance measure, and **storage and retrieval methods
//! for large image databases**. The first two live in `earthmover-core`;
//! this crate supplies the third as a real (if compact) database storage
//! layer rather than a flat file:
//!
//! * [`PageFile`] — a file of fixed-size pages with a checksummed header
//!   and a CRC trailer on every page ([`pagefile`]).
//! * [`ColumnWriter`] / [`ColumnStore`] — histogram rows in fixed-row
//!   column blocks over contiguous page ranges, re-validated on every
//!   read ([`column`]).
//! * [`BlockPool`] — a fixed number of decoded blocks with LRU eviction
//!   among unpinned frames, pinned by [`BlockLease`]s, with
//!   hit/miss/eviction statistics ([`column`]).
//! * [`crc32`] — the one CRC-32 of every on-disk format in the
//!   workspace (page trailers, `EMDB`, the `.emds` sketch sidecar),
//!   slice-by-8 ([`crc`]).
//! * [`Vfs`] — the file abstraction every read and write goes through,
//!   with a fault-injecting backend for crash tests ([`vfs`]).
//!
//! `earthmover-core`'s flat `storage` module remains the convenient
//! import/export format; this crate is the engine a server pages
//! through, and what lets experiments report block-pool hit rates
//! alongside the paper's node-access counts.
//!
//! # Example
//!
//! ```
//! use earthmover_storage::{BlockPool, ColumnStore, ColumnWriter};
//!
//! let dir = std::env::temp_dir().join("earthmover-storage-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("rows.emdc");
//!
//! // Write three 2-bin rows (each of unit mass), two rows per block.
//! let rows = [0.5, 0.5, 1.0, 0.0, 0.25, 0.75];
//! let mut writer = ColumnWriter::create(&path, 2, 2).unwrap();
//! writer.append_rows(&rows).unwrap();
//! drop(writer.finish().unwrap());
//!
//! // Reopen and read through a one-block cache.
//! let pool = BlockPool::new(ColumnStore::open(&path).unwrap(), 1);
//! assert_eq!(pool.meta().num_blocks(), 2);
//! assert_eq!(&*pool.lease(1).unwrap(), &[0.25, 0.75]);
//! assert_eq!(pool.stats().misses, 1);
//! # std::fs::remove_file(&path).unwrap();
//! ```

pub mod column;
pub mod crc;
pub mod pagefile;
pub mod vfs;

pub use column::{
    rows_per_block_for, BlockLease, BlockPool, BlockPoolStats, ColumnMeta, ColumnStore,
    ColumnWriter,
};
pub use crc::crc32;
pub use pagefile::{PageFile, PageId, RecoveryReport, StorageError, PAGE_SIZE};
pub use vfs::{FaultVfs, StdVfs, Vfs, VfsFile};
