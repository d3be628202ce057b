//! A small paged storage engine: page file, LRU buffer pool, and slotted
//! record pages.
//!
//! The paper's problem setting (§1) rests on three pillars: feature
//! extraction, a distance measure, and **storage and retrieval methods
//! for large image databases**. The first two live in `earthmover-core`;
//! this crate supplies the third as a real (if compact) database storage
//! layer rather than a flat file:
//!
//! * [`PageFile`] — a file of fixed-size pages with a checksummed header,
//!   page allocation, and a free list ([`pagefile`]).
//! * [`BufferPool`] — a fixed number of in-memory frames over a page
//!   file with pin counts, dirty tracking, LRU eviction, and hit/miss
//!   statistics ([`buffer`]).
//! * [`RecordStore`] — variable-length records in slotted pages on top
//!   of the buffer pool, with stable record ids and full scans
//!   ([`heap`]).
//! * [`crc32`] — the one CRC-32 of every on-disk format in the
//!   workspace (page trailers, `EMDB`, the `.emds` sketch sidecar),
//!   slice-by-8 ([`crc`]).
//!
//! `earthmover-core`'s flat `storage` module remains the convenient
//! import/export format; this crate is the engine a server would run on,
//! and what lets experiments report buffer-pool hit rates alongside the
//! paper's node-access counts.
//!
//! # Example
//!
//! ```
//! use earthmover_storage::{BufferPool, PageFile, RecordStore};
//!
//! let dir = std::env::temp_dir().join("earthmover-storage-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("records.db");
//! # let _ = std::fs::remove_file(&path);
//!
//! // Write some records.
//! let file = PageFile::create(&path).unwrap();
//! let pool = BufferPool::new(file, 8);
//! let mut store = RecordStore::create(pool).unwrap();
//! let id = store.append(b"hello earthmover").unwrap();
//! assert_eq!(store.get(id).unwrap(), b"hello earthmover");
//! store.sync().unwrap();
//! # std::fs::remove_file(&path).unwrap();
//! ```

pub mod buffer;
pub mod column;
pub mod crc;
pub mod heap;
pub mod pagefile;
pub mod vfs;

pub use buffer::{BufferPool, PoolStats};
pub use column::{
    rows_per_block_for, BlockLease, BlockPool, BlockPoolStats, ColumnMeta, ColumnStore,
    ColumnWriter,
};
pub use crc::crc32;
pub use heap::{RecordId, RecordStore};
pub use pagefile::{PageFile, PageId, RecoveryReport, StorageError, PAGE_SIZE};
pub use vfs::{FaultVfs, StdVfs, Vfs, VfsFile};
