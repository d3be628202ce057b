//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slice-by-8.
//!
//! The one checksum of every on-disk format in the workspace: the page
//! trailers and header of [`crate::PageFile`] (and so EMDC column files),
//! the flat `EMDB` database format, and the `.emds` sketch sidecar.
//!
//! Slice-by-8 folds eight input bytes per step through eight 256-entry
//! tables, where table `k` maps a byte to the CRC contribution it makes
//! when followed by `k` zero bytes. It computes exactly the bytewise
//! table CRC — same polynomial, same initial value and final XOR — so
//! files written by either verify under the other; only the number of
//! dependent table lookups per byte drops.

use std::sync::OnceLock;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Incremental CRC-32: feed bytes with [`Crc32::update`] in any split,
/// then take the checksum with [`Crc32::finish`].
#[derive(Debug)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum (the CRC of the empty input is 0).
    pub(crate) fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes`. Splitting the input across calls at any points
    /// yields the same checksum as one call over the concatenation.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = tables();
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().unwrap_or_default());
            let lo = (w as u32) ^ crc;
            let hi = (w >> 32) as u32;
            crc = lookup(t7, lo)
                ^ lookup(t6, lo >> 8)
                ^ lookup(t5, lo >> 16)
                ^ lookup(t4, lo >> 24)
                ^ lookup(t3, hi)
                ^ lookup(t2, hi >> 8)
                ^ lookup(t1, hi >> 16)
                ^ lookup(t0, hi >> 24);
        }
        for &b in words.remainder() {
            crc = lookup(t0, crc ^ b as u32) ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Entry of `table` for the low byte of `index`. The mask keeps the
/// index below 256, so the lookup never misses (and compiles to a plain
/// load).
#[inline(always)]
fn lookup(table: &[u32; 256], index: u32) -> u32 {
    table.get((index & 0xFF) as usize).copied().unwrap_or(0)
}

/// The eight slice-by-8 tables, built on first use (8 KiB).
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Table 0 is the classic bytewise table.
        let mut base = [0u32; 256];
        for (i, entry) in base.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        // Table k + 1 advances each entry of table k over one more zero
        // byte.
        let mut tables = [[0u32; 256]; 8];
        let mut row = base;
        for table in tables.iter_mut() {
            *table = row;
            for entry in row.iter_mut() {
                *entry = lookup(&base, *entry) ^ (*entry >> 8);
            }
        }
        tables
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise reference the sliced kernel must reproduce: one
    /// polynomial division step per bit, no tables.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random lengths (past a 64 KiB column block), unaligned start
        /// offsets and `update` split at random points all agree with
        /// the bytewise reference.
        #[test]
        fn sliced_matches_bytewise_reference(
            len in 0usize..70_000,
            offset in 0usize..8,
            seed in any::<u64>(),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut state = seed | 1;
            let backing: Vec<u8> = (0..len + offset)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let bytes = backing.get(offset..).unwrap_or(&[]);
            let expect = reference(bytes);
            prop_assert_eq!(crc32(bytes), expect);

            let mut points: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
            points.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for &to in &points {
                crc.update(bytes.get(from..to).unwrap_or(&[]));
                from = to;
            }
            crc.update(bytes.get(from..).unwrap_or(&[]));
            prop_assert_eq!(crc.finish(), expect);
        }
    }
}
