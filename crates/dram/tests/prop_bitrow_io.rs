//! Property tests for the word-wide host data-path kernels of `BitRow`:
//! bool pack/unpack, byte-granular column writes and reads, and masked
//! prefix popcounts, each against a per-bit or per-byte reference.

use ambit_dram::BitRow;
use proptest::prelude::*;

/// The per-bit pack the word kernel replaced: bit `i` is `bits[i]` inside
/// the slice and zero past it.
fn pack_reference(len: usize, bits: &[bool]) -> BitRow {
    BitRow::from_fn(len, |i| i < bits.len() && bits[i])
}

/// Per-byte reference of `write_bytes`: every bit set one at a time.
fn write_reference(row: &mut BitRow, bit_offset: usize, bytes: &[u8]) {
    for (k, &byte) in bytes.iter().enumerate() {
        for j in 0..8 {
            row.set(bit_offset + 8 * k + j, (byte >> j) & 1 == 1);
        }
    }
}

/// Per-byte reference of `read_bytes`.
fn read_reference(row: &BitRow, bit_offset: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|k| (0..8).fold(0u8, |b, j| b | (u8::from(row.get(bit_offset + 8 * k + j)) << j)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_and_unpack_match_the_per_bit_loops(source in proptest::collection::vec(any::<bool>(), 200)) {
        for len in 0..=200usize {
            // Empty, partial-word and full-length inputs; the rest of the
            // row is padding that must read as zeros.
            for n in [0, len / 3, len.saturating_sub(1), len] {
                let bits = &source[..n];
                let row = BitRow::from_bools(len, bits);
                prop_assert_eq!(&row, &pack_reference(len, bits), "len {} n {}", len, n);
                prop_assert_eq!(row.count_ones(), bits.iter().filter(|&&b| b).count());

                let mut out = vec![!source[0]; n];
                row.unpack_bools(&mut out);
                prop_assert_eq!(&out[..], bits, "len {} n {}", len, n);
                let per_bit: Vec<bool> = (0..len).map(|i| row.get(i)).collect();
                let mut all = vec![true; len];
                row.unpack_bools(&mut all);
                prop_assert_eq!(all, per_bit);
            }
        }
    }

    #[test]
    fn byte_writes_and_reads_match_the_per_byte_reference(
        words in 1usize..=9,
        extra_bytes in 0usize..8,
        start in any::<u64>(),
        span in any::<u64>(),
        fill in proptest::collection::vec(any::<u64>(), 9),
        data in proptest::collection::vec(any::<u8>(), 80),
    ) {
        // Byte-granular rows whose last word may be partial.
        let len = (words - 1) * 64 + 8 * (extra_bytes + 1);
        let row_bytes = len / 8;
        let offset = (start % (row_bytes as u64 + 1)) as usize;
        let n = (span % (row_bytes - offset + 1) as u64) as usize;
        let bytes = &data[..n];

        let mut fast = BitRow::from_words(len, &fill);
        let mut slow = fast.clone();
        fast.write_bytes(offset * 8, bytes);
        write_reference(&mut slow, offset * 8, bytes);
        prop_assert_eq!(&fast, &slow, "len {} offset {} n {}", len, offset, n);

        let mut out = vec![0u8; n];
        fast.read_bytes(offset * 8, &mut out);
        prop_assert_eq!(&out[..], bytes);
        for at in [0, offset, row_bytes - n] {
            let mut got = vec![0u8; n.min(row_bytes - at)];
            fast.read_bytes(at * 8, &mut got);
            prop_assert_eq!(got, read_reference(&fast, at * 8, n.min(row_bytes - at)));
        }
        prop_assert_eq!(fast.to_bytes(), read_reference(&fast, 0, row_bytes));
    }

    #[test]
    fn count_ones_below_matches_a_per_bit_count(
        fill in proptest::collection::vec(any::<u64>(), 4),
        len in 0usize..=256,
        cut in any::<u64>(),
    ) {
        let row = BitRow::from_words(len, &fill);
        let n = (cut % (len as u64 + 1)) as usize;
        prop_assert_eq!(row.count_ones_below(n), (0..n).filter(|&i| row.get(i)).count());
        prop_assert_eq!(row.count_ones_below(len), row.count_ones());
    }
}
