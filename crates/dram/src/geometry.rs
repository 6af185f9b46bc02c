//! DRAM organization: channels, ranks, banks, subarrays, rows.
//!
//! Mirrors the hierarchy of Section 2 of the paper: a rank is divided into
//! banks; each bank consists of subarrays; each subarray has many rows
//! (typically 512 or 1024) sharing one set of sense amplifiers.

/// Shape of a simulated DRAM device.
///
/// # Examples
///
/// ```
/// use ambit_dram::DramGeometry;
///
/// let g = DramGeometry::micro17();
/// assert_eq!(g.banks, 16);
/// assert_eq!(g.row_bytes, 8192);
/// assert_eq!(g.row_bits(), 65536);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Subarrays per bank.
    pub subarrays_per_bank: usize,
    /// Rows per subarray (data + reserved).
    pub rows_per_subarray: usize,
    /// Row size in bytes across the rank (paper: 8 KB).
    pub row_bytes: usize,
}

impl DramGeometry {
    /// Configuration used by the paper's full-system evaluation (Table 4):
    /// DDR4-2400, 1 channel, 1 rank, 16 banks, 8 KB rows; subarrays of
    /// 1024 rows.
    pub fn micro17() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 1,
            banks: 16,
            subarrays_per_bank: 16,
            rows_per_subarray: 1024,
            row_bytes: 8192,
        }
    }

    /// The 8-bank DDR3 module used for the raw throughput comparison
    /// (Section 7, "Ambit" configuration).
    pub fn ddr3_module() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 1,
            banks: 8,
            subarrays_per_bank: 16,
            rows_per_subarray: 1024,
            row_bytes: 8192,
        }
    }

    /// Two-channel variant of [`tiny`](Self::tiny): the smallest geometry
    /// with more than one command bus, so it exercises per-channel timing
    /// lanes. 2 channels × 2 banks ×
    /// 2 subarrays × 32 rows of 16 bytes.
    pub fn tiny_dual_channel() -> Self {
        DramGeometry {
            channels: 2,
            ranks: 1,
            banks: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 32,
            row_bytes: 16,
        }
    }

    /// A small geometry for fast unit tests: 2 banks × 2 subarrays ×
    /// 32 rows of 16 bytes.
    pub fn tiny() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 1,
            banks: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 32,
            row_bytes: 16,
        }
    }

    /// Row width in bits (the number of bitlines spanned by one activation).
    pub fn row_bits(&self) -> usize {
        self.row_bytes * 8
    }

    /// Total banks in the device across channels and ranks.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks
    }

    /// Total rows in the device.
    pub fn total_rows(&self) -> usize {
        self.total_banks() * self.subarrays_per_bank * self.rows_per_subarray
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.total_rows() * self.row_bytes
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        DramGeometry::micro17()
    }
}

/// Physical location of a bank within the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankId {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
}

impl BankId {
    /// Bank 0 of rank 0 of channel 0.
    pub fn zero() -> Self {
        BankId {
            channel: 0,
            rank: 0,
            bank: 0,
        }
    }

    /// Flat index of this bank given the device geometry.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for `geometry`.
    pub fn flat_index(&self, geometry: &DramGeometry) -> usize {
        assert!(self.channel < geometry.channels, "channel out of range");
        assert!(self.rank < geometry.ranks, "rank out of range");
        assert!(self.bank < geometry.banks, "bank out of range");
        (self.channel * geometry.ranks + self.rank) * geometry.banks + self.bank
    }

    /// Inverse of [`flat_index`](Self::flat_index).
    pub fn from_flat_index(index: usize, geometry: &DramGeometry) -> Self {
        let bank = index % geometry.banks;
        let rest = index / geometry.banks;
        BankId {
            channel: rest / geometry.ranks,
            rank: rest % geometry.ranks,
            bank,
        }
    }
}

/// Physical location of a row: bank, subarray within the bank, and row
/// index within the subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowLocation {
    /// Owning bank.
    pub bank: BankId,
    /// Subarray index within the bank.
    pub subarray: usize,
    /// Row index within the subarray.
    pub row: usize,
}

impl RowLocation {
    /// Creates a location in bank 0 — convenient for single-bank tests.
    pub fn in_bank0(subarray: usize, row: usize) -> Self {
        RowLocation {
            bank: BankId::zero(),
            subarray,
            row,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro17_capacity() {
        let g = DramGeometry::micro17();
        // 16 banks × 16 subarrays × 1024 rows × 8 KB = 2 GiB.
        assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn flat_index_roundtrip() {
        let g = DramGeometry {
            channels: 2,
            ranks: 2,
            banks: 8,
            subarrays_per_bank: 4,
            rows_per_subarray: 64,
            row_bytes: 128,
        };
        for i in 0..g.total_banks() {
            let id = BankId::from_flat_index(i, &g);
            assert_eq!(id.flat_index(&g), i);
        }
    }

    #[test]
    #[should_panic(expected = "bank out of range")]
    fn flat_index_validates() {
        let g = DramGeometry::tiny();
        BankId {
            channel: 0,
            rank: 0,
            bank: 5,
        }
        .flat_index(&g);
    }

    #[test]
    fn tiny_is_small() {
        assert!(DramGeometry::tiny().capacity_bytes() < 64 * 1024);
    }
}
