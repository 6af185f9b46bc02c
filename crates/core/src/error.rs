//! Error types for the Ambit accelerator layer.

use std::error::Error as StdError;
use std::fmt;

use ambit_dram::DramError;

/// Errors raised by the Ambit controller, driver, and ISA layers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AmbitError {
    /// The underlying DRAM model rejected a command (protocol or analog
    /// failure).
    Dram(DramError),
    /// A D-group row address was out of range for the subarray layout.
    DataRowOutOfRange {
        /// Offending D-group index.
        index: usize,
        /// Number of D-group addresses per subarray.
        available: usize,
    },
    /// The driver could not find enough free rows to place an allocation.
    OutOfMemory {
        /// Rows requested.
        requested_rows: usize,
        /// Rows still free.
        available_rows: usize,
    },
    /// Two bitvectors participating in one operation have different lengths.
    SizeMismatch {
        /// First operand length in bits.
        left_bits: usize,
        /// Second operand length in bits.
        right_bits: usize,
    },
    /// Operands of an in-DRAM operation are not co-located: chunk `chunk`
    /// of the vectors lives in different subarrays, so RowClone-FPM cannot
    /// move them to the designated rows.
    NotColocated {
        /// Index of the first offending chunk.
        chunk: usize,
    },
    /// A bbop instruction was malformed (unaligned addresses or a size
    /// that is not a multiple of the row size). The CPU must execute the
    /// operation itself (paper Section 5.4.3).
    NotRowAligned {
        /// The offending byte count or address.
        value: usize,
        /// The row size in bytes.
        row_bytes: usize,
    },
    /// An operation that requires two sources was given one, or vice versa.
    WrongOperandCount {
        /// The operation's mnemonic.
        op: &'static str,
        /// Sources expected.
        expected: usize,
        /// Sources provided.
        provided: usize,
    },
    /// A handle referred to a bitvector that does not exist (stale handle).
    UnknownHandle {
        /// The raw handle id.
        id: u64,
    },
    /// An operation tried to overwrite a pre-initialized control row
    /// (C0/C1), which must keep their constant contents.
    ControlRowWrite,
    /// The resilient executor exhausted its retry budget without the
    /// operation's replicas converging, and CPU fallback was disabled.
    RetriesExhausted {
        /// Retries performed before giving up.
        retries: u32,
        /// Suspect bits still disagreeing after the final retry.
        suspect_bits: usize,
    },
    /// A permanent-fault remap was requested but the subarray has no spare
    /// rows left (paper Section 5.5.3 repairs are a finite resource).
    SpareRowsExhausted {
        /// Flat bank index of the exhausted subarray.
        bank: usize,
        /// Subarray index within the bank.
        subarray: usize,
    },
    /// An allocation of zero bits was requested.
    EmptyAllocation,
    /// A batch was submitted with no operations in it.
    EmptyBatch,
    /// Batch dependencies (explicit edges plus handle-inferred hazards)
    /// form a cycle, so no execution order satisfies them.
    DependencyCycle {
        /// Index of an operation on the cycle.
        op: usize,
    },
    /// A batch dependency referenced an [`OpId`](crate::OpId) that does not
    /// belong to the builder it was passed to.
    UnknownOp {
        /// The raw op index.
        id: usize,
    },
    /// A placement profile could not be installed into the driver (wrong
    /// shape for the device geometry, or allocations already exist).
    ProfileRejected {
        /// What was wrong with the profile.
        reason: &'static str,
    },
    /// The boolean microprogram synthesizer rejected its input or produced
    /// a program violating a caller-imposed budget (see
    /// [`synth`](crate::synth)).
    Synthesis {
        /// What the synthesizer objected to.
        detail: String,
    },
}

impl fmt::Display for AmbitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmbitError::Dram(e) => write!(f, "dram: {e}"),
            AmbitError::DataRowOutOfRange { index, available } => {
                write!(f, "data row D{index} out of range ({available} D-group addresses)")
            }
            AmbitError::OutOfMemory {
                requested_rows,
                available_rows,
            } => write!(
                f,
                "out of Ambit memory: {requested_rows} rows requested, {available_rows} free"
            ),
            AmbitError::SizeMismatch {
                left_bits,
                right_bits,
            } => write!(f, "operand size mismatch: {left_bits} vs {right_bits} bits"),
            AmbitError::NotColocated { chunk } => write!(
                f,
                "operands not co-located in the same subarray at chunk {chunk}"
            ),
            AmbitError::NotRowAligned { value, row_bytes } => write!(
                f,
                "{value} is not a multiple of the {row_bytes}-byte row size; CPU must execute this operation"
            ),
            AmbitError::WrongOperandCount {
                op,
                expected,
                provided,
            } => write!(f, "{op} expects {expected} source operand(s), got {provided}"),
            AmbitError::UnknownHandle { id } => write!(f, "unknown bitvector handle {id}"),
            AmbitError::ControlRowWrite => {
                write!(f, "control rows C0/C1 are read-only to operations")
            }
            AmbitError::RetriesExhausted {
                retries,
                suspect_bits,
            } => write!(
                f,
                "retry budget exhausted after {retries} retries with {suspect_bits} suspect bit(s) remaining"
            ),
            AmbitError::SpareRowsExhausted { bank, subarray } => write!(
                f,
                "no spare rows left in bank {bank} subarray {subarray}"
            ),
            AmbitError::EmptyAllocation => write!(f, "cannot allocate an empty bitvector"),
            AmbitError::EmptyBatch => write!(f, "batch contains no operations"),
            AmbitError::DependencyCycle { op } => {
                write!(f, "batch dependencies form a cycle through op {op}")
            }
            AmbitError::UnknownOp { id } => {
                write!(f, "op id {id} does not belong to this batch")
            }
            AmbitError::ProfileRejected { reason } => {
                write!(f, "placement profile rejected: {reason}")
            }
            AmbitError::Synthesis { detail } => {
                write!(f, "boolean synthesis failed: {detail}")
            }
        }
    }
}

impl StdError for AmbitError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            AmbitError::Dram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DramError> for AmbitError {
    fn from(e: DramError) -> Self {
        AmbitError::Dram(e)
    }
}

/// Convenience alias used throughout the Ambit crate.
pub type Result<T> = std::result::Result<T, AmbitError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errors = vec![
            AmbitError::Dram(DramError::EmptyActivation),
            AmbitError::DataRowOutOfRange { index: 2000, available: 1006 },
            AmbitError::OutOfMemory { requested_rows: 10, available_rows: 2 },
            AmbitError::SizeMismatch { left_bits: 64, right_bits: 128 },
            AmbitError::NotColocated { chunk: 3 },
            AmbitError::NotRowAligned { value: 100, row_bytes: 8192 },
            AmbitError::WrongOperandCount { op: "and", expected: 2, provided: 1 },
            AmbitError::UnknownHandle { id: 9 },
            AmbitError::RetriesExhausted { retries: 3, suspect_bits: 12 },
            AmbitError::SpareRowsExhausted { bank: 1, subarray: 0 },
            AmbitError::EmptyAllocation,
            AmbitError::EmptyBatch,
            AmbitError::DependencyCycle { op: 4 },
            AmbitError::UnknownOp { id: 7 },
            AmbitError::ProfileRejected { reason: "wrong shape" },
            AmbitError::Synthesis { detail: "no functions".into() },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn dram_errors_convert_and_chain() {
        let e: AmbitError = DramError::EmptyActivation.into();
        assert!(e.source().is_some());
    }
}
