//! Error type shared by all format constructors and converters.

use std::fmt;

/// Errors produced when constructing, converting or parsing sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// An index array refers past the matrix dimensions.
    IndexOutOfBounds {
        /// Description of the offending axis ("row" / "col").
        axis: &'static str,
        /// The out-of-range index.
        index: u32,
        /// The dimension it must be below.
        bound: usize,
    },
    /// A pointer array (rowptr/colptr) is not monotonically non-decreasing,
    /// does not start at 0, or does not end at nnz.
    MalformedPointerArray {
        /// Which array ("rowptr" / "colptr").
        name: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// Parallel arrays disagree in length.
    LengthMismatch {
        /// What was expected.
        expected: usize,
        /// What was found.
        found: usize,
        /// Which array.
        name: &'static str,
    },
    /// Matrix dimensions exceed the `u32` index space.
    DimensionOverflow {
        /// The oversized dimension.
        dim: usize,
    },
    /// A Matrix Market size line names a dimension above
    /// [`MAX_MARKET_DIM`](crate::market::MAX_MARKET_DIM).
    DimensionTooLarge {
        /// Which dimension ("rows" / "cols").
        axis: &'static str,
        /// The dimension the stream asked for.
        dim: usize,
        /// The largest dimension the reader accepts.
        limit: usize,
    },
    /// Entries within a row (CSR) or column (CSC) are not sorted or contain
    /// duplicates where a canonical format was requested.
    NotCanonical {
        /// Human-readable detail.
        detail: String,
    },
    /// Shapes of two operands are incompatible (e.g. SpMM inner dimensions).
    ShapeMismatch {
        /// Human-readable detail.
        detail: String,
    },
    /// A Matrix Market stream could not be parsed.
    Parse {
        /// 1-based line number where parsing failed (0 = header/unknown).
        line: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// A value token parsed to NaN or ±infinity. Non-finite values would
    /// silently poison every downstream kernel sum, so they are rejected
    /// at the boundary instead.
    NonFiniteValue {
        /// 1-based line number of the offending entry.
        line: usize,
        /// The literal token as it appeared in the stream.
        token: String,
    },
    /// The same coordinate appeared twice in a Matrix Market stream.
    /// The format's semantics for duplicates are ambiguous (sum? last
    /// wins?), so explicit duplicates are rejected rather than guessed at.
    DuplicateEntry {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// 0-based row index of the duplicated coordinate.
        row: u32,
        /// 0-based column index of the duplicated coordinate.
        col: u32,
    },
    /// Underlying I/O failure while reading/writing a file.
    Io(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::IndexOutOfBounds { axis, index, bound } => {
                write!(f, "{axis} index {index} out of bounds (must be < {bound})")
            }
            FormatError::MalformedPointerArray { name, detail } => {
                write!(f, "malformed {name}: {detail}")
            }
            FormatError::LengthMismatch {
                expected,
                found,
                name,
            } => {
                write!(f, "array {name} has length {found}, expected {expected}")
            }
            FormatError::DimensionOverflow { dim } => {
                write!(f, "dimension {dim} exceeds u32 index space")
            }
            FormatError::DimensionTooLarge { axis, dim, limit } => {
                write!(
                    f,
                    "{axis} dimension {dim} exceeds the Matrix Market reader's limit of {limit}"
                )
            }
            FormatError::NotCanonical { detail } => write!(f, "not canonical: {detail}"),
            FormatError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            FormatError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            FormatError::NonFiniteValue { line, token } => {
                write!(f, "non-finite value {token:?} at line {line}")
            }
            FormatError::DuplicateEntry { line, row, col } => {
                write!(
                    f,
                    "duplicate entry for ({row}, {col}) at line {line} (0-based indices)"
                )
            }
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FormatError::IndexOutOfBounds {
            axis: "row",
            index: 9,
            bound: 5,
        };
        assert!(e.to_string().contains("row index 9"));
        let e = FormatError::LengthMismatch {
            expected: 3,
            found: 2,
            name: "values",
        };
        assert!(e.to_string().contains("values"));
        let e = FormatError::Parse {
            line: 7,
            detail: "bad token".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: FormatError = io.into();
        assert!(matches!(e, FormatError::Io(_)));
    }
}
