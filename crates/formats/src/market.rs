//! Matrix Market (`.mtx`) coordinate-format reader/writer.
//!
//! The paper notes (§4.1) that the "widely-used Matrix Market format uses
//! coordinate list (COO) format", so deserialization lands in [`Coo`] and
//! can be re-encoded to CSC as cheaply as to CSR. Supports the
//! `coordinate` layout with `real`/`integer`/`pattern` fields and
//! `general`/`symmetric`/`skew-symmetric` symmetry groups.

use crate::{Coo, FormatError};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Value field of a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketField {
    /// Floating-point values.
    Real,
    /// Integer values (parsed into `f32`).
    Integer,
    /// Structure only; entries carry no value token. Values default to 1.0,
    /// matching the paper's practice of assigning random/synthetic values to
    /// connectivity-only matrices (§5.1) — callers may overwrite them.
    Pattern,
}

/// Symmetry group of a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketSymmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; `(i,j)` implies `(j,i)` with the same value.
    Symmetric,
    /// Lower triangle stored; `(i,j)` implies `(j,i)` with negated value.
    SkewSymmetric,
}

/// Parsed Matrix Market header information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarketHeader {
    /// Value field.
    pub field: MarketField,
    /// Symmetry group.
    pub symmetry: MarketSymmetry,
}

/// Largest row or column count [`read_market`] accepts (2^24). Consumers
/// size pointer arrays from the size line, so unbounded, a one-entry file
/// could ask for tens of GB; at 2^24 a CSR row pointer stays at 64 MiB,
/// ~380× the paper's largest matrix (44k rows).
pub const MAX_MARKET_DIM: usize = 1 << 24;

/// Read a Matrix Market stream into a canonical [`Coo`]. A dimension above
/// [`MAX_MARKET_DIM`] fails on the size line, before anything is sized.
pub fn read_market<R: Read>(reader: R) -> Result<(Coo, MarketHeader), FormatError> {
    let mut lines = BufReader::new(reader).lines();
    let header_line = lines
        .next()
        .ok_or(FormatError::Parse {
            line: 1,
            detail: "empty stream".into(),
        })?
        .map_err(FormatError::from)?;
    let header = parse_header(&header_line)?;

    let mut lineno = 1usize;
    // Skip comments to the size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or(FormatError::Parse {
                line: lineno,
                detail: "missing size line".into(),
            })?
            .map_err(FormatError::from)?;
        lineno += 1;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('%') {
            break trimmed.to_string();
        }
    };
    let mut it = size_line.split_whitespace();
    let nrows: usize = parse_tok(it.next(), lineno, "rows")?;
    let ncols: usize = parse_tok(it.next(), lineno, "cols")?;
    let nnz: usize = parse_tok(it.next(), lineno, "nnz")?;

    let mut coo = Coo::new(nrows, ncols)?;
    for (axis, dim) in [("rows", nrows), ("cols", ncols)] {
        let limit = MAX_MARKET_DIM;
        if dim > limit {
            return Err(FormatError::DimensionTooLarge { axis, dim, limit });
        }
    }
    let mut read = 0usize;
    // Duplicate detection: Matrix Market leaves duplicate-coordinate
    // semantics to the consumer, so accepting them would silently commit
    // to one interpretation. Track every stored coordinate (including
    // symmetry-expanded mirrors) and reject the second occurrence.
    let mut seen = std::collections::BTreeSet::<(u32, u32)>::new();
    for line in lines {
        let line = line.map_err(FormatError::from)?;
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        // Parsed as u32, so a huge index cannot wrap into range.
        let r: u32 = parse_tok(it.next(), lineno, "row")?;
        let c: u32 = parse_tok(it.next(), lineno, "col")?;
        if r == 0 || c == 0 {
            return Err(FormatError::Parse {
                line: lineno,
                detail: "Matrix Market indices are 1-based".into(),
            });
        }
        let v: f32 = match header.field {
            MarketField::Pattern => 1.0,
            _ => {
                let token = it.next();
                let v: f32 = parse_tok(token, lineno, "value")?;
                if !v.is_finite() {
                    return Err(FormatError::NonFiniteValue {
                        line: lineno,
                        token: token.unwrap_or_default().to_string(),
                    });
                }
                v
            }
        };
        let (r0, c0) = (r - 1, c - 1);
        if !seen.insert((r0, c0)) {
            return Err(FormatError::DuplicateEntry {
                line: lineno,
                row: r0,
                col: c0,
            });
        }
        coo.push(r0, c0, v).map_err(|e| FormatError::Parse {
            line: lineno,
            detail: e.to_string(),
        })?;
        match header.symmetry {
            MarketSymmetry::General => {}
            MarketSymmetry::Symmetric | MarketSymmetry::SkewSymmetric if r0 != c0 => {
                if !seen.insert((c0, r0)) {
                    return Err(FormatError::DuplicateEntry {
                        line: lineno,
                        row: c0,
                        col: r0,
                    });
                }
                let mirrored = if header.symmetry == MarketSymmetry::Symmetric {
                    v
                } else {
                    -v
                };
                coo.push(c0, r0, mirrored).map_err(|e| FormatError::Parse {
                    line: lineno,
                    detail: e.to_string(),
                })?;
            }
            _ => {}
        }
        read += 1;
    }
    if read != nnz {
        return Err(FormatError::Parse {
            line: lineno,
            detail: format!("expected {nnz} entries, found {read}"),
        });
    }
    coo.canonicalize();
    Ok((coo, header))
}

/// Read a `.mtx` file from disk.
pub fn read_market_file(path: impl AsRef<Path>) -> Result<(Coo, MarketHeader), FormatError> {
    let file = std::fs::File::open(path)?;
    read_market(file)
}

/// Write a COO matrix as a `general real` coordinate Matrix Market stream.
pub fn write_market<W: Write>(writer: &mut W, coo: &Coo) -> Result<(), FormatError> {
    use crate::SparseMatrix;
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by spmm-nmt")?;
    let shape = coo.shape();
    writeln!(writer, "{} {} {}", shape.nrows, shape.ncols, coo.nnz())?;
    for e in coo.entries() {
        writeln!(writer, "{} {} {}", e.row + 1, e.col + 1, e.val)?;
    }
    Ok(())
}

/// Write a COO matrix to a `.mtx` file on disk.
pub fn write_market_file(path: impl AsRef<Path>, coo: &Coo) -> Result<(), FormatError> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_market(&mut file, coo)
}

fn parse_header(line: &str) -> Result<MarketHeader, FormatError> {
    let lower = line.to_ascii_lowercase();
    let toks: Vec<&str> = lower.split_whitespace().collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(FormatError::Parse {
            line: 1,
            detail: format!("bad header: {line:?}"),
        });
    }
    if toks[2] != "coordinate" {
        return Err(FormatError::Parse {
            line: 1,
            detail: format!("unsupported layout {:?} (only coordinate)", toks[2]),
        });
    }
    let field = match toks[3] {
        "real" => MarketField::Real,
        "integer" => MarketField::Integer,
        "pattern" => MarketField::Pattern,
        other => {
            return Err(FormatError::Parse {
                line: 1,
                detail: format!("unsupported field {other:?}"),
            })
        }
    };
    let symmetry = match toks[4] {
        "general" => MarketSymmetry::General,
        "symmetric" => MarketSymmetry::Symmetric,
        "skew-symmetric" => MarketSymmetry::SkewSymmetric,
        other => {
            return Err(FormatError::Parse {
                line: 1,
                detail: format!("unsupported symmetry {other:?}"),
            })
        }
    };
    Ok(MarketHeader { field, symmetry })
}

fn parse_tok<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, FormatError> {
    tok.ok_or_else(|| FormatError::Parse {
        line,
        detail: format!("missing {what}"),
    })?
    .parse()
    .map_err(|_| FormatError::Parse {
        line,
        detail: format!("bad {what} token"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseMatrix;

    #[test]
    fn read_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 4 3\n\
                    1 1 1.5\n\
                    3 4 -2.0\n\
                    2 2 0.25\n";
        let (coo, header) = read_market(text.as_bytes()).unwrap();
        assert_eq!(header.field, MarketField::Real);
        assert_eq!(header.symmetry, MarketSymmetry::General);
        assert_eq!(coo.nnz(), 3);
        let d = coo.to_dense();
        assert_eq!(d.get(0, 0), 1.5);
        assert_eq!(d.get(2, 3), -2.0);
        assert_eq!(d.get(1, 1), 0.25);
    }

    #[test]
    fn read_pattern_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let (coo, _) = read_market(text.as_bytes()).unwrap();
        // (2,1) expands to (1,2); diagonal (3,3) does not duplicate.
        assert_eq!(coo.nnz(), 3);
        let d = coo.to_dense();
        assert_eq!(d.get(1, 0), 1.0);
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(2, 2), 1.0);
    }

    #[test]
    fn read_skew_symmetric_negates() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 5.0\n";
        let (coo, _) = read_market(text.as_bytes()).unwrap();
        let d = coo.to_dense();
        assert_eq!(d.get(1, 0), 5.0);
        assert_eq!(d.get(0, 1), -5.0);
    }

    #[test]
    fn write_read_roundtrip() {
        let coo = Coo::from_triplets(4, 5, &[0, 3, 1], &[4, 0, 2], &[1.0, 2.5, -3.0]).unwrap();
        let mut buf = Vec::new();
        write_market(&mut buf, &coo).unwrap();
        let (back, _) = read_market(buf.as_slice()).unwrap();
        assert_eq!(back.to_dense(), coo.to_dense());
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 2.0\n";
        assert!(read_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_header_and_counts() {
        assert!(read_market("garbage\n".as_bytes()).is_err());
        assert!(read_market("%%MatrixMarket matrix array real general\n".as_bytes()).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_market(short.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, FormatError::Parse { .. }));
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {bad}\n");
            let err = read_market(text.as_bytes()).unwrap_err();
            match err {
                FormatError::NonFiniteValue { line, ref token } => {
                    assert_eq!(line, 3, "line attribution for {bad}");
                    assert_eq!(token, bad);
                }
                other => panic!("expected NonFiniteValue for {bad}, got {other:?}"),
            }
        }
        // Finite scientific notation still parses.
        let ok = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5e-3\n";
        assert!(read_market(ok.as_bytes()).is_ok());
    }

    #[test]
    fn rejects_duplicate_entries() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 3\n1 1 1.0\n2 3 2.0\n1 1 4.0\n";
        let err = read_market(text.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            FormatError::DuplicateEntry {
                line: 5,
                row: 0,
                col: 0
            }
        );
        assert!(err.to_string().contains("duplicate entry"));
    }

    #[test]
    fn rejects_duplicate_via_symmetric_mirror() {
        // (2,1) expands to (1,2); explicitly storing (1,2) as well is the
        // classic both-triangles-in-a-symmetric-file mistake.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n2 1 1.0\n1 2 1.0\n";
        let err = read_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, FormatError::DuplicateEntry { line: 4, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn rejects_overflowing_dimensions() {
        let big = u32::MAX as u64 + 1;
        let text = format!("%%MatrixMarket matrix coordinate real general\n{big} 2 0\n");
        let err = read_market(text.as_bytes()).unwrap_err();
        assert_eq!(err, FormatError::DimensionOverflow { dim: big as usize });
        // A dimension too large even for usize is a parse error, not a panic.
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    99999999999999999999999999 2 0\n";
        assert!(matches!(
            read_market(text.as_bytes()).unwrap_err(),
            FormatError::Parse { .. }
        ));
    }

    #[test]
    fn rejects_dimensions_past_the_limit_before_sizing_anything() {
        // Header-only streams: the limit fires on the size line, so
        // nothing proportional to the dimension is ever allocated.
        let over = MAX_MARKET_DIM + 1;
        for (size, axis) in [
            (format!("{over} 2 1"), "rows"),
            (format!("2 {over} 1"), "cols"),
        ] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            let err = read_market(text.as_bytes()).unwrap_err();
            assert_eq!(
                err,
                FormatError::DimensionTooLarge {
                    axis,
                    dim: over,
                    limit: MAX_MARKET_DIM
                }
            );
            let msg = err.to_string();
            assert!(msg.contains(&over.to_string()) && msg.contains(&MAX_MARKET_DIM.to_string()));
        }
        // The limit itself is accepted.
        let text = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{MAX_MARKET_DIM} 1 1\n1 1\n"
        );
        let (coo, _) = read_market(text.as_bytes()).unwrap();
        assert_eq!(coo.shape().nrows, MAX_MARKET_DIM);
    }

    #[test]
    fn rejects_indices_that_would_wrap_into_range() {
        // Narrowed from a wider integer, 2^32 + 1 would land on row 0 of
        // a 2x2 matrix.
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1\n4294967297 1 1.0\n";
        let err = read_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, FormatError::Parse { line: 3, ref detail } if detail.contains("row")),
            "got {err:?}"
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("nmt_market_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let coo = Coo::from_triplets(2, 2, &[0, 1], &[1, 0], &[3.0, 4.0]).unwrap();
        write_market_file(&path, &coo).unwrap();
        let (back, _) = read_market_file(&path).unwrap();
        assert_eq!(back.to_dense(), coo.to_dense());
        std::fs::remove_file(&path).ok();
    }
}
