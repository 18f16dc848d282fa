//! Binary persistence for sparse similarity matrices.
//!
//! The channel outputs (`M_s`, `M_n`) and the fused matrix `M` are the
//! natural checkpoint boundaries of a LargeEA run: the structure channel in
//! particular represents hours of training at full scale, and the paper's
//! "all training results are stored locally" mini-batch story implies
//! exactly this kind of artefact. Layout (little-endian):
//!
//! ```text
//! magic "LEAS1\0" | n_rows u64 | n_cols u64
//! per row: len u64 | len × (col u32, score f32)
//! ```
//!
//! A [`SimRows`] block is written in the same layout, `len 0` for every row
//! it does not hold, so a block and the matrix with just its rows encode to
//! the same bytes.

use crate::sparse_sim::{SimRows, SparseSimMatrix};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 6] = b"LEAS1\0";

/// Writes `m` in the binary sparse-similarity format.
pub fn write_sparse_sim<W: Write>(m: &SparseSimMatrix, w: W) -> io::Result<()> {
    let rows = (0..m.n_rows()).map(|r| (r, m.row(r)));
    write_rows(w, m.n_rows(), m.n_cols(), rows)
}

/// Writes `block` in the binary sparse-similarity format.
pub fn write_sim_rows<W: Write>(block: &SimRows, w: W) -> io::Result<()> {
    write_rows(w, block.n_rows(), block.n_cols(), block.rows())
}

/// The format's header, then `n_rows` rows of which `rows` (ascending) are
/// the non-empty ones.
fn write_rows<'a, W: Write>(
    mut w: W,
    n_rows: usize,
    n_cols: usize,
    rows: impl Iterator<Item = (usize, &'a [(u32, f32)])>,
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(n_rows as u64).to_le_bytes())?;
    w.write_all(&(n_cols as u64).to_le_bytes())?;
    let empty = 0u64.to_le_bytes();
    let mut next = 0;
    let mut buf = Vec::new();
    for (r, row) in rows {
        for _ in next..r {
            w.write_all(&empty)?;
        }
        next = r + 1;
        buf.clear();
        buf.extend_from_slice(&(row.len() as u64).to_le_bytes());
        for &(c, s) in row {
            buf.extend_from_slice(&c.to_le_bytes());
            buf.extend_from_slice(&s.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    for _ in next..n_rows {
        w.write_all(&empty)?;
    }
    Ok(())
}

/// Reads a matrix previously written by [`write_sparse_sim`].
pub fn read_sparse_sim<R: Read>(mut r: R) -> io::Result<SparseSimMatrix> {
    let (n_rows, n_cols) = read_header(&mut r)?;
    // The header is untrusted: nothing is sized from `n_rows` or a row's
    // `len`. Rows are collected as they are actually read, so an inflated
    // count runs into `UnexpectedEof` after at most the file's own bytes.
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
    for row in 0..n_rows {
        rows.push(read_row(&mut r, row, n_cols)?);
    }
    Ok(SparseSimMatrix::from_topk(n_cols, rows))
}

/// Reads a block written by [`write_sim_rows`] (or any matrix in the
/// format): its empty rows are skipped, not held.
pub fn read_sim_rows<R: Read>(mut r: R) -> io::Result<SimRows> {
    let (n_rows, n_cols) = read_header(&mut r)?;
    let mut block = SimRows::new(n_rows as usize, n_cols);
    for row in 0..n_rows {
        let hits = read_row(&mut r, row, n_cols)?;
        block.push(row as usize, hits);
    }
    Ok(block)
}

/// The magic and `(n_rows, n_cols)`.
fn read_header<R: Read>(r: &mut R) -> io::Result<(u64, usize)> {
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a LEAS1 sparse-similarity file",
        ));
    }
    let mut n = [0u8; 8];
    r.read_exact(&mut n)?;
    let n_rows = u64::from_le_bytes(n);
    r.read_exact(&mut n)?;
    match u64::from_le_bytes(n) {
        // column ids are u32: a wider matrix cannot have been written
        c if c <= 1 << 32 => Ok((n_rows, c as usize)),
        c => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{c} columns, more than a u32 column id can name"),
        )),
    }
}

/// One row's `len` and entries; every column is checked against `n_cols`.
fn read_row<R: Read>(r: &mut R, row: u64, n_cols: usize) -> io::Result<Vec<(u32, f32)>> {
    let mut n = [0u8; 8];
    r.read_exact(&mut n)?;
    let len = u64::from_le_bytes(n);
    let mut hits = Vec::new();
    let mut entry = [0u8; 8];
    for _ in 0..len {
        r.read_exact(&mut entry)?;
        let col = u32::from_le_bytes([entry[0], entry[1], entry[2], entry[3]]);
        let score = f32::from_le_bytes([entry[4], entry[5], entry[6], entry[7]]);
        if (col as usize) >= n_cols {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("column {col} out of range in row {row}"),
            ));
        }
        hits.push((col, score));
    }
    Ok(hits)
}

/// Prefixes `path` onto an I/O error so callers see *which* file failed —
/// a bare "failed to fill whole buffer" is undebuggable in a checkpoint
/// directory full of artifacts.
fn with_path(path: &std::path::Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Convenience: write to a file path. Errors name the file.
pub fn save_sparse_sim(m: &SparseSimMatrix, path: &std::path::Path) -> io::Result<()> {
    let f = std::fs::File::create(path).map_err(|e| with_path(path, e))?;
    write_sparse_sim(m, io::BufWriter::new(f)).map_err(|e| with_path(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseSimMatrix {
        let mut m = SparseSimMatrix::new(4, 6);
        m.insert(0, 1, 0.5);
        m.insert(0, 5, -2.25);
        m.insert(2, 0, 1e-8);
        m
    }

    #[test]
    fn roundtrip_in_memory() {
        let m = sample();
        let mut buf = Vec::new();
        write_sparse_sim(&m, &mut buf).unwrap();
        assert_eq!(read_sparse_sim(&buf[..]).unwrap(), m);
    }

    #[test]
    fn a_block_encodes_as_the_matrix_of_its_rows() {
        let mut block = SimRows::new(5, 6);
        block.push(1, vec![(5, -2.25), (1, 0.5)]);
        block.push(2, vec![]);
        block.push(3, vec![(0, 1e-8)]);
        let mut m = SparseSimMatrix::new(5, 6);
        block.clone().merge_into(&mut m);
        let (mut from_block, mut from_matrix) = (Vec::new(), Vec::new());
        write_sim_rows(&block, &mut from_block).unwrap();
        write_sparse_sim(&m, &mut from_matrix).unwrap();
        assert_eq!(from_block, from_matrix);
        assert_eq!(read_sim_rows(&from_block[..]).unwrap(), block);
        assert_eq!(read_sparse_sim(&from_block[..]).unwrap(), m);
        assert_eq!(read_sim_rows(&from_block[..]).unwrap().rows().count(), 2);
    }

    #[test]
    fn roundtrip_empty() {
        let m = SparseSimMatrix::new(0, 0);
        let mut buf = Vec::new();
        write_sparse_sim(&m, &mut buf).unwrap();
        let back = read_sparse_sim(&buf[..]).unwrap();
        assert_eq!(back.n_rows(), 0);
    }

    #[test]
    fn rejects_corrupt_column() {
        let m = sample();
        let mut buf = Vec::new();
        write_sparse_sim(&m, &mut buf).unwrap();
        // corrupt first row's first entry column to an absurd value
        let col_offset = 6 + 8 + 8 + 8; // magic + dims + row len
        buf[col_offset..col_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_sparse_sim(&buf[..]).is_err());
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(read_sparse_sim(&b"LEAM1\0junkjunkjunk"[..]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let m = sample();
        let path = std::env::temp_dir().join(format!("leas_test_{}.bin", std::process::id()));
        save_sparse_sim(&m, &path).unwrap();
        let back = read_sparse_sim(std::fs::File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m, back);
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let m = sample();
        let mut buf = Vec::new();
        write_sparse_sim(&m, &mut buf).unwrap();
        // header boundaries: mid-magic, mid-dims, mid-row-length, mid-entry
        for cut in [3, 6 + 4, 6 + 16 + 4, 6 + 16 + 8 + 5, buf.len() - 1] {
            assert!(
                read_sparse_sim(&buf[..cut]).is_err(),
                "accepted a file truncated to {cut} bytes"
            );
        }
        // a row length promising entries the file does not contain
        let mut evil = buf.clone();
        evil[6 + 16..6 + 16 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_sparse_sim(&evil[..]).is_err());
    }

    #[test]
    fn inflated_header_fails_before_any_large_allocation() {
        let m = sample();
        let mut buf = Vec::new();
        write_sparse_sim(&m, &mut buf).unwrap();
        // an 8-byte edit asks for 2^60 rows (or, separately, columns): the
        // reader must run out of file or refuse, not run out of memory
        for field in [6, 6 + 8] {
            let mut evil = buf.clone();
            evil[field..field + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
            let want = if field == 6 {
                io::ErrorKind::UnexpectedEof
            } else {
                io::ErrorKind::InvalidData
            };
            assert_eq!(read_sparse_sim(&evil[..]).unwrap_err().kind(), want);
        }
        // the same header on a file cut short inside the first row
        let mut evil = buf[..6 + 16 + 8 + 4].to_vec();
        evil[6..6 + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = read_sparse_sim(&evil[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn mutated_payloads_fail_typed_or_decode_what_they_hold() {
        use largeea_common::check::{for_each_case, mutate};
        for_each_case(0x1EA5, 300, |rng| {
            let mut m = SparseSimMatrix::new(rng.gen_range(0..9usize), 7);
            for r in 0..m.n_rows() {
                for c in 0..rng.gen_range(0..4u32) {
                    m.insert(r, c * 2, r as f32 - 0.25 * c as f32);
                }
            }
            let mut bytes = Vec::new();
            write_sparse_sim(&m, &mut bytes).unwrap();
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(rng, &mut bytes, &[], 64);
            }
            // no panic, nothing sized by the header: a matrix that decodes
            // had every row's length and entries in the payload
            if let Ok(back) = read_sparse_sim(&bytes[..]) {
                assert!(22 + back.n_rows() * 8 + back.nnz() * 8 <= bytes.len());
            }
            if let Ok(block) = read_sim_rows(&bytes[..]) {
                assert!(22 + block.nnz() * 8 <= bytes.len());
            }
        });
    }

    #[test]
    fn path_errors_name_the_file() {
        let missing = std::path::Path::new("/nonexistent/leas_nope.bin");
        let err = save_sparse_sim(&sample(), missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("leas_nope.bin"), "{err}");
    }
}
