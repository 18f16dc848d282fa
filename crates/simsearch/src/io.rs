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

use crate::sparse_sim::SparseSimMatrix;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 6] = b"LEAS1\0";

/// Writes `m` in the binary sparse-similarity format.
pub fn write_sparse_sim<W: Write>(m: &SparseSimMatrix, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(m.n_rows() as u64).to_le_bytes())?;
    w.write_all(&(m.n_cols() as u64).to_le_bytes())?;
    let mut buf = Vec::new();
    for r in 0..m.n_rows() {
        let row = m.row(r);
        buf.clear();
        buf.extend_from_slice(&(row.len() as u64).to_le_bytes());
        for &(c, s) in row {
            buf.extend_from_slice(&c.to_le_bytes());
            buf.extend_from_slice(&s.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a matrix previously written by [`write_sparse_sim`].
pub fn read_sparse_sim<R: Read>(mut r: R) -> io::Result<SparseSimMatrix> {
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
    let n_cols = match u64::from_le_bytes(n) {
        // column ids are u32: a wider matrix cannot have been written
        c if c <= 1 << 32 => c as usize,
        c => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{c} columns, more than a u32 column id can name"),
            ))
        }
    };
    // The header is untrusted: nothing is sized from `n_rows` or a row's
    // `len`. Rows are collected as they are actually read, so an inflated
    // count runs into `UnexpectedEof` after at most the file's own bytes.
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
    let mut entry = [0u8; 8];
    for row in 0..n_rows {
        r.read_exact(&mut n)?;
        let len = u64::from_le_bytes(n);
        let mut hits = Vec::new();
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
        rows.push(hits);
    }
    Ok(SparseSimMatrix::from_topk(n_cols, rows))
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

/// Convenience: read from a file path. Errors name the file.
pub fn load_sparse_sim(path: &std::path::Path) -> io::Result<SparseSimMatrix> {
    let f = std::fs::File::open(path).map_err(|e| with_path(path, e))?;
    read_sparse_sim(io::BufReader::new(f)).map_err(|e| with_path(path, e))
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
        let back = load_sparse_sim(&path).unwrap();
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
        });
    }

    #[test]
    fn path_errors_name_the_file() {
        let missing = std::path::Path::new("/nonexistent/leas_nope.bin");
        let err = load_sparse_sim(missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("leas_nope.bin"), "{err}");

        // a corrupt file on disk also names itself
        let path = std::env::temp_dir().join(format!("leas_corrupt_{}.bin", std::process::id()));
        let m = sample();
        save_sparse_sim(&m, &path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let err = load_sparse_sim(&path).unwrap_err();
        assert!(err.to_string().contains("leas_corrupt"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
