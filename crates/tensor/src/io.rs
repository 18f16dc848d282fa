//! Binary persistence for matrices.
//!
//! Training large KGs proceeds one mini-batch at a time; checkpointing the
//! per-batch embeddings (and the channel similarity matrices, see
//! `largeea-sim`) lets a crashed or interrupted run resume without
//! retraining. The format is a tiny explicit little-endian layout — no
//! serde overhead on multi-hundred-MB buffers, no platform dependence:
//!
//! ```text
//! magic "LEAM1\0"  | rows: u64 LE | cols: u64 LE | data: rows*cols f32 LE
//! ```

use crate::matrix::Matrix;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 6] = b"LEAM1\0";

/// Writes `m` to `w` in the binary matrix format.
pub fn write_matrix<W: Write>(m: &Matrix, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(m.rows() as u64).to_le_bytes())?;
    w.write_all(&(m.cols() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(m.as_slice().len() * 4);
    for &x in m.as_slice() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    w.write_all(&buf)
}

/// Reads a matrix previously written by [`write_matrix`].
pub fn read_matrix<R: Read>(mut r: R) -> io::Result<Matrix> {
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a LEAM1 matrix file",
        ));
    }
    let mut n = [0u8; 8];
    r.read_exact(&mut n)?;
    let rows = u64::from_le_bytes(n);
    r.read_exact(&mut n)?;
    let cols = u64::from_le_bytes(n);
    // a body of `rows * cols * 4` bytes must be addressable
    let overflow = || io::Error::new(io::ErrorKind::InvalidData, "matrix dimensions overflow");
    let rows = usize::try_from(rows).map_err(|_| overflow())?;
    let cols = usize::try_from(cols).map_err(|_| overflow())?;
    let elems = rows
        .checked_mul(cols)
        .filter(|e| e.checked_mul(4).is_some());
    let elems = elems.ok_or_else(overflow)?;
    // The header is untrusted: nothing is sized from it. The body is read
    // in bounded chunks and `data` grows as bytes actually arrive, so an
    // inflated claim runs into `UnexpectedEof` after at most the file's
    // own bytes.
    let mut data: Vec<f32> = Vec::new();
    const CHUNK_FLOATS: usize = 1 << 14;
    let mut chunk = [0u8; CHUNK_FLOATS * 4];
    while data.len() < elems {
        let bytes = &mut chunk[..(elems - data.len()).min(CHUNK_FLOATS) * 4];
        r.read_exact(bytes)?;
        let floats = bytes.chunks_exact(4);
        data.extend(floats.map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_memory() {
        let m = Matrix::from_fn(7, 3, |r, c| (r as f32) * 1.5 - c as f32 * 0.25);
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        let back = read_matrix(&buf[..]).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn roundtrip_empty_and_special_values() {
        let m = Matrix::from_vec(1, 4, vec![0.0, -0.0, f32::MIN_POSITIVE, 1e30]);
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        assert_eq!(read_matrix(&buf[..]).unwrap(), m);

        let empty = Matrix::zeros(0, 5);
        let mut buf = Vec::new();
        write_matrix(&empty, &mut buf).unwrap();
        let back = read_matrix(&buf[..]).unwrap();
        assert_eq!(back.shape(), (0, 5));
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = read_matrix(&b"NOTAMATRIX"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_data() {
        let m = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_matrix(&buf[..]).is_err());
    }

    #[test]
    fn inflated_header_fails_before_any_large_allocation() {
        let header = |rows: u64, cols: u64| {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&rows.to_le_bytes());
            buf.extend_from_slice(&cols.to_le_bytes());
            buf
        };
        // the product overflows; the product fits but its byte count does not
        for (rows, cols) in [(1 << 63, 4), (1 << 62, 1), (u64::MAX, u64::MAX)] {
            let err = read_matrix(&header(rows, cols)[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{rows}×{cols}");
        }
        // a huge but addressable claim over a 22-byte file (or one a few
        // floats long): the reader runs out of file, not out of memory
        for body in [0, 12] {
            let mut buf = header(1 << 40, 1);
            buf.resize(buf.len() + body, 0);
            let err = read_matrix(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn bodies_longer_than_one_chunk_roundtrip() {
        let m = Matrix::from_fn(300, 129, |r, c| (r * 129 + c) as f32 * 0.5);
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        assert_eq!(read_matrix(&buf[..]).unwrap(), m);
    }

    #[test]
    fn mutated_payloads_fail_typed_or_decode_what_they_hold() {
        use largeea_common::check::{for_each_case, mutate};
        for_each_case(0x1EA3, 300, |rng| {
            let (rows, cols) = (rng.gen_range(0..9usize), rng.gen_range(0..9usize));
            let m = Matrix::from_fn(rows, cols, |r, c| (r * 9 + c) as f32 - 3.5);
            let mut bytes = Vec::new();
            write_matrix(&m, &mut bytes).unwrap();
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(rng, &mut bytes, &[], 64);
            }
            // no panic, nothing sized by the header: a matrix that decodes
            // had all its floats in the payload
            if let Ok(back) = read_matrix(&bytes[..]) {
                assert!(22 + back.as_slice().len() * 4 <= bytes.len());
            }
        });
    }
}
