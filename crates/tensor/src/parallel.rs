//! Parallel helpers for blocked kernels, backed by the persistent
//! [`Pool`] in `largeea-common` (DESIGN.md §S0.6).
//!
//! The hot kernels (matmul, SpMM, top-k search) split work by output-row
//! blocks. Blocks are disjoint and results are collected in block order,
//! so output is deterministic regardless of thread count. Work runs on the
//! process-wide [`Pool::global`] — long-lived workers, no per-call thread
//! spawn. Kernels that need an explicit width (determinism tests) take a
//! `&Pool` via their `*_in` variants instead of racing on the env var.

pub use largeea_common::pool::Pool;

/// Applies `f` in parallel on the global pool to chunks of `data`, which it
/// treats as rows of `row_len` elements: each chunk is an exact multiple of
/// a row, and `f` also gets the index of the chunk's first **row**, so
/// `block.chunks_mut(row_len)` inside `f` never shears a row. Fewer than
/// `min_rows` rows run as one sequential call.
pub fn par_rows_mut<T: Send>(
    data: &mut [T],
    row_len: usize,
    min_rows: usize,
    f: impl Fn(&mut [T], usize) + Sync,
) {
    Pool::global().rows_mut(data, row_len, min_rows, f);
}

/// Parallel map over index ranges on the global pool: splits `0..n` into
/// blocks of at least `min_len`, runs `f(range)` on each, and returns the
/// per-block results in block order.
pub fn par_map_blocks<R: Send>(
    n: usize,
    min_len: usize,
    f: impl Fn(std::ops::Range<usize>) -> R + Sync,
) -> Vec<R> {
    Pool::global().map_blocks(n, min_len, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_rows_mut_touches_every_element() {
        let mut v = vec![0u64; 10_000];
        par_rows_mut(&mut v, 1, 16, |chunk, start| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (start + i) as u64;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn par_rows_mut_small_input_sequential() {
        let mut v = vec![1, 2, 3];
        par_rows_mut(&mut v, 1, 1000, |chunk, start| {
            assert_eq!(start, 0);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn par_rows_mut_never_shears_rows() {
        let cols = 13;
        let mut v = vec![0u64; 101 * cols];
        par_rows_mut(&mut v, cols, 4, |block, first_row| {
            assert_eq!(block.len() % cols, 0);
            for (r, row) in block.chunks_mut(cols).enumerate() {
                row.fill((first_row + r) as u64);
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / cols) as u64);
        }
    }

    #[test]
    fn par_map_blocks_covers_range() {
        let blocks = par_map_blocks(1000, 1, |r| r.len());
        assert_eq!(blocks.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn par_map_blocks_empty() {
        let blocks = par_map_blocks(0, 1, |_| 1usize);
        assert!(blocks.is_empty());
    }

    #[test]
    fn par_map_blocks_preserves_block_order() {
        let blocks = par_map_blocks(100, 1, |r| r.start);
        let mut sorted = blocks.clone();
        sorted.sort_unstable();
        assert_eq!(blocks, sorted);
    }

    #[test]
    fn explicit_pools_give_identical_results() {
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        let run = |p: &Pool| {
            let mut v = vec![0u32; 5000];
            p.rows_mut(&mut v, 10, 8, |block, first_row| {
                for (r, row) in block.chunks_mut(10).enumerate() {
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = ((first_row + r) * 31 + j) as u32;
                    }
                }
            });
            v
        };
        assert_eq!(run(&p1), run(&p4));
    }
}
