//! Determinism under parallelism: every kernel that runs on the pool must
//! produce bit-identical output for *any* thread count. This is the
//! contract that makes `LARGEEA_THREADS` a pure performance knob — see
//! DESIGN.md §S0.6.
//!
//! Each property builds two explicit pools (width 1 and width 4 — the
//! pairing the issue tracker calls out for `LARGEEA_THREADS=1` vs `=4`,
//! here pinned per-call so the test cannot race on process-global env
//! state) plus an oddball width 3, runs the same kernel on each, and
//! asserts exact equality — `==` on `f32`/`f64`, no tolerance.

use largeea::common::check::{for_each_case, unicode_string};
use largeea::common::pool::Pool;
use largeea::common::rng::Rng;
use largeea::sim::{topk_search_in, Metric};
use largeea::tensor::{Matrix, SparseMatrix};
use largeea::text::batch::{levenshtein_similarities_in, minhash_signatures_in};
use largeea::text::{HashEncoder, MinHasher};

fn pools() -> Vec<Pool> {
    vec![Pool::new(1), Pool::new(3), Pool::new(4)]
}

fn random_matrix(rng: &mut Rng, max_rows: usize, max_cols: usize) -> Matrix {
    let rows = rng.gen_range(1..=max_rows);
    let cols = rng.gen_range(1..=max_cols);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-4.0f32..4.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn random_sparse(rng: &mut Rng, rows: usize, cols: usize) -> SparseMatrix {
    let nnz = rng.gen_range(0..rows * cols);
    let coo = (0..nnz)
        .map(|_| {
            (
                rng.gen_range(0..rows as u32),
                rng.gen_range(0..cols as u32),
                rng.gen_range(-2.0f32..2.0),
            )
        })
        .collect();
    SparseMatrix::from_coo(rows, cols, coo)
}

fn random_names(rng: &mut Rng, max_n: usize) -> Vec<String> {
    let n = rng.gen_range(1..=max_n);
    (0..n).map(|_| unicode_string(rng, 0, 24)).collect()
}

#[test]
fn matmul_identical_across_thread_counts() {
    for_each_case(0x9a11_0001, 24, |rng| {
        let a = random_matrix(rng, 40, 20);
        let n = rng.gen_range(1..=30);
        let b = Matrix::from_vec(
            a.cols(),
            n,
            (0..a.cols() * n)
                .map(|_| rng.gen_range(-4.0f32..4.0))
                .collect(),
        );
        let reference = a.matmul_in(&b, &Pool::new(1));
        for pool in pools() {
            let got = a.matmul_in(&b, &pool);
            assert_eq!(
                reference.as_slice(),
                got.as_slice(),
                "matmul diverged at width {}",
                pool.threads()
            );
        }
    });
}

#[test]
fn spmm_identical_across_thread_counts() {
    for_each_case(0x9a11_0002, 24, |rng| {
        let rows = rng.gen_range(1..48);
        let inner = rng.gen_range(1..32);
        let sparse = random_sparse(rng, rows, inner);
        let n = rng.gen_range(1..=24);
        let dense = Matrix::from_vec(
            inner,
            n,
            (0..inner * n)
                .map(|_| rng.gen_range(-4.0f32..4.0))
                .collect(),
        );
        let reference = sparse.spmm_in(&dense, &Pool::new(1));
        for pool in pools() {
            let got = sparse.spmm_in(&dense, &pool);
            assert_eq!(
                reference.as_slice(),
                got.as_slice(),
                "spmm diverged at width {}",
                pool.threads()
            );
        }
    });
}

#[test]
fn topk_identical_across_thread_counts() {
    for_each_case(0x9a11_0003, 16, |rng| {
        let dim = rng.gen_range(1..12);
        let q_rows = rng.gen_range(1..80);
        let b_rows = rng.gen_range(1..60);
        let queries = Matrix::from_vec(
            q_rows,
            dim,
            (0..q_rows * dim)
                .map(|_| rng.gen_range(-4.0f32..4.0))
                .collect(),
        );
        let base = Matrix::from_vec(
            b_rows,
            dim,
            (0..b_rows * dim)
                .map(|_| rng.gen_range(-4.0f32..4.0))
                .collect(),
        );
        let k = rng.gen_range(1..=8);
        for metric in [Metric::Manhattan, Metric::InnerProduct] {
            let reference = topk_search_in(&queries, &base, k, metric, &Pool::new(1));
            for pool in pools() {
                let got = topk_search_in(&queries, &base, k, metric, &pool);
                assert_eq!(
                    reference,
                    got,
                    "top-k or its count diverged at width {}",
                    pool.threads()
                );
            }
        }
    });
}

#[test]
fn string_sim_identical_across_thread_counts() {
    for_each_case(0x9a11_0004, 12, |rng| {
        let left = random_names(rng, 96);
        let right = random_names(rng, 96);
        let pairs: Vec<(String, String)> = left
            .iter()
            .zip(right.iter().cycle())
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect();
        let hasher = MinHasher::new(32, rng.next_u64());
        let lev1 = levenshtein_similarities_in(&pairs, &Pool::new(1));
        let sig1 = minhash_signatures_in(&hasher, &left, 3, &Pool::new(1));
        for pool in pools() {
            assert_eq!(lev1, levenshtein_similarities_in(&pairs, &pool));
            assert_eq!(sig1, minhash_signatures_in(&hasher, &left, 3, &pool));
        }
    });
}

#[test]
fn hash_encoder_identical_across_thread_counts() {
    for_each_case(0x9a11_0005, 12, |rng| {
        let names = random_names(rng, 200);
        let enc = HashEncoder::new(32, rng.next_u64());
        let reference = enc.encode_batch_in(&names, &Pool::new(1));
        for pool in pools() {
            let got = enc.encode_batch_in(&names, &pool);
            assert_eq!(
                reference.as_slice(),
                got.as_slice(),
                "hash encoder diverged at width {}",
                pool.threads()
            );
        }
    });
}
