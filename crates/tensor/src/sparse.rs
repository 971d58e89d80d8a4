//! Sparse-dense kernels over CSR row-id slices.
//!
//! Fonduer's feature matrices are binary CSR (PR 5): a candidate's row is a
//! sorted `&[u32]` of active column ids, and the learners' hot products are
//! gather-sums against a dense weight vector.

use crate::stats;

const LANES: usize = 4;

/// Gather-sum `Σ w[id]` over a binary sparse row, 4-way unrolled so the
/// loads pipeline (the gather itself cannot vectorize on SSE, but breaking
/// the serial add chain keeps the loads in flight).
#[inline]
pub fn sparse_dot(w: &[f32], ids: &[u32]) -> f32 {
    stats::count_sparse_dot();
    let mut acc = [0.0f32; LANES];
    let mut chunks = ids.chunks_exact(LANES);
    for c in chunks.by_ref() {
        for l in 0..LANES {
            acc[l] += w[c[l] as usize];
        }
    }
    let mut tail = 0.0f32;
    for &id in chunks.remainder() {
        tail += w[id as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Scatter-add `w[id] += alpha` over a binary sparse row.
#[inline]
pub fn sparse_add(w: &mut [f32], ids: &[u32], alpha: f32) {
    for &id in ids {
        w[id as usize] += alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_dot_matches_naive() {
        let w: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        for ids in [
            vec![],
            vec![3u32],
            vec![0, 1, 2],
            vec![5, 5, 9, 40, 99],
            (0..37u32).collect(),
        ] {
            let naive: f32 = ids.iter().map(|&i| w[i as usize]).sum();
            assert!((sparse_dot(&w, &ids) - naive).abs() < 1e-4, "{ids:?}");
        }
    }

    #[test]
    fn sparse_add_accumulates() {
        let mut w = vec![0.0f32; 10];
        sparse_add(&mut w, &[1, 3, 3, 9], 0.5);
        assert_eq!(w[1], 0.5);
        assert_eq!(w[3], 1.0);
        assert_eq!(w[9], 0.5);
        assert_eq!(w[0], 0.0);
    }
}
