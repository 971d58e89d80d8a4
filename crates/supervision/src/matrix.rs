//! The label matrix Λ ∈ {−1, 0, 1}^{k×l} (paper Appendix A.1) and the LF
//! quality metrics Fonduer surfaces during iterative development (§3.3:
//! "coverage, conflict, and overlap").

use crate::lf::LabelingFunction;
use fonduer_candidates::{Candidate, CandidateSet};
use fonduer_datamodel::{Corpus, Document};
use fonduer_par::Pool;

/// Dense label matrix: `n` candidates × `l` labeling functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<i8>,
}

impl LabelMatrix {
    /// An all-abstain matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0; n_rows * n_cols],
        }
    }

    /// Apply a LF library to every candidate on the calling thread.
    pub fn apply(lfs: &[&LabelingFunction], corpus: &Corpus, cands: &CandidateSet) -> Self {
        Self::apply_parallel(lfs, corpus, cands, Pool::exact(1))
    }

    /// Apply a LF library to every candidate on `pool`:
    /// [`LabelBlock::compute`] per document run of the candidate set,
    /// folded in input order by [`LabelMatrix::from_blocks`], so the matrix
    /// and the telemetry counters are byte-identical at every worker count.
    pub fn apply_parallel(
        lfs: &[&LabelingFunction],
        corpus: &Corpus,
        cands: &CandidateSet,
        pool: Pool,
    ) -> Self {
        let blocks = {
            let _span = fonduer_observe::span("lf_apply");
            pool.map_docs(
                "lf_apply",
                &cands.doc_runs(),
                |(doc, _)| corpus.doc(*doc).name.as_str(),
                |(doc, rows)| {
                    LabelBlock::compute(lfs, corpus.doc(*doc), &cands.candidates[rows.clone()])
                },
            )
        };
        Self::from_blocks(lfs.len(), &blocks)
    }

    /// Assemble a matrix from per-document vote blocks, in corpus order,
    /// and publish the telemetry counters
    /// (`supervision.votes.{positive,negative,abstain}`,
    /// `supervision.rows_covered`). The reduction step of
    /// [`LabelMatrix::apply_parallel`] and of shard-cached sessions.
    pub fn from_blocks<'b>(
        n_cols: usize,
        blocks: impl IntoIterator<Item = &'b LabelBlock>,
    ) -> Self {
        let mut m = Self {
            n_rows: 0,
            n_cols,
            data: Vec::new(),
        };
        let (mut pos, mut neg, mut abstain) = (0u64, 0u64, 0u64);
        for b in blocks {
            debug_assert_eq!(b.n_cols, n_cols);
            m.data.extend_from_slice(&b.rows);
            m.n_rows += b.n_rows;
            pos += b.positive;
            neg += b.negative;
            abstain += b.abstain;
        }
        fonduer_observe::counter("supervision.votes.positive", pos);
        fonduer_observe::counter("supervision.votes.negative", neg);
        fonduer_observe::counter("supervision.votes.abstain", abstain);
        fonduer_observe::counter(
            "supervision.rows_covered",
            (0..m.n_rows)
                .filter(|&i| m.row(i).iter().any(|&v| v != 0))
                .count() as u64,
        );
        m
    }

    /// Number of candidates.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of labeling functions.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Label of candidate `i` under LF `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i8 {
        self.data[i * self.n_cols + j]
    }

    /// Set a label.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: i8) {
        debug_assert!((-1..=1).contains(&v));
        self.data[i * self.n_cols + j] = v;
    }

    /// One candidate's labels.
    pub fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Append the column produced by one additional LF (development-mode
    /// iteration: user writes a new LF and re-labels).
    pub fn append_column(&mut self, col: &[i8]) {
        assert_eq!(col.len(), self.n_rows);
        let mut data = Vec::with_capacity(self.n_rows * (self.n_cols + 1));
        for (i, &v) in col.iter().enumerate() {
            data.extend_from_slice(self.row(i));
            data.push(v);
        }
        self.n_cols += 1;
        self.data = data;
    }

    /// Coverage of LF `j`: fraction of candidates it labels (non-zero).
    pub fn coverage(&self, j: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let nz = (0..self.n_rows).filter(|&i| self.get(i, j) != 0).count();
        nz as f64 / self.n_rows as f64
    }

    /// Overlap of LF `j`: fraction of candidates it labels that at least
    /// one other LF also labels.
    pub fn overlap(&self, j: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let mut both = 0usize;
        for i in 0..self.n_rows {
            if self.get(i, j) != 0 && (0..self.n_cols).any(|k| k != j && self.get(i, k) != 0) {
                both += 1;
            }
        }
        both as f64 / self.n_rows as f64
    }

    /// Conflict of LF `j`: fraction of candidates where `j`'s label
    /// disagrees with another LF's non-zero label.
    pub fn conflict(&self, j: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let mut conf = 0usize;
        for i in 0..self.n_rows {
            let v = self.get(i, j);
            if v != 0
                && (0..self.n_cols).any(|k| k != j && self.get(i, k) != 0 && self.get(i, k) != v)
            {
                conf += 1;
            }
        }
        conf as f64 / self.n_rows as f64
    }

    /// Fraction of candidates receiving at least one non-zero label
    /// (overall coverage of the LF library).
    pub fn total_coverage(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let covered = (0..self.n_rows)
            .filter(|&i| self.row(i).iter().any(|&v| v != 0))
            .count();
        covered as f64 / self.n_rows as f64
    }
}

/// One document's LF-vote shard: the dense vote rows for that document's
/// candidates plus this block's vote tallies, ready for the input-order
/// [`LabelMatrix::from_blocks`] reduction. Blocks carry no document id —
/// shard-cached sessions key them by
/// `(document content hash, LF-library fingerprint)`, so a block stays
/// valid when other documents are inserted or removed around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelBlock {
    /// Row-major votes: one row of `n_cols` labels per candidate.
    rows: Vec<i8>,
    n_rows: usize,
    n_cols: usize,
    positive: u64,
    negative: u64,
    abstain: u64,
}

impl LabelBlock {
    /// Vote every LF on one document's candidates. Only the mention spans
    /// of each candidate are read against `doc`, so positionally stale
    /// `Candidate::doc` ids (from a mutated corpus) are harmless.
    pub fn compute(lfs: &[&LabelingFunction], doc: &Document, cands: &[Candidate]) -> Self {
        let mut rows: Vec<i8> = Vec::with_capacity(cands.len() * lfs.len());
        let (mut positive, mut negative, mut abstain) = (0u64, 0u64, 0u64);
        for cand in cands {
            for lf in lfs {
                let v = lf.label(doc, cand);
                match v {
                    1 => positive += 1,
                    -1 => negative += 1,
                    _ => abstain += 1,
                }
                rows.push(v);
            }
        }
        Self {
            rows,
            n_rows: cands.len(),
            n_cols: lfs.len(),
            positive,
            negative,
            abstain,
        }
    }

    /// Number of candidate rows in this block.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 candidates × 3 LFs fixture.
    fn matrix() -> LabelMatrix {
        let mut m = LabelMatrix::zeros(4, 3);
        // LF0 labels everything +1; LF1 labels rows 0-1 (+1, -1); LF2 abstains.
        for i in 0..4 {
            m.set(i, 0, 1);
        }
        m.set(0, 1, 1);
        m.set(1, 1, -1);
        m
    }

    #[test]
    fn coverage_overlap_conflict() {
        let m = matrix();
        assert_eq!(m.coverage(0), 1.0);
        assert_eq!(m.coverage(1), 0.5);
        assert_eq!(m.coverage(2), 0.0);
        assert_eq!(m.overlap(1), 0.5); // both labeled rows overlap LF0
        assert_eq!(m.overlap(0), 0.5);
        assert_eq!(m.conflict(0), 0.25); // row 1 disagrees with LF1
        assert_eq!(m.conflict(1), 0.25);
        assert_eq!(m.conflict(2), 0.0);
        assert_eq!(m.total_coverage(), 1.0);
    }

    #[test]
    fn append_column_grows_matrix() {
        let mut m = matrix();
        m.append_column(&[0, 0, 1, -1]);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.get(2, 3), 1);
        assert_eq!(m.get(3, 3), -1);
        assert_eq!(m.get(0, 0), 1); // old data intact
    }

    #[test]
    fn empty_matrix_metrics_are_zero() {
        let m = LabelMatrix::zeros(0, 2);
        assert_eq!(m.coverage(0), 0.0);
        assert_eq!(m.total_coverage(), 0.0);
    }

    #[test]
    fn row_slice() {
        let m = matrix();
        assert_eq!(m.row(0), &[1, 1, 0]);
        assert_eq!(m.row(3), &[1, 0, 0]);
    }

    #[test]
    fn from_blocks_matches_apply() {
        use crate::lf::Modality;
        use fonduer_candidates::RelationSchema;
        use fonduer_datamodel::DocFormat;

        let mut corpus = Corpus::new("t");
        let d0 = corpus.add(Document::new("a", DocFormat::Html));
        let d1 = corpus.add(Document::new("b", DocFormat::Html));
        let cands = CandidateSet {
            schema: RelationSchema::new("r", &["x"]),
            candidates: vec![
                Candidate::new(d0, vec![]),
                Candidate::new(d0, vec![]),
                Candidate::new(d1, vec![]),
            ],
        };
        let lfs = [
            LabelingFunction::new(
                "by_name",
                Modality::Textual,
                |d: &Document, _: &Candidate| {
                    if d.name == "a" {
                        1
                    } else {
                        -1
                    }
                },
            ),
            LabelingFunction::new(
                "abstains",
                Modality::Textual,
                |_: &Document, _: &Candidate| 0,
            ),
        ];
        let lf_refs: Vec<&LabelingFunction> = lfs.iter().collect();
        let whole = LabelMatrix::apply(&lf_refs, &corpus, &cands);
        let b0 = LabelBlock::compute(&lf_refs, corpus.doc(d0), &cands.candidates[0..2]);
        let b1 = LabelBlock::compute(&lf_refs, corpus.doc(d1), &cands.candidates[2..3]);
        assert_eq!(b0.n_rows(), 2);
        assert_eq!(b1.n_rows(), 1);
        let merged = LabelMatrix::from_blocks(lf_refs.len(), [&b0, &b1]);
        assert_eq!(merged, whole);
        assert_eq!(whole.n_rows(), 3);
        assert_eq!(whole.row(1), &[1, 0]);
        assert_eq!(whole.row(2), &[-1, 0]);
        for threads in [2, 3] {
            let par = LabelMatrix::apply_parallel(&lf_refs, &corpus, &cands, Pool::exact(threads));
            assert_eq!(par, whole, "threads={threads}");
        }
        // An empty LF library still yields one (empty) row per candidate.
        assert_eq!(LabelMatrix::apply(&[], &corpus, &cands).n_rows(), 3);
    }
}
