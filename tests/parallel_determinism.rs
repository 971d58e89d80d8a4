//! Golden determinism tests for the `fonduer-par` execution layer.
//!
//! The determinism contract: every deterministic stage — candidate
//! extraction, featurization (including vocabulary first-occurrence
//! ordering), and LF application — produces *byte-identical* artifacts at
//! every thread count, and every learner trains to bit-identical
//! marginals at every thread count.

use fonduer::prelude::*;
use fonduer_core::domains;
use fonduer_features::SparseAccess;
use fonduer_learning::ModelConfig;
use fonduer_par::Pool;
use fonduer_synth::{generate_electronics, ElectronicsConfig};

fn dataset() -> SynthDataset {
    generate_electronics(&ElectronicsConfig {
        n_docs: 24,
        ..Default::default()
    })
}

#[test]
fn candidate_set_is_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let seq = task.extractor.extract(&ds.corpus);
    assert!(!seq.candidates.is_empty());
    for n in [2, 8] {
        let par = task.extractor.extract_parallel(&ds.corpus, Pool::exact(n));
        assert_eq!(seq.candidates, par.candidates, "n_threads={n}");
    }
}

#[test]
fn feature_set_and_vocab_order_are_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let cands = task.extractor.extract(&ds.corpus);
    let fz = Featurizer::new(FeatureConfig::all());
    // The reference is the sequential featurizer interning straight into
    // one global vocabulary; the pool path folds per-document shards.
    let seq = fz.featurize(&ds.corpus, &cands);
    assert!(!seq.vocab.is_empty());
    for n in [1, 2, 8] {
        // `Pool::exact` spawns real worker threads even on a single-core
        // host, where `Pool::new(n)` would be capped to one worker.
        let par = fz.featurize_parallel(&ds.corpus, &cands, Pool::exact(n));
        // Vocabulary ordering: column i names the same feature, in the
        // sequential first-occurrence order.
        assert_eq!(seq.vocab.len(), par.vocab.len(), "n_threads={n}");
        for col in 0..seq.vocab.len() as u32 {
            assert_eq!(seq.vocab.name(col), par.vocab.name(col), "col {col}");
        }
        // CSR arrays identical (indptr/indices/data compare byte-for-byte).
        assert_eq!(seq.matrix, par.matrix, "n_threads={n}");
        // Cache statistics merge in input order too.
        assert_eq!(seq.stats.hits, par.stats.hits);
        assert_eq!(seq.stats.misses, par.stats.misses);
    }
}

#[test]
fn hashed_feature_matrix_is_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let cands = task.extractor.extract(&ds.corpus);
    let fz = Featurizer::new(FeatureConfig::all().with_hashing(16));
    let seq = fz.featurize(&ds.corpus, &cands);
    assert!(seq.vocab.is_empty(), "hashing mode keeps no vocabulary");
    assert_eq!(seq.n_features(), 1 << 16);
    for n in [1, 2, 8] {
        let par = fz.featurize_parallel(&ds.corpus, &cands, Pool::exact(n));
        assert_eq!(seq.matrix, par.matrix, "n_threads={n}");
        assert_eq!(seq.stats, par.stats, "n_threads={n}");
        for r in 0..seq.matrix.n_rows() {
            assert_eq!(
                seq.modality_counts(r),
                par.modality_counts(r),
                "row {r} n_threads={n}"
            );
        }
    }
}

#[test]
fn label_matrix_is_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let cands = task.extractor.extract(&ds.corpus);
    let refs: Vec<&LabelingFunction> = task.lfs.iter().collect();
    let seq = LabelMatrix::apply(&refs, &ds.corpus, &cands);
    for n in [2, 8] {
        let par = LabelMatrix::apply_parallel(&refs, &ds.corpus, &cands, Pool::exact(n));
        assert_eq!(seq, par, "n_threads={n}");
    }
}

#[test]
fn full_pipeline_output_matches_between_1_and_8_threads() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    for learner in [Learner::LogReg, Learner::MultimodalLstm] {
        // Exhaustive on purpose: a new learner must opt in here.
        let model = match learner {
            Learner::LogReg => ModelConfig::default(),
            Learner::MultimodalLstm => ModelConfig {
                epochs: 2,
                ..ModelConfig::default()
            },
        };
        let run = |n_threads: usize| {
            let cfg = PipelineConfig::builder()
                .learner(learner)
                .model(model.clone())
                .n_threads(n_threads)
                .build()
                .unwrap();
            let mut session = PipelineSession::new(&ds.corpus, &ds.gold, task, cfg).unwrap();
            session.output().unwrap()
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(
            seq.candidates.candidates, par.candidates.candidates,
            "{learner:?}"
        );
        assert_eq!(seq.kb.entries, par.kb.entries, "{learner:?}");
        let seq_bits: Vec<u32> = seq.marginals.iter().map(|m| m.to_bits()).collect();
        let par_bits: Vec<u32> = par.marginals.iter().map(|m| m.to_bits()).collect();
        assert_eq!(seq_bits, par_bits, "{learner:?}");
    }
}
