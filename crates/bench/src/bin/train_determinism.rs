//! Determinism probe for CI: train the multimodal LSTM learner end to end
//! and print the final epoch losses and marginals with bit-exact
//! formatting. CI runs this twice — `FONDUER_THREADS=1` and
//! `FONDUER_THREADS=4` — and diffs the outputs: the per-sample Adam
//! learner and the length-bucketed batched inference path must be
//! completely unaffected by the thread configuration.

use fonduer_candidates::ContextScope;
use fonduer_core::domains::electronics;
use fonduer_features::Featurizer;
use fonduer_learning::{prepare, FonduerModel, ModelConfig, ProbClassifier};
use fonduer_nlp::HashedVocab;
use fonduer_synth::Domain;

fn main() {
    let ds = Domain::Electronics.generate(5, 7);
    let ex = electronics::extractor(&ds, "has_collector_current", ContextScope::Document);
    let cands = ex.extract(&ds.corpus);
    let feats = Featurizer::default().featurize(&ds.corpus, &cands);
    let vocab = HashedVocab::new(2048);
    let dataset = prepare(&ds.corpus, &cands, &feats, &vocab, 6);
    let targets: Vec<f32> = (0..dataset.inputs.len())
        .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
        .collect();
    let mut m = FonduerModel::new(
        ModelConfig {
            epochs: 2,
            ..Default::default()
        },
        dataset.vocab_size,
        dataset.n_features,
        dataset.arity,
    );
    m.fit(&dataset.inputs, &targets);
    // Bit patterns, not decimal renderings: any thread-dependent float
    // difference shows up in the diff.
    let mut loss_sum = 0.0f64;
    for (inp, &t) in dataset.inputs.iter().zip(&targets) {
        let p = m.predict_one(inp);
        loss_sum += f64::from(fonduer_nn::bce_with_logit(p.ln() - (1.0 - p).ln(), t).0);
    }
    println!("samples {}", dataset.inputs.len());
    println!("final_loss_bits {:016x}", loss_sum.to_bits());
    for (i, p) in m.predict(&dataset.inputs).iter().enumerate() {
        println!("marginal {i} {:08x}", p.to_bits());
    }
}
