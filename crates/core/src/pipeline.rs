//! The three-phase Fonduer pipeline (paper Figure 2): KBC initialization →
//! candidate generation → multimodal featurization, supervision, and
//! classification.

use crate::error::ConfigError;
use crate::eval::{PrF1, Tuple};
use crate::kb::KnowledgeBase;
use crate::session::PipelineSession;
use fonduer_candidates::{CandidateExtractor, CandidateSet};
use fonduer_datamodel::Corpus;
use fonduer_features::FeatureConfig;
use fonduer_learning::ModelConfig;
use fonduer_nlp::fnv1a;
use fonduer_observe as observe;
use fonduer_supervision::{GenerativeOptions, LabelingFunction, LfDiagnostics};
use fonduer_synth::GoldKb;
use std::collections::BTreeSet;
use std::time::Duration;

/// A complete KBC task: the user inputs of all three phases.
pub struct Task {
    /// Candidate generation (schema + matchers + throttlers + scope).
    pub extractor: CandidateExtractor,
    /// Labeling functions for weak supervision.
    pub lfs: Vec<LabelingFunction>,
}

/// Which discriminative learner classifies candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Learner {
    /// Fonduer's multimodal LSTM (configured via [`ModelConfig`]).
    MultimodalLstm,
    /// Sparse logistic regression over the explicit feature matrix (the
    /// human-tuned / SRV baselines).
    LogReg,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Discriminative learner selection.
    pub learner: Learner,
    /// Neural model hyperparameters (for [`Learner::MultimodalLstm`]).
    pub model: ModelConfig,
    /// Feature-library modalities. Fonduer's default excludes textual
    /// features from the explicit library because the LSTM learns them.
    pub features: FeatureConfig,
    /// Generative-model options.
    pub gen_opts: GenerativeOptions,
    /// Classification threshold over marginals (§3.2 "Classification").
    pub threshold: f32,
    /// Hashed word-vocabulary size.
    pub vocab_size: usize,
    /// Sentence window (tokens each side of a mention).
    pub window: usize,
    /// Fraction of documents assigned to the training split.
    pub train_frac: f64,
    /// Split-hash seed.
    pub seed: u64,
    /// Worker threads for candidate generation, featurization and LF
    /// application (documents are independent units of work). 1 =
    /// sequential; the builder resolves 0 to the machine's available
    /// parallelism, and the `FONDUER_THREADS` environment variable
    /// overrides any value at pool-construction time. Every artifact, and
    /// every learner's weights, are identical at every thread count.
    pub n_threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            learner: Learner::MultimodalLstm,
            model: ModelConfig::default(),
            features: FeatureConfig {
                textual: false,
                structural: true,
                tabular: true,
                visual: true,
                hashing_bits: 0,
            },
            gen_opts: GenerativeOptions::default(),
            threshold: 0.5,
            vocab_size: 2048,
            window: 6,
            train_frac: 0.7,
            seed: 1,
            n_threads: 1,
        }
    }
}

impl PipelineConfig {
    /// Start building a configuration from the defaults, with validation
    /// at [`build`](PipelineConfigBuilder::build) time.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            cfg: PipelineConfig::default(),
        }
    }

    /// Check every field against its valid domain: `threshold ∈ [0, 1]`,
    /// `train_frac ∈ [0, 1]`, `n_threads ≥ 1`, `vocab_size > 0`.
    ///
    /// [`PipelineSession`] constructors and setters call this; the one-shot
    /// [`run_task`] deliberately does not, for backwards compatibility.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(ConfigError::Threshold {
                value: self.threshold,
            });
        }
        if !(0.0..=1.0).contains(&self.train_frac) {
            return Err(ConfigError::TrainFrac {
                value: self.train_frac,
            });
        }
        if self.n_threads < 1 {
            return Err(ConfigError::Threads {
                value: self.n_threads,
            });
        }
        if self.vocab_size == 0 {
            return Err(ConfigError::VocabSize {
                value: self.vocab_size,
            });
        }
        if self.features.hashing_bits > 30 {
            return Err(ConfigError::HashingBits {
                value: self.features.hashing_bits,
            });
        }
        Ok(())
    }
}

/// Builder for [`PipelineConfig`] with domain validation.
///
/// ```
/// use fonduer_core::{Learner, PipelineConfig};
/// let cfg = PipelineConfig::builder()
///     .learner(Learner::LogReg)
///     .threshold(0.6)
///     .n_threads(4)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.n_threads, 4);
/// assert!(PipelineConfig::builder().threshold(1.5).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipelineConfigBuilder {
    cfg: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Discriminative learner selection.
    pub fn learner(mut self, learner: Learner) -> Self {
        self.cfg.learner = learner;
        self
    }

    /// Neural model hyperparameters.
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.cfg.model = model;
        self
    }

    /// Feature-library modalities.
    pub fn features(mut self, features: FeatureConfig) -> Self {
        self.cfg.features = features;
        self
    }

    /// Feature-hashing mode: `bits` in `1..=30` buckets features into
    /// `1 << bits` columns without a vocabulary; `0` restores the interned
    /// vocab (validated at [`build`](Self::build) time).
    pub fn feature_hashing(mut self, bits: u8) -> Self {
        self.cfg.features.hashing_bits = bits;
        self
    }

    /// Generative-model options.
    pub fn gen_opts(mut self, gen_opts: GenerativeOptions) -> Self {
        self.cfg.gen_opts = gen_opts;
        self
    }

    /// Classification threshold over marginals (must lie in `[0, 1]`).
    pub fn threshold(mut self, threshold: f32) -> Self {
        self.cfg.threshold = threshold;
        self
    }

    /// Hashed word-vocabulary size (must be positive).
    pub fn vocab_size(mut self, vocab_size: usize) -> Self {
        self.cfg.vocab_size = vocab_size;
        self
    }

    /// Sentence window (tokens each side of a mention).
    pub fn window(mut self, window: usize) -> Self {
        self.cfg.window = window;
        self
    }

    /// Fraction of documents in the training split (must lie in `[0, 1]`).
    pub fn train_frac(mut self, train_frac: f64) -> Self {
        self.cfg.train_frac = train_frac;
        self
    }

    /// Split-hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Worker threads for the parallel stages. `0` resolves to the
    /// machine's available parallelism at [`build`](Self::build) time.
    pub fn n_threads(mut self, n_threads: usize) -> Self {
        self.cfg.n_threads = n_threads;
        self
    }

    /// Validate and produce the configuration. A requested thread count of
    /// `0` is resolved to the detected core count here, so the built config
    /// always satisfies `n_threads ≥ 1`.
    pub fn build(mut self) -> Result<PipelineConfig, ConfigError> {
        if self.cfg.n_threads == 0 {
            self.cfg.n_threads = fonduer_par::resolve_threads(0);
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Wall-clock stage timings.
///
/// Stored as full-resolution [`Duration`]s (derived from the same
/// measurements the `fonduer-observe` spans record), so sub-millisecond
/// stages no longer truncate to zero; the `*_ms` accessors keep the
/// millisecond-oriented reporting surface.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Candidate generation.
    pub candgen: Duration,
    /// Multimodal featurization.
    pub featurize: Duration,
    /// Document split, LF application, generative model and LF
    /// diagnostics.
    pub supervise: Duration,
    /// Model-input preparation plus discriminative training.
    pub train: Duration,
    /// Inference over all candidates.
    pub infer: Duration,
}

impl Timings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.candgen + self.featurize + self.supervise + self.train + self.infer
    }

    /// Candidate generation, in (fractional) milliseconds.
    pub fn candgen_ms(&self) -> f64 {
        self.candgen.as_secs_f64() * 1e3
    }

    /// Featurization, in (fractional) milliseconds.
    pub fn featurize_ms(&self) -> f64 {
        self.featurize.as_secs_f64() * 1e3
    }

    /// Supervision, in (fractional) milliseconds.
    pub fn supervise_ms(&self) -> f64 {
        self.supervise.as_secs_f64() * 1e3
    }

    /// Discriminative training, in (fractional) milliseconds.
    pub fn train_ms(&self) -> f64 {
        self.train.as_secs_f64() * 1e3
    }

    /// Inference, in (fractional) milliseconds.
    pub fn infer_ms(&self) -> f64 {
        self.infer.as_secs_f64() * 1e3
    }

    /// Total pipeline time, in (fractional) milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total().as_secs_f64() * 1e3
    }
}

/// Everything the pipeline produces.
pub struct PipelineOutput {
    /// All extracted candidates.
    pub candidates: CandidateSet,
    /// Marginal P(true) per candidate (aligned with `candidates`).
    pub marginals: Vec<f32>,
    /// The output knowledge base (all documents).
    pub kb: KnowledgeBase,
    /// Documents in the training split.
    pub train_docs: BTreeSet<String>,
    /// Documents in the held-out split.
    pub test_docs: BTreeSet<String>,
    /// Quality on the held-out split against gold.
    pub metrics: PrF1,
    /// Fraction of training candidates with at least one LF label.
    pub label_coverage: f64,
    /// Per-LF error-analysis table over the training label matrix
    /// (empirical accuracy included when `gold` was non-empty).
    pub lf_diagnostics: LfDiagnostics,
    /// Stage timings.
    pub timings: Timings,
}

/// Assign a document to the training split by name hash.
pub fn is_train_doc(name: &str, train_frac: f64, seed: u64) -> bool {
    let mut key = name.as_bytes().to_vec();
    key.extend_from_slice(&seed.to_le_bytes());
    let h = fnv1a(&key) % 10_000;
    (h as f64 / 10_000.0) < train_frac
}

/// Run the full pipeline for one task on one corpus, evaluating against
/// `gold` on the held-out document split.
///
/// This is the one-shot convenience surface: it drives a single-use
/// [`PipelineSession`] through all six stages and returns its output.
/// Iterative workflows (tweak LFs, re-run) should hold a session directly
/// so the candidate and feature artifacts are reused across runs.
pub fn run_task(
    corpus: &Corpus,
    gold: &GoldKb,
    task: &Task,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let _task_span = observe::span("run_task");
    let mut session =
        PipelineSession::compat(corpus, gold, &task.extractor, &task.lfs, cfg.clone());
    session
        .output()
        .expect("lenient pipeline session is infallible")
}

/// Reachable-tuple set of a candidate extractor: the distinct `(doc,
/// normalized args)` pairs it can produce. Used for the oracle upper bounds
/// of Table 2 and the context-scope study of Figure 6.
pub fn reachable_tuples(corpus: &Corpus, extractor: &CandidateExtractor) -> BTreeSet<Tuple> {
    let set = extractor.extract(corpus);
    set.candidates
        .iter()
        .map(|c| {
            let doc = corpus.doc(c.doc);
            (doc.name.clone(), c.arg_texts(doc))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_deterministic_and_roughly_fractional() {
        let names: Vec<String> = (0..1000).map(|i| format!("doc_{i}")).collect();
        let train = names.iter().filter(|n| is_train_doc(n, 0.7, 1)).count();
        assert!((600..800).contains(&train), "{train}");
        for n in &names {
            assert_eq!(is_train_doc(n, 0.7, 1), is_train_doc(n, 0.7, 1));
        }
        // Different seed gives a different split.
        let set1: BTreeSet<&String> = names.iter().filter(|n| is_train_doc(n, 0.7, 1)).collect();
        let set2: BTreeSet<&String> = names.iter().filter(|n| is_train_doc(n, 0.7, 2)).collect();
        assert_ne!(set1, set2);
    }

    #[test]
    fn extreme_fractions() {
        assert!(!is_train_doc("a", 0.0, 1));
        assert!(is_train_doc("a", 1.0, 1));
    }

    #[test]
    fn builder_validates_domains() {
        assert!(PipelineConfig::default().validate().is_ok());
        let cfg = PipelineConfig::builder()
            .learner(Learner::LogReg)
            .threshold(0.25)
            .train_frac(0.5)
            .vocab_size(128)
            .window(3)
            .seed(7)
            .n_threads(2)
            .model(ModelConfig::default())
            .features(FeatureConfig::default())
            .gen_opts(GenerativeOptions::default())
            .build()
            .unwrap();
        assert_eq!(cfg.learner, Learner::LogReg);
        assert_eq!(cfg.vocab_size, 128);
        assert_eq!(cfg.n_threads, 2);

        assert_eq!(
            PipelineConfig::builder()
                .threshold(1.5)
                .build()
                .unwrap_err(),
            ConfigError::Threshold { value: 1.5 }
        );
        // NaN is outside every range.
        assert!(PipelineConfig::builder()
            .threshold(f32::NAN)
            .build()
            .is_err());
        assert!(PipelineConfig::builder()
            .train_frac(f64::NAN)
            .build()
            .is_err());
        assert_eq!(
            PipelineConfig::builder()
                .train_frac(-0.1)
                .build()
                .unwrap_err(),
            ConfigError::TrainFrac { value: -0.1 }
        );
        // A requested 0 resolves to the detected core count at build time
        // (raw structs bypassing the builder still require ≥ 1).
        let auto = PipelineConfig::builder().n_threads(0).build().unwrap();
        assert!(auto.n_threads >= 1);
        assert_eq!(
            PipelineConfig {
                n_threads: 0,
                ..PipelineConfig::default()
            }
            .validate()
            .unwrap_err(),
            ConfigError::Threads { value: 0 }
        );
        assert_eq!(
            PipelineConfig::builder().vocab_size(0).build().unwrap_err(),
            ConfigError::VocabSize { value: 0 }
        );
        let hashed = PipelineConfig::builder()
            .feature_hashing(18)
            .build()
            .unwrap();
        assert_eq!(hashed.features.hashing_bits, 18);
        assert_eq!(
            PipelineConfig::builder()
                .feature_hashing(31)
                .build()
                .unwrap_err(),
            ConfigError::HashingBits { value: 31 }
        );
    }
}
