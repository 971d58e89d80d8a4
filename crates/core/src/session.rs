//! Incremental pipeline sessions: the staged, artifact-cached execution
//! surface for iterative KBC (paper §4.3, Appendix C).
//!
//! Fonduer's core usage pattern is *iterative*: users tweak labeling
//! functions or throttlers and re-run, and the system amortizes cost so
//! only supervision and learning repeat. A [`PipelineSession`] makes that
//! explicit. Each stage —
//! [`candidates`](PipelineSession::candidates) →
//! [`featurize`](PipelineSession::featurize) →
//! [`supervise`](PipelineSession::supervise) →
//! [`train`](PipelineSession::train) →
//! [`infer`](PipelineSession::infer) →
//! [`evaluate`](PipelineSession::evaluate) — caches its output artifact
//! under a content hash of its inputs (matcher/throttler fingerprints,
//! [`FeatureConfig`] mask, LF names, [`ModelConfig`], split seed, ...).
//! Mutating an input (e.g. [`set_lfs`](PipelineSession::set_lfs)) dirties
//! only the stages whose keys change, so the LF-iteration loop re-runs
//! supervision + training against cached candidates and feature matrices —
//! the Appendix C workflow.
//!
//! Staleness is purely key-based: setters never eagerly drop artifacts, so
//! setting an input back to its previous value re-hits the cache. Per-stage
//! hits and misses are tracked in [`SessionStats`] and mirrored to
//! `fonduer-observe` counters (`session.cache.hit.<stage>` /
//! `session.cache.miss.<stage>`); stage recomputation runs under the same
//! span names (`candgen`, `featurize`, ...) the one-shot
//! [`run_task`](crate::run_task) always used.
//!
//! Closure-backed matchers, throttlers, and LFs are opaque to content
//! hashing: a matcher closure's *behavior* can change without its
//! fingerprint changing (LFs are keyed by name). When editing an LF body
//! in place, give it a new name — or call
//! [`invalidate`](PipelineSession::invalidate) to force a full recompute.
//!
//! # Incremental corpora
//!
//! Below the stage cache sits a per-document [`shard_cache`]: candidate
//! slices, feature CSR blocks, and LF vote blocks are each cached under
//! `(document content hash, stage config fingerprint)` and stitched into
//! the corpus-level artifacts by a deterministic input-order merge (the
//! same reduction contract `fonduer-par` uses, so assembled artifacts are
//! byte-identical to a cold sequential run). The corpus itself is owned
//! copy-on-write: [`upsert_document`](PipelineSession::upsert_document)
//! and [`remove_document`](PipelineSession::remove_document) mutate it in
//! place, and only the touched document's shards miss on the next run —
//! every unchanged document is a pure cache hit, and the cheap merge +
//! downstream train/infer re-run. [`recomputed_docs`](PipelineSession::recomputed_docs)
//! reports how many documents actually recomputed in the last traversal.

pub mod shard_cache;

use crate::error::Error;
use crate::eval::{eval_tuples, gold_tuples_for_docs, PrF1, Tuple};
use crate::kb::KnowledgeBase;
use crate::pipeline::{is_train_doc, Learner, PipelineConfig, PipelineOutput, Task, Timings};
use fonduer_candidates::{Candidate, CandidateExtractor, CandidateSet};
use fonduer_datamodel::{Corpus, DocId, Document};
use fonduer_features::{
    DocFeatureShard, FeatureConfig, FeatureSet, FeatureShardMerger, Featurizer,
};
use fonduer_learning::{
    prepare, FonduerModel, LogRegModel, ModelConfig, PreparedDataset, ProbClassifier,
};
use fonduer_nlp::{fnv1a, HashedVocab};
use fonduer_observe as observe;
use fonduer_observe::{MentionProvenance, ProvenanceMeta, ProvenanceRecord};
use fonduer_par::Pool;
use fonduer_supervision::{
    GenerativeModel, GenerativeOptions, LabelBlock, LabelMatrix, LabelingFunction, LfDiagnostics,
};
use fonduer_synth::GoldKb;
use shard_cache::{ShardCache, ShardCacheSummary, ShardKey};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// The cached pipeline stages, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// Candidate generation (phase 2).
    Candidates,
    /// Multimodal featurization + model-input preparation (phase 3a).
    Featurize,
    /// LF application + generative model + LF diagnostics (phase 3b).
    Supervise,
    /// Discriminative training (phase 3c).
    Train,
    /// Inference over all candidates.
    Infer,
    /// Held-out evaluation + KB construction.
    Evaluate,
}

impl StageId {
    /// All stages, in dependency order.
    pub const ALL: [StageId; 6] = [
        StageId::Candidates,
        StageId::Featurize,
        StageId::Supervise,
        StageId::Train,
        StageId::Infer,
        StageId::Evaluate,
    ];

    /// Stage label used in counter names and reports (matches the span
    /// names `run_task` has always emitted).
    pub fn name(self) -> &'static str {
        match self {
            StageId::Candidates => "candgen",
            StageId::Featurize => "featurize",
            StageId::Supervise => "supervise",
            StageId::Train => "train",
            StageId::Infer => "infer",
            StageId::Evaluate => "evaluate",
        }
    }

    fn index(self) -> usize {
        match self {
            StageId::Candidates => 0,
            StageId::Featurize => 1,
            StageId::Supervise => 2,
            StageId::Train => 3,
            StageId::Infer => 4,
            StageId::Evaluate => 5,
        }
    }
}

/// Cache counters for one stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage's artifact was served from cache.
    pub hits: u64,
    /// Times the stage's artifact was (re)computed.
    pub misses: u64,
}

/// Per-stage cache hit/miss counters for one session.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    stages: [StageStats; 6],
}

impl SessionStats {
    /// Counters for one stage.
    pub fn stage(&self, id: StageId) -> StageStats {
        self.stages[id.index()]
    }

    /// Total cache hits across all stages.
    pub fn hits(&self) -> u64 {
        self.stages.iter().map(|s| s.hits).sum()
    }

    /// Total artifact computations across all stages.
    pub fn misses(&self) -> u64 {
        self.stages.iter().map(|s| s.misses).sum()
    }

    /// One-line rendering, e.g. `candgen 1h/1m featurize 1h/1m ...`.
    pub fn to_line(&self) -> String {
        StageId::ALL
            .iter()
            .map(|&id| {
                let s = self.stage(id);
                format!("{} {}h/{}m", id.name(), s.hits, s.misses)
            })
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// Fingerprints of the session's inputs, taken when each input is
/// installed. Every stage key folds some of them in; recomputing them per
/// key — rehashing the corpus or a dictionary matcher, Debug-formatting a
/// config — would cost more than a warm stage call.
struct InputFps {
    /// Content hash of the whole corpus, over the per-document hashes:
    /// folded into every stage key so upserts/removals dirty the
    /// monolithic artifacts (shards then make the recompute cheap).
    corpus: u64,
    extractor: u64,
    /// The LF names, in order.
    lfs: u64,
    gen_opts: u64,
    /// Learner selection plus model config.
    learner: u64,
}

/// One cached artifact plus the content-hash key it was computed under.
struct Cached<T> {
    key: u64,
    value: T,
}

/// The supervision stage's artifact: everything phase 3b derives from the
/// candidate set, the LF library, and the document split.
pub struct SupervisionArtifact {
    /// Dense label matrix over training candidates (rows follow `train_idx`).
    pub label_matrix: LabelMatrix,
    /// Indices (into the candidate set) of training-split candidates.
    pub train_idx: Vec<usize>,
    /// Generative-model marginals, aligned with `train_idx`.
    pub train_marginals: Vec<f64>,
    /// Fraction of training candidates with at least one LF vote.
    pub label_coverage: f64,
    /// Per-LF error-analysis table (empirical accuracy when gold is known).
    pub lf_diagnostics: LfDiagnostics,
}

/// The candidate stage's artifact: the merged set plus the per-document
/// row ranges the shard-assembled featurize/supervise stages slice by.
struct CandidateArtifact {
    set: CandidateSet,
    /// `ranges[i]` is the `[lo, hi)` candidate index range of document `i`.
    ranges: Vec<(u32, u32)>,
}

impl CandidateArtifact {
    /// The candidates of the document at corpus position `i`.
    fn doc_candidates(&self, i: usize) -> &[Candidate] {
        let (lo, hi) = self.ranges[i];
        &self.set.candidates[lo as usize..hi as usize]
    }
}

/// Default shard capacity before the first corpus-sized resize.
const DEFAULT_SHARD_CAPACITY: usize = 64;

/// The session's per-document shard caches, one per shardable stage.
struct ShardStore {
    candidates: ShardCache<Vec<Candidate>>,
    features: ShardCache<DocFeatureShard>,
    labels: ShardCache<LabelBlock>,
}

impl ShardStore {
    fn new() -> Self {
        Self {
            candidates: ShardCache::new(DEFAULT_SHARD_CAPACITY),
            features: ShardCache::new(DEFAULT_SHARD_CAPACITY),
            labels: ShardCache::new(DEFAULT_SHARD_CAPACITY),
        }
    }

    /// Track the corpus size: keep roughly two generations of shards per
    /// document so an upsert-then-revert still hits.
    fn resize_for(&mut self, n_docs: usize) {
        let cap = (n_docs * 2).max(DEFAULT_SHARD_CAPACITY);
        self.candidates.set_capacity(cap);
        self.features.set_capacity(cap);
        self.labels.set_capacity(cap);
    }

    fn clear(&mut self) {
        self.candidates.clear();
        self.features.clear();
        self.labels.clear();
    }

    fn summary(&self, recomputed_docs: usize) -> ShardCacheSummary {
        ShardCacheSummary {
            hits: self.candidates.hits() + self.features.hits() + self.labels.hits(),
            misses: self.candidates.misses() + self.features.misses() + self.labels.misses(),
            evicts: self.candidates.evicts() + self.features.evicts() + self.labels.evicts(),
            cached: self.candidates.len() + self.features.len() + self.labels.len(),
            recomputed_docs,
        }
    }
}

struct EvalArtifact {
    kb: KnowledgeBase,
    metrics: PrF1,
}

/// Run one stage's miss path — cache-key miss through storing the
/// artifact — inside its single `observe::timed` span, so the span and the
/// stage's [`Timings`] entry are one measurement. Bracketed by
/// `stage_start` / `stage_finish` events on the live progress ring (the
/// obsd `/events` SSE feed; a no-op unless a subscriber switched it on).
fn timed_stage<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    observe::progress("stage_start", name, "", 0);
    let (value, took) = observe::timed(name, f);
    observe::progress("stage_finish", name, "", took.as_micros() as u64);
    (value, took)
}

/// Fingerprint of a config value through its `Debug` rendering, which
/// covers every field without listing them.
fn debug_fp(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn learner_fp(cfg: &PipelineConfig) -> u64 {
    hash_parts("learner", &[debug_fp(&cfg.learner), debug_fp(&cfg.model)])
}

fn lf_names_fp(lfs: &[LabelingFunction]) -> u64 {
    let mut lf_names = Vec::new();
    for lf in lfs {
        lf_names.push(0x1f);
        lf_names.extend_from_slice(lf.name.as_bytes());
    }
    fnv1a(&lf_names)
}

fn hash_parts(tag: &str, parts: &[u64]) -> u64 {
    let mut key = tag.as_bytes().to_vec();
    for p in parts {
        key.push(0x1f);
        key.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a(&key)
}

/// The borrowed session state a shard-resolving pass needs.
struct ShardPass<'s> {
    corpus: &'s Corpus,
    doc_hashes: &'s [u64],
    pool: Pool,
    /// Collects the names of documents whose shards were recomputed.
    recomputed: &'s mut BTreeSet<String>,
}

impl ShardPass<'_> {
    /// One shard per corpus position in `positions`, in order: cache hits
    /// first, then `compute` for every miss on the pool (per-document
    /// timings recorded under `stage`), each fresh shard inserted into
    /// `cache` under `(document content hash, config)`.
    fn resolve<S: Send>(
        &mut self,
        cache: &mut ShardCache<S>,
        config: u64,
        stage: &'static str,
        positions: &[usize],
        compute: impl Fn(usize, &Document) -> S + Sync,
    ) -> Vec<Arc<S>> {
        let (corpus, doc_hashes) = (self.corpus, self.doc_hashes);
        let key = |i: usize| ShardKey {
            doc_hash: doc_hashes[i],
            config,
        };
        let mut plan: Vec<Option<Arc<S>>> = positions.iter().map(|&i| cache.get(key(i))).collect();
        let missing: Vec<usize> = positions
            .iter()
            .zip(&plan)
            .filter(|(_, s)| s.is_none())
            .map(|(&i, _)| i)
            .collect();
        let doc = |i: usize| corpus.doc(DocId::from_usize(i));
        let mut computed = self
            .pool
            .map_docs(
                stage,
                &missing,
                |&i| doc(i).name.as_str(),
                |&i| compute(i, doc(i)),
            )
            .into_iter();
        for (slot, &i) in plan.iter_mut().zip(positions) {
            if slot.is_none() {
                let shard = Arc::new(computed.next().expect("one shard per miss"));
                self.recomputed.insert(doc(i).name.clone());
                cache.insert(key(i), Arc::clone(&shard));
                *slot = Some(shard);
            }
        }
        plan.into_iter()
            .map(|s| s.expect("every shard resolved above"))
            .collect()
    }
}

/// A stateful, incrementally re-runnable pipeline over one corpus.
///
/// The session borrows the corpus, the gold KB, and the task inputs
/// (extractor + LF library) for its lifetime; the iterative loop swaps the
/// borrowed inputs with [`set_lfs`](Self::set_lfs) /
/// [`set_extractor`](Self::set_extractor) and re-runs
/// [`output`](Self::output). See the module docs for the caching model.
///
/// ```no_run
/// # use fonduer_core::{PipelineSession, PipelineConfig, Task};
/// # fn demo(corpus: &fonduer_datamodel::Corpus, gold: &fonduer_synth::GoldKb,
/// #         task: &Task, better_lfs: &[fonduer_supervision::LabelingFunction])
/// #         -> Result<(), fonduer_core::Error> {
/// let mut session = PipelineSession::new(corpus, gold, task, PipelineConfig::default())?;
/// let first = session.output()?; // cold: runs all six stages
/// session.set_lfs(better_lfs); // dirty supervise + train + infer + evaluate
/// let second = session.output()?; // warm: candgen + featurize served from cache
/// # Ok(()) }
/// ```
pub struct PipelineSession<'a> {
    /// Copy-on-write corpus: borrowed until the first
    /// [`upsert_document`](Self::upsert_document) /
    /// [`remove_document`](Self::remove_document), owned after.
    corpus: Cow<'a, Corpus>,
    /// `doc_hashes[i]` is the content hash of document `i` — the shard-key
    /// half that tracks corpus mutations (kept in sync with `corpus`).
    doc_hashes: Vec<u64>,
    gold: &'a GoldKb,
    extractor: &'a CandidateExtractor,
    lfs: &'a [LabelingFunction],
    cfg: PipelineConfig,
    fps: InputFps,
    /// Lenient sessions (the `run_task` compatibility path) skip the
    /// strict empty-candidate / empty-training-set checks and reproduce
    /// the historical permissive behavior bit for bit.
    strict: bool,
    candidates: Option<Cached<CandidateArtifact>>,
    split: Option<Cached<(BTreeSet<String>, BTreeSet<String>)>>,
    features: Option<Cached<FeatureSet>>,
    /// Model inputs derived from the feature matrix (token windows +
    /// feature rows per candidate). Built lazily by the train stage — an
    /// upsert's featurize→supervise walk never pays for it.
    dataset: Option<Cached<PreparedDataset>>,
    supervision: Option<Cached<SupervisionArtifact>>,
    model: Option<Cached<Box<dyn ProbClassifier>>>,
    marginals: Option<Cached<Vec<f32>>>,
    evaluation: Option<Cached<EvalArtifact>>,
    /// Per-document shard caches (the incremental-recomputation layer).
    shards: ShardStore,
    /// Names of documents with at least one shard recomputed during the
    /// current traversal (cleared at each public stage entry).
    recomputed: BTreeSet<String>,
    timings: Timings,
    stats: SessionStats,
    /// Stages already counted during the current top-level traversal: one
    /// `output()` consults the candidate artifact from both featurize and
    /// supervise, but that is one hit, not two.
    noted: [bool; 6],
}

impl<'a> PipelineSession<'a> {
    /// Open a session for `task` over `corpus`, validating `cfg`.
    pub fn new(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        task: &'a Task,
        cfg: PipelineConfig,
    ) -> Result<Self, Error> {
        Self::from_parts(corpus, gold, &task.extractor, &task.lfs, cfg)
    }

    /// Open a session from an extractor and LF slice directly (no [`Task`]
    /// wrapper), validating `cfg`.
    pub fn from_parts(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        extractor: &'a CandidateExtractor,
        lfs: &'a [LabelingFunction],
        cfg: PipelineConfig,
    ) -> Result<Self, Error> {
        cfg.validate()?;
        Ok(Self::build(corpus, gold, extractor, lfs, cfg, true))
    }

    /// The `run_task` compatibility constructor: no config validation, no
    /// strict degenerate-input errors.
    pub(crate) fn compat(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        extractor: &'a CandidateExtractor,
        lfs: &'a [LabelingFunction],
        cfg: PipelineConfig,
    ) -> Self {
        Self::build(corpus, gold, extractor, lfs, cfg, false)
    }

    fn build(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        extractor: &'a CandidateExtractor,
        lfs: &'a [LabelingFunction],
        cfg: PipelineConfig,
        strict: bool,
    ) -> Self {
        // Ambient observability: FONDUER_OBSD=<addr> starts the process-
        // global debug server, making every session (and run_task caller)
        // scrapeable with zero code changes. No-op when unset.
        fonduer_obsd::activate_from_env();
        let doc_hashes: Vec<u64> = corpus.iter().map(|(_, d)| d.content_hash()).collect();
        let mut shards = ShardStore::new();
        shards.resize_for(corpus.len());
        let fps = InputFps {
            corpus: hash_parts("corpus", &doc_hashes),
            extractor: extractor.fingerprint(),
            lfs: lf_names_fp(lfs),
            gen_opts: debug_fp(&cfg.gen_opts),
            learner: learner_fp(&cfg),
        };
        Self {
            corpus: Cow::Borrowed(corpus),
            doc_hashes,
            gold,
            extractor,
            lfs,
            cfg,
            fps,
            strict,
            candidates: None,
            split: None,
            features: None,
            dataset: None,
            supervision: None,
            model: None,
            marginals: None,
            evaluation: None,
            shards,
            recomputed: BTreeSet::new(),
            timings: Timings::default(),
            stats: SessionStats::default(),
            noted: [false; 6],
        }
    }

    // ---------------------------------------------------------------- inputs

    /// Replace the LF library. Dirties supervise → train → infer →
    /// evaluate; candidate and feature artifacts stay valid.
    pub fn set_lfs(&mut self, lfs: &'a [LabelingFunction]) {
        self.lfs = lfs;
        self.fps.lfs = lf_names_fp(lfs);
    }

    /// Replace the candidate extractor. Dirties every stage (unless the new
    /// extractor's fingerprint matches the old one).
    pub fn set_extractor(&mut self, extractor: &'a CandidateExtractor) {
        self.extractor = extractor;
        self.fps.extractor = extractor.fingerprint();
    }

    /// Replace the whole configuration (validated). Stages whose key inputs
    /// are unchanged keep their cached artifacts.
    pub fn set_config(&mut self, cfg: PipelineConfig) -> Result<(), Error> {
        cfg.validate()?;
        self.install_config(cfg);
        Ok(())
    }

    /// The one place `cfg` changes after construction, so its fingerprints
    /// stay in step with it.
    fn install_config(&mut self, cfg: PipelineConfig) {
        self.fps.gen_opts = debug_fp(&cfg.gen_opts);
        self.fps.learner = learner_fp(&cfg);
        self.cfg = cfg;
    }

    /// Change the classification threshold. Dirties only evaluate.
    pub fn set_threshold(&mut self, threshold: f32) -> Result<(), Error> {
        let mut cfg = self.cfg.clone();
        cfg.threshold = threshold;
        self.set_config(cfg)
    }

    /// Change the feature-modality switchboard. Dirties featurize → train →
    /// infer → evaluate; candidates and supervision stay valid.
    pub fn set_feature_config(&mut self, features: FeatureConfig) {
        self.install_config(PipelineConfig {
            features,
            ..self.cfg.clone()
        });
    }

    /// Change the neural-model hyperparameters. Dirties train → infer →
    /// evaluate.
    pub fn set_model_config(&mut self, model: ModelConfig) {
        self.install_config(PipelineConfig {
            model,
            ..self.cfg.clone()
        });
    }

    /// Change the discriminative learner. Dirties train → infer → evaluate.
    pub fn set_learner(&mut self, learner: Learner) {
        self.install_config(PipelineConfig {
            learner,
            ..self.cfg.clone()
        });
    }

    /// Change the generative-model options. Dirties supervise → train →
    /// infer → evaluate.
    pub fn set_gen_opts(&mut self, gen_opts: GenerativeOptions) {
        self.install_config(PipelineConfig {
            gen_opts,
            ..self.cfg.clone()
        });
    }

    /// Change the train/test document split. Dirties supervise → train →
    /// infer → evaluate.
    pub fn set_split(&mut self, train_frac: f64, seed: u64) -> Result<(), Error> {
        let mut cfg = self.cfg.clone();
        cfg.train_frac = train_frac;
        cfg.seed = seed;
        self.set_config(cfg)
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    // ------------------------------------------------------- corpus mutation

    /// Read-only view of the session's current corpus (including any
    /// upserts/removals applied through the session).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Insert or replace one document, keyed by its name. Returns the
    /// document's position. The next run recomputes only this document's
    /// candidate/feature/label shards plus the cheap merge and downstream
    /// train/infer — every other document is a pure shard-cache hit. An
    /// upsert whose content is byte-identical to the existing document is a
    /// no-op for caching (the content hash is unchanged).
    ///
    /// Errors with [`Error::DuplicateDocId`] when more than one existing
    /// document already carries the name (there is no unique document to
    /// replace).
    pub fn upsert_document(&mut self, doc: Document) -> Result<DocId, Error> {
        let count = self.corpus.count_named(&doc.name);
        if count > 1 {
            return Err(Error::DuplicateDocId {
                name: doc.name.clone(),
                count,
            });
        }
        let hash = doc.content_hash();
        let id = match self.corpus.index_of(&doc.name) {
            Some(id) => {
                self.corpus.to_mut().replace(id, doc);
                self.doc_hashes[id.index()] = hash;
                id
            }
            None => {
                let id = self.corpus.to_mut().add(doc);
                self.doc_hashes.push(hash);
                id
            }
        };
        self.fps.corpus = hash_parts("corpus", &self.doc_hashes);
        Ok(id)
    }

    /// Remove the document at `id`, returning it. Later documents shift
    /// down one position — shards are content-keyed, so their cached work
    /// survives the shift and the next run recomputes nothing but the
    /// merge + downstream stages.
    ///
    /// Errors with [`Error::DocNotFound`] when `id` is past the end of the
    /// corpus.
    pub fn remove_document(&mut self, id: DocId) -> Result<Document, Error> {
        if id.index() >= self.corpus.len() {
            return Err(Error::DocNotFound {
                doc: id,
                n_docs: self.corpus.len(),
            });
        }
        self.doc_hashes.remove(id.index());
        self.fps.corpus = hash_parts("corpus", &self.doc_hashes);
        Ok(self.corpus.to_mut().remove(id))
    }

    /// Number of documents whose shards were recomputed during the most
    /// recent traversal: the whole corpus on a cold run, exactly 1 after a
    /// warm single-document upsert, 0 when every stage was served from the
    /// monolithic stage cache.
    pub fn recomputed_docs(&self) -> usize {
        self.recomputed.len()
    }

    /// Aggregated shard-cache counters (lifetime hits/misses/evictions,
    /// resident shards) plus the last traversal's recomputed-document
    /// count.
    pub fn shard_stats(&self) -> ShardCacheSummary {
        self.shards.summary(self.recomputed.len())
    }

    /// Drop every cached artifact — including all per-document shards —
    /// forcing the next run to recompute all stages. The escape hatch for
    /// in-place edits content hashing cannot see (a closure body behind an
    /// unchanged matcher kind or LF name).
    pub fn invalidate(&mut self) {
        self.candidates = None;
        self.split = None;
        self.features = None;
        self.dataset = None;
        self.supervision = None;
        self.model = None;
        self.marginals = None;
        self.evaluation = None;
        self.shards.clear();
    }

    /// Per-stage cache hit/miss counters accumulated over the session.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Zero the cache counters (artifacts are kept).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Stage timings of the most recent traversal. Stages served from cache
    /// report [`Duration::ZERO`]; recomputed stages report measured wall
    /// clock — so a warm re-run's total is the true incremental cost.
    pub fn timings(&self) -> Timings {
        self.timings
    }

    /// A queryable [`RunReport`](crate::report::RunReport) joining the
    /// last traversal's stage timings, the session's cache counters, the
    /// pool telemetry and span summaries from the `fonduer-observe`
    /// registry, and the per-document stage timings table. Call after
    /// `output()`; the snapshot reflects the process-global registry, so
    /// span totals accumulate across traversals while `last_us` is this
    /// session's most recent walk only.
    pub fn run_report(&self) -> crate::report::RunReport {
        crate::report::RunReport::collect(
            &self.timings,
            self.stats,
            self.shard_stats(),
            self.cfg.n_threads,
        )
    }

    /// Start (or reuse) the process-global `fonduer-obsd` debug server on
    /// `addr` (`"127.0.0.1:0"` picks an ephemeral port) and publish the
    /// session's current report state to it. Returns the bound address.
    /// Subsequent [`output`](Self::output) calls keep `/report`,
    /// `/report.json`, and `/lfs` fresh automatically.
    pub fn serve_obsd(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let bound = fonduer_obsd::ensure_global(addr)?;
        self.publish_obsd();
        Ok(bound)
    }

    /// Push the current `RunReport` renderings and LF diagnostics into the
    /// obsd publish slots. No-op when no server is active.
    fn publish_obsd(&self) {
        if !fonduer_obsd::is_active() {
            return;
        }
        let report = self.run_report();
        fonduer_obsd::publish_report(report.render_text(), report.render_jsonl());
        if let Some(sup) = self.supervision.as_ref() {
            fonduer_obsd::publish_lf_diagnostics(crate::report::lf_diagnostics_json(
                &sup.value.lf_diagnostics,
            ));
        }
    }

    // ------------------------------------------------------------ cache keys

    /// Reset per-traversal bookkeeping (stage hit/miss notes and the
    /// recomputed-document set) at each public stage entry.
    fn begin_traversal(&mut self) {
        self.noted = [false; 6];
        self.recomputed.clear();
    }

    /// Record one hit/miss for `stage`, once per traversal (a single
    /// `output()` walk can consult an upstream artifact more than once —
    /// e.g. candidates feed both featurization and supervision). Returns
    /// whether this was the first consult of the traversal, so callers can
    /// also gate per-traversal side effects (like zeroing a stage timing)
    /// on it.
    fn note(&mut self, stage: StageId, hit: bool) -> bool {
        if self.noted[stage.index()] {
            return false;
        }
        self.noted[stage.index()] = true;
        let s = &mut self.stats.stages[stage.index()];
        if hit {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
        let verdict = if hit { "hit" } else { "miss" };
        observe::counter(&format!("session.cache.{verdict}.{}", stage.name()), 1);
        true
    }

    fn candidates_key(&self) -> u64 {
        hash_parts("candidates", &[self.fps.extractor, self.fps.corpus])
    }

    fn split_key(&self) -> u64 {
        let cfg = &self.cfg;
        hash_parts(
            "split",
            &[cfg.train_frac.to_bits(), cfg.seed, self.fps.corpus],
        )
    }

    fn features_key(&self) -> u64 {
        let cfg = &self.cfg;
        hash_parts(
            "features",
            &[
                self.candidates_key(),
                cfg.features.fingerprint(),
                cfg.vocab_size as u64,
                cfg.window as u64,
            ],
        )
    }

    fn supervise_key(&self) -> u64 {
        hash_parts(
            "supervise",
            &[
                self.candidates_key(),
                self.split_key(),
                self.fps.lfs,
                self.fps.gen_opts,
            ],
        )
    }

    fn train_key(&self) -> u64 {
        // Every learner is thread-count-invariant, so n_threads stays out
        // of the key (folding it in would only cause spurious misses).
        hash_parts(
            "train",
            &[
                self.features_key(),
                self.supervise_key(),
                self.fps.learner,
                self.cfg.seed,
            ],
        )
    }

    fn evaluate_key(&self) -> u64 {
        hash_parts(
            "evaluate",
            &[self.train_key(), self.cfg.threshold.to_bits() as u64],
        )
    }

    // ---------------------------------------------------------------- stages

    /// Phase 2: candidate generation. Cached on the extractor fingerprint.
    pub fn candidates(&mut self) -> Result<&CandidateSet, Error> {
        self.begin_traversal();
        self.ensure_candidates()?;
        Ok(&self.candidates.as_ref().unwrap().value.set)
    }

    fn ensure_candidates(&mut self) -> Result<(), Error> {
        let key = self.candidates_key();
        if self.candidates.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Candidates, true) {
                self.timings.candgen = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Candidates, false);
        let ((), took) = timed_stage("candgen", || {
            let value = self.extract_candidates();
            self.candidates = Some(Cached { key, value });
        });
        self.timings.candgen = took;
        Ok(())
    }

    /// The candidate stage's miss path: per-document shards, then an
    /// input-order merge.
    fn extract_candidates(&mut self) -> CandidateArtifact {
        let cfg_fp = hash_parts("shard.cand", &[self.fps.extractor]);
        let n = self.corpus.len();
        self.shards.resize_for(n);
        let extractor = self.extractor;
        let mut pass = ShardPass {
            corpus: &self.corpus,
            doc_hashes: &self.doc_hashes,
            pool: Pool::new(self.cfg.n_threads),
            recomputed: &mut self.recomputed,
        };
        // The `extract_corpus` span covers only the per-document work (what
        // the doc-timings table measures); the merge below is corpus-global
        // reduction, outside it.
        let positions: Vec<usize> = (0..n).collect();
        let shards = {
            let _span = observe::span("extract_corpus");
            pass.resolve(
                &mut self.shards.candidates,
                cfg_fp,
                "candgen",
                &positions,
                |i, doc| extractor.extract_doc(DocId::from_usize(i), doc),
            )
        };
        // Input-order merge, re-pointing each candidate at its current
        // corpus position so shards survive the DocId shifts a removal
        // causes.
        let mut candidates = Vec::new();
        let mut ranges = Vec::with_capacity(n);
        for (i, shard) in shards.iter().enumerate() {
            let lo = candidates.len() as u32;
            let id = DocId::from_usize(i);
            candidates.extend(shard.iter().map(|c| Candidate::new(id, c.mentions.clone())));
            ranges.push((lo, candidates.len() as u32));
        }
        CandidateArtifact {
            set: CandidateSet {
                schema: extractor.schema.clone(),
                candidates,
            },
            ranges,
        }
    }

    /// The train/test document-name split (cheap; cached on
    /// `(train_frac, seed)`).
    fn split(&mut self) -> &(BTreeSet<String>, BTreeSet<String>) {
        let key = self.split_key();
        if self.split.as_ref().is_none_or(|c| c.key != key) {
            let mut train_docs = BTreeSet::new();
            let mut test_docs = BTreeSet::new();
            for (_, doc) in self.corpus.iter() {
                if is_train_doc(&doc.name, self.cfg.train_frac, self.cfg.seed) {
                    train_docs.insert(doc.name.clone());
                } else {
                    test_docs.insert(doc.name.clone());
                }
            }
            self.split = Some(Cached {
                key,
                value: (train_docs, test_docs),
            });
        }
        &self.split.as_ref().unwrap().value
    }

    /// Phase 3a: multimodal featurization + model-input preparation.
    /// Cached on the candidate key plus the [`FeatureConfig`] mask, vocab
    /// size, and sentence window.
    pub fn featurize(&mut self) -> Result<&FeatureSet, Error> {
        self.begin_traversal();
        self.ensure_featurize()?;
        Ok(&self.features.as_ref().unwrap().value)
    }

    fn ensure_featurize(&mut self) -> Result<(), Error> {
        self.ensure_candidates()?;
        let key = self.features_key();
        if self.features.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Featurize, true) {
                self.timings.featurize = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Featurize, false);
        let ((), took) = timed_stage("featurize", || {
            let value = self.featurize_corpus();
            self.features = Some(Cached { key, value });
        });
        self.timings.featurize = took;
        Ok(())
    }

    /// The featurize stage's miss path: per-document shards, then an
    /// input-order merge.
    fn featurize_corpus(&mut self) -> FeatureSet {
        let cfg_fp = hash_parts(
            "shard.feat",
            &[self.fps.extractor, self.cfg.features.fingerprint()],
        );
        let n = self.corpus.len();
        self.shards.resize_for(n);
        let art = &self.candidates.as_ref().unwrap().value;
        let featurizer = Featurizer::new(self.cfg.features);
        let mut pass = ShardPass {
            corpus: &self.corpus,
            doc_hashes: &self.doc_hashes,
            pool: Pool::new(self.cfg.n_threads),
            recomputed: &mut self.recomputed,
        };
        let positions: Vec<usize> = (0..n).collect();
        let shards = {
            let _span = observe::span("featurize_corpus");
            pass.resolve(
                &mut self.shards.features,
                cfg_fp,
                "featurize",
                &positions,
                |i, doc| featurizer.featurize_doc(doc, art.doc_candidates(i)),
            )
        };
        // Input-order merge: shard-local feature ids remap through a shared
        // vocab in first-occurrence order, reproducing the sequential
        // featurizer's intern order byte for byte.
        let mut merger = FeatureShardMerger::new(self.cfg.features.hashing_bits);
        for shard in &shards {
            merger.push(shard);
        }
        merger.finish()
    }

    /// Model-input preparation (token windows + feature rows per
    /// candidate), keyed with the feature artifact. Only training consumes
    /// it, so it runs inside the train stage's miss path (after
    /// [`ensure_featurize`](Self::ensure_featurize)), and featurize-stage
    /// consumers (and warm upsert walks) never pay for it.
    fn ensure_dataset(&mut self) {
        let key = self.features_key();
        if self.dataset.as_ref().is_some_and(|c| c.key == key) {
            return;
        }
        let vocab = HashedVocab::new(self.cfg.vocab_size);
        let dataset = prepare(
            &self.corpus,
            &self.candidates.as_ref().unwrap().value.set,
            &self.features.as_ref().unwrap().value,
            &vocab,
            self.cfg.window,
        );
        self.dataset = Some(Cached {
            key,
            value: dataset,
        });
    }

    /// Phase 3b: LF application, generative model, and LF diagnostics over
    /// the training split. Cached on the candidate and split keys plus the
    /// LF names and generative options.
    pub fn supervise(&mut self) -> Result<&SupervisionArtifact, Error> {
        self.begin_traversal();
        self.ensure_supervise()?;
        Ok(&self.supervision.as_ref().unwrap().value)
    }

    fn ensure_supervise(&mut self) -> Result<(), Error> {
        self.ensure_candidates()?;
        let key = self.supervise_key();
        if self.supervision.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Supervise, true) {
                self.timings.supervise = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Supervise, false);
        let ((), took) = timed_stage("supervise", || {
            let value = self.label_training_split();
            self.supervision = Some(Cached { key, value });
        });
        self.timings.supervise = took;
        Ok(())
    }

    /// The supervise stage's miss path: the document split, per-document
    /// label shards over the training split, the generative model, and the
    /// LF diagnostics against gold.
    fn label_training_split(&mut self) -> SupervisionArtifact {
        self.split();
        // Keyed without split params: changing the train/test split reuses
        // every label shard already computed for a document.
        let cfg_fp = hash_parts("shard.label", &[self.fps.extractor, self.fps.lfs]);
        let n = self.corpus.len();
        self.shards.resize_for(n);
        let corpus: &Corpus = &self.corpus;
        let art = &self.candidates.as_ref().unwrap().value;
        let (train_docs, _) = &self.split.as_ref().unwrap().value;
        let lfs = self.lfs;
        let mut pass = ShardPass {
            corpus,
            doc_hashes: &self.doc_hashes,
            pool: Pool::new(self.cfg.n_threads),
            recomputed: &mut self.recomputed,
        };
        let lf_refs: Vec<&LabelingFunction> = lfs.iter().collect();
        // Corpus positions of training-split documents, in input order;
        // label shards exist only for these.
        let train_positions: Vec<usize> = (0..n)
            .filter(|&i| train_docs.contains(&corpus.doc(DocId::from_usize(i)).name))
            .collect();
        let blocks = {
            let _span = observe::span("lf_apply");
            pass.resolve(
                &mut self.shards.labels,
                cfg_fp,
                "lf_apply",
                &train_positions,
                |i, doc| LabelBlock::compute(&lf_refs, doc, art.doc_candidates(i)),
            )
        };
        let label_matrix = LabelMatrix::from_blocks(lfs.len(), blocks.iter().map(|b| b.as_ref()));
        // Candidate indices of the training split, grouped by document in
        // input order — identical to filtering the merged candidate list by
        // train-doc membership.
        let train_idx: Vec<usize> = train_positions
            .iter()
            .flat_map(|&i| (art.ranges[i].0 as usize)..(art.ranges[i].1 as usize))
            .collect();
        let gen = GenerativeModel::fit(&label_matrix, &self.cfg.gen_opts);
        let train_marginals = gen.predict(&label_matrix);
        let label_coverage = label_matrix.total_coverage();
        observe::gauge_set("supervision.label_coverage", label_coverage);
        // LF error-analysis table (empirical accuracy when gold is known).
        let candidates = &art.set;
        let lf_names: Vec<String> = lfs.iter().map(|lf| lf.name.clone()).collect();
        let train_gold: Vec<bool> = train_idx
            .iter()
            .map(|&i| {
                let c = &candidates.candidates[i];
                let d = corpus.doc(c.doc);
                self.gold
                    .contains(&candidates.schema.name, &d.name, &c.arg_texts(d))
            })
            .collect();
        let lf_diagnostics = LfDiagnostics::compute(
            &lf_names,
            &label_matrix,
            (!self.gold.is_empty()).then_some(train_gold.as_slice()),
        );
        lf_diagnostics.publish_gauges();
        SupervisionArtifact {
            label_matrix,
            train_idx,
            train_marginals,
            label_coverage,
            lf_diagnostics,
        }
    }

    /// Phase 3c: discriminative training. Cached on the feature and
    /// supervision keys plus the learner selection and model config.
    ///
    /// Strict sessions (the default) reject degenerate training inputs with
    /// [`Error::NoCandidates`] / [`Error::EmptyTrainingSet`] instead of
    /// silently fitting nothing.
    pub fn train(&mut self) -> Result<(), Error> {
        self.begin_traversal();
        self.ensure_train()
    }

    fn ensure_train(&mut self) -> Result<(), Error> {
        self.ensure_featurize()?;
        self.ensure_supervise()?;
        let key = self.train_key();
        if self.model.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Train, true) {
                self.timings.train = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Train, false);
        let (fitted, took) = timed_stage("train", || -> Result<(), Error> {
            let value = self.fit_model()?;
            self.model = Some(Cached { key, value });
            Ok(())
        });
        fitted?;
        self.timings.train = took;
        Ok(())
    }

    /// The train stage's miss path: model-input preparation, then fitting
    /// the configured learner on the LF-labeled training candidates.
    fn fit_model(&mut self) -> Result<Box<dyn ProbClassifier>, Error> {
        self.ensure_dataset();
        let candidates = &self.candidates.as_ref().unwrap().value.set;
        let dataset = &self.dataset.as_ref().unwrap().value;
        let sup = &self.supervision.as_ref().unwrap().value;
        // Keep only candidates some LF labeled (Snorkel's behavior).
        let mut train_inputs = Vec::new();
        let mut train_targets = Vec::new();
        for (k, &i) in sup.train_idx.iter().enumerate() {
            if sup.label_matrix.row(k).iter().any(|&v| v != 0) {
                train_inputs.push(dataset.inputs[i].clone());
                train_targets.push(sup.train_marginals[k] as f32);
            }
        }
        if self.strict {
            if candidates.is_empty() {
                return Err(Error::NoCandidates {
                    relation: candidates.schema.name.clone(),
                });
            }
            if train_inputs.is_empty() {
                return Err(Error::EmptyTrainingSet {
                    relation: candidates.schema.name.clone(),
                    n_candidates: candidates.len(),
                    n_train: sup.train_idx.len(),
                });
            }
        }
        let cfg = &self.cfg;
        let mut model: Box<dyn ProbClassifier> = match cfg.learner {
            Learner::MultimodalLstm => Box::new(FonduerModel::new(
                cfg.model.clone(),
                dataset.vocab_size,
                dataset.n_features,
                dataset.arity,
            )),
            Learner::LogReg => Box::new(LogRegModel::new(dataset.n_features, cfg.seed)),
        };
        model.fit(&train_inputs, &train_targets);
        Ok(model)
    }

    /// Inference: marginal P(true) for every candidate (aligned with
    /// [`candidates`](Self::candidates)). Cached with the trained model.
    pub fn infer(&mut self) -> Result<&[f32], Error> {
        self.begin_traversal();
        self.ensure_infer()?;
        Ok(&self.marginals.as_ref().unwrap().value)
    }

    fn ensure_infer(&mut self) -> Result<(), Error> {
        self.ensure_train()?;
        let key = self.train_key();
        if self.marginals.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Infer, true) {
                self.timings.infer = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Infer, false);
        let ((), took) = timed_stage("infer", || {
            let model = &self.model.as_ref().unwrap().value;
            let dataset = &self.dataset.as_ref().unwrap().value;
            let marginals = model.predict(&dataset.inputs);
            observe::counter("infer.candidates", marginals.len() as u64);
            self.marginals = Some(Cached {
                key,
                value: marginals,
            });
        });
        self.timings.infer = took;
        Ok(())
    }

    /// Held-out evaluation against gold plus KB construction. Cached on the
    /// inference key and the classification threshold.
    pub fn evaluate(&mut self) -> Result<&PrF1, Error> {
        self.begin_traversal();
        self.ensure_evaluate()?;
        Ok(&self.evaluation.as_ref().unwrap().value.metrics)
    }

    fn ensure_evaluate(&mut self) -> Result<(), Error> {
        self.ensure_infer()?;
        let key = self.evaluate_key();
        if self.evaluation.as_ref().is_some_and(|c| c.key == key) {
            self.note(StageId::Evaluate, true);
            return Ok(());
        }
        self.note(StageId::Evaluate, false);
        let candidates = &self.candidates.as_ref().unwrap().value.set;
        let marginals = &self.marginals.as_ref().unwrap().value;
        let (_, test_docs) = &self.split.as_ref().unwrap().value;
        let relation = candidates.schema.name.clone();
        let arg_names = candidates.schema.arg_names.clone();
        let tuples_with_p: Vec<(Tuple, f32)> = candidates
            .candidates
            .iter()
            .zip(marginals.iter())
            .map(|(c, &p)| {
                let doc = self.corpus.doc(c.doc);
                ((doc.name.clone(), c.arg_texts(doc)), p)
            })
            .collect();
        // Held-out evaluation (before the KB takes ownership of the tuples).
        let pred_test: BTreeSet<Tuple> = tuples_with_p
            .iter()
            .filter(|((d, _), p)| *p >= self.cfg.threshold && test_docs.contains(d))
            .map(|(t, _)| t.clone())
            .collect();
        let gold_test = gold_tuples_for_docs(self.gold, &relation, test_docs);
        let metrics = eval_tuples(&pred_test, &gold_test);
        let kb =
            KnowledgeBase::from_marginals(&relation, &arg_names, tuples_with_p, self.cfg.threshold);
        self.evaluation = Some(Cached {
            key,
            value: EvalArtifact { kb, metrics },
        });
        Ok(())
    }

    /// Run every stage (cached stages are skipped) and assemble a
    /// [`PipelineOutput`] — byte-identical to what the one-shot
    /// [`run_task`](crate::run_task) produces for the same inputs.
    pub fn output(&mut self) -> Result<PipelineOutput, Error> {
        self.begin_traversal();
        self.ensure_evaluate()?;
        if observe::provenance::recording_enabled() {
            self.record_provenance();
        }
        self.publish_obsd();
        let candidates = self.candidates.as_ref().unwrap().value.set.clone();
        let marginals = self.marginals.as_ref().unwrap().value.clone();
        let (train_docs, test_docs) = self.split.as_ref().unwrap().value.clone();
        let sup = &self.supervision.as_ref().unwrap().value;
        let eval = &self.evaluation.as_ref().unwrap().value;
        Ok(PipelineOutput {
            candidates,
            marginals,
            kb: eval.kb.clone(),
            train_docs,
            test_docs,
            metrics: eval.metrics,
            label_coverage: sup.label_coverage,
            lf_diagnostics: sup.lf_diagnostics.clone(),
            timings: self.timings,
        })
    }

    /// Flight recorder: one provenance record per kept candidate, tracing
    /// it from mention spans through throttling, LF votes, and feature mix
    /// to its marginal (same records `run_task` has always emitted).
    fn record_provenance(&self) {
        let _span = observe::span("provenance");
        let candidates = &self.candidates.as_ref().unwrap().value.set;
        let marginals = &self.marginals.as_ref().unwrap().value;
        let sup = &self.supervision.as_ref().unwrap().value;
        let feats = &self.features.as_ref().unwrap().value;
        observe::provenance::set_meta(ProvenanceMeta {
            relation: candidates.schema.name.clone(),
            arg_names: candidates.schema.arg_names.clone(),
            matchers: self.extractor.matcher_names(),
            scope: self.extractor.scope.label().to_string(),
            throttlers: self.extractor.throttler_names(),
            lf_names: self.lfs.iter().map(|lf| lf.name.clone()).collect(),
        });
        let mut train_row = vec![usize::MAX; candidates.candidates.len()];
        for (k, &i) in sup.train_idx.iter().enumerate() {
            train_row[i] = k;
        }
        for (i, (c, &p)) in candidates
            .candidates
            .iter()
            .zip(marginals.iter())
            .enumerate()
        {
            let doc = self.corpus.doc(c.doc);
            let in_train = train_row[i] != usize::MAX;
            observe::provenance::record(ProvenanceRecord {
                doc: doc.name.clone(),
                candidate_index: i,
                mentions: c
                    .mentions
                    .iter()
                    .map(|m| MentionProvenance {
                        sentence: m.sentence.0,
                        start: m.start,
                        end: m.end,
                        text: m.normalized_text(doc),
                    })
                    .collect(),
                throttlers_passed: self.extractor.throttlers.len() as u32,
                in_train,
                lf_votes: if in_train {
                    sup.label_matrix.row(train_row[i]).to_vec()
                } else {
                    Vec::new()
                },
                feature_counts: feats.modality_counts(i),
                // Lazy name resolution: symbols stay interned on the hot
                // path; stringify a small sample only while recording.
                feature_sample: feats.feature_sample(i, 8),
                marginal: p,
            });
        }
    }
}
