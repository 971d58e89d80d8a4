//! The multimodal featurizer: candidates → sparse feature matrix, with the
//! document-level mention-feature cache of Appendix C.1.
//!
//! "All features are cached until all candidates in a document are fully
//! featurized, after which the cache is flushed. Because Fonduer operates
//! on documents atomically, caching a single document at a time improves
//! performance without adding significant memory overhead."
//!
//! The hot path is allocation-free: template emitters write interned `u32`
//! symbols through a [`FeatureSink`] reused across a whole document shard,
//! the per-document mention cache stores symbol slices (not strings), and
//! the output is a CSR matrix shared zero-copy (`Arc`) with the learners.

use crate::binary::binary_features_into;
use crate::config::FeatureConfig;
use crate::intern::{dedup_row, FeatureSink, SymbolArena};
use crate::sparse::CsrMatrix;
use crate::unary::unary_features_into;
use fonduer_candidates::{Candidate, CandidateSet};
use fonduer_datamodel::{Corpus, Document, Span};
use fonduer_observe as observe;
use std::collections::HashMap;
use std::sync::Arc;

/// Appendix C.1 per-document mention cache: `(span, argument slot)` →
/// the `(symbol, modality)` pairs that slot emitted last time.
type MentionCache = HashMap<(Span, u8), Vec<(u32, u8)>>;

pub use crate::intern::FeatureVocab;

/// Flush a per-modality emission tally (pre-dedup, [`crate::MODALITIES`]
/// order + unclassified) and the cache counters to `fonduer-observe`.
fn flush_tally(tally: &[u64; 5], stats: &CacheStats) {
    const NAMES: [&str; 5] = [
        "features.emitted.textual",
        "features.emitted.structural",
        "features.emitted.tabular",
        "features.emitted.visual",
        "features.emitted.other",
    ];
    for (i, name) in NAMES.iter().enumerate() {
        if tally[i] > 0 {
            observe::counter(name, tally[i]);
        }
    }
    observe::counter("features.cache.hits", stats.hits as u64);
    observe::counter("features.cache.misses", stats.misses as u64);
}

/// Cache effectiveness counters (reported by the Appendix C.1 bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Mention featurizations served from the cache.
    pub hits: usize,
    /// Mention featurizations computed.
    pub misses: usize,
}

impl CacheStats {
    /// Hit ratio in [0, 1].
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The featurization result: an interned vocabulary plus one sparse CSR row
/// per candidate (the paper's `Features(id, LSTM_textual,
/// feature_lib_others)` relation, minus the learned LSTM part which lives
/// in `fonduer-learning`).
///
/// In feature-hashing mode (`FeatureConfig::hashing_bits > 0`) the vocab is
/// empty: columns are salted-hash buckets and per-row modality tallies are
/// recorded at featurization time instead of being derived from names.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// Feature-name interning table (empty in hashing mode).
    pub vocab: FeatureVocab,
    /// One row per candidate; presence-valued (1.0) per Appendix B's
    /// bit-vector semantics. Shared zero-copy with learning/supervision.
    pub matrix: Arc<CsrMatrix>,
    /// Cache statistics accumulated over the run.
    pub stats: CacheStats,
    /// `FeatureConfig::hashing_bits` this set was built with (0 = interned).
    hashing_bits: u8,
    /// Per-row modality tallies, recorded only in hashing mode (interned
    /// mode derives them from the vocab's per-symbol modality tags).
    row_modality: Option<Vec<[u32; 5]>>,
}

impl FeatureSet {
    /// Width of the feature space: vocabulary size, or `1 << hashing_bits`
    /// in hashing mode.
    pub fn n_features(&self) -> usize {
        if self.hashing_bits > 0 {
            1usize << self.hashing_bits
        } else {
            self.vocab.len()
        }
    }

    /// The hashing-mode bit width this set was built with (0 = interned).
    pub fn hashing_bits(&self) -> u8 {
        self.hashing_bits
    }

    /// Per-modality feature tally for candidate `row`: counts indexed as
    /// [`crate::MODALITIES`] (textual, structural, tabular, visual) plus a
    /// final unclassified slot — the feature-mix column of a provenance
    /// record. Computed from interned modality tags, never from strings.
    pub fn modality_counts(&self, row: usize) -> [u32; 5] {
        if let Some(rm) = &self.row_modality {
            return rm[row];
        }
        let mut out = [0u32; 5];
        for &col in self.matrix.row_ids(row) {
            out[self.vocab.modality_idx(col)] += 1;
        }
        out
    }

    /// Lazily render the feature names of one row (debug/provenance only;
    /// hashed buckets render as `#<id>` since their names are gone).
    pub fn feature_names(&self, row: usize) -> Vec<String> {
        self.feature_sample(row, usize::MAX)
    }

    /// Up to `limit` resolved names from a row. This is the provenance
    /// exporter's lazy path: symbols stay interned everywhere else, and only
    /// the sampled prefix is ever stringified.
    pub fn feature_sample(&self, row: usize, limit: usize) -> Vec<String> {
        self.matrix
            .row_ids(row)
            .iter()
            .take(limit)
            .map(|&c| {
                if self.hashing_bits > 0 {
                    format!("#{c}")
                } else {
                    self.vocab.name(c).to_string()
                }
            })
            .collect()
    }

    /// Approximate retained heap bytes (vocab arena + CSR arrays).
    pub fn heap_bytes(&self) -> usize {
        self.vocab.heap_bytes()
            + self.matrix.heap_bytes()
            + self
                .row_modality
                .as_ref()
                .map_or(0, |rm| rm.capacity() * std::mem::size_of::<[u32; 5]>())
    }
}

/// Append the sink's raw emission row to the CSR matrix (sorted, deduped,
/// first occurrence wins) and reset the sink for the next candidate.
fn finish_row(
    sink: &mut FeatureSink<'_>,
    csr: &mut CsrMatrix,
    row_modality: Option<&mut Vec<[u32; 5]>>,
) {
    let row = sink.row_mut();
    dedup_row(row);
    if let Some(rm) = row_modality {
        let mut counts = [0u32; 5];
        for &(_, m) in row.iter() {
            counts[(m as usize).min(4)] += 1;
        }
        rm.push(counts);
    }
    csr.push_ids(row.iter().map(|&(id, _)| id));
    row.clear();
}

/// Multimodal featurizer.
#[derive(Debug, Clone)]
pub struct Featurizer {
    /// Enabled modalities (+ optional hashing mode).
    pub cfg: FeatureConfig,
    /// Whether the per-document mention cache is used (Appendix C.1; the
    /// `appc_caching` bench flips this).
    pub cache_enabled: bool,
}

impl Default for Featurizer {
    fn default() -> Self {
        Self {
            cfg: FeatureConfig::all(),
            cache_enabled: true,
        }
    }
}

impl Featurizer {
    /// Featurizer with a modality configuration and caching on.
    pub fn new(cfg: FeatureConfig) -> Self {
        Self {
            cfg,
            cache_enabled: true,
        }
    }

    /// Feature strings of one candidate: `A{i}_` for argument `i`'s unary
    /// features and `A{i}{j}_` for pair features. The string-rendering
    /// reference path (debug + golden equivalence tests); the hot path is
    /// [`Featurizer::featurize`], which never materializes these strings.
    pub fn features_of(&self, doc: &Document, cand: &Candidate) -> Vec<String> {
        let mut out = Vec::with_capacity(64);
        let mut sink = FeatureSink::collecting(&mut out);
        self.candidate_into(doc, cand, &mut sink, None, &mut CacheStats::default());
        drop(sink);
        out
    }

    /// Emit one candidate's features into `sink`: per-argument unary
    /// features (through the per-document mention cache when one is given)
    /// followed by per-pair binary features.
    fn candidate_into(
        &self,
        doc: &Document,
        cand: &Candidate,
        sink: &mut FeatureSink<'_>,
        mut cache: Option<&mut MentionCache>,
        stats: &mut CacheStats,
    ) {
        for (i, &m) in cand.mentions.iter().enumerate() {
            let key = (m, i as u8);
            if let Some(cache) = cache.as_deref_mut() {
                if let Some(hit) = cache.get(&key) {
                    stats.hits += 1;
                    sink.extend_cached(hit);
                    continue;
                }
            }
            stats.misses += 1;
            let mark = sink.row_len();
            sink.set_prefix(format_args!("A{i}_"));
            unary_features_into(doc, m, &self.cfg, sink);
            if let Some(cache) = cache.as_deref_mut() {
                cache.insert(key, sink.row_slice(mark).to_vec());
            }
        }
        for i in 0..cand.mentions.len() {
            for j in i + 1..cand.mentions.len() {
                sink.set_prefix(format_args!("A{i}{j}_"));
                binary_features_into(doc, cand.mentions[i], cand.mentions[j], &self.cfg, sink);
            }
        }
    }

    /// Featurize an entire candidate set over its corpus. Candidates are
    /// processed document-atomically; the mention cache lives for one
    /// document and is then flushed.
    ///
    /// With the cache enabled, each mention's unary features are composed,
    /// prefixed, and encoded exactly once per document: repeat candidates
    /// replay the cached symbol slice directly (Appendix C.1).
    pub fn featurize(&self, corpus: &Corpus, cands: &CandidateSet) -> FeatureSet {
        let _span = observe::span("featurize_corpus");
        let hashed = self.cfg.hashing_bits > 0;
        let mut vocab = FeatureVocab::new();
        let mut csr = CsrMatrix::new();
        let mut stats = CacheStats::default();
        let mut row_modality: Option<Vec<[u32; 5]>> =
            hashed.then(|| Vec::with_capacity(cands.len()));
        // Keyed by (mention span, argument index): the prefix differs per
        // argument position, so cached symbols are per position.
        let mut cache: MentionCache = HashMap::new();
        let mut current_doc = None;
        let time_docs = observe::doc_timings_enabled();
        let mut doc_t0 = std::time::Instant::now();
        let tally;
        {
            let mut sink = if hashed {
                FeatureSink::hashed(self.cfg.hashing_bits)
            } else {
                FeatureSink::interning(&mut vocab)
            };
            for cand in &cands.candidates {
                if current_doc != Some(cand.doc) {
                    if time_docs {
                        if let Some(prev) = current_doc {
                            observe::doc_stage_ns(
                                &corpus.doc(prev).name,
                                "featurize",
                                doc_t0.elapsed().as_nanos() as u64,
                            );
                        }
                        doc_t0 = std::time::Instant::now();
                    }
                    cache.clear(); // flush at document boundary
                    current_doc = Some(cand.doc);
                }
                let doc = corpus.doc(cand.doc);
                self.candidate_into(
                    doc,
                    cand,
                    &mut sink,
                    self.cache_enabled.then_some(&mut cache),
                    &mut stats,
                );
                finish_row(&mut sink, &mut csr, row_modality.as_mut());
            }
            if time_docs {
                if let Some(prev) = current_doc {
                    observe::doc_stage_ns(
                        &corpus.doc(prev).name,
                        "featurize",
                        doc_t0.elapsed().as_nanos() as u64,
                    );
                }
            }
            tally = sink.tally();
        }
        flush_tally(&tally, &stats);
        FeatureSet {
            vocab,
            matrix: Arc::new(csr),
            stats,
            hashing_bits: self.cfg.hashing_bits,
            row_modality,
        }
    }
}

/// One document's featurization shard: self-contained CSR-block rows for
/// that document's candidates. In interned mode every symbol id indexes
/// the shard's own first-occurrence `delta` vocabulary; in hashing mode
/// ids are final buckets and the delta is empty. Shards carry no document
/// id — sessions key them by `(document content hash, feature-config
/// fingerprint)` and stitch them into a corpus-level [`FeatureSet`] with a
/// [`FeatureShardMerger`], so a document's shard stays valid when other
/// documents are inserted or removed around it.
#[derive(Debug, Clone)]
pub struct DocFeatureShard {
    /// All rows back-to-back, deduped within each row (hashed rows are also
    /// sorted by bucket).
    flat: Vec<(u32, u8)>,
    /// Row boundaries into `flat` (`n_rows + 1` offsets).
    offsets: Vec<u32>,
    /// Shard-local first-occurrence vocabulary (empty in hashing mode).
    delta: SymbolArena,
    stats: CacheStats,
    tally: [u64; 5],
    /// `FeatureConfig::hashing_bits` the shard was built with.
    hashing_bits: u8,
}

impl DocFeatureShard {
    /// Number of candidate rows in this shard.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Approximate retained heap bytes (rows + delta vocab arena).
    pub fn heap_bytes(&self) -> usize {
        self.flat.capacity() * std::mem::size_of::<(u32, u8)>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.delta.heap_bytes()
    }
}

impl Featurizer {
    /// Featurize one document's candidates into a self-contained
    /// [`DocFeatureShard`]. `cands` must be this document's contiguous
    /// candidate slice (their stored [`Candidate::doc`] ids are ignored —
    /// only the mention spans are read — so positionally stale candidates
    /// from a mutated corpus featurize correctly).
    ///
    /// The per-document mention cache works exactly as in
    /// [`Featurizer::featurize`]; merging shards in corpus order via
    /// [`FeatureShardMerger`] reproduces the sequential output
    /// byte-for-byte.
    pub fn featurize_doc(&self, doc: &Document, cands: &[Candidate]) -> DocFeatureShard {
        let hashed = self.cfg.hashing_bits > 0;
        let mut delta = SymbolArena::new();
        let mut flat: Vec<(u32, u8)> = Vec::with_capacity(cands.len() * 64);
        let mut offsets: Vec<u32> = Vec::with_capacity(cands.len() + 1);
        offsets.push(0);
        let mut stats = CacheStats::default();
        let mut cache: MentionCache = HashMap::new();
        // `seen[local]` is the stamp of the last row that emitted `local`.
        let mut seen: Vec<u32> = Vec::new();
        let tally;
        {
            let mut sink = if hashed {
                FeatureSink::hashed(self.cfg.hashing_bits)
            } else {
                FeatureSink::delta(&mut delta)
            };
            for cand in cands {
                self.candidate_into(
                    doc,
                    cand,
                    &mut sink,
                    self.cache_enabled.then_some(&mut cache),
                    &mut stats,
                );
                let row = sink.row_mut();
                if hashed {
                    // Bucket ids are final: store the row sorted and deduped.
                    dedup_row(row);
                    flat.extend_from_slice(row);
                } else {
                    // Local ids only need deduping (first occurrence kept);
                    // the merge orders them by global column.
                    let stamp = offsets.len() as u32;
                    for &(local, m) in row.iter() {
                        let l = local as usize;
                        if l >= seen.len() {
                            seen.resize(l + 1, 0);
                        }
                        if seen[l] != stamp {
                            seen[l] = stamp;
                            flat.push((local, m));
                        }
                    }
                }
                row.clear();
                offsets.push(flat.len() as u32);
            }
            tally = sink.tally();
        }
        DocFeatureShard {
            flat,
            offsets,
            delta,
            stats,
            tally,
            hashing_bits: self.cfg.hashing_bits,
        }
    }

    /// Featurize on `pool`: [`Featurizer::featurize_doc`] per document run
    /// of the candidate set, folded in input order through a
    /// [`FeatureShardMerger`] — the same path shard-cached sessions take.
    /// Output is byte-identical to [`Featurizer::featurize`] at every
    /// worker count.
    pub fn featurize_parallel(
        &self,
        corpus: &Corpus,
        cands: &CandidateSet,
        pool: fonduer_par::Pool,
    ) -> FeatureSet {
        let shards = {
            let _span = observe::span("featurize_corpus");
            pool.map_docs(
                "featurize",
                &cands.doc_runs(),
                |(doc, _)| corpus.doc(*doc).name.as_str(),
                |(doc, rows)| self.featurize_doc(corpus.doc(*doc), &cands.candidates[rows.clone()]),
            )
        };
        let mut merger = FeatureShardMerger::new(self.cfg.hashing_bits);
        for shard in &shards {
            merger.push(shard);
        }
        merger.finish()
    }
}

/// Input-order reducer stitching [`DocFeatureShard`]s into one
/// [`FeatureSet`] — the fold behind [`Featurizer::featurize_parallel`] and
/// shard-cached sessions. Push shards in corpus order; each shard's local
/// names are interned into the global vocabulary in first-occurrence
/// order, its rows remapped to sorted global columns, and its cache
/// statistics accumulated. The finished artifact is byte-identical to
/// [`Featurizer::featurize`] over the concatenated candidates.
pub struct FeatureShardMerger {
    hashing_bits: u8,
    vocab: FeatureVocab,
    csr: CsrMatrix,
    stats: CacheStats,
    tally: [u64; 5],
    row_modality: Option<Vec<[u32; 5]>>,
    /// Per shard: global column of each local symbol.
    remap: Vec<u32>,
    /// Per shard: local symbols ordered by global column.
    by_col: Vec<u32>,
    /// Per shard: position of each local symbol in `by_col`.
    rank: Vec<u32>,
    /// One bit per `by_col` position: the current row's members.
    bits: Vec<u64>,
}

impl FeatureShardMerger {
    /// Merger for shards built with the given hashing bit width
    /// (0 = interned vocabulary mode).
    pub fn new(hashing_bits: u8) -> Self {
        Self {
            hashing_bits,
            vocab: FeatureVocab::new(),
            csr: CsrMatrix::new(),
            stats: CacheStats::default(),
            tally: [0; 5],
            row_modality: (hashing_bits > 0).then(Vec::new),
            remap: Vec::new(),
            by_col: Vec::new(),
            rank: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Append one document's shard (must be called in corpus order).
    pub fn push(&mut self, shard: &DocFeatureShard) {
        debug_assert_eq!(shard.hashing_bits, self.hashing_bits);
        self.stats.hits += shard.stats.hits;
        self.stats.misses += shard.stats.misses;
        for (t, v) in self.tally.iter_mut().zip(shard.tally) {
            *t += v;
        }
        if let Some(rm) = self.row_modality.as_mut() {
            // Hashed mode: shard ids are final buckets and each row is
            // already sorted and deduped, so rows stream straight into the
            // CSR with no remap, copy, or re-sort.
            debug_assert!(shard.delta.is_empty());
            for w in shard.offsets.windows(2) {
                let row = &shard.flat[w[0] as usize..w[1] as usize];
                let mut counts = [0u32; 5];
                for &(_, m) in row {
                    counts[(m as usize).min(4)] += 1;
                }
                rm.push(counts);
                self.csr.push_ids(row.iter().map(|&(id, _)| id));
            }
            return;
        }
        // Interned mode. Ranking the shard's symbols by global column once
        // turns every row into a bit set over ranks; reading the bits in
        // order yields the row's sorted global columns without a per-row
        // sort.
        let n = shard.delta.len();
        self.remap.clear();
        for local in 0..n as u32 {
            self.remap
                .push(self.vocab.intern(shard.delta.resolve(local)));
        }
        self.by_col.clear();
        self.by_col.extend(0..n as u32);
        let remap = &self.remap;
        self.by_col
            .sort_unstable_by_key(|&local| remap[local as usize]);
        self.rank.resize(n, 0);
        for (r, &local) in self.by_col.iter().enumerate() {
            self.rank[local as usize] = r as u32;
        }
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        for w in shard.offsets.windows(2) {
            for &(local, _) in &shard.flat[w[0] as usize..w[1] as usize] {
                let r = self.rank[local as usize] as usize;
                self.bits[r / 64] |= 1 << (r % 64);
            }
            let (bits, by_col) = (&mut self.bits, &self.by_col);
            self.csr
                .push_ids(bits.iter_mut().enumerate().flat_map(|(k, word)| {
                    let mut set = std::mem::take(word);
                    std::iter::from_fn(move || {
                        (set != 0).then(|| {
                            let b = set.trailing_zeros() as usize;
                            set &= set - 1;
                            remap[by_col[k * 64 + b] as usize]
                        })
                    })
                }));
        }
    }

    /// Finish the merge, flushing the accumulated emission tallies and
    /// cache counters to `fonduer-observe` exactly as the monolithic paths
    /// do.
    pub fn finish(self) -> FeatureSet {
        flush_tally(&self.tally, &self.stats);
        FeatureSet {
            vocab: self.vocab,
            matrix: Arc::new(self.csr),
            stats: self.stats,
            hashing_bits: self.hashing_bits,
            row_modality: self.row_modality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_candidates::{
        CandidateExtractor, ContextScope, DictionaryMatcher, MentionType, NumberRangeMatcher,
        RelationSchema,
    };
    use fonduer_datamodel::DocFormat;
    use fonduer_parser::{parse_document, ParseOptions};

    fn setup() -> (Corpus, CandidateSet) {
        let html = r#"
<h1>SMBT3904...MMBT3904</h1>
<table>
 <tr><th>Parameter</th><th>Value</th><th>Unit</th></tr>
 <tr><td>Collector current</td><td>200</td><td>mA</td></tr>
 <tr><td>Junction temperature</td><td>150</td><td>°C</td></tr>
 <tr><td>Gain</td><td>300</td><td></td></tr>
</table>"#;
        let mut c = Corpus::new("t");
        c.add(parse_document(
            "d0",
            html,
            DocFormat::Pdf,
            &ParseOptions::default(),
        ));
        let ex = CandidateExtractor::new(
            RelationSchema::new("has_collector_current", &["part", "current"]),
            vec![
                MentionType::new(
                    "part",
                    Box::new(DictionaryMatcher::new(["SMBT3904", "MMBT3904"])),
                ),
                MentionType::new("current", Box::new(NumberRangeMatcher::new(100.0, 995.0))),
            ],
        )
        .with_scope(ContextScope::Document);
        let set = ex.extract(&c);
        (c, set)
    }

    #[test]
    fn featurize_produces_row_per_candidate() {
        let (c, set) = setup();
        assert_eq!(set.len(), 6); // 2 parts × 3 numbers
        let fs = Featurizer::default().featurize(&c, &set);
        assert_eq!(fs.matrix.n_rows(), 6);
        assert!(fs.vocab.len() > 20);
        assert_eq!(fs.n_features(), fs.vocab.len());
        // Every row non-empty, presence-valued.
        use crate::sparse::SparseAccess;
        for r in 0..6 {
            let row = fs.matrix.row_of(r);
            assert!(!row.is_empty());
            assert!(row.iter().all(|&(_, v)| v == 1.0));
        }
    }

    #[test]
    fn cache_hits_on_repeated_mentions() {
        let (c, set) = setup();
        let fs = Featurizer::default().featurize(&c, &set);
        // 6 candidates × 2 mentions = 12 lookups over 5 distinct mentions.
        assert_eq!(fs.stats.hits + fs.stats.misses, 12);
        assert_eq!(fs.stats.misses, 5);
        assert_eq!(fs.stats.hits, 7);
        assert!(fs.stats.hit_ratio() > 0.5);
    }

    #[test]
    fn disabled_cache_recomputes_everything() {
        let (c, set) = setup();
        let f = Featurizer {
            cache_enabled: false,
            ..Default::default()
        };
        let fs = f.featurize(&c, &set);
        assert_eq!(fs.stats.hits, 0);
        assert_eq!(fs.stats.misses, 12);
    }

    #[test]
    fn cached_and_uncached_agree() {
        let (c, set) = setup();
        let with = Featurizer::default().featurize(&c, &set);
        let f = Featurizer {
            cache_enabled: false,
            ..Default::default()
        };
        let without = f.featurize(&c, &set);
        use crate::sparse::SparseAccess;
        assert_eq!(with.vocab.len(), without.vocab.len());
        for r in 0..set.len() {
            assert_eq!(with.matrix.row_of(r), without.matrix.row_of(r));
        }
    }

    #[test]
    fn modality_counts_partition_each_row() {
        let (c, set) = setup();
        let fs = Featurizer::default().featurize(&c, &set);
        use crate::sparse::SparseAccess;
        for r in 0..set.len() {
            let counts = fs.modality_counts(r);
            let total: u32 = counts.iter().sum();
            assert_eq!(total as usize, fs.matrix.row_of(r).len(), "row {r}");
            // This fixture always emits textual and structural features,
            // and the second argument sits in a table.
            assert!(counts[0] > 0, "no textual features in row {r}");
            assert!(counts[1] > 0, "no structural features in row {r}");
            assert!(counts[2] > 0, "no tabular features in row {r}");
        }
    }

    #[test]
    fn argument_prefixes_distinguish_mentions() {
        let (c, set) = setup();
        let fs = Featurizer::default().featurize(&c, &set);
        assert!(fs.vocab.get("A0_TAG_h1").is_some());
        assert!(fs.vocab.get("A1_COL_HEAD_value").is_some());
        assert!(fs.vocab.get("A01_COMMON_ANCESTOR_section").is_some());
        // The part mention never carries table features.
        assert!(fs.vocab.get("A0_COL_HEAD_value").is_none());
    }

    #[test]
    fn ablation_removes_modal_features() {
        let (c, set) = setup();
        let fs = Featurizer::new(FeatureConfig::without("visual")).featurize(&c, &set);
        for col in 0..fs.vocab.len() as u32 {
            let name = fs.vocab.name(col);
            assert!(
                !name.contains("ALIGNED") && !name.contains("FONT") && !name.contains("PAGE"),
                "visual feature leaked: {name}"
            );
        }
    }

    #[test]
    fn vocab_interning_is_stable() {
        let mut v = FeatureVocab::new();
        let a = v.intern("X");
        let b = v.intern("Y");
        assert_eq!(v.intern("X"), a);
        assert_ne!(a, b);
        assert_eq!(v.name(a), "X");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn features_of_matches_interned_path() {
        let (c, set) = setup();
        let f = Featurizer::default();
        let fs = f.featurize(&c, &set);
        use crate::sparse::SparseAccess;
        for (r, cand) in set.candidates.iter().enumerate() {
            let mut names = f.features_of(c.doc(cand.doc), cand);
            names.sort();
            names.dedup();
            let mut interned: Vec<String> = fs
                .matrix
                .row_of(r)
                .iter()
                .map(|&(col, _)| fs.vocab.name(col).to_string())
                .collect();
            interned.sort();
            assert_eq!(names, interned, "row {r}");
        }
    }

    #[test]
    fn hashing_mode_buckets_without_vocab() {
        let (c, set) = setup();
        let fs = Featurizer::new(FeatureConfig::all().with_hashing(12)).featurize(&c, &set);
        assert!(fs.vocab.is_empty());
        assert_eq!(fs.hashing_bits(), 12);
        assert_eq!(fs.n_features(), 1 << 12);
        assert_eq!(fs.matrix.n_rows(), set.len());
        use crate::sparse::SparseAccess;
        for r in 0..set.len() {
            let row = fs.matrix.row_of(r);
            assert!(!row.is_empty());
            assert!(row.iter().all(|&(cid, v)| cid < (1 << 12) && v == 1.0));
            // Modality tallies were recorded at featurization time.
            let counts = fs.modality_counts(r);
            assert_eq!(counts.iter().sum::<u32>() as usize, row.len());
            // Names are gone; lazy rendering falls back to bucket ids.
            assert!(fs.feature_names(r).iter().all(|n| n.starts_with('#')));
        }
    }

    #[test]
    fn hashing_mode_same_cache_behavior() {
        let (c, set) = setup();
        let fs = Featurizer::new(FeatureConfig::all().with_hashing(14)).featurize(&c, &set);
        assert_eq!(fs.stats.misses, 5);
        assert_eq!(fs.stats.hits, 7);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use fonduer_candidates::{
        CandidateExtractor, DictionaryMatcher, MentionType, NumberRangeMatcher, RelationSchema,
    };
    use fonduer_datamodel::DocFormat;
    use fonduer_datamodel::DocId;
    use fonduer_par::Pool;
    use fonduer_parser::{parse_document, ParseOptions};

    fn corpus_and_cands() -> (Corpus, CandidateSet) {
        let mut corpus = Corpus::new("p");
        let mut parts = Vec::new();
        for i in 0..6 {
            let part = format!("PART{i}A");
            let html = format!(
                "<h1>{part}</h1><table><tr><th>Value</th></tr>\
                 <tr><td>{}</td></tr><tr><td>{}</td></tr></table>",
                100 + i,
                300 + i
            );
            corpus.add(parse_document(
                &format!("d{i}"),
                &html,
                DocFormat::Pdf,
                &ParseOptions::default(),
            ));
            parts.push(part);
        }
        let ex = CandidateExtractor::new(
            RelationSchema::new("r", &["part", "value"]),
            vec![
                MentionType::new("part", Box::new(DictionaryMatcher::new(parts))),
                MentionType::new("value", Box::new(NumberRangeMatcher::new(1.0, 999.0))),
            ],
        );
        let cands = ex.extract(&corpus);
        assert!(cands.len() >= 12);
        (corpus, cands)
    }

    #[test]
    fn parallel_featurization_matches_sequential() {
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::default();
        let seq = f.featurize(&corpus, &cands);
        for threads in [1, 2, 3, 16] {
            let par = f.featurize_parallel(&corpus, &cands, Pool::exact(threads));
            // Byte-identical artifacts: same vocab order, same CSR arrays.
            assert_eq!(par.vocab.len(), seq.vocab.len(), "threads={threads}");
            for c in 0..seq.vocab.len() as u32 {
                assert_eq!(par.vocab.name(c), seq.vocab.name(c), "threads={threads}");
                assert_eq!(par.vocab.modality_idx(c), seq.vocab.modality_idx(c));
            }
            assert_eq!(par.matrix, seq.matrix, "threads={threads}");
            assert_eq!(par.stats, seq.stats, "threads={threads}");
        }
    }

    #[test]
    fn parallel_hashing_matches_sequential() {
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::new(FeatureConfig::all().with_hashing(16));
        let seq = f.featurize(&corpus, &cands);
        for threads in [1, 2, 8] {
            let par = f.featurize_parallel(&corpus, &cands, Pool::exact(threads));
            assert_eq!(par.matrix, seq.matrix, "threads={threads}");
            assert_eq!(par.stats, seq.stats, "threads={threads}");
            for r in 0..cands.len() {
                assert_eq!(par.modality_counts(r), seq.modality_counts(r), "row {r}");
            }
        }
    }

    /// Split a candidate set into per-document contiguous slices.
    fn doc_slices(cands: &CandidateSet) -> Vec<(DocId, &[Candidate])> {
        cands
            .doc_runs()
            .into_iter()
            .map(|(doc, rows)| (doc, &cands.candidates[rows]))
            .collect()
    }

    #[test]
    fn doc_shards_are_position_independent() {
        // A shard computed for a document must merge identically no matter
        // what DocId the candidates carried when it was computed — the
        // content-keyed shard cache relies on this.
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::default();
        let slices = doc_slices(&cands);
        let (doc, slice) = slices[2];
        let shard = f.featurize_doc(corpus.doc(doc), slice);
        // Same mentions, deliberately wrong positional ids.
        let stale: Vec<Candidate> = slice
            .iter()
            .map(|c| Candidate::new(DocId(999), c.mentions.clone()))
            .collect();
        let shard_stale = f.featurize_doc(corpus.doc(doc), &stale);
        let (mut a, mut b) = (FeatureShardMerger::new(0), FeatureShardMerger::new(0));
        a.push(&shard);
        b.push(&shard_stale);
        let (a, b) = (a.finish(), b.finish());
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.stats, b.stats);
    }
}
