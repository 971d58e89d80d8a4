//! Candidate extraction: matchers × cross-product × scope × throttlers
//! (paper §3.2 Phase 2, §4.1).

use crate::candidate::{Candidate, CandidateSet, RelationSchema};
use crate::matcher::{extract_mentions, MentionType};
use crate::scope::ContextScope;
use crate::throttler::Throttler;
use fonduer_datamodel::{Corpus, DocId, Document, Span};
use fonduer_observe as observe;
use fonduer_par::Pool;

/// Extractor for one relation: mention types (one per schema argument), a
/// context scope, and optional throttlers.
pub struct CandidateExtractor {
    /// The target relation schema.
    pub schema: RelationSchema,
    /// One mention type per schema argument, in order.
    pub types: Vec<MentionType>,
    /// Context scope restriction.
    pub scope: ContextScope,
    /// Throttlers applied after the cross-product.
    pub throttlers: Vec<Box<dyn Throttler>>,
}

impl CandidateExtractor {
    /// Create an extractor with no throttlers at document scope.
    pub fn new(schema: RelationSchema, types: Vec<MentionType>) -> Self {
        assert_eq!(
            schema.arity(),
            types.len(),
            "one mention type per schema argument"
        );
        Self {
            schema,
            types,
            scope: ContextScope::Document,
            throttlers: Vec::new(),
        }
    }

    /// Set the context scope.
    pub fn with_scope(mut self, scope: ContextScope) -> Self {
        self.scope = scope;
        self
    }

    /// Add a throttler.
    pub fn with_throttler(mut self, t: Box<dyn Throttler>) -> Self {
        self.throttlers.push(t);
        self
    }

    /// Extract mentions of every type from one document.
    pub fn mentions_in(&self, doc: &Document) -> Vec<Vec<Span>> {
        self.types
            .iter()
            .map(|t| extract_mentions(doc, t))
            .collect()
    }

    /// `"<type>:<matcher kind>"` per schema argument, in order — the
    /// matcher column of a provenance record.
    pub fn matcher_names(&self) -> Vec<String> {
        self.types
            .iter()
            .map(|t| format!("{}:{}", t.name, t.matcher.kind()))
            .collect()
    }

    /// Throttler names in application order. Unnamed throttlers get a
    /// positional `t<i>` label so the list stays aligned with the chain.
    pub fn throttler_names(&self) -> Vec<String> {
        self.throttlers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let n = t.name();
                if n == "throttler" {
                    format!("t{i}")
                } else {
                    n.to_string()
                }
            })
            .collect()
    }

    /// Content fingerprint of the whole extractor — schema, mention types
    /// (with matcher content where available), scope, and throttler chain.
    /// Pipeline sessions key cached candidate artifacts on this value, so
    /// any change that could alter the extracted candidate set must change
    /// it. Closure-backed matchers/throttlers hash only their kind/name;
    /// see [`Matcher::fingerprint`](crate::Matcher::fingerprint).
    pub fn fingerprint(&self) -> u64 {
        let mut key = self.schema.name.as_bytes().to_vec();
        for a in &self.schema.arg_names {
            key.push(0x1f);
            key.extend_from_slice(a.as_bytes());
        }
        for t in &self.types {
            key.push(0x1e);
            key.extend_from_slice(t.name.as_bytes());
            key.extend_from_slice(&t.matcher.fingerprint().to_le_bytes());
        }
        key.push(0x1e);
        key.extend_from_slice(self.scope.label().as_bytes());
        for t in &self.throttlers {
            key.push(0x1e);
            key.extend_from_slice(&t.fingerprint().to_le_bytes());
        }
        fonduer_nlp::fnv1a(&key)
    }

    /// Extract candidates from one document.
    pub fn extract_doc(&self, doc_id: DocId, doc: &Document) -> Vec<Candidate> {
        let start = std::time::Instant::now();
        let mentions = self.mentions_in(doc);
        observe::counter(
            "candgen.mentions",
            mentions.iter().map(|m| m.len() as u64).sum(),
        );
        let mut out = Vec::new();
        if !mentions.iter().any(|m| m.is_empty()) {
            let mut tuple: Vec<Span> = Vec::with_capacity(self.types.len());
            // Per-throttler drop tally, flushed to counters once per document
            // so the hot recursion stays a plain slice write.
            let mut drops = vec![0u64; self.throttlers.len()];
            self.cross_product(doc, doc_id, &mentions, &mut tuple, &mut out, &mut drops);
            if drops.iter().any(|&d| d > 0) {
                for (label, &d) in self.throttler_names().iter().zip(&drops) {
                    if d > 0 {
                        observe::counter(&format!("candgen.throttled.{label}"), d);
                    }
                }
            }
        }
        observe::counter("candgen.candidates", out.len() as u64);
        observe::hist_record("candgen.doc_us", start.elapsed().as_micros() as u64);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn cross_product(
        &self,
        doc: &Document,
        doc_id: DocId,
        mentions: &[Vec<Span>],
        tuple: &mut Vec<Span>,
        out: &mut Vec<Candidate>,
        drops: &mut [u64],
    ) {
        let depth = tuple.len();
        if depth == mentions.len() {
            let cand = Candidate::new(doc_id, tuple.clone());
            // First rejecting throttler wins the blame (same short-circuit
            // order as the old `all()`); None means every throttler kept it.
            match self.throttlers.iter().position(|t| !t.keep(doc, &cand)) {
                None => out.push(cand),
                Some(i) => drops[i] += 1,
            }
            return;
        }
        for &m in &mentions[depth] {
            // Prune scope violations as early as possible: every new mention
            // must be in scope with all previously chosen ones.
            if tuple.iter().any(|&prev| !self.scope.allows(doc, prev, m)) {
                continue;
            }
            // Distinct-mention constraint: two arguments cannot be the same
            // overlapping span.
            if tuple.iter().any(|prev| prev.overlaps(&m)) {
                continue;
            }
            tuple.push(m);
            self.cross_product(doc, doc_id, mentions, tuple, out, drops);
            tuple.pop();
        }
    }

    /// Extract candidates from a whole corpus on the calling thread.
    pub fn extract(&self, corpus: &Corpus) -> CandidateSet {
        self.extract_parallel(corpus, Pool::exact(1))
    }

    /// Extract candidates on `pool`: [`CandidateExtractor::extract_doc`]
    /// per document, concatenated in document order, so the output is
    /// byte-identical at every worker count.
    pub fn extract_parallel(&self, corpus: &Corpus, pool: Pool) -> CandidateSet {
        let _span = observe::span("extract_corpus");
        let ids: Vec<DocId> = corpus.doc_ids().collect();
        let per_doc = pool.map_docs(
            "candgen",
            &ids,
            |&id| corpus.doc(id).name.as_str(),
            |&id| self.extract_doc(id, corpus.doc(id)),
        );
        CandidateSet {
            schema: self.schema.clone(),
            candidates: per_doc.into_iter().flatten().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{DictionaryMatcher, NumberRangeMatcher};
    use crate::throttler::FnThrottler;
    use fonduer_datamodel::DocFormat;
    use fonduer_parser::{parse_document, ParseOptions};

    fn corpus() -> Corpus {
        let html = r#"
<h1>SMBT3904...MMBT3904</h1>
<table>
 <tr><th>Parameter</th><th>Value</th></tr>
 <tr><td>Collector current</td><td>200</td></tr>
 <tr><td>Junction temperature</td><td>150</td></tr>
</table>"#;
        let mut c = Corpus::new("t");
        c.add(parse_document(
            "d0",
            html,
            DocFormat::Pdf,
            &ParseOptions::default(),
        ));
        c
    }

    fn extractor(scope: ContextScope) -> CandidateExtractor {
        CandidateExtractor::new(
            RelationSchema::new("has_collector_current", &["part", "current"]),
            vec![
                MentionType::new(
                    "part",
                    Box::new(DictionaryMatcher::new(["SMBT3904", "MMBT3904"])),
                ),
                MentionType::new("current", Box::new(NumberRangeMatcher::new(100.0, 995.0))),
            ],
        )
        .with_scope(scope)
    }

    #[test]
    fn document_scope_cross_product() {
        let c = corpus();
        let set = extractor(ContextScope::Document).extract(&c);
        // 2 parts × 2 numbers (200, 150) = 4 candidates.
        assert_eq!(set.len(), 4);
        assert_eq!(set.schema.arity(), 2);
    }

    #[test]
    fn sentence_scope_finds_nothing_here() {
        let c = corpus();
        let set = extractor(ContextScope::Sentence).extract(&c);
        assert!(set.is_empty());
    }

    #[test]
    fn throttler_prunes() {
        let c = corpus();
        let mut ex = extractor(ContextScope::Document);
        // Keep only candidates whose current is in a row mentioning
        // "current" (Example 3.5's has_current_in_row as a hard filter).
        ex = ex.with_throttler(Box::new(FnThrottler(|doc: &Document, cand: &Candidate| {
            let cur = cand.mentions[1];
            match doc.cell_of_sentence(cur.sentence) {
                Some(cell) => fonduer_nlp::contains_word(&doc.row_words(cell), "current"),
                None => false,
            }
        })));
        let set = ex.extract(&c);
        // Only the (part, 200) pairs survive.
        assert_eq!(set.len(), 2);
        for (cand, doc) in set.iter_with_docs(&c) {
            assert_eq!(cand.arg_texts(doc)[1], "200");
        }
    }

    #[test]
    fn overlapping_mentions_cannot_pair_with_themselves() {
        // A relation whose two argument types both match the same dictionary.
        let html = "<p>BC547 alone</p>";
        let mut c = Corpus::new("t");
        c.add(parse_document(
            "d0",
            html,
            DocFormat::Html,
            &ParseOptions::default(),
        ));
        let ex = CandidateExtractor::new(
            RelationSchema::new("pairs", &["a", "b"]),
            vec![
                MentionType::new("a", Box::new(DictionaryMatcher::new(["BC547"]))),
                MentionType::new("b", Box::new(DictionaryMatcher::new(["BC547"]))),
            ],
        );
        assert!(ex.extract(&c).is_empty());
    }

    #[test]
    fn empty_mention_type_yields_no_candidates() {
        let c = corpus();
        let ex = CandidateExtractor::new(
            RelationSchema::new("r", &["part", "nothing"]),
            vec![
                MentionType::new("part", Box::new(DictionaryMatcher::new(["SMBT3904"]))),
                MentionType::new("nothing", Box::new(DictionaryMatcher::new(["ABSENT"]))),
            ],
        );
        assert!(ex.extract(&c).is_empty());
    }

    #[test]
    fn matcher_and_throttler_names_for_provenance() {
        let ex = extractor(ContextScope::Document)
            .with_throttler(Box::new(crate::throttler::NamedThrottler::new(
                "same_row",
                Box::new(FnThrottler(|_: &Document, _: &Candidate| true)),
            )))
            .with_throttler(Box::new(FnThrottler(|_: &Document, _: &Candidate| true)));
        assert_eq!(
            ex.matcher_names(),
            vec!["part:dictionary", "current:number_range"]
        );
        assert_eq!(ex.throttler_names(), vec!["same_row", "t1"]);
    }

    #[test]
    fn extractor_fingerprint_tracks_every_input() {
        let base = || extractor(ContextScope::Document);
        assert_eq!(base().fingerprint(), base().fingerprint());
        // Scope changes the fingerprint.
        assert_ne!(
            base().fingerprint(),
            extractor(ContextScope::Sentence).fingerprint()
        );
        // Adding a throttler changes the fingerprint.
        let throttled = base().with_throttler(Box::new(crate::throttler::NamedThrottler::new(
            "same_row",
            Box::new(FnThrottler(|_: &Document, _: &Candidate| true)),
        )));
        assert_ne!(base().fingerprint(), throttled.fingerprint());
        // Changing a matcher's content changes the fingerprint.
        let other = CandidateExtractor::new(
            RelationSchema::new("has_collector_current", &["part", "current"]),
            vec![
                MentionType::new("part", Box::new(DictionaryMatcher::new(["SMBT3904"]))),
                MentionType::new("current", Box::new(NumberRangeMatcher::new(100.0, 995.0))),
            ],
        )
        .with_scope(ContextScope::Document);
        assert_ne!(base().fingerprint(), other.fingerprint());
    }

    #[test]
    #[should_panic(expected = "one mention type per schema argument")]
    fn arity_mismatch_panics() {
        CandidateExtractor::new(
            RelationSchema::new("r", &["a", "b"]),
            vec![MentionType::new(
                "a",
                Box::new(DictionaryMatcher::new(["x"])),
            )],
        );
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::matcher::{DictionaryMatcher, MentionType, NumberRangeMatcher};
    use fonduer_datamodel::DocFormat;
    use fonduer_parser::{parse_document, ParseOptions};

    #[test]
    fn parallel_extraction_matches_sequential() {
        let mut corpus = Corpus::new("p");
        for i in 0..7 {
            let html = format!(
                "<h1>PART{i}A</h1><table><tr><td>{}</td></tr><tr><td>{}</td></tr></table>",
                100 + i,
                200 + i
            );
            corpus.add(parse_document(
                &format!("d{i}"),
                &html,
                DocFormat::Html,
                &ParseOptions::default(),
            ));
        }
        let parts: Vec<String> = (0..7).map(|i| format!("PART{i}A")).collect();
        let ex = CandidateExtractor::new(
            RelationSchema::new("r", &["part", "value"]),
            vec![
                MentionType::new("part", Box::new(DictionaryMatcher::new(parts))),
                MentionType::new("value", Box::new(NumberRangeMatcher::new(1.0, 999.0))),
            ],
        );
        let seq = ex.extract(&corpus);
        assert!(!seq.is_empty());
        for threads in [1, 2, 3, 8] {
            let par = ex.extract_parallel(&corpus, Pool::exact(threads));
            assert_eq!(seq.candidates, par.candidates, "threads={threads}");
        }
    }
}
