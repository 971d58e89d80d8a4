//! End-to-end preprocessing: raw text → document-builder sentences.
//!
//! Two front ends share the same splitter/tokenizer/taggers:
//!
//! * [`preprocess_into`] — the **fused ingest pass**: splits, tokenizes, and
//!   tags in one sweep, writing token spans and interned symbol ids straight
//!   into the [`DocumentBuilder`]'s arena via
//!   [`DocumentBuilder::sentence_begin`] / [`DocumentBuilder::push_token`].
//!   No per-token `String`s are created; the per-token scratch buffers live
//!   in an [`NlpScratch`] reused across sentences and documents.
//! * [`preprocess`] / [`preprocess_sentence`] — the allocating compatibility
//!   path producing [`SentenceData`] values, kept for synthetic corpora and
//!   tests that build sentences outside a builder loop.

use crate::sentence::split_sentences;
use crate::tag::{
    lemma_from_lower, lemmatize, lower_into, ner_tag, ner_tag_cached, pos_tag, pos_tag_cached,
};
use crate::token::{tokenize, tokenize_into, Token};
use fonduer_datamodel::{
    DocumentBuilder, ParagraphId, SentenceData, SentenceId, Structural, WordLinguistic,
};
use std::sync::Arc;

/// Cached telemetry counter handles — two plain `fetch_add`s per sentence
/// instead of two name-keyed registry lookups. Handles stay attached
/// across `fonduer_observe::reset()`, which zeroes counters in place.
struct NlpCounters {
    sentences: fonduer_observe::Counter,
    tokens: fonduer_observe::Counter,
}

/// Reusable scratch buffers for the fused ingest pass. One instance per
/// ingest thread; every sentence reuses the same token vector and the same
/// lower-case/lemma string buffers, so steady-state tokenization and tagging
/// allocate nothing.
#[derive(Default)]
pub struct NlpScratch {
    tokens: Vec<Token>,
    lower: String,
    lemma: String,
    counters: Option<NlpCounters>,
}

impl NlpScratch {
    /// New scratch with empty buffers (they grow to the high-water mark of
    /// the documents seen and stay there).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fused pass: split `text` into sentences and emit each one directly into
/// the builder's arena — tokenize, tag, intern, no intermediate
/// `SentenceData`. Structural attributes are shared by refcount across the
/// block's sentences; visual attributes can be attached afterwards with
/// [`DocumentBuilder::set_sentence_visual`].
pub fn preprocess_into(
    b: &mut DocumentBuilder,
    paragraph: ParagraphId,
    text: &str,
    structural: &Arc<Structural>,
    scratch: &mut NlpScratch,
) {
    for (a, e) in split_sentences(text) {
        preprocess_sentence_into(b, paragraph, &text[a..e], structural, scratch);
    }
}

/// Fused pass for text known to be a single sentence (e.g. a table cell's
/// contents, which should not be split on periods inside part codes).
/// Returns the id of the sentence written into the builder.
pub fn preprocess_sentence_into(
    b: &mut DocumentBuilder,
    paragraph: ParagraphId,
    sent_text: &str,
    structural: &Arc<Structural>,
    scratch: &mut NlpScratch,
) -> SentenceId {
    let NlpScratch {
        tokens,
        lower,
        lemma,
        counters,
    } = scratch;
    let sid = b.sentence_begin(paragraph, sent_text, structural.clone());
    tokenize_into(sent_text, tokens);
    let counters = counters.get_or_insert_with(|| NlpCounters {
        sentences: fonduer_observe::Counter::named("nlp.sentences"),
        tokens: fonduer_observe::Counter::named("nlp.tokens"),
    });
    counters.sentences.add(1);
    counters.tokens.add(tokens.len() as u64);
    for (i, t) in tokens.iter().enumerate() {
        let word = t.text(sent_text);
        lower_into(word, lower);
        let pos = pos_tag_cached(word, lower, i == 0);
        let ner = ner_tag_cached(word, lower);
        lemma_from_lower(lower, lemma);
        b.push_token(t.start, t.end, word, lemma, pos, ner);
    }
    sid
}

/// Preprocess one block of raw text into sentence data: split sentences,
/// tokenize, and attach linguistic attributes. Structural and visual
/// attributes are the caller's responsibility (they come from the markup
/// tree and the layout engine, not from the text).
pub fn preprocess(text: &str, structural: &Structural) -> Vec<SentenceData> {
    split_sentences(text)
        .into_iter()
        .map(|(a, b)| {
            let sent_text = &text[a..b];
            preprocess_sentence(sent_text, structural)
        })
        .collect()
}

/// Preprocess text known to be a single sentence (e.g. a table cell's
/// contents, which should not be split on periods inside part codes).
pub fn preprocess_sentence(sent_text: &str, structural: &Structural) -> SentenceData {
    let toks = tokenize(sent_text);
    fonduer_observe::counter("nlp.sentences", 1);
    fonduer_observe::counter("nlp.tokens", toks.len() as u64);
    let mut words = Vec::with_capacity(toks.len());
    let mut offsets = Vec::with_capacity(toks.len());
    let mut ling = Vec::with_capacity(toks.len());
    for (i, t) in toks.iter().enumerate() {
        let word = t.text(sent_text);
        ling.push(WordLinguistic {
            pos: pos_tag(word, i == 0).to_string(),
            lemma: lemmatize(word),
            ner: ner_tag(word).to_string(),
        });
        offsets.push((t.start, t.end));
        words.push(word.to_string());
    }
    SentenceData {
        text: sent_text.to_string(),
        words,
        char_offsets: offsets,
        ling,
        visual: None,
        structural: structural.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_datamodel::{ContextRef, DocFormat};

    #[test]
    fn splits_and_tags() {
        let s = Structural::default();
        let out = preprocess("High DC current gain. Low saturation voltage.", &s);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].words[0], "High");
        assert_eq!(out[0].ling[0].pos, "JJ");
        assert_eq!(out[1].words[0], "Low");
        // Offsets are relative to each sentence's own text.
        let (a, b) = out[1].char_offsets[0];
        assert_eq!(&out[1].text[a as usize..b as usize], "Low");
    }

    #[test]
    fn single_sentence_mode_preserves_codes() {
        let s = Structural::default();
        let out = preprocess_sentence("SMBT3904...MMBT3904", &s);
        assert_eq!(out.words, vec!["SMBT3904", "...", "MMBT3904"]);
        assert_eq!(out.ling[0].ner, "CODE");
    }

    #[test]
    fn ling_lengths_match() {
        let s = Structural::default();
        for out in preprocess("VCEO 40 V. IC 200 mA.", &s) {
            assert_eq!(out.words.len(), out.ling.len());
            assert_eq!(out.words.len(), out.char_offsets.len());
        }
    }

    /// The fused pass and the SentenceData path must produce identical
    /// sentences: same text spans, same words, same tags, same offsets.
    #[test]
    fn fused_pass_matches_sentence_data_path() {
        let text = "High DC current gain. VCEO is 40 V at 200 mA. See Fig. 3 (e.g. SMBT3904...MMBT3904, −65 … 150 °C).";
        let structural = Arc::new(Structural {
            tag: "td".into(),
            ..Structural::default()
        });

        let mut fused = DocumentBuilder::new("fused", DocFormat::Html);
        let sec = fused.section();
        let tb = fused.text_block(sec);
        let para = fused.paragraph(ContextRef::TextBlock(tb));
        let mut scratch = NlpScratch::new();
        preprocess_into(&mut fused, para, text, &structural, &mut scratch);
        let fused = fused.finish();

        let mut compat = DocumentBuilder::new("fused", DocFormat::Html);
        let sec = compat.section();
        let tb = compat.text_block(sec);
        let para = compat.paragraph(ContextRef::TextBlock(tb));
        for sd in preprocess(text, &structural) {
            compat.sentence(para, sd);
        }
        let compat = compat.finish();

        assert_eq!(fused.sentences.len(), compat.sentences.len());
        assert!(fused.sentences.len() >= 2);
        for (sf, sc) in fused.sentences.iter().zip(compat.sentences.iter()) {
            assert_eq!(sf.text(&fused), sc.text(&compat));
            assert_eq!(sf.len(), sc.len());
            assert_eq!(sf.char_offsets(&fused), sc.char_offsets(&compat));
            for i in 0..sf.len() {
                assert_eq!(sf.word(&fused, i), sc.word(&compat, i));
                assert_eq!(sf.lemma(&fused, i), sc.lemma(&compat, i));
                assert_eq!(sf.pos(&fused, i), sc.pos(&compat, i));
                assert_eq!(sf.ner(&fused, i), sc.ner(&compat, i));
            }
        }
        assert_eq!(fused.content_hash(), compat.content_hash());
    }
}
