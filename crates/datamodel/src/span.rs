//! Spans: contiguous word ranges within a sentence.
//!
//! A *mention* in Fonduer is a span of text with a reference back into the
//! data model (paper §2.1). [`Span`] is the in-document form; [`SpanRef`]
//! additionally names the document so spans can be collected corpus-wide.

use crate::attrs::BBox;
use crate::document::Document;
use crate::ids::{DocId, SentenceId};

/// A half-open token range `[start, end)` within one sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// The sentence containing the span.
    pub sentence: SentenceId,
    /// First token index (inclusive).
    pub start: u32,
    /// One past the last token index.
    pub end: u32,
}

impl Span {
    /// Construct a span; `start < end` must hold.
    pub fn new(sentence: SentenceId, start: u32, end: u32) -> Self {
        debug_assert!(start < end, "empty span");
        Self {
            sentence,
            start,
            end,
        }
    }

    /// A single-token span.
    pub fn token(sentence: SentenceId, idx: u32) -> Self {
        Self::new(sentence, idx, idx + 1)
    }

    /// Number of tokens covered.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Always false by construction; present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The words covered by this span, zero-copy from the document arena.
    pub fn words<'d>(&self, doc: &'d Document) -> impl Iterator<Item = &'d str> {
        let s = doc.sentence(self.sentence);
        let lo = s.tok_start as usize + self.start as usize;
        let hi = s.tok_start as usize + self.end as usize;
        doc.tok_words[lo..hi]
            .iter()
            .map(|&id| doc.symbols.resolve(id))
    }

    /// The covered text, reconstructed from the sentence's original text via
    /// character offsets (preserving original spacing).
    pub fn text(&self, doc: &Document) -> String {
        let s = doc.sentence(self.sentence);
        let offsets = s.char_offsets(doc);
        let (a, _) = offsets[self.start as usize];
        let (_, b) = offsets[self.end as usize - 1];
        s.text(doc)[a as usize..b as usize].to_string()
    }

    /// Lower-cased covered text with single-space joining (canonical form
    /// used for entity-level KB comparison).
    pub fn normalized_text(&self, doc: &Document) -> String {
        let mut out = String::new();
        for (i, w) in self.words(doc).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&w.to_lowercase());
        }
        out
    }

    /// Union bounding box of the covered words, if visual data exists.
    pub fn bbox(&self, doc: &Document) -> Option<BBox> {
        doc.sentence(self.sentence)
            .bbox_of(self.start as usize, self.end as usize)
    }

    /// Page number of the span, if visual data exists.
    pub fn page(&self, doc: &Document) -> Option<u16> {
        doc.sentence(self.sentence)
            .visual
            .as_ref()
            .and_then(|v| v.get(self.start as usize))
            .map(|w| w.page)
    }

    /// Whether two spans in the same sentence overlap.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.sentence == other.sentence && self.start < other.end && other.start < self.end
    }
}

/// A span qualified by its document: the corpus-wide address of a mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanRef {
    /// The document containing the span.
    pub doc: DocId,
    /// The span within that document.
    pub span: Span,
}

impl SpanRef {
    /// Construct a span reference.
    pub fn new(doc: DocId, span: Span) -> Self {
        Self { doc, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::DocFormat;
    use crate::builder::{DocumentBuilder, SentenceData};
    use crate::ids::ContextRef;

    fn doc() -> Document {
        let mut b = DocumentBuilder::new("d", DocFormat::Html);
        let sec = b.section();
        let tb = b.text_block(sec);
        let p = b.paragraph(ContextRef::TextBlock(tb));
        b.sentence(p, SentenceData::from_words(&["The", "SMBT3904", "part"]));
        b.finish()
    }

    #[test]
    fn span_text_and_words() {
        let d = doc();
        let sp = Span::new(SentenceId(0), 1, 3);
        assert_eq!(sp.len(), 2);
        assert_eq!(sp.words(&d).collect::<Vec<_>>(), ["SMBT3904", "part"]);
        assert_eq!(sp.text(&d), "SMBT3904 part");
        assert_eq!(sp.normalized_text(&d), "smbt3904 part");
    }

    #[test]
    fn single_token_span() {
        let d = doc();
        let sp = Span::token(SentenceId(0), 1);
        assert_eq!(sp.text(&d), "SMBT3904");
        assert_eq!(sp.len(), 1);
    }

    #[test]
    fn overlap_semantics() {
        let a = Span::new(SentenceId(0), 0, 2);
        let b = Span::new(SentenceId(0), 1, 3);
        let c = Span::new(SentenceId(0), 2, 3);
        let other = Span::new(SentenceId(1), 0, 2);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&other));
    }

    #[test]
    fn no_visual_means_no_bbox() {
        let d = doc();
        let sp = Span::new(SentenceId(0), 0, 1);
        assert!(sp.bbox(&d).is_none());
        assert!(sp.page(&d).is_none());
    }
}
