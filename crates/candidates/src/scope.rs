//! Context scopes for candidate generation (paper §1 "Prevalent
//! Document-Level Relations" and §5.3.1's context-scope ablation).
//!
//! A scope limits which mention combinations may form candidates. The
//! paper's Figure 6 sweeps sentence → table → page → document; those are
//! the *cumulative* scopes here. Two *strict* scopes model the oracle
//! baselines of Table 2 (Text: candidates from individual sentences; Table:
//! candidates from individual tables).

use fonduer_datamodel::{Document, Span};

/// A context-scope restriction on candidate mention pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextScope {
    /// Both mentions in the same sentence (also the strict Text-oracle
    /// scope).
    Sentence,
    /// Both mentions inside the *same table* (cells or caption): the strict
    /// Table-oracle scope of Table 2.
    TableStrict,
    /// Same sentence OR same table (cumulative table scope of Figure 6).
    Table,
    /// Previous scopes OR same rendered page. Documents without a visual
    /// modality fall back to same-section.
    Page,
    /// Anywhere in the document (Fonduer's default).
    Document,
}

impl ContextScope {
    /// The four cumulative scopes in Figure 6 order.
    pub const FIGURE6: [ContextScope; 4] = [
        ContextScope::Sentence,
        ContextScope::Table,
        ContextScope::Page,
        ContextScope::Document,
    ];

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            ContextScope::Sentence => "Sentence",
            ContextScope::TableStrict => "Table (strict)",
            ContextScope::Table => "Table",
            ContextScope::Page => "Page",
            ContextScope::Document => "Document",
        }
    }

    /// Whether two mentions may be combined under this scope.
    pub fn allows(self, doc: &Document, a: Span, b: Span) -> bool {
        match self {
            ContextScope::Sentence => a.sentence == b.sentence,
            ContextScope::TableStrict => {
                let ta = doc.table_of_sentence(a.sentence);
                ta.is_some() && ta == doc.table_of_sentence(b.sentence)
            }
            ContextScope::Table => {
                ContextScope::Sentence.allows(doc, a, b)
                    || ContextScope::TableStrict.allows(doc, a, b)
            }
            ContextScope::Page => {
                if ContextScope::Table.allows(doc, a, b) {
                    return true;
                }
                match (a.page(doc), b.page(doc)) {
                    (Some(pa), Some(pb)) => pa == pb,
                    // No rendering: fall back to same-section containment.
                    _ => doc.section_of_sentence(a.sentence) == doc.section_of_sentence(b.sentence),
                }
            }
            ContextScope::Document => true,
        }
    }

    /// Whether a full mention tuple is allowed: every pair must satisfy the
    /// scope (for binary relations this is the single pair).
    pub fn allows_tuple(self, doc: &Document, mentions: &[Span]) -> bool {
        for i in 0..mentions.len() {
            for j in i + 1..mentions.len() {
                if !self.allows(doc, mentions[i], mentions[j]) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_datamodel::{DocFormat, SentenceId};
    use fonduer_parser::{parse_document, ParseOptions};

    fn doc() -> Document {
        let html = r#"
<h1>Header part SMBT3904</h1>
<table><tr><th>Value</th></tr><tr><td>200</td></tr></table>
<table><tr><td>999</td></tr></table>
<p>Tail text sentence.</p>"#;
        parse_document("d", html, DocFormat::Pdf, &ParseOptions::default())
    }

    fn sentence_with(d: &Document, needle: &str) -> SentenceId {
        for sid in d.sentence_ids() {
            if d.sentence(sid).text(d).contains(needle) {
                return sid;
            }
        }
        panic!("{needle} not found");
    }

    #[test]
    fn sentence_scope() {
        let d = doc();
        let h = sentence_with(&d, "Header");
        let a = Span::new(h, 0, 1);
        let b = Span::new(h, 2, 3);
        assert!(ContextScope::Sentence.allows(&d, a, b));
        let t = sentence_with(&d, "200");
        assert!(!ContextScope::Sentence.allows(&d, a, Span::new(t, 0, 1)));
    }

    #[test]
    fn table_strict_scope() {
        let d = doc();
        let v = Span::new(sentence_with(&d, "Value"), 0, 1);
        let two = Span::new(sentence_with(&d, "200"), 0, 1);
        let other = Span::new(sentence_with(&d, "999"), 0, 1);
        let head = Span::new(sentence_with(&d, "Header"), 0, 1);
        assert!(ContextScope::TableStrict.allows(&d, v, two));
        assert!(!ContextScope::TableStrict.allows(&d, two, other)); // different tables
        assert!(!ContextScope::TableStrict.allows(&d, head, two)); // header not in table
                                                                   // Two text mentions are NOT table-strict even in the same sentence.
        let tail = sentence_with(&d, "Tail");
        assert!(!ContextScope::TableStrict.allows(
            &d,
            Span::new(tail, 0, 1),
            Span::new(tail, 1, 2)
        ));
    }

    #[test]
    fn cumulative_scopes_nest() {
        let d = doc();
        let head = Span::new(sentence_with(&d, "Header"), 0, 1);
        let two = Span::new(sentence_with(&d, "200"), 0, 1);
        // Header + table cell: same page (single-page doc), not same table.
        assert!(!ContextScope::Table.allows(&d, head, two));
        assert!(ContextScope::Page.allows(&d, head, two));
        assert!(ContextScope::Document.allows(&d, head, two));
    }

    #[test]
    fn page_scope_separates_pages() {
        let mut html = String::from("<p>anchor first</p>");
        for i in 0..300 {
            html.push_str(&format!("<p>filler paragraph {i} some words here.</p>"));
        }
        html.push_str("<p>anchor last</p>");
        let d = parse_document("long", &html, DocFormat::Pdf, &ParseOptions::default());
        let first = Span::new(sentence_with(&d, "anchor first"), 0, 1);
        let last = Span::new(sentence_with(&d, "anchor last"), 0, 1);
        assert!(!ContextScope::Page.allows(&d, first, last));
        assert!(ContextScope::Document.allows(&d, first, last));
    }

    #[test]
    fn page_scope_falls_back_to_section_for_xml() {
        let xml = "<sec><p>alpha one</p></sec><sec><p>beta two</p></sec>";
        let d = parse_document("x", xml, DocFormat::Xml, &ParseOptions::default());
        let a = Span::new(sentence_with(&d, "alpha"), 0, 1);
        let a2 = Span::new(sentence_with(&d, "alpha"), 1, 2);
        let b = Span::new(sentence_with(&d, "beta"), 0, 1);
        assert!(ContextScope::Page.allows(&d, a, a2));
        assert!(!ContextScope::Page.allows(&d, a, b));
    }

    #[test]
    fn tuple_scope_checks_all_pairs() {
        let d = doc();
        let h = sentence_with(&d, "Header");
        let a = Span::new(h, 0, 1);
        let b = Span::new(h, 1, 2);
        let t = Span::new(sentence_with(&d, "200"), 0, 1);
        assert!(ContextScope::Sentence.allows_tuple(&d, &[a, b]));
        assert!(!ContextScope::Sentence.allows_tuple(&d, &[a, b, t]));
        assert!(ContextScope::Document.allows_tuple(&d, &[a, b, t]));
    }
}
