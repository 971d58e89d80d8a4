//! Candidates: potential relation mentions (paper §2.1).
//!
//! A candidate is an n-ary tuple of mentions, `c = (m1, ..., mn)`,
//! representing a potential instance of a relation. Candidates carry
//! pointers back into the data model (via [`Span`]s) so that featurization
//! and labeling functions can traverse document context.

use fonduer_datamodel::{Corpus, DocId, Document, Span};
use std::ops::Range;

/// Schema of a relation to extract: name plus ordered mention-type names
/// (paper Example 3.2's `CREATE TABLE HasCollectorCurrent(...)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name (the output table name).
    pub name: String,
    /// Ordered argument names, e.g. `["transistor_part", "current"]`.
    pub arg_names: Vec<String>,
}

impl RelationSchema {
    /// Declare a relation schema.
    pub fn new(name: impl Into<String>, arg_names: &[&str]) -> Self {
        Self {
            name: name.into(),
            arg_names: arg_names.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Relation arity.
    pub fn arity(&self) -> usize {
        self.arg_names.len()
    }
}

/// A relation mention candidate: one document plus one span per argument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Candidate {
    /// The document the mentions live in.
    pub doc: DocId,
    /// One mention span per schema argument, in schema order.
    pub mentions: Vec<Span>,
}

impl Candidate {
    /// Construct a candidate.
    pub fn new(doc: DocId, mentions: Vec<Span>) -> Self {
        Self { doc, mentions }
    }

    /// Normalized argument texts (the KB-entry form of this candidate).
    pub fn arg_texts(&self, doc: &Document) -> Vec<String> {
        self.mentions
            .iter()
            .map(|m| m.normalized_text(doc))
            .collect()
    }
}

/// The output of candidate generation: a schema plus all extracted
/// candidates, in corpus order (paper: "The output of this phase is a set
/// of candidates, C").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    /// The relation these candidates may instantiate.
    pub schema: RelationSchema,
    /// All candidates.
    pub candidates: Vec<Candidate>,
}

impl CandidateSet {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no candidates were extracted.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Iterate candidates together with their documents.
    pub fn iter_with_docs<'a>(
        &'a self,
        corpus: &'a Corpus,
    ) -> impl Iterator<Item = (&'a Candidate, &'a Document)> {
        self.candidates.iter().map(move |c| (c, corpus.doc(c.doc)))
    }

    /// Maximal runs of consecutive candidates from the same document, as
    /// `(document, candidate index range)` in input order — the unit of
    /// work of every per-document stage kernel. A document whose
    /// candidates are not contiguous yields one run per stretch.
    pub fn doc_runs(&self) -> Vec<(DocId, Range<usize>)> {
        let mut runs: Vec<(DocId, Range<usize>)> = Vec::new();
        for (i, c) in self.candidates.iter().enumerate() {
            match runs.last_mut() {
                Some((doc, r)) if *doc == c.doc => r.end = i + 1,
                _ => runs.push((c.doc, i..i + 1)),
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_datamodel::SentenceId;

    #[test]
    fn schema_arity() {
        let s = RelationSchema::new("has_collector_current", &["part", "current"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.name, "has_collector_current");
    }

    #[test]
    fn doc_runs_split_at_document_changes() {
        let c = |d| Candidate::new(DocId(d), vec![]);
        let set = CandidateSet {
            schema: RelationSchema::new("r", &["a"]),
            candidates: vec![c(0), c(0), c(2), c(0)],
        };
        assert_eq!(
            set.doc_runs(),
            vec![(DocId(0), 0..2), (DocId(2), 2..3), (DocId(0), 3..4)]
        );
        let empty = CandidateSet {
            schema: RelationSchema::new("r", &["a"]),
            candidates: vec![],
        };
        assert!(empty.doc_runs().is_empty());
    }

    #[test]
    fn candidate_ordering_is_stable() {
        let a = Candidate::new(DocId(0), vec![Span::new(SentenceId(0), 0, 1)]);
        let b = Candidate::new(DocId(0), vec![Span::new(SentenceId(0), 1, 2)]);
        let c = Candidate::new(DocId(1), vec![Span::new(SentenceId(0), 0, 1)]);
        assert!(a < b);
        assert!(b < c);
    }
}
