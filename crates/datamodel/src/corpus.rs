//! A corpus: the collection of parsed documents a KBC task runs over.

use crate::document::Document;
use crate::ids::DocId;

/// An ordered collection of documents with stable [`DocId`]s.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Corpus name (e.g. `"electronics"`).
    pub name: String,
    docs: Vec<Document>,
}

impl Corpus {
    /// Create an empty corpus.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            docs: Vec::new(),
        }
    }

    /// Append a document, returning its id.
    pub fn add(&mut self, doc: Document) -> DocId {
        let id = DocId::from_usize(self.docs.len());
        self.docs.push(doc);
        id
    }

    /// Replace the document at `id` in place, returning the previous one.
    /// The id stays valid and every other document keeps its position.
    ///
    /// Panics when `id` is out of range.
    pub fn replace(&mut self, id: DocId, doc: Document) -> Document {
        std::mem::replace(&mut self.docs[id.index()], doc)
    }

    /// Remove and return the document at `id`. Every later document shifts
    /// down one position, so previously issued `DocId`s past `id` now name
    /// different documents — callers holding derived artifacts (candidates,
    /// feature rows) must re-key them by document *content*, not position.
    ///
    /// Panics when `id` is out of range; sessions bounds-check first and
    /// surface a typed `DocNotFound` error instead.
    pub fn remove(&mut self, id: DocId) -> Document {
        self.docs.remove(id.index())
    }

    /// Position of the first document named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<DocId> {
        self.docs
            .iter()
            .position(|d| d.name == name)
            .map(DocId::from_usize)
    }

    /// Number of documents named `name`. Document names are expected to be
    /// unique (the train/test split and gold KB key on them); upserts treat
    /// a count above one as a conflict.
    pub fn count_named(&self, name: &str) -> usize {
        self.docs.iter().filter(|d| d.name == name).count()
    }

    /// Look up a document.
    ///
    /// Panics when `id` is out of range; use [`Corpus::get`] for the
    /// non-panicking variant.
    #[inline]
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// Look up a document, returning `None` when `id` does not belong to
    /// this corpus (e.g. a candidate carried over from a different corpus).
    #[inline]
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.index())
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Iterate over `(id, document)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs
            .iter()
            .enumerate()
            .map(|(i, d)| (DocId::from_usize(i), d))
    }

    /// All document ids.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        (0..self.docs.len()).map(DocId::from_usize)
    }

    /// Total words across all documents.
    pub fn word_count(&self) -> usize {
        self.docs.iter().map(|d| d.word_count()).sum()
    }

    /// Total sentences across all documents.
    pub fn sentence_count(&self) -> usize {
        self.docs.iter().map(|d| d.sentences.len()).sum()
    }

    /// Approximate corpus size in bytes (Table 1's "Size" column).
    pub fn approx_bytes(&self) -> usize {
        self.docs.iter().map(|d| d.approx_bytes()).sum()
    }
}

impl std::ops::Index<DocId> for Corpus {
    type Output = Document;

    fn index(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::DocFormat;

    #[test]
    fn corpus_ids_are_stable() {
        let mut c = Corpus::new("test");
        assert!(c.is_empty());
        let a = c.add(Document::new("a", DocFormat::Pdf));
        let b = c.add(Document::new("b", DocFormat::Pdf));
        assert_eq!(a, DocId(0));
        assert_eq!(b, DocId(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.doc(b).name, "b");
        assert_eq!(c[a].name, "a");
        assert_eq!(c.get(b).map(|d| d.name.as_str()), Some("b"));
        assert!(c.get(DocId(99)).is_none());
        let names: Vec<&str> = c.iter().map(|(_, d)| d.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn replace_and_remove_mutate_in_place() {
        let mut c = Corpus::new("test");
        c.add(Document::new("a", DocFormat::Pdf));
        c.add(Document::new("b", DocFormat::Pdf));
        c.add(Document::new("c", DocFormat::Pdf));
        assert_eq!(c.index_of("b"), Some(DocId(1)));
        assert_eq!(c.index_of("zzz"), None);
        assert_eq!(c.count_named("b"), 1);

        let old = c.replace(DocId(1), Document::new("b2", DocFormat::Html));
        assert_eq!(old.name, "b");
        assert_eq!(c.len(), 3);
        assert_eq!(c.doc(DocId(1)).name, "b2");

        let removed = c.remove(DocId(0));
        assert_eq!(removed.name, "a");
        assert_eq!(c.len(), 2);
        // Later documents shifted down one position.
        assert_eq!(c.doc(DocId(0)).name, "b2");
        assert_eq!(c.doc(DocId(1)).name, "c");
    }

    #[test]
    fn counts_aggregate() {
        let mut c = Corpus::new("test");
        c.add(Document::new("a", DocFormat::Pdf));
        assert_eq!(c.word_count(), 0);
        assert_eq!(c.sentence_count(), 0);
    }
}
