//! Typed indices for every context type in the data model.
//!
//! All document contexts are stored in flat arenas on [`crate::Document`];
//! these newtypes index into those arenas. Using `u32` keeps oft-instantiated
//! types (spans, candidates) small, per the type-size guidance for hot types.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Build an id from a `usize` arena index.
            #[inline]
            pub fn from_usize(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }

            /// The arena index this id refers to.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

define_id!(
    /// Index of a [`crate::Document`] within a [`crate::Corpus`].
    DocId
);
define_id!(
    /// Index of a [`crate::Section`] within its document.
    SectionId
);
define_id!(
    /// Index of a [`crate::TextBlock`] within its document.
    TextBlockId
);
define_id!(
    /// Index of a [`crate::Table`] within its document.
    TableId
);
define_id!(
    /// Index of a [`crate::Figure`] within its document.
    FigureId
);
define_id!(
    /// Index of a [`crate::Caption`] within its document.
    CaptionId
);
define_id!(
    /// Index of a [`crate::Row`] within its document.
    RowId
);
define_id!(
    /// Index of a [`crate::Column`] within its document.
    ColumnId
);
define_id!(
    /// Index of a [`crate::Cell`] within its document.
    CellId
);
define_id!(
    /// Index of a [`crate::Paragraph`] within its document.
    ParagraphId
);
define_id!(
    /// Index of a [`crate::Sentence`] within its document.
    SentenceId
);

/// A reference to any context node in the document DAG (Figure 3 of the
/// paper). Downward edges express parent-contains-child relationships; this
/// enum is how child nodes point back at their parents and how traversal
/// code addresses arbitrary nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContextRef {
    /// The document root.
    Document,
    /// A top-level section.
    Section(SectionId),
    /// A block of running text inside a section.
    TextBlock(TextBlockId),
    /// A table inside a section.
    Table(TableId),
    /// A figure inside a section.
    Figure(FigureId),
    /// A caption attached to a table or figure.
    Caption(CaptionId),
    /// A table row.
    Row(RowId),
    /// A table column.
    Column(ColumnId),
    /// A table cell (linked to both a row and a column).
    Cell(CellId),
    /// A paragraph inside a text block, caption, or cell.
    Paragraph(ParagraphId),
    /// A sentence: the leaf context where words live.
    Sentence(SentenceId),
}

impl ContextRef {
    /// Short kind label used in feature strings and debugging output.
    pub fn kind(&self) -> &'static str {
        match self {
            ContextRef::Document => "document",
            ContextRef::Section(_) => "section",
            ContextRef::TextBlock(_) => "text",
            ContextRef::Table(_) => "table",
            ContextRef::Figure(_) => "figure",
            ContextRef::Caption(_) => "caption",
            ContextRef::Row(_) => "row",
            ContextRef::Column(_) => "column",
            ContextRef::Cell(_) => "cell",
            ContextRef::Paragraph(_) => "paragraph",
            ContextRef::Sentence(_) => "sentence",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = SentenceId::from_usize(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, SentenceId(42));
    }

    #[test]
    fn display_includes_kind_and_value() {
        assert_eq!(DocId(7).to_string(), "DocId(7)");
        assert_eq!(CellId(0).to_string(), "CellId(0)");
    }

    #[test]
    fn context_ref_kind_labels() {
        assert_eq!(ContextRef::Document.kind(), "document");
        assert_eq!(ContextRef::Table(TableId(1)).kind(), "table");
        assert_eq!(ContextRef::Sentence(SentenceId(3)).kind(), "sentence");
    }

    #[test]
    fn context_ref_ordering_is_stable() {
        // Ordering is derived; used for canonicalizing candidate keys.
        assert!(ContextRef::Document < ContextRef::Section(SectionId(0)));
        assert!(ContextRef::Cell(CellId(1)) > ContextRef::Cell(CellId(0)));
    }
}
