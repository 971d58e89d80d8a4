//! # fonduer-datamodel
//!
//! The multimodal data model at the heart of Fonduer (paper §3.1, Figure 3):
//! a DAG of *contexts* mirroring the intuitive hierarchy of document
//! components. The root is a [`Document`] containing [`Section`]s; sections
//! contain [`TextBlock`]s, [`Table`]s and [`Figure`]s; tables contain
//! [`Row`]s, [`Column`]s and [`Cell`]s (plus an optional [`Caption`]); every
//! text-bearing context breaks down into [`Paragraph`]s of [`Sentence`]s,
//! the leaves where words and their per-modality attributes live.
//!
//! The data model serves two roles (paper §1, contribution 1):
//!
//! 1. it lets users express multimodal domain knowledge (matchers,
//!    throttlers, labeling functions traverse it), and
//! 2. it gives the learning model the representation needed to reason about
//!    document-wide context (the feature library traverses it).
//!
//! Modalities stored:
//! * **textual** — words, lemmas, POS/NER tags ([`WordLinguistic`]);
//! * **structural** — markup tags, attributes, ancestor paths ([`Structural`]);
//! * **tabular** — row/column membership with spanning cells ([`Cell`]);
//! * **visual** — page numbers, bounding boxes, fonts ([`WordVisual`]).

#![warn(missing_docs)]

mod attrs;
mod builder;
mod corpus;
mod document;
mod ids;
mod intern;
mod outline;
mod span;
mod traverse;
mod validate;

pub use attrs::{BBox, DocFormat, Structural, WordLinguistic, WordVisual};
pub use builder::{DocumentBuilder, SentenceData};
pub use corpus::Corpus;
pub use document::{
    Caption, Cell, Column, Document, Figure, Paragraph, Row, Section, Sentence, Table, TextBlock,
};
pub use ids::{
    CaptionId, CellId, ColumnId, ContextRef, DocId, FigureId, ParagraphId, RowId, SectionId,
    SentenceId, TableId, TextBlockId,
};
pub use intern::{fnv1a64, SymbolArena};
pub use span::{Span, SpanRef};
pub use validate::{assert_valid, validate};
