//! Modality attributes stored on context nodes.
//!
//! Fonduer's data model preserves, for every word and sentence, a wide range
//! of attributes from each modality found in the original document (paper
//! §3.1): linguistic attributes from NLP preprocessing, structural attributes
//! from the markup tree, tabular attributes from row/column membership, and
//! visual attributes (page + bounding box) from a rendered layout.

/// Source format of an input document (paper Table 1: PDF, HTML, XML).
///
/// The format determines which modalities are natively available: XML
/// documents carry no visual rendering (as in the GENOMICS dataset), while
/// PDF-derived documents may carry noisy structural markup recovered by
/// conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocFormat {
    /// Converted from PDF: visual coordinates are primary, HTML markup is
    /// recovered (and possibly noisy).
    Pdf,
    /// Native HTML: structural markup is primary; a rendering provides
    /// visual coordinates.
    Html,
    /// Native XML: tree structure is exact; there is no visual rendering.
    Xml,
}

impl DocFormat {
    /// Whether documents of this format carry visual (bounding-box)
    /// information.
    pub fn has_visual(self) -> bool {
        !matches!(self, DocFormat::Xml)
    }

    /// Human-readable label as printed in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            DocFormat::Pdf => "PDF",
            DocFormat::Html => "HTML",
            DocFormat::Xml => "XML",
        }
    }
}

/// An axis-aligned bounding box in page coordinates (points; origin at the
/// top-left of the page, `y` growing downward).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x0: f32,
    /// Top edge.
    pub y0: f32,
    /// Right edge.
    pub x1: f32,
    /// Bottom edge.
    pub y1: f32,
}

impl BBox {
    /// Construct a bounding box; callers must ensure `x0 <= x1 && y0 <= y1`.
    pub fn new(x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        debug_assert!(x0 <= x1 && y0 <= y1, "degenerate bbox");
        Self { x0, y0, x1, y1 }
    }

    /// Width of the box.
    pub fn width(&self) -> f32 {
        self.x1 - self.x0
    }

    /// Height of the box.
    pub fn height(&self) -> f32 {
        self.y1 - self.y0
    }

    /// Horizontal center.
    pub fn cx(&self) -> f32 {
        (self.x0 + self.x1) * 0.5
    }

    /// Vertical center.
    pub fn cy(&self) -> f32 {
        (self.y0 + self.y1) * 0.5
    }

    /// Smallest box containing both `self` and `other`.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Whether the vertical extents of two boxes overlap (used for
    /// horizontal-alignment tests: two words on the same visual line).
    pub fn y_overlaps(&self, other: &BBox) -> bool {
        self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// Whether the horizontal extents of two boxes overlap (used for
    /// vertical-alignment tests: two words in the same visual column).
    pub fn x_overlaps(&self, other: &BBox) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1
    }
}

/// Visual attributes of a single word: which page it is rendered on, its
/// bounding box, and font information (Figure 1 highlights font name, size,
/// and style as meaningful signals).
#[derive(Debug, Clone, PartialEq)]
pub struct WordVisual {
    /// 1-based page number.
    pub page: u16,
    /// Bounding box in page coordinates.
    pub bbox: BBox,
    /// Font family name (e.g. `"Arial"`). `Cow` because the layout engine
    /// draws from a static font table and attaches one of these per word —
    /// borrowing keeps the visual modality allocation-free — while loaders
    /// of real converted PDFs can still carry owned names.
    pub font: std::borrow::Cow<'static, str>,
    /// Font size in points.
    pub font_size: f32,
    /// Whether the word is rendered in bold.
    pub bold: bool,
}

/// Structural attributes of a sentence: its position in the markup tree.
///
/// These correspond to the structural feature templates of Table 7 (HTML tag,
/// attributes, parent/sibling tags, ancestor tag/class/id sequences, node
/// position among siblings).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Structural {
    /// Tag of the innermost element containing the sentence (e.g. `"td"`).
    pub tag: String,
    /// Raw attributes of that element, in document order.
    pub attrs: Vec<(String, String)>,
    /// Tag of the parent element.
    pub parent_tag: String,
    /// Tag of the previous sibling element, if any.
    pub prev_sibling_tag: Option<String>,
    /// Tag of the next sibling element, if any.
    pub next_sibling_tag: Option<String>,
    /// 0-based position of the element among its siblings.
    pub node_pos: u32,
    /// Tags of all ancestors, root first (e.g. `["html", "body", "table"]`).
    /// Shared by refcount: every element under the same open-ancestor state
    /// (all the cells of a table, say) points at one snapshot, so the ingest
    /// walk clones three `Arc`s instead of three string vectors per element.
    pub ancestor_tags: std::sync::Arc<Vec<String>>,
    /// `class` attribute values of all ancestors that have one, root first.
    pub ancestor_classes: std::sync::Arc<Vec<String>>,
    /// `id` attribute values of all ancestors that have one, root first.
    pub ancestor_ids: std::sync::Arc<Vec<String>>,
}

impl Structural {
    /// Value of an attribute on the innermost element, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Depth of the element in the markup tree (number of ancestors).
    pub fn depth(&self) -> usize {
        self.ancestor_tags.len()
    }
}

/// Linguistic attributes produced by NLP preprocessing for one word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordLinguistic {
    /// Part-of-speech tag (coarse Penn-style set; see `fonduer-nlp`).
    pub pos: String,
    /// Lemma (lower-cased base form).
    pub lemma: String,
    /// Named-entity-style tag (`"NUMBER"`, `"UNIT"`, `"O"`, ...).
    pub ner: String,
}

impl Default for WordLinguistic {
    fn default() -> Self {
        Self {
            pos: "X".to_string(),
            lemma: String::new(),
            ner: "O".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbox_geometry() {
        let a = BBox::new(0.0, 0.0, 10.0, 5.0);
        assert_eq!(a.width(), 10.0);
        assert_eq!(a.height(), 5.0);
        assert_eq!(a.cx(), 5.0);
        assert_eq!(a.cy(), 2.5);
    }

    #[test]
    fn bbox_union_covers_both() {
        let a = BBox::new(0.0, 0.0, 10.0, 5.0);
        let b = BBox::new(8.0, 3.0, 20.0, 9.0);
        let u = a.union(&b);
        assert_eq!(u, BBox::new(0.0, 0.0, 20.0, 9.0));
    }

    #[test]
    fn bbox_overlap_predicates() {
        let a = BBox::new(0.0, 0.0, 10.0, 5.0);
        let same_line = BBox::new(50.0, 2.0, 60.0, 6.0);
        let below = BBox::new(0.0, 20.0, 10.0, 25.0);
        assert!(a.y_overlaps(&same_line));
        assert!(!a.y_overlaps(&below));
        assert!(a.x_overlaps(&below));
        assert!(!a.x_overlaps(&same_line));
    }

    #[test]
    fn format_visual_availability() {
        assert!(DocFormat::Pdf.has_visual());
        assert!(DocFormat::Html.has_visual());
        assert!(!DocFormat::Xml.has_visual());
        assert_eq!(DocFormat::Xml.label(), "XML");
    }

    #[test]
    fn structural_attr_lookup() {
        let s = Structural {
            tag: "td".into(),
            attrs: vec![("class".into(), "value".into()), ("id".into(), "c3".into())],
            ..Default::default()
        };
        assert_eq!(s.attr("class"), Some("value"));
        assert_eq!(s.attr("id"), Some("c3"));
        assert_eq!(s.attr("style"), None);
        assert_eq!(s.depth(), 0);
    }
}
