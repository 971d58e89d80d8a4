//! Featurization configuration: which modalities contribute features.
//!
//! The Figure 7 ablation disables one modality at a time; this config is
//! the switchboard.

/// Which feature modalities are enabled, and how feature names map to
/// matrix columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Textual features (mention words/lemmas/POS, windows, between-text).
    pub textual: bool,
    /// Structural features (markup tags, ancestors, common ancestor).
    pub structural: bool,
    /// Tabular features (row/column membership, headers, alignment in grid).
    pub tabular: bool,
    /// Visual features (page, fonts, geometric alignment).
    pub visual: bool,
    /// Feature-hashing mode: 0 keeps the interned vocabulary; `1..=30`
    /// skips the vocab entirely and buckets each feature into
    /// `1 << hashing_bits` columns by salted 64-bit hash (deterministic
    /// across runs and thread counts).
    pub hashing_bits: u8,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self::all()
    }
}

impl FeatureConfig {
    /// Every modality enabled (Fonduer's default).
    pub fn all() -> Self {
        Self {
            textual: true,
            structural: true,
            tabular: true,
            visual: true,
            hashing_bits: 0,
        }
    }

    /// Only textual features (the classic-KBC configuration).
    pub fn textual_only() -> Self {
        Self {
            textual: true,
            structural: false,
            tabular: false,
            visual: false,
            hashing_bits: 0,
        }
    }

    /// Disable one modality by name (Figure 7's per-domain ablation rows).
    /// Valid names: `"textual"`, `"structural"`, `"tabular"`, `"visual"`.
    pub fn without(name: &str) -> Self {
        let mut c = Self::all();
        match name {
            "textual" => c.textual = false,
            "structural" => c.structural = false,
            "tabular" => c.tabular = false,
            "visual" => c.visual = false,
            other => panic!("unknown modality {other:?}"),
        }
        c
    }

    /// Enable feature-hashing mode with `1 << bits` bucket columns.
    pub fn with_hashing(mut self, bits: u8) -> Self {
        self.hashing_bits = bits;
        self
    }

    /// Modality bitmask (kept for readability in diagnostics).
    pub fn mask(&self) -> u8 {
        (self.textual as u8)
            | (self.structural as u8) << 1
            | (self.tabular as u8) << 2
            | (self.visual as u8) << 3
    }

    /// Cache-key fingerprint: modality mask salted with the hashing mode,
    /// so switching representations invalidates featurize artifacts.
    pub fn fingerprint(&self) -> u64 {
        self.mask() as u64 | (self.hashing_bits as u64) << 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_switches() {
        let c = FeatureConfig::without("tabular");
        assert!(c.textual && c.structural && c.visual && !c.tabular);
        assert_eq!(FeatureConfig::all().mask(), 0b1111);
        assert_eq!(FeatureConfig::textual_only().mask(), 0b0001);
        assert_ne!(
            FeatureConfig::without("visual").mask(),
            FeatureConfig::without("textual").mask()
        );
    }

    #[test]
    fn hashing_salts_the_fingerprint() {
        let plain = FeatureConfig::all();
        let hashed = FeatureConfig::all().with_hashing(18);
        assert_eq!(plain.mask(), hashed.mask());
        assert_ne!(plain.fingerprint(), hashed.fingerprint());
        assert_eq!(plain.fingerprint(), 0b1111);
    }

    #[test]
    #[should_panic(expected = "unknown modality")]
    fn unknown_modality_panics() {
        FeatureConfig::without("acoustic");
    }
}
