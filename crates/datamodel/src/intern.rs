//! Symbol interning infrastructure shared across the workspace.
//!
//! The interner lives here because the *data model itself* depends on it:
//! the arena document layout stores every word, lemma, and tag as a `u32`
//! symbol id resolved against a per-document [`SymbolArena`], and
//! featurization reuses the same structure for its feature vocabulary
//! (`fonduer-features` re-exports it).
//!
//! [`SymbolArena`] is a single-threaded arena interner. All names live in
//! one contiguous `String`; the hash index maps a 64-bit FNV-1a hash to
//! symbol ids with byte-compare collision chains, so interning an
//! already-known name allocates nothing. Parallel stages never share one:
//! each worker interns into its own arena (one per document), and an
//! input-order merge folds the per-document symbols together.

/// 64-bit FNV-1a over raw bytes — the hash shared by the symbol arenas and
/// feature hashing (so a name hashes once).
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Sentinel id marking an empty slot in the open-addressed index.
const EMPTY_SLOT: u32 = u32::MAX;

/// Interns strings to dense `u32` symbol ids.
///
/// Names are stored back-to-back in a single arena string; per-symbol state
/// is the `(offset, len)` span. Interning a known name is hash +
/// byte-compare, no allocation. Resolution is a bounds-checked slice.
///
/// The index is a flat open-addressed `(hash, id)` table probed directly by
/// the 64-bit FNV-1a hash — deliberately not a `HashMap<u64, _>`, which
/// would re-hash the already-uniform key through SipHash on every probe.
/// The fused ingest pass interns up to four symbols per token, so that
/// second hashing layer was the single hottest cost in parse+NLP. Distinct
/// names sharing a hash simply occupy neighbouring slots (linear probing
/// gives collision chains for free).
#[derive(Debug, Clone, Default)]
pub struct SymbolArena {
    arena: String,
    spans: Vec<(u32, u32)>,
    /// Power-of-two `(hash, id)` slots; `EMPTY_SLOT` id marks a free slot.
    /// Empty until the first insert. Load factor is kept below 1/2.
    slots: Vec<(u64, u32)>,
}

#[inline]
fn arena_str(arena: &str, span: (u32, u32)) -> &str {
    &arena[span.0 as usize..(span.0 + span.1) as usize]
}

impl SymbolArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its symbol id.
    #[inline]
    pub fn intern(&mut self, name: &str) -> u32 {
        self.intern_hashed(fnv1a64(name.as_bytes()), name)
    }

    /// Intern with a pre-computed FNV-1a hash of `name`.
    pub fn intern_hashed(&mut self, h: u64, name: &str) -> u32 {
        // Grow (or seed) before probing so the insert slot stays valid.
        if (self.spans.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let (sh, sid) = self.slots[i];
            if sid == EMPTY_SLOT {
                break;
            }
            if sh == h && arena_str(&self.arena, self.spans[sid as usize]) == name {
                return sid;
            }
            i = (i + 1) & mask;
        }
        let id = self.spans.len() as u32;
        let off = self.arena.len() as u32;
        self.arena.push_str(name);
        self.spans.push((off, name.len() as u32));
        self.slots[i] = (h, id);
        id
    }

    /// Double the slot table (64 slots to start) and re-seat every live
    /// entry under the new mask.
    #[cold]
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let mut slots = vec![(0u64, EMPTY_SLOT); cap];
        let mask = cap - 1;
        for &(h, id) in self.slots.iter().filter(|&&(_, id)| id != EMPTY_SLOT) {
            let mut i = (h as usize) & mask;
            while slots[i].1 != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = (h, id);
        }
        self.slots = slots;
    }

    /// Look up an existing symbol.
    pub fn get(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let h = fnv1a64(name.as_bytes());
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let (sh, sid) = self.slots[i];
            if sid == EMPTY_SLOT {
                return None;
            }
            if sh == h && arena_str(&self.arena, self.spans[sid as usize]) == name {
                return Some(sid);
            }
            i = (i + 1) & mask;
        }
    }

    /// The string of a symbol id.
    #[inline]
    pub fn resolve(&self, id: u32) -> &str {
        arena_str(&self.arena, self.spans[id as usize])
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Approximate retained heap bytes (arena + spans + index).
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.slots.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_arena_roundtrips() {
        let mut v = SymbolArena::new();
        let a = v.intern("alpha");
        let b = v.intern("beta");
        assert_eq!(v.intern("alpha"), a);
        assert_ne!(a, b);
        assert_eq!(v.resolve(a), "alpha");
        assert_eq!(v.resolve(b), "beta");
        assert_eq!(v.get("alpha"), Some(a));
        assert_eq!(v.get("gamma"), None);
        assert_eq!(v.len(), 2);
        assert!(v.heap_bytes() > 0);
    }

    #[test]
    fn symbol_arena_survives_many_symbols() {
        let mut v = SymbolArena::new();
        let ids: Vec<u32> = (0..5000).map(|i| v.intern(&format!("S_{i}"))).collect();
        assert_eq!(v.len(), 5000);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(v.resolve(id), format!("S_{i}"));
            assert_eq!(v.get(&format!("S_{i}")), Some(id));
        }
    }
}
