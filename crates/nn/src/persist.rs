//! Weight persistence: serialize a [`ParamStore`]'s parameters to a compact
//! binary format so trained models can be shipped to production (the
//! development → production split of paper §3.3 implies training once and
//! reusing the model).
//!
//! Format: `b"FNDW"` magic, a `u32` version, a `u64` parameter count, then
//! little-endian `f32` weights. Optimizer state is deliberately not saved —
//! a loaded model is for inference or fresh fine-tuning.

use crate::store::ParamStore;

const MAGIC: &[u8; 4] = b"FNDW";
const VERSION: u32 = 1;

/// Errors from weight deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Input shorter than its header claims.
    Truncated,
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Parameter count does not match the receiving store's layout.
    ShapeMismatch {
        /// Parameters expected by the store.
        expected: usize,
        /// Parameters found in the input.
        found: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "weight blob truncated"),
            PersistError::BadMagic => write!(f, "not a Fonduer weight blob"),
            PersistError::BadVersion(v) => write!(f, "unsupported weight format version {v}"),
            PersistError::ShapeMismatch { expected, found } => {
                write!(
                    f,
                    "weight count mismatch: store has {expected}, blob has {found}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize a store's weights.
pub fn save_weights(store: &ParamStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + store.n_params() * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(store.n_params() as u64).to_le_bytes());
    for &w in &store.w {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

/// Load weights into a store with an identical layout (same layers allocated
/// in the same order).
pub fn load_weights(store: &mut ParamStore, blob: &[u8]) -> Result<(), PersistError> {
    if blob.len() < 16 {
        return Err(PersistError::Truncated);
    }
    let (header, weights) = blob.split_at(16);
    if &header[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let n = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
    if n != store.n_params() {
        return Err(PersistError::ShapeMismatch {
            expected: store.n_params(),
            found: n,
        });
    }
    if weights.len() < n * 4 {
        return Err(PersistError::Truncated);
    }
    for (w, bytes) in store.w.iter_mut().zip(weights.chunks_exact(4)) {
        *w = f32::from_le_bytes(bytes.try_into().unwrap());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        let mut s = ParamStore::new(9);
        s.alloc(4, 3);
        s.alloc_zeros(5, 1);
        s
    }

    #[test]
    fn roundtrip_preserves_weights() {
        let mut a = store();
        a.w[3] = 1.25;
        a.w[16] = -7.5;
        let blob = save_weights(&a);
        let mut b = ParamStore::new(1234); // different init
        b.alloc(4, 3);
        b.alloc_zeros(5, 1);
        load_weights(&mut b, &blob).unwrap();
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut s = store();
        assert_eq!(load_weights(&mut s, b"nope"), Err(PersistError::Truncated));
        let blob = save_weights(&store());
        let mut corrupted = blob.to_vec();
        corrupted[0] = b'X';
        assert_eq!(
            load_weights(&mut s, &corrupted),
            Err(PersistError::BadMagic)
        );
        assert_eq!(
            load_weights(&mut s, &blob[..blob.len() - 4]),
            Err(PersistError::Truncated)
        );
    }

    #[test]
    fn rejects_shape_mismatch() {
        let blob = save_weights(&store());
        let mut other = ParamStore::new(1);
        other.alloc(2, 2);
        match load_weights(&mut other, &blob) {
            Err(PersistError::ShapeMismatch {
                expected: 4,
                found: 17,
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_display() {
        let e = PersistError::ShapeMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("mismatch"));
        assert!(PersistError::BadVersion(9).to_string().contains('9'));
    }
}
