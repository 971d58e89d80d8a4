//! SWAR byte-class scanning for the tokenizer and sentence splitter.
//!
//! The tokenizer's hot loops are runs: "consume ASCII digits", "consume
//! ASCII word characters", "skip ASCII whitespace", "find the next sentence
//! terminator". Each scanner tests 8 bytes per step with branch-free `u64`
//! byte-lane arithmetic (SWAR, portable to every target), then finishes
//! the tail with a scalar loop.
//!
//! The scanners classify *ASCII* byte classes only; any byte ≥ 0x80
//! terminates a run and is handed back to the caller's scalar char
//! decoder. Because classification is exact per byte, the run boundaries
//! equal the scalar loop's — tests pin that on adversarial byte soup, and
//! the tokenizer's tests pin it against a char-based reference.

// ---------------------------------------------------------------------------
// Byte classes
// ---------------------------------------------------------------------------

/// ASCII whitespace in the sense of `char::is_whitespace`: HT, LF, VT, FF,
/// CR, space.
#[inline]
pub(crate) fn is_ascii_ws(b: u8) -> bool {
    matches!(b, 0x09..=0x0d | b' ')
}

/// ASCII word characters: `[0-9A-Za-z_]`.
#[inline]
pub(crate) fn is_ascii_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[inline]
fn is_terminator(b: u8) -> bool {
    matches!(b, b'.' | b'!' | b'?')
}

// ---------------------------------------------------------------------------
// SWAR lane arithmetic. Each helper sets the high bit of every byte lane
// that satisfies the predicate; lanes with byte >= 0x80 are never flagged,
// so non-ASCII bytes always terminate a run.
// ---------------------------------------------------------------------------

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

#[inline]
fn splat(b: u8) -> u64 {
    ONES * u64::from(b)
}

/// High bit set in each lane whose byte is `< n` (requires `n <= 0x80`;
/// lanes >= 0x80 are never flagged). ORing in the lane high bits before the
/// subtraction keeps every lane >= 0x80 >= n, so no borrow ever crosses a
/// lane boundary and the test is exact per lane — the textbook
/// `(x - n·ONES) & ~x & HIGH` form is only exact up to the first true hit,
/// because a borrow out of a matching lane falsely flags the lane above it.
#[inline]
fn lt(x: u64, n: u8) -> u64 {
    !(x | HIGH).wrapping_sub(splat(n)) & !x & HIGH
}

/// High bit set in each lane equal to `b` (requires `b < 0x80`). Same
/// borrow-isolation trick as [`lt`]: `(v | HIGH) - 1` keeps lanes
/// independent, and its high bit clears exactly when `v == 0`.
#[inline]
fn eq(x: u64, b: u8) -> u64 {
    let v = x ^ splat(b);
    !(v | HIGH).wrapping_sub(ONES) & !v & HIGH
}

/// High bit set in each lane whose byte is in `lo..=hi` (ASCII bounds).
#[inline]
fn in_range(x: u64, lo: u8, hi: u8) -> u64 {
    lt(x, hi + 1) & !lt(x, lo)
}

#[inline]
fn word_lanes(x: u64) -> u64 {
    in_range(x, b'0', b'9') | in_range(x, b'A', b'Z') | in_range(x, b'a', b'z') | eq(x, b'_')
}

#[inline]
fn digit_lanes(x: u64) -> u64 {
    in_range(x, b'0', b'9')
}

#[inline]
fn ws_lanes(x: u64) -> u64 {
    in_range(x, 0x09, 0x0d) | eq(x, b' ')
}

#[inline]
fn terminator_lanes(x: u64) -> u64 {
    eq(x, b'.') | eq(x, b'!') | eq(x, b'?')
}

#[inline]
fn load8(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap())
}

macro_rules! swar_run {
    ($bytes:ident, $i:ident, $lanes:ident, $scalar:expr) => {{
        while $i + 8 <= $bytes.len() {
            let miss = $lanes(load8($bytes, $i)) ^ HIGH;
            if miss != 0 {
                return $i + (miss.trailing_zeros() / 8) as usize;
            }
            $i += 8;
        }
        #[allow(clippy::redundant_closure_call)]
        while $i < $bytes.len() && $scalar($bytes[$i]) {
            $i += 1;
        }
        $i
    }};
}

/// First index `>= i` whose byte is not an ASCII word character
/// (`[0-9A-Za-z_]`), or `bytes.len()`.
pub(crate) fn word_run_end(bytes: &[u8], mut i: usize) -> usize {
    swar_run!(bytes, i, word_lanes, is_ascii_word)
}

/// First index `>= i` whose byte is not an ASCII digit, or `bytes.len()`.
pub(crate) fn digit_run_end(bytes: &[u8], mut i: usize) -> usize {
    swar_run!(bytes, i, digit_lanes, |b: u8| b.is_ascii_digit())
}

/// First index `>= i` whose byte is not ASCII whitespace, or
/// `bytes.len()`.
pub(crate) fn ws_run_end(bytes: &[u8], mut i: usize) -> usize {
    swar_run!(bytes, i, ws_lanes, is_ascii_ws)
}

/// First index `>= i` whose byte is a sentence terminator (`.`, `!`,
/// `?`), or `bytes.len()`.
pub(crate) fn find_terminator(bytes: &[u8], mut i: usize) -> usize {
    while i + 8 <= bytes.len() {
        let hit = terminator_lanes(load8(bytes, i));
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() && !is_terminator(bytes[i]) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_run(bytes: &[u8], mut i: usize, pred: fn(u8) -> bool) -> usize {
        while i < bytes.len() && pred(bytes[i]) {
            i += 1;
        }
        i
    }

    /// Deterministic pseudo-random byte soup spanning all classes.
    fn soup(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Mostly ASCII, occasionally high bytes.
            let b = (state % 160) as u8;
            out.push(if b >= 128 { 0xce } else { b });
        }
        out
    }

    #[test]
    fn swar_runs_match_scalar_on_byte_soup() {
        for seed in 0..8u64 {
            let bytes = soup(seed, 257);
            for start in 0..bytes.len() {
                assert_eq!(
                    word_run_end(&bytes, start),
                    scalar_run(&bytes, start, is_ascii_word),
                    "word run at {start}, seed {seed}"
                );
                assert_eq!(
                    digit_run_end(&bytes, start),
                    scalar_run(&bytes, start, |b| b.is_ascii_digit()),
                    "digit run at {start}, seed {seed}"
                );
                assert_eq!(
                    ws_run_end(&bytes, start),
                    scalar_run(&bytes, start, is_ascii_ws),
                    "ws run at {start}, seed {seed}"
                );
                assert_eq!(
                    find_terminator(&bytes, start),
                    scalar_run(&bytes, start, |b| !matches!(b, b'.' | b'!' | b'?')),
                    "terminator scan at {start}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn lane_arithmetic_edge_bytes() {
        // 0x80-adjacent bytes must never be classified into any ASCII class.
        let bytes = [0x7f, 0x80, 0xff, b'a', b'0', b' ', b'.', 0x00];
        assert_eq!(word_run_end(&bytes, 0), 0);
        assert_eq!(word_run_end(&bytes, 3), 5);
        assert_eq!(digit_run_end(&bytes, 4), 5);
        assert_eq!(ws_run_end(&bytes, 5), 6);
        assert_eq!(find_terminator(&bytes, 0), 6);
    }
}
