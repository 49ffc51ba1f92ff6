//! Arbitrary-width two's-complement bit vectors.
//!
//! [`Bits`] is the value type of the RTL IR: every signal, register and
//! array element carries a fixed bit width between 1 and [`MAX_WIDTH`].
//! Values are stored as little-endian `u64` words with the unused high
//! bits of the top word kept at zero (the *normalized* form). All
//! arithmetic wraps modulo `2^width`, matching Verilog semantics for
//! same-width operands.
//!
//! The [`word`] submodule exposes the underlying word-level kernels that
//! operate on raw `&[u64]` slices; the simulation engine evaluates nodes
//! directly on a flat word arena using those kernels, so `Bits` itself is
//! only on hot paths at the testbench boundary.
//!
//! # Examples
//!
//! ```
//! use parendi_rtl::Bits;
//!
//! let a = Bits::from_u64(12, 0x0ab);
//! let b = Bits::from_u64(12, 0x101);
//! assert_eq!(a.add(&b), Bits::from_u64(12, 0x1ac));
//! assert_eq!(a.concat(&b).width(), 24);
//! ```

use std::fmt;

/// Maximum supported signal width in bits.
///
/// Wide enough for any realistic RTL bus; small enough that width
/// arithmetic never overflows `u32`.
pub const MAX_WIDTH: u32 = 1 << 20;

/// Number of `u64` words required to hold `width` bits.
#[inline]
pub const fn words_for(width: u32) -> usize {
    width.div_ceil(64) as usize
}

/// Mask selecting the valid bits of the top word of a `width`-bit value.
#[inline]
pub const fn top_word_mask(width: u32) -> u64 {
    let rem = width % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// A fixed-width bit vector value.
///
/// See the [module documentation](self) for representation details.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u32,
    words: Vec<u64>,
}

impl Bits {
    /// Creates an all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn zero(width: u32) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "invalid width {width}");
        Bits {
            width,
            words: vec![0; words_for(width)],
        }
    }

    /// Creates an all-ones value of the given width.
    pub fn ones(width: u32) -> Self {
        let mut b = Bits::zero(width);
        for w in &mut b.words {
            *w = u64::MAX;
        }
        b.normalize();
        b
    }

    /// Creates a value from a `u64`, truncating to `width` bits.
    pub fn from_u64(width: u32, value: u64) -> Self {
        let mut b = Bits::zero(width);
        b.words[0] = value;
        b.normalize();
        b
    }

    /// Creates a value from a `u128`, truncating to `width` bits.
    pub fn from_u128(width: u32, value: u128) -> Self {
        let mut b = Bits::zero(width);
        b.words[0] = value as u64;
        if b.words.len() > 1 {
            b.words[1] = (value >> 64) as u64;
        }
        b.normalize();
        b
    }

    /// Creates a value from little-endian words, truncating to `width` bits.
    ///
    /// Missing high words are taken as zero; extra words are ignored.
    pub fn from_words(width: u32, words: &[u64]) -> Self {
        let mut b = Bits::zero(width);
        let n = b.words.len().min(words.len());
        b.words[..n].copy_from_slice(&words[..n]);
        b.normalize();
        b
    }

    /// Parses a hexadecimal string (optionally `0x`-prefixed, `_` allowed).
    ///
    /// # Errors
    ///
    /// Returns an error message if `width` is zero or exceeds
    /// [`MAX_WIDTH`], a character is not a hex digit, or the value does
    /// not fit in `width` bits.
    pub fn from_hex(width: u32, s: &str) -> Result<Self, String> {
        if !(1..=MAX_WIDTH).contains(&width) {
            return Err(format!("invalid width {width}"));
        }
        let s = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        let mut b = Bits::zero(width);
        for (nibble, c) in s.chars().rev().filter(|&c| c != '_').enumerate() {
            let v = c
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit {c:?}"))? as u64;
            let bit = nibble as u32 * 4;
            if bit >= width && v != 0 {
                return Err(format!("value does not fit in {width} bits"));
            }
            if bit < width {
                let wi = (bit / 64) as usize;
                b.words[wi] |= v << (bit % 64);
                // A nibble can straddle a word boundary.
                if bit % 64 > 60 && wi + 1 < b.words.len() {
                    b.words[wi + 1] |= v >> (64 - bit % 64);
                }
            }
        }
        let check = b.clone();
        b.normalize();
        if b != check {
            return Err(format!("value does not fit in {width} bits"));
        }
        Ok(b)
    }

    /// The width of this value in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The underlying little-endian words (normalized).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The low 64 bits of the value.
    #[inline]
    pub fn to_u64(&self) -> u64 {
        self.words[0]
    }

    /// The full value if it fits in a `u64`, otherwise `None`.
    pub fn try_to_u64(&self) -> Option<u64> {
        if self.words[1..].iter().all(|&w| w == 0) {
            Some(self.words[0])
        } else {
            None
        }
    }

    /// Whether every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The bit at position `i` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: u32, v: bool) {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let w = &mut self.words[(i / 64) as usize];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    fn normalize(&mut self) {
        let last = self.words.len() - 1;
        self.words[last] &= top_word_mask(self.width);
    }

    fn binop(&self, rhs: &Bits, f: impl Fn(&mut [u64], &[u64], &[u64], u32)) -> Bits {
        assert_eq!(
            self.width, rhs.width,
            "width mismatch {} vs {}",
            self.width, rhs.width
        );
        let mut out = Bits::zero(self.width);
        f(&mut out.words, &self.words, &rhs.words, self.width);
        out
    }

    /// Wrapping addition. Panics on width mismatch.
    pub fn add(&self, rhs: &Bits) -> Bits {
        self.binop(rhs, word::add)
    }

    /// Wrapping subtraction. Panics on width mismatch.
    pub fn sub(&self, rhs: &Bits) -> Bits {
        self.binop(rhs, word::sub)
    }

    /// Wrapping negation (two's complement).
    pub fn neg(&self) -> Bits {
        let mut out = Bits::zero(self.width);
        word::neg(&mut out.words, &self.words, self.width);
        out
    }

    /// Wrapping multiplication (result truncated to the operand width).
    pub fn mul(&self, rhs: &Bits) -> Bits {
        self.binop(rhs, word::mul)
    }

    /// Bitwise AND. Panics on width mismatch.
    pub fn and(&self, rhs: &Bits) -> Bits {
        self.binop(rhs, word::and)
    }

    /// Bitwise OR. Panics on width mismatch.
    pub fn or(&self, rhs: &Bits) -> Bits {
        self.binop(rhs, word::or)
    }

    /// Bitwise XOR. Panics on width mismatch.
    pub fn xor(&self, rhs: &Bits) -> Bits {
        self.binop(rhs, word::xor)
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bits {
        let mut out = Bits::zero(self.width);
        word::not(&mut out.words, &self.words, self.width);
        out
    }

    /// Logical shift left by `sh` bits (zeros shifted in; width preserved).
    pub fn shl(&self, sh: u32) -> Bits {
        let mut out = Bits::zero(self.width);
        word::shl(&mut out.words, &self.words, sh, self.width);
        out
    }

    /// Logical shift right by `sh` bits.
    pub fn lshr(&self, sh: u32) -> Bits {
        let mut out = Bits::zero(self.width);
        word::lshr(&mut out.words, &self.words, sh, self.width);
        out
    }

    /// Arithmetic shift right by `sh` bits (sign bit replicated).
    pub fn ashr(&self, sh: u32) -> Bits {
        let mut out = Bits::zero(self.width);
        word::ashr(&mut out.words, &self.words, sh, self.width);
        out
    }

    /// Unsigned less-than. Panics on width mismatch.
    pub fn lt_u(&self, rhs: &Bits) -> bool {
        assert_eq!(self.width, rhs.width);
        word::lt_u(&self.words, &rhs.words)
    }

    /// Signed less-than (two's complement). Panics on width mismatch.
    pub fn lt_s(&self, rhs: &Bits) -> bool {
        assert_eq!(self.width, rhs.width);
        word::lt_s(&self.words, &rhs.words, self.width)
    }

    /// AND-reduction: true iff all bits are one.
    pub fn red_and(&self) -> bool {
        word::red_and(&self.words, self.width)
    }

    /// OR-reduction: true iff any bit is one.
    pub fn red_or(&self) -> bool {
        !self.is_zero()
    }

    /// XOR-reduction: parity of the set bits.
    pub fn red_xor(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// Extracts bits `hi..=lo` as a `(hi-lo+1)`-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn slice(&self, hi: u32, lo: u32) -> Bits {
        assert!(
            hi >= lo && hi < self.width,
            "bad slice [{hi}:{lo}] of width {}",
            self.width
        );
        let mut out = Bits::zero(hi - lo + 1);
        word::slice(&mut out.words, &self.words, hi, lo);
        out
    }

    /// Concatenation: `self` becomes the high bits, `lo` the low bits.
    pub fn concat(&self, lo: &Bits) -> Bits {
        let mut out = Bits::zero(self.width + lo.width);
        word::concat(&mut out.words, &self.words, &lo.words, lo.width);
        out.normalize();
        out
    }

    /// Zero-extends (or truncates) to `width` bits.
    pub fn zext(&self, width: u32) -> Bits {
        let mut out = Bits::zero(width);
        word::zext(&mut out.words, &self.words, width);
        out
    }

    /// Sign-extends (or truncates) to `width` bits.
    pub fn sext(&self, width: u32) -> Bits {
        let mut out = Bits::zero(width);
        word::sext(&mut out.words, &self.words, self.width, width);
        out
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(self, f)
    }
}

impl fmt::LowerHex for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for (i, w) in self.words.iter().enumerate().rev() {
            if started {
                write!(f, "{w:016x}")?;
            } else if *w != 0 || i == 0 {
                write!(f, "{w:x}")?;
                started = true;
            }
        }
        Ok(())
    }
}

impl fmt::Binary for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl From<bool> for Bits {
    fn from(v: bool) -> Self {
        Bits::from_u64(1, v as u64)
    }
}

/// Word-level kernels used both by [`Bits`] and by the simulation engine's
/// flat value arena. All slices must be exactly `words_for(width)` long and
/// inputs must be normalized; outputs are produced normalized.
pub mod word {
    use super::{top_word_mask, words_for};

    /// `dst = a + b (mod 2^width)`.
    pub fn add(dst: &mut [u64], a: &[u64], b: &[u64], width: u32) {
        let mut carry = 0u64;
        for i in 0..dst.len() {
            let (s1, c1) = a[i].overflowing_add(b[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            dst[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        mask_top(dst, width);
    }

    /// `dst = a - b (mod 2^width)`.
    pub fn sub(dst: &mut [u64], a: &[u64], b: &[u64], width: u32) {
        let mut borrow = 0u64;
        for i in 0..dst.len() {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            dst[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        mask_top(dst, width);
    }

    /// `dst = -a (mod 2^width)`: two's complement without a zero
    /// temporary (the hot path of `Neg` in both simulation engines).
    pub fn neg(dst: &mut [u64], a: &[u64], width: u32) {
        let mut borrow = 0u64;
        for i in 0..dst.len() {
            let (d1, b1) = 0u64.overflowing_sub(a[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            dst[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        mask_top(dst, width);
    }

    /// `dst = a * b (mod 2^width)`, schoolbook with truncation.
    ///
    /// `dst` must not alias `a` or `b`.
    pub fn mul(dst: &mut [u64], a: &[u64], b: &[u64], width: u32) {
        dst.fill(0);
        let n = dst.len();
        for (i, &aw) in a.iter().enumerate().take(n) {
            if aw == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bw) in b.iter().enumerate().take(n - i) {
                let t = aw as u128 * bw as u128 + dst[i + j] as u128 + carry;
                dst[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        mask_top(dst, width);
    }

    /// `dst = a & b`.
    pub fn and(dst: &mut [u64], a: &[u64], b: &[u64], _width: u32) {
        for i in 0..dst.len() {
            dst[i] = a[i] & b[i];
        }
    }

    /// `dst = a | b`.
    pub fn or(dst: &mut [u64], a: &[u64], b: &[u64], _width: u32) {
        for i in 0..dst.len() {
            dst[i] = a[i] | b[i];
        }
    }

    /// `dst = a ^ b`.
    pub fn xor(dst: &mut [u64], a: &[u64], b: &[u64], _width: u32) {
        for i in 0..dst.len() {
            dst[i] = a[i] ^ b[i];
        }
    }

    /// `dst = !a` (masked to width).
    pub fn not(dst: &mut [u64], a: &[u64], width: u32) {
        for i in 0..dst.len() {
            dst[i] = !a[i];
        }
        mask_top(dst, width);
    }

    /// `dst = a << sh` (width preserved; `sh >= width` yields zero).
    pub fn shl(dst: &mut [u64], a: &[u64], sh: u32, width: u32) {
        dst.fill(0);
        if sh >= width {
            return;
        }
        let ws = (sh / 64) as usize;
        let bs = sh % 64;
        for i in (ws..dst.len()).rev() {
            let mut v = a[i - ws] << bs;
            if bs > 0 && i > ws {
                v |= a[i - ws - 1] >> (64 - bs);
            }
            dst[i] = v;
        }
        mask_top(dst, width);
    }

    /// `dst = a >> sh` (logical; `sh >= width` yields zero).
    pub fn lshr(dst: &mut [u64], a: &[u64], sh: u32, width: u32) {
        dst.fill(0);
        if sh >= width {
            return;
        }
        let ws = (sh / 64) as usize;
        let bs = sh % 64;
        let n = dst.len();
        for i in 0..n - ws {
            let mut v = a[i + ws] >> bs;
            if bs > 0 && i + ws + 1 < n {
                v |= a[i + ws + 1] << (64 - bs);
            }
            dst[i] = v;
        }
    }

    /// `dst = a >> sh` (arithmetic: bit `width-1` replicated).
    pub fn ashr(dst: &mut [u64], a: &[u64], sh: u32, width: u32) {
        let sign = (a[((width - 1) / 64) as usize] >> ((width - 1) % 64)) & 1 == 1;
        let sh = sh.min(width);
        lshr(dst, a, sh, width);
        if sign && sh > 0 {
            // Fill the vacated top `sh` bits with ones.
            for bit in width - sh..width {
                dst[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        mask_top(dst, width);
    }

    /// Unsigned comparison `a < b` (equal lengths).
    pub fn lt_u(a: &[u64], b: &[u64]) -> bool {
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
        }
        false
    }

    /// Signed comparison `a < b` at the given width.
    pub fn lt_s(a: &[u64], b: &[u64], width: u32) -> bool {
        let sa = (a[((width - 1) / 64) as usize] >> ((width - 1) % 64)) & 1 == 1;
        let sb = (b[((width - 1) / 64) as usize] >> ((width - 1) % 64)) & 1 == 1;
        if sa != sb {
            return sa;
        }
        lt_u(a, b)
    }

    /// Equality of two normalized values.
    pub fn eq(a: &[u64], b: &[u64]) -> bool {
        a == b
    }

    /// AND-reduction at the given width.
    pub fn red_and(a: &[u64], width: u32) -> bool {
        let last = a.len() - 1;
        a[..last].iter().all(|&w| w == u64::MAX) && a[last] == top_word_mask(width)
    }

    /// OR-reduction.
    pub fn red_or(a: &[u64]) -> bool {
        a.iter().any(|&w| w != 0)
    }

    /// XOR-reduction (parity).
    pub fn red_xor(a: &[u64]) -> bool {
        a.iter().fold(0u32, |p, w| p ^ (w.count_ones() & 1)) == 1
    }

    /// Extracts bits `hi..=lo` of `src` into `dst` (sized for `hi-lo+1`).
    pub fn slice(dst: &mut [u64], src: &[u64], hi: u32, lo: u32) {
        let width = hi - lo + 1;
        let ws = (lo / 64) as usize;
        let bs = lo % 64;
        for i in 0..dst.len() {
            let mut v = src[i + ws] >> bs;
            if bs > 0 && i + ws + 1 < src.len() {
                v |= src[i + ws + 1] << (64 - bs);
            }
            dst[i] = v;
        }
        mask_top(dst, width);
    }

    /// `dst = {hi, lo}` where `lo` occupies the low `lo_width` bits.
    pub fn concat(dst: &mut [u64], hi: &[u64], lo: &[u64], lo_width: u32) {
        dst.fill(0);
        dst[..lo.len()].copy_from_slice(lo);
        let ws = (lo_width / 64) as usize;
        let bs = lo_width % 64;
        for (i, &h) in hi.iter().enumerate() {
            dst[i + ws] |= h << bs;
            if bs > 0 && i + ws + 1 < dst.len() {
                dst[i + ws + 1] |= h >> (64 - bs);
            }
        }
    }

    /// Zero-extends or truncates `src` into `dst` (sized for `width`).
    pub fn zext(dst: &mut [u64], src: &[u64], width: u32) {
        let n = dst.len().min(src.len());
        dst[..n].copy_from_slice(&src[..n]);
        dst[n..].fill(0);
        mask_top(dst, width);
    }

    /// Sign-extends or truncates `src` (of `src_width` bits) into `dst`.
    pub fn sext(dst: &mut [u64], src: &[u64], src_width: u32, width: u32) {
        zext(dst, src, width);
        if width > src_width {
            let sign = (src[((src_width - 1) / 64) as usize] >> ((src_width - 1) % 64)) & 1 == 1;
            if sign {
                for bit in src_width..width {
                    dst[(bit / 64) as usize] |= 1 << (bit % 64);
                }
            }
        }
        mask_top(dst, width);
    }

    /// Folds a (normalized, little-endian) index value to `u64::MAX`
    /// when it cannot address any real array — any high word set, or a
    /// low word beyond `u32::MAX` (array depths fit in `u32`) — and to
    /// its low word otherwise. Both simulation engines share this so
    /// out-of-range semantics cannot drift between them.
    pub fn fold_index(v: &[u64]) -> u64 {
        if v[1..].iter().any(|&x| x != 0) || v[0] > u32::MAX as u64 {
            u64::MAX
        } else {
            v[0]
        }
    }

    /// Saturating shift amount: anything ≥ the value width behaves as
    /// width (shared by both simulation engines).
    pub fn shift_amount(bv: &[u64], width: u32) -> u32 {
        if bv[1..].iter().any(|&x| x != 0) || bv[0] > u32::MAX as u64 {
            width
        } else {
            (bv[0] as u32).min(width)
        }
    }

    /// Copies a normalized value.
    pub fn copy(dst: &mut [u64], src: &[u64]) {
        dst.copy_from_slice(src);
    }

    /// Masks the top word of `dst` to `width` bits.
    #[inline]
    pub fn mask_top(dst: &mut [u64], width: u32) {
        let last = words_for(width) - 1;
        dst[last] &= top_word_mask(width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_normalization() {
        let b = Bits::from_u64(4, 0xff);
        assert_eq!(b.to_u64(), 0xf);
        assert_eq!(b.width(), 4);
        let o = Bits::ones(65);
        assert_eq!(o.words()[0], u64::MAX);
        assert_eq!(o.words()[1], 1);
        assert_eq!(o.count_ones(), 65);
    }

    #[test]
    fn from_u128_roundtrip() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let b = Bits::from_u128(128, v);
        assert_eq!(b.words()[0], 0x1122_3344_5566_7788);
        assert_eq!(b.words()[1], 0x1234_5678_9abc_def0);
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(
            Bits::from_hex(16, "0xBEEF").unwrap(),
            Bits::from_u64(16, 0xbeef)
        );
        assert_eq!(
            Bits::from_hex(12, "a_b_c").unwrap(),
            Bits::from_u64(12, 0xabc)
        );
        assert!(Bits::from_hex(8, "100").is_err());
        assert!(Bits::from_hex(8, "zz").is_err());
        let wide = Bits::from_hex(130, "3ffffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(wide, Bits::ones(130));
    }

    #[test]
    fn hex_parsing_rejects_invalid_widths() {
        for width in [0, MAX_WIDTH + 1, u32::MAX] {
            let err = Bits::from_hex(width, "0").unwrap_err();
            assert!(err.contains("invalid width"), "{width}: {err}");
        }
        assert_eq!(Bits::from_hex(MAX_WIDTH, "1").unwrap().width(), MAX_WIDTH);
    }

    #[test]
    fn add_sub_wraparound() {
        let a = Bits::from_u64(8, 0xff);
        let one = Bits::from_u64(8, 1);
        assert_eq!(a.add(&one), Bits::zero(8));
        assert_eq!(Bits::zero(8).sub(&one), Bits::from_u64(8, 0xff));
        // Carry across word boundary.
        let big = Bits::ones(64).zext(65);
        assert_eq!(big.add(&Bits::from_u64(65, 1)).words(), &[0, 1]);
    }

    #[test]
    fn mul_truncates() {
        let a = Bits::from_u64(8, 0x10);
        assert_eq!(a.mul(&a), Bits::zero(8));
        let b = Bits::from_u64(16, 0x10);
        assert_eq!(b.mul(&b), Bits::from_u64(16, 0x100));
        // 128-bit multiply.
        let x = Bits::from_u128(128, u64::MAX as u128);
        let y = x.mul(&x);
        assert_eq!(
            y,
            Bits::from_u128(128, (u64::MAX as u128) * (u64::MAX as u128))
        );
    }

    #[test]
    fn shifts() {
        let a = Bits::from_u64(8, 0b1001_0110);
        assert_eq!(a.shl(2), Bits::from_u64(8, 0b0101_1000));
        assert_eq!(a.lshr(2), Bits::from_u64(8, 0b0010_0101));
        assert_eq!(a.ashr(2), Bits::from_u64(8, 0b1110_0101));
        assert_eq!(a.shl(8), Bits::zero(8));
        assert_eq!(a.ashr(100), Bits::ones(8));
        let w = Bits::from_u128(100, 1).shl(99);
        assert!(w.bit(99));
        assert_eq!(w.lshr(99), Bits::from_u64(100, 1).zext(100));
    }

    #[test]
    fn comparisons() {
        let a = Bits::from_u64(8, 0x80); // -128 signed
        let b = Bits::from_u64(8, 0x01);
        assert!(b.lt_u(&a));
        assert!(a.lt_s(&b));
        assert!(!a.lt_u(&b));
        let x = Bits::from_u128(128, 1 << 100);
        let y = Bits::from_u128(128, 1);
        assert!(y.lt_u(&x));
    }

    #[test]
    fn reductions() {
        assert!(Bits::ones(33).red_and());
        assert!(!Bits::from_u64(33, 1).red_and());
        assert!(Bits::from_u64(33, 2).red_or());
        assert!(!Bits::zero(33).red_or());
        assert!(Bits::from_u64(8, 0b111).red_xor());
        assert!(!Bits::from_u64(8, 0b11).red_xor());
    }

    #[test]
    fn slice_concat() {
        let v = Bits::from_u64(16, 0xabcd);
        assert_eq!(v.slice(15, 8), Bits::from_u64(8, 0xab));
        assert_eq!(v.slice(7, 0), Bits::from_u64(8, 0xcd));
        assert_eq!(v.slice(11, 4), Bits::from_u64(8, 0xbc));
        assert_eq!(v.slice(15, 8).concat(&v.slice(7, 0)), v);
        // Straddling a word boundary.
        let w = Bits::from_u128(128, 0xdead_beef << 60);
        assert_eq!(w.slice(91, 60), Bits::from_u64(32, 0xdead_beef));
    }

    #[test]
    fn extension() {
        let v = Bits::from_u64(4, 0b1010);
        assert_eq!(v.zext(8), Bits::from_u64(8, 0b0000_1010));
        assert_eq!(v.sext(8), Bits::from_u64(8, 0b1111_1010));
        assert_eq!(Bits::from_u64(4, 0b0101).sext(8), Bits::from_u64(8, 0b0101));
        assert_eq!(v.sext(2), Bits::from_u64(2, 0b10));
        let neg = Bits::ones(64);
        assert_eq!(neg.sext(128), Bits::ones(128));
    }

    #[test]
    fn neg_not() {
        let v = Bits::from_u64(8, 1);
        assert_eq!(v.neg(), Bits::from_u64(8, 0xff));
        assert_eq!(v.not(), Bits::from_u64(8, 0xfe));
        assert_eq!(Bits::zero(8).neg(), Bits::zero(8));
    }

    #[test]
    fn formatting() {
        let v = Bits::from_u64(16, 0xabc);
        assert_eq!(format!("{v:x}"), "abc");
        assert_eq!(format!("{v:?}"), "16'habc");
        assert_eq!(format!("{:b}", Bits::from_u64(4, 0b1010)), "1010");
        let w = Bits::from_u128(96, 0x1_0000_0000_0000_0000u128);
        assert_eq!(format!("{w:x}"), "10000000000000000");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let _ = Bits::zero(4).add(&Bits::zero(5));
    }

    #[test]
    #[should_panic(expected = "invalid width")]
    fn zero_width_panics() {
        let _ = Bits::zero(0);
    }
}
