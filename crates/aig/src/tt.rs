//! Truth-table arithmetic for small Boolean functions.
//!
//! [`Tt`] stores a function of up to 16 variables as a bit vector of
//! `2^n` minterms. It backs cut functions in the technology mapper,
//! resynthesis in the rewriting engine ([`isop`]), and NPN-canonical
//! Boolean matching ([`npn4_canon`]).

use std::fmt;

/// A truth table over `num_vars()` variables (at most 16).
///
/// Bit `m` holds `f(x)` for the minterm where variable `i` takes the
/// value of bit `i` of `m`. Unused high bits of the last word are kept
/// at zero as an invariant.
///
/// # Examples
///
/// ```
/// use aig::tt::Tt;
///
/// let a = Tt::var(2, 0);
/// let b = Tt::var(2, 1);
/// let f = a.and(&b);
/// assert_eq!(f.count_ones(), 1);
/// assert!(f.get_bit(0b11));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tt {
    nv: usize,
    w: Vec<u64>,
}

/// Maximum number of variables supported by [`Tt`].
pub const MAX_VARS: usize = 16;

fn words_for(nv: usize) -> usize {
    if nv >= 6 {
        1 << (nv - 6)
    } else {
        1
    }
}

fn last_mask(nv: usize) -> u64 {
    if nv >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << nv)) - 1
    }
}

impl Tt {
    /// The constant-false function of `nv` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nv > 16`.
    pub fn zero(nv: usize) -> Self {
        assert!(nv <= MAX_VARS, "truth table limited to {MAX_VARS} vars");
        Tt {
            nv,
            w: vec![0; words_for(nv)],
        }
    }

    /// The constant-true function of `nv` variables.
    pub fn ones(nv: usize) -> Self {
        let mut t = Tt::zero(nv);
        for w in &mut t.w {
            *w = u64::MAX;
        }
        t.mask();
        t
    }

    /// The projection function `f(x) = x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nv` or `nv > 16`.
    pub fn var(nv: usize, i: usize) -> Self {
        assert!(i < nv, "variable {i} out of range for {nv} vars");
        let mut t = Tt::zero(nv);
        if i >= 6 {
            let stride = 1usize << (i - 6);
            let mut idx = 0;
            while idx < t.w.len() {
                for j in 0..stride {
                    t.w[idx + stride + j] = u64::MAX;
                }
                idx += 2 * stride;
            }
        } else {
            const PATTERNS: [u64; 6] = [
                0xAAAA_AAAA_AAAA_AAAA,
                0xCCCC_CCCC_CCCC_CCCC,
                0xF0F0_F0F0_F0F0_F0F0,
                0xFF00_FF00_FF00_FF00,
                0xFFFF_0000_FFFF_0000,
                0xFFFF_FFFF_0000_0000,
            ];
            for w in &mut t.w {
                *w = PATTERNS[i];
            }
        }
        t.mask();
        t
    }

    /// Builds a table of `nv <= 6` variables from the low `2^nv` bits
    /// of `bits`.
    pub fn from_u64(nv: usize, bits: u64) -> Self {
        assert!(nv <= 6);
        let mut t = Tt::zero(nv);
        t.w[0] = bits;
        t.mask();
        t
    }

    /// The low word of the table; exact encoding for `nv <= 6`.
    pub fn as_u64(&self) -> u64 {
        self.w[0]
    }

    /// Raw words of the table.
    pub fn words(&self) -> &[u64] {
        &self.w
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.nv
    }

    /// Number of minterms (bits) in the table.
    pub fn num_bits(&self) -> usize {
        1 << self.nv
    }

    fn mask(&mut self) {
        let m = last_mask(self.nv);
        if let Some(last) = self.w.last_mut() {
            *last &= m;
        }
    }

    /// Value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^nv`.
    #[inline]
    pub fn get_bit(&self, m: usize) -> bool {
        assert!(m < self.num_bits());
        self.w[m >> 6] >> (m & 63) & 1 == 1
    }

    /// Sets the value of the function on minterm `m`.
    #[inline]
    pub fn set_bit(&mut self, m: usize, v: bool) {
        assert!(m < self.num_bits());
        if v {
            self.w[m >> 6] |= 1 << (m & 63);
        } else {
            self.w[m >> 6] &= !(1 << (m & 63));
        }
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> u32 {
        self.w.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.w.iter().all(|&w| w == 0)
    }

    /// Whether the function is constant true.
    pub fn is_ones(&self) -> bool {
        let m = last_mask(self.nv);
        let n = self.w.len();
        self.w[..n - 1].iter().all(|&w| w == u64::MAX) && self.w[n - 1] == m
    }

    fn zip(&self, other: &Tt, f: impl Fn(u64, u64) -> u64) -> Tt {
        assert_eq!(self.nv, other.nv, "truth tables must have equal arity");
        let mut t = Tt {
            nv: self.nv,
            w: self
                .w
                .iter()
                .zip(&other.w)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        };
        t.mask();
        t
    }

    /// Bitwise AND of two functions of equal arity.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn and(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR of two functions of equal arity.
    pub fn or(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR of two functions of equal arity.
    pub fn xor(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a ^ b)
    }

    /// Complement of the function.
    pub fn not(&self) -> Tt {
        let mut t = Tt {
            nv: self.nv,
            w: self.w.iter().map(|&a| !a).collect(),
        };
        t.mask();
        t
    }

    /// `self & !other`.
    pub fn and_not(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a & !b)
    }

    /// Whether `self` implies `other` (`self & !other == 0`).
    pub fn implies(&self, other: &Tt) -> bool {
        self.w.iter().zip(&other.w).all(|(&a, &b)| a & !b == 0)
    }

    /// Negative cofactor with respect to variable `i` (`x_i = 0`),
    /// duplicated so the result remains a function of `nv` variables.
    pub fn cofactor0(&self, i: usize) -> Tt {
        self.cofactor(i, false)
    }

    /// Positive cofactor with respect to variable `i` (`x_i = 1`).
    pub fn cofactor1(&self, i: usize) -> Tt {
        self.cofactor(i, true)
    }

    fn cofactor(&self, i: usize, positive: bool) -> Tt {
        assert!(i < self.nv);
        let mut t = self.clone();
        if i >= 6 {
            let stride = 1usize << (i - 6);
            let mut idx = 0;
            while idx < t.w.len() {
                for j in 0..stride {
                    let (src, dst) = if positive {
                        (idx + stride + j, idx + j)
                    } else {
                        (idx + j, idx + stride + j)
                    };
                    t.w[dst] = t.w[src];
                }
                idx += 2 * stride;
            }
        } else {
            let shift = 1u32 << i;
            let keep = match i {
                0 => 0x5555_5555_5555_5555u64,
                1 => 0x3333_3333_3333_3333,
                2 => 0x0F0F_0F0F_0F0F_0F0F,
                3 => 0x00FF_00FF_00FF_00FF,
                4 => 0x0000_FFFF_0000_FFFF,
                _ => 0x0000_0000_FFFF_FFFF,
            };
            for w in &mut t.w {
                let sel = if positive {
                    (*w >> shift) & keep
                } else {
                    *w & keep
                };
                *w = sel | (sel << shift);
            }
        }
        t.mask();
        t
    }

    /// Whether the function actually depends on variable `i`.
    pub fn depends_on(&self, i: usize) -> bool {
        self.cofactor0(i) != self.cofactor1(i)
    }

    /// The set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.nv).filter(|&i| self.depends_on(i)).collect()
    }
}

impl fmt::Debug for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tt({}v:", self.nv)?;
        for w in self.w.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        write!(f, ")")
    }
}

/// A product term (cube) over at most 32 variables.
///
/// Bit `i` of `pos` means literal `x_i`, bit `i` of `neg` means
/// `!x_i`; a variable absent from both masks is a don't-care.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cube {
    /// Positive-literal mask.
    pub pos: u32,
    /// Negative-literal mask.
    pub neg: u32,
}

impl Cube {
    /// The universal cube (no literals; constant true).
    pub const TAUTOLOGY: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_lits(self) -> u32 {
        self.pos.count_ones() + self.neg.count_ones()
    }

    /// Evaluates the cube on a minterm.
    pub fn eval(self, minterm: u32) -> bool {
        (minterm & self.pos) == self.pos && (minterm & self.neg) == 0
    }

    /// Truth table of the cube over `nv` variables.
    pub fn to_tt(self, nv: usize) -> Tt {
        let mut t = Tt::ones(nv);
        for i in 0..nv {
            if self.pos >> i & 1 == 1 {
                t = t.and(&Tt::var(nv, i));
            } else if self.neg >> i & 1 == 1 {
                t = t.and(&Tt::var(nv, i).not());
            }
        }
        t
    }
}

/// Computes an irredundant sum-of-products cover of `f` using the
/// Minato–Morreale ISOP algorithm.
///
/// The returned cubes cover exactly `f` (verified by the unit tests
/// for every 4-variable function class we exercise).
///
/// # Examples
///
/// ```
/// use aig::tt::{isop, Tt};
///
/// let f = Tt::var(3, 0).and(&Tt::var(3, 1)).or(&Tt::var(3, 2));
/// let cover = isop(&f);
/// assert!(!cover.is_empty());
/// let mut acc = Tt::zero(3);
/// for c in &cover {
///     acc = acc.or(&c.to_tt(3));
/// }
/// assert_eq!(acc, f);
/// ```
pub fn isop(f: &Tt) -> Vec<Cube> {
    assert!(f.num_vars() <= 32);
    let mut cover = Vec::new();
    isop_rec(f, f, f.num_vars(), &mut cover);
    cover
}

/// Minato-Morreale on the interval [lower, upper]; returns the tt of
/// the generated cover.
fn isop_rec(lower: &Tt, upper: &Tt, nv_active: usize, cover: &mut Vec<Cube>) -> Tt {
    debug_assert!(lower.implies(upper));
    if lower.is_zero() {
        return Tt::zero(lower.num_vars());
    }
    if upper.is_ones() {
        cover.push(Cube::TAUTOLOGY);
        return Tt::ones(lower.num_vars());
    }
    // Pick the top active variable that the interval depends on.
    let mut var = None;
    for i in (0..nv_active).rev() {
        if lower.depends_on(i) || upper.depends_on(i) {
            var = Some(i);
            break;
        }
    }
    let v = match var {
        Some(v) => v,
        None => {
            // Interval is constant over remaining vars; lower != 0,
            // so emit the tautology restricted to chosen literals.
            cover.push(Cube::TAUTOLOGY);
            return Tt::ones(lower.num_vars());
        }
    };
    let l0 = lower.cofactor0(v);
    let l1 = lower.cofactor1(v);
    let u0 = upper.cofactor0(v);
    let u1 = upper.cofactor1(v);

    // Cubes that must contain literal !x_v.
    let start0 = cover.len();
    let c0 = isop_rec(&l0.and_not(&u1), &u0, v, cover);
    for c in &mut cover[start0..] {
        c.neg |= 1 << v;
    }
    // Cubes that must contain literal x_v.
    let start1 = cover.len();
    let c1 = isop_rec(&l1.and_not(&u0), &u1, v, cover);
    for c in &mut cover[start1..] {
        c.pos |= 1 << v;
    }
    // Remainder independent of x_v.
    let lr0 = l0.and_not(&c0);
    let lr1 = l1.and_not(&c1);
    let lr = lr0.or(&lr1);
    let ur = u0.and(&u1);
    let cr = isop_rec(&lr, &ur, v, cover);

    let xv = Tt::var(lower.num_vars(), v);
    let part0 = c0.and(&xv.not());
    let part1 = c1.and(&xv);
    part0.or(&part1).or(&cr)
}

/// An NPN transform: a permutation of four inputs, an input-complement
/// mask, and an output complement.
///
/// [`apply_npn4`] defines the semantics: the transformed function `g`
/// satisfies `g(x) = f(y) ^ out`, where `y[perm[j]] = x[j] ^ (compl >> j & 1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Npn4 {
    /// `perm[j]` is the original input driven by new input `j`.
    pub perm: [u8; 4],
    /// Bit `j` complements new input `j`.
    pub input_compl: u8,
    /// Whether the output is complemented.
    pub output_compl: bool,
}

impl Npn4 {
    /// The identity transform.
    pub const IDENTITY: Npn4 = Npn4 {
        perm: [0, 1, 2, 3],
        input_compl: 0,
        output_compl: false,
    };
}

/// All 24 permutations of `[0, 1, 2, 3]`.
pub const PERM4: [[u8; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

/// Applies an NPN transform to a 4-variable truth table.
///
/// Returns `g` with `g(x) = f(y) ^ out`, `y[perm[j]] = x[j] ^ c_j`.
pub fn apply_npn4(f: u16, t: Npn4) -> u16 {
    let mut g = 0u16;
    for m in 0..16u16 {
        let mut y = 0u16;
        for j in 0..4 {
            let xj = (m >> j) & 1;
            let yj = xj ^ u16::from(t.input_compl >> j & 1);
            y |= yj << t.perm[j];
        }
        let bit = (f >> y) & 1;
        let bit = bit ^ u16::from(t.output_compl);
        g |= bit << m;
    }
    g
}

/// Computes the NPN-canonical representative of a 4-variable function
/// and a transform `t` such that `apply_npn4(f, t) == canon`.
///
/// Exhaustive over all 768 transforms; adequate for library
/// preprocessing and cache keys (called once per distinct function).
pub fn npn4_canon(f: u16) -> (u16, Npn4) {
    let mut best = u16::MAX;
    let mut best_t = Npn4::IDENTITY;
    for &perm in &PERM4 {
        for compl in 0..16u8 {
            for out in [false, true] {
                let t = Npn4 {
                    perm,
                    input_compl: compl,
                    output_compl: out,
                };
                let g = apply_npn4(f, t);
                if g < best {
                    best = g;
                    best_t = t;
                }
            }
        }
    }
    (best, best_t)
}

/// A fixed multiplicative hasher for maps keyed by small truth
/// tables, such as `(num_vars, tt)`.
///
/// The resynthesis cache and the mapper's match shortlists look up
/// one such key per cut, where `std`'s SipHash costs more than the
/// rest of the lookup. Each `u8` or `u64` write (other writes go byte
/// by byte) is added and multiplied by an odd constant, and
/// [`Hasher::finish`](std::hash::Hasher::finish) rotates the
/// well-mixed high bits down to where hash tables take their bucket
/// index. It is unseeded, so a map's iteration order is fixed;
/// neither map ever reads it.
#[derive(Clone, Copy, Debug, Default)]
pub struct TtHasher(u64);

impl TtHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl std::hash::Hasher for TtHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`TtHasher`]:
/// `HashMap<K, V, TtBuildHasher>` is a map hashed by it.
pub type TtBuildHasher = std::hash::BuildHasherDefault<TtHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_patterns() {
        let a = Tt::var(4, 0);
        assert_eq!(a.as_u64() & 0xFFFF, 0xAAAA);
        let d = Tt::var(4, 3);
        assert_eq!(d.as_u64() & 0xFFFF, 0xFF00);
    }

    #[test]
    fn large_var_pattern() {
        let t = Tt::var(8, 7);
        assert_eq!(t.words().len(), 4);
        assert_eq!(t.words()[0], 0);
        assert_eq!(t.words()[1], 0);
        assert_eq!(t.words()[2], u64::MAX);
        assert_eq!(t.words()[3], u64::MAX);
    }

    #[test]
    fn small_arity_masking() {
        let a = Tt::var(1, 0);
        assert_eq!(a.as_u64(), 0b10);
        assert!(Tt::ones(1).as_u64() == 0b11);
        assert!(Tt::ones(0).as_u64() == 0b1);
    }

    #[test]
    fn boolean_ops() {
        let a = Tt::var(3, 0);
        let b = Tt::var(3, 1);
        let f = a.and(&b);
        assert_eq!(f.count_ones(), 2);
        assert_eq!(a.or(&b).count_ones(), 6);
        assert_eq!(a.xor(&a), Tt::zero(3));
        assert!(a.and(&a.not()).is_zero());
        assert!(a.or(&a.not()).is_ones());
    }

    #[test]
    fn cofactors() {
        let a = Tt::var(3, 0);
        let b = Tt::var(3, 1);
        let f = a.and(&b); // x0 & x1
        assert_eq!(f.cofactor1(0), b);
        assert!(f.cofactor0(0).is_zero());
        assert!(f.depends_on(0));
        assert!(f.depends_on(1));
        assert!(!f.depends_on(2));
        assert_eq!(f.support(), vec![0, 1]);
    }

    #[test]
    fn cofactor_high_var() {
        let f = Tt::var(8, 7).and(&Tt::var(8, 0));
        assert_eq!(f.cofactor1(7), Tt::var(8, 0));
        assert!(f.cofactor0(7).is_zero());
    }

    fn cover_tt(cover: &[Cube], nv: usize) -> Tt {
        let mut acc = Tt::zero(nv);
        for c in cover {
            acc = acc.or(&c.to_tt(nv));
        }
        acc
    }

    #[test]
    fn isop_exact_small() {
        // Exhaustive over all 256 3-variable functions.
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            let cover = isop(&f);
            assert_eq!(cover_tt(&cover, 3), f, "function {bits:02x}");
        }
    }

    #[test]
    fn isop_exact_sampled_4var() {
        let mut x = 0x2545_F491u64;
        for _ in 0..500 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = Tt::from_u64(4, x & 0xFFFF);
            let cover = isop(&f);
            assert_eq!(cover_tt(&cover, 4), f);
        }
    }

    #[test]
    fn isop_larger_arity() {
        let f = Tt::var(7, 6)
            .and(&Tt::var(7, 0))
            .or(&Tt::var(7, 3).xor(&Tt::var(7, 5)));
        let cover = isop(&f);
        assert_eq!(cover_tt(&cover, 7), f);
    }

    #[test]
    fn npn_canon_is_invariant() {
        // All functions in the same NPN class canonicalize identically.
        let f: u16 = 0xCA; // some function
        let (canon, _) = npn4_canon(f);
        for &perm in &PERM4[..6] {
            for compl in [0u8, 3, 9] {
                let t = Npn4 {
                    perm,
                    input_compl: compl,
                    output_compl: false,
                };
                let g = apply_npn4(f, t);
                let (canon_g, _) = npn4_canon(g);
                assert_eq!(canon, canon_g);
            }
        }
    }

    #[test]
    fn npn_transform_witness() {
        for f in [0x8000u16, 0x6996, 0xCACA, 0x1234, 0xFEED] {
            let (canon, t) = npn4_canon(f);
            assert_eq!(apply_npn4(f, t), canon);
        }
    }

    #[test]
    fn apply_npn4_identity() {
        for f in [0u16, 0xFFFF, 0xAAAA, 0x1234] {
            assert_eq!(apply_npn4(f, Npn4::IDENTITY), f);
        }
    }

    #[test]
    fn cube_eval_and_tt() {
        let c = Cube {
            pos: 0b01,
            neg: 0b10,
        }; // x0 & !x1
        assert!(c.eval(0b01));
        assert!(!c.eval(0b11));
        assert!(!c.eval(0b00));
        let t = c.to_tt(2);
        assert_eq!(t.count_ones(), 1);
        assert!(t.get_bit(0b01));
        assert_eq!(c.num_lits(), 2);
    }
}
