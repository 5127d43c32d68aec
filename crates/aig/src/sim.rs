//! Bit-parallel simulation and (semi-)formal equivalence checking.
//!
//! Simulation is used three ways in this project: sanity-checking that
//! logic transformations preserve function, validating cut truth
//! tables, and verifying that the technology mapper's gate-level
//! netlist implements the same Boolean function as the source AIG.

use crate::error::AigError;
use crate::graph::Aig;
use crate::lit::{Lit, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bit-parallel simulation values for every node of an [`Aig`].
///
/// Each node holds `words` 64-bit lanes; bit `m` of the row is the
/// node's value under input pattern `m`.
#[derive(Clone, Debug)]
pub struct SimTable {
    words: usize,
    valid_bits: usize,
    data: Vec<u64>,
}

impl SimTable {
    /// Simulates `aig` on `words * 64` uniformly random input patterns.
    pub fn random(aig: &Aig, words: usize, seed: u64) -> SimTable {
        assert!(words > 0, "need at least one simulation word");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = SimTable {
            words,
            valid_bits: words * 64,
            data: vec![0u64; aig.num_nodes() * words],
        };
        for &pi in aig.inputs() {
            let row = t.row_mut(pi);
            for w in row {
                *w = rng.gen();
            }
        }
        t.propagate(aig);
        t
    }

    /// Simulates `aig` exhaustively on all `2^n` input patterns.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::TooManyInputs`] when the AIG has more than
    /// 16 inputs (65536 patterns is the supported exhaustive limit).
    pub fn exhaustive(aig: &Aig) -> Result<SimTable, AigError> {
        let n = aig.num_inputs();
        if n > 16 {
            return Err(AigError::TooManyInputs { inputs: n, max: 16 });
        }
        let bits = 1usize << n;
        let words = bits.div_ceil(64);
        let mut t = SimTable {
            words,
            valid_bits: bits,
            data: vec![0u64; aig.num_nodes() * words],
        };
        let inputs: Vec<NodeId> = aig.inputs().to_vec();
        for (i, &pi) in inputs.iter().enumerate() {
            let row = t.row_mut(pi);
            if i >= 6 {
                let stride = 1usize << (i - 6);
                let mut idx = 0;
                while idx + stride <= row.len() {
                    for j in 0..stride.min(row.len() - idx - stride) {
                        row[idx + stride + j] = u64::MAX;
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
                for w in row {
                    *w = PATTERNS[i];
                }
            }
        }
        t.propagate(aig);
        Ok(t)
    }

    /// Propagates input rows through the AND nodes in topological
    /// order, then clears the pattern bits past `valid_bits`.
    fn propagate(&mut self, aig: &Aig) {
        let words = self.words;
        let (f0s, f1s) = aig.fanin_arrays();
        aig.for_each_and_topo(|id| {
            let (f0, f1) = (f0s[id as usize], f1s[id as usize]);
            for w in 0..words {
                let a = self.lit_word(f0, w);
                let b = self.lit_word(f1, w);
                self.data[id as usize * words + w] = a & b;
            }
        });
        self.mask_tail();
    }

    /// Zeroes the pattern bits past `valid_bits` in every row.
    fn mask_tail(&mut self) {
        let rem = self.valid_bits % 64;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            for node in 0..self.data.len() / self.words {
                self.data[node * self.words + self.words - 1] &= mask;
            }
        }
    }

    fn row_mut(&mut self, id: NodeId) -> &mut [u64] {
        let s = id as usize * self.words;
        &mut self.data[s..s + self.words]
    }

    /// Simulation row of node `id` (plain polarity).
    pub fn node_row(&self, id: NodeId) -> &[u64] {
        let s = id as usize * self.words;
        &self.data[s..s + self.words]
    }

    /// Word `w` of literal `l`'s simulated values (complement applied).
    #[inline]
    pub fn lit_word(&self, l: Lit, w: usize) -> u64 {
        let v = self.data[l.var() as usize * self.words + w];
        if l.is_complement() {
            !v
        } else {
            v
        }
    }

    /// Value of node `id` under input pattern `m`.
    pub fn node_bit(&self, id: NodeId, m: usize) -> bool {
        assert!(m < self.valid_bits);
        self.data[id as usize * self.words + (m >> 6)] >> (m & 63) & 1 == 1
    }

    /// Value of literal `l` under input pattern `m`.
    pub fn lit_bit(&self, l: Lit, m: usize) -> bool {
        self.node_bit(l.var(), m) ^ l.is_complement()
    }

    /// Number of valid pattern bits.
    pub fn num_patterns(&self) -> usize {
        self.valid_bits
    }

    /// Word `w` of literal `l`, with the invalid tail bits of the
    /// last word zeroed (complementation flips them to ones, so the
    /// mask must be re-applied after the complement).
    #[inline]
    fn masked_lit_word(&self, l: Lit, w: usize) -> u64 {
        let v = self.lit_word(l, w);
        let rem = self.valid_bits % 64;
        if rem != 0 && w == self.words - 1 {
            v & ((1u64 << rem) - 1)
        } else {
            v
        }
    }

    /// Whether literal `l` of `self` and literal `ol` of `other` have
    /// identical signatures, compared word-by-word without building
    /// intermediate vectors.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the two tables have different widths.
    pub fn signature_eq(&self, l: Lit, other: &SimTable, ol: Lit) -> bool {
        debug_assert_eq!(self.words, other.words);
        debug_assert_eq!(self.valid_bits, other.valid_bits);
        (0..self.words).all(|w| self.masked_lit_word(l, w) == other.masked_lit_word(ol, w))
    }

    /// Signature (masked words) of literal `l`.
    ///
    /// Allocates the result vector; the equivalence-checking hot path
    /// uses [`SimTable::signature_eq`] instead, which compares in
    /// place.
    pub fn lit_signature(&self, l: Lit) -> Vec<u64> {
        (0..self.words)
            .map(|w| self.masked_lit_word(l, w))
            .collect()
    }
}

/// Exhaustively checks functional equivalence of two AIGs.
///
/// The graphs must have identical input and output counts; outputs are
/// compared positionally.
///
/// # Errors
///
/// * [`AigError::Mismatch`] when I/O counts differ.
/// * [`AigError::TooManyInputs`] when either AIG has more than 16
///   inputs; use [`equiv_random`] in that case.
pub fn equiv_exhaustive(a: &Aig, b: &Aig) -> Result<bool, AigError> {
    check_interfaces(a, b)?;
    let sa = SimTable::exhaustive(a)?;
    let sb = SimTable::exhaustive(b)?;
    Ok(outputs_agree(a, b, &sa, &sb))
}

/// Random-simulation equivalence check: `Ok(false)` proves the AIGs
/// differ; `Ok(true)` means no difference was observed on
/// `words * 64` random patterns (probabilistic evidence only).
///
/// # Errors
///
/// Returns [`AigError::Mismatch`] when I/O counts differ.
pub fn equiv_random(a: &Aig, b: &Aig, words: usize, seed: u64) -> Result<bool, AigError> {
    check_interfaces(a, b)?;
    let sa = SimTable::random(a, words, seed);
    let sb = SimTable::random(b, words, seed);
    Ok(outputs_agree(a, b, &sa, &sb))
}

/// Equivalence check choosing exhaustive when feasible (≤ 16 inputs),
/// falling back to `words * 64` random patterns otherwise.
///
/// # Errors
///
/// Returns [`AigError::Mismatch`] when I/O counts differ.
pub fn equiv_auto(a: &Aig, b: &Aig, words: usize, seed: u64) -> Result<bool, AigError> {
    if a.num_inputs() <= 16 {
        equiv_exhaustive(a, b)
    } else {
        equiv_random(a, b, words, seed)
    }
}

fn check_interfaces(a: &Aig, b: &Aig) -> Result<(), AigError> {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Err(AigError::Mismatch(format!(
            "interface mismatch: {}/{} inputs, {}/{} outputs",
            a.num_inputs(),
            b.num_inputs(),
            a.num_outputs(),
            b.num_outputs()
        )));
    }
    Ok(())
}

fn outputs_agree(a: &Aig, b: &Aig, sa: &SimTable, sb: &SimTable) -> bool {
    a.outputs()
        .iter()
        .zip(b.outputs())
        .all(|(oa, ob)| sa.signature_eq(oa.lit, sb, ob.lit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_pair() -> (Aig, Aig) {
        // Two structurally different XOR implementations.
        let mut g1 = Aig::new();
        let a = g1.add_input();
        let b = g1.add_input();
        let x = g1.xor(a, b);
        g1.add_output(x, None::<&str>);

        let mut g2 = Aig::new();
        let a = g2.add_input();
        let b = g2.add_input();
        // xor = (a|b) & !(a&b)
        let o = g2.or(a, b);
        let n = g2.and(a, b);
        let x = g2.and(o, !n);
        g2.add_output(x, None::<&str>);
        (g1, g2)
    }

    #[test]
    fn exhaustive_equiv_xor() {
        let (g1, g2) = xor_pair();
        assert!(equiv_exhaustive(&g1, &g2).expect("small"));
    }

    #[test]
    fn exhaustive_detects_difference() {
        let (g1, mut g2) = xor_pair();
        // Change g2's output to XNOR.
        let l = g2.outputs()[0].lit;
        g2.set_output(0, !l);
        assert!(!equiv_exhaustive(&g1, &g2).expect("small"));
    }

    #[test]
    fn random_equiv_consistent_with_exhaustive() {
        let (g1, g2) = xor_pair();
        assert!(equiv_random(&g1, &g2, 4, 7).expect("iface ok"));
    }

    #[test]
    fn interface_mismatch_is_error() {
        let (g1, _) = xor_pair();
        let g3 = Aig::with_inputs(3);
        assert!(matches!(
            equiv_exhaustive(&g1, &g3),
            Err(AigError::Mismatch(_))
        ));
    }

    #[test]
    fn too_many_inputs() {
        let mut g = Aig::with_inputs(17);
        let l = Lit::new(1, false);
        g.add_output(l, None::<&str>);
        assert!(matches!(
            SimTable::exhaustive(&g),
            Err(AigError::TooManyInputs { .. })
        ));
    }

    #[test]
    fn exhaustive_pattern_values() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        let t = SimTable::exhaustive(&g).expect("2 inputs");
        assert_eq!(t.num_patterns(), 4);
        // minterm 3 (a=1, b=1) is the only satisfying one
        assert!(t.node_bit(f.var(), 3));
        assert!(!t.node_bit(f.var(), 1));
        assert!(t.lit_bit(!f, 1));
        // signature = single masked word 0b1000
        assert_eq!(t.lit_signature(f), vec![0b1000]);
    }

    #[test]
    fn random_reproducible() {
        let (g1, _) = xor_pair();
        let t1 = SimTable::random(&g1, 2, 42);
        let t2 = SimTable::random(&g1, 2, 42);
        assert_eq!(t1.node_row(1), t2.node_row(1));
    }

    fn random_graph(seed: u64, num_inputs: usize, num_nodes: usize) -> Aig {
        crate::test_support::random_aig(seed, num_inputs, num_nodes, 5)
    }

    /// `signature_eq` must agree with comparing `lit_signature`
    /// vectors for every pair of literals, including complements.
    #[test]
    fn signature_eq_matches_vec_comparison() {
        let g = random_graph(3, 7, 120);
        let t = SimTable::random(&g, 3, 9);
        let lits: Vec<Lit> = g
            .node_ids()
            .flat_map(|id| [Lit::new(id, false), Lit::new(id, true)])
            .collect();
        for (i, &a) in lits.iter().enumerate().step_by(7) {
            for &b in lits.iter().skip(i % 3).step_by(11) {
                assert_eq!(
                    t.signature_eq(a, &t, b),
                    t.lit_signature(a) == t.lit_signature(b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn const_outputs() {
        let mut g1 = Aig::with_inputs(1);
        g1.add_output(Lit::TRUE, None::<&str>);
        let mut g2 = Aig::with_inputs(1);
        g2.add_output(Lit::FALSE, None::<&str>);
        assert!(!equiv_exhaustive(&g1, &g2).expect("tiny"));
        assert!(equiv_exhaustive(&g1, &g1.clone()).expect("tiny"));
    }
}
