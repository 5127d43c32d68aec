//! Small replacement structures used by rewriting and refactoring.
//!
//! A [`SmallStructure`] is a straight-line AND/INV program over a
//! handful of leaf variables. Rewriting synthesizes one per cut
//! function (via ISOP + algebraic factoring, see [`crate::factor`]),
//! estimates its cost against the AIG under construction with
//! [`SmallStructure::dry_cost`], and instantiates the winner with
//! [`SmallStructure::instantiate`].

use aig::incremental::Transaction;
use aig::{Aig, Lit};

/// Reference to a value inside a [`SmallStructure`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SRef {
    /// Constant true/false.
    Const(bool),
    /// Leaf variable `idx`, complemented if `compl`.
    Leaf {
        /// Variable index.
        idx: u8,
        /// Complement flag.
        compl: bool,
    },
    /// Result of op `idx`, complemented if `compl`.
    Op {
        /// Operation index (into [`SmallStructure::ops`]).
        idx: u8,
        /// Complement flag.
        compl: bool,
    },
}

impl SRef {
    /// The same reference with the complement flag XOR-ed by `c`.
    pub fn complement_if(self, c: bool) -> SRef {
        match self {
            SRef::Const(v) => SRef::Const(v ^ c),
            SRef::Leaf { idx, compl } => SRef::Leaf {
                idx,
                compl: compl ^ c,
            },
            SRef::Op { idx, compl } => SRef::Op {
                idx,
                compl: compl ^ c,
            },
        }
    }
}

impl Default for SRef {
    fn default() -> Self {
        SRef::Const(false)
    }
}

/// A straight-line program of 2-input ANDs over leaf variables.
///
/// Op `i` computes the AND of its two [`SRef`] operands; operands may
/// reference only leaves or earlier ops.
#[derive(Clone, Debug, Default)]
pub struct SmallStructure {
    /// AND operations in dependency order.
    pub ops: Vec<(SRef, SRef)>,
    /// The structure's result.
    pub out: SRef,
}

impl SmallStructure {
    /// Number of AND operations.
    pub fn num_ands(&self) -> usize {
        self.ops.len()
    }

    /// Appends an AND op, returning a reference to its result.
    ///
    /// # Panics
    ///
    /// Panics if the structure already has 255 ops.
    pub fn push_and(&mut self, a: SRef, b: SRef) -> SRef {
        assert!(self.ops.len() < 255, "structure too large");
        self.ops.push((a, b));
        SRef::Op {
            idx: (self.ops.len() - 1) as u8,
            compl: false,
        }
    }

    /// Builds the structure into `g`, binding leaf `i` to `leaves[i]`.
    ///
    /// Returns the literal computing the structure's output. Thanks to
    /// structural hashing this reuses any existing nodes.
    ///
    /// # Panics
    ///
    /// Panics if a leaf index exceeds `leaves.len()`.
    pub fn instantiate(&self, g: &mut Aig, leaves: &[Lit]) -> Lit {
        let mut vals: Vec<Lit> = Vec::with_capacity(self.ops.len());
        for &(a, b) in &self.ops {
            let la = self.resolve(a, leaves, &vals);
            let lb = self.resolve(b, leaves, &vals);
            vals.push(g.and(la, lb));
        }
        self.resolve(self.out, leaves, &vals)
    }

    /// [`SmallStructure::instantiate`] through a [`Transaction`]: every
    /// AND goes through [`Transaction::and`] so fresh nodes are
    /// journaled (and exactly rollbackable).
    ///
    /// # Panics
    ///
    /// Panics if a leaf index exceeds `leaves.len()`.
    pub fn instantiate_txn(&self, txn: &mut Transaction<'_>, leaves: &[Lit]) -> Lit {
        let mut vals: Vec<Lit> = Vec::with_capacity(self.ops.len());
        for &(a, b) in &self.ops {
            let la = self.resolve(a, leaves, &vals);
            let lb = self.resolve(b, leaves, &vals);
            vals.push(txn.and(la, lb));
        }
        self.resolve(self.out, leaves, &vals)
    }

    fn resolve(&self, r: SRef, leaves: &[Lit], vals: &[Lit]) -> Lit {
        match r {
            SRef::Const(v) => {
                if v {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            }
            SRef::Leaf { idx, compl } => leaves[idx as usize].complement_if(compl),
            SRef::Op { idx, compl } => vals[idx as usize].complement_if(compl),
        }
    }

    /// Estimates how many fresh AND nodes [`SmallStructure::instantiate`]
    /// would create in `g` — an upper bound: ops whose operands are
    /// unresolved are pessimistically counted as new nodes.
    pub fn dry_cost(&self, g: &Aig, leaves: &[Lit]) -> usize {
        let mut vals: Vec<Option<Lit>> = Vec::with_capacity(self.ops.len());
        let mut cost = 0usize;
        for &(a, b) in &self.ops {
            let la = self.try_resolve(a, leaves, &vals);
            let lb = self.try_resolve(b, leaves, &vals);
            let v = match (la, lb) {
                (Some(x), Some(y)) => {
                    let found = g.find_and(x, y);
                    if found.is_none() {
                        cost += 1;
                    }
                    found
                }
                _ => {
                    cost += 1;
                    None
                }
            };
            vals.push(v);
        }
        cost
    }

    /// Resolves the structure against `g` **without creating nodes**:
    /// returns the literal computing the structure's output when every
    /// op already exists in `g` (via strashed lookup over the bound
    /// `leaves`), and `None` as soon as any op would require a fresh
    /// node. This is the zero-new-node probe behind the in-place
    /// rewriting move — a `Some` result is a literal functionally
    /// identical to the structure, already present in the graph.
    ///
    /// Allocation-free for structures of up to 32 ops (every 4-input
    /// NPN class factors well below that); the probe is on the SA
    /// loop's per-move hot path.
    pub fn find(&self, g: &Aig, leaves: &[Lit]) -> Option<Lit> {
        let mut buf = [None; 32];
        let mut heap;
        let vals: &mut [Option<Lit>] = if self.ops.len() <= buf.len() {
            &mut buf[..self.ops.len()]
        } else {
            heap = vec![None; self.ops.len()];
            &mut heap
        };
        for (i, &(a, b)) in self.ops.iter().enumerate() {
            let la = self.try_resolve(a, leaves, &vals[..i])?;
            let lb = self.try_resolve(b, leaves, &vals[..i])?;
            vals[i] = Some(g.find_and(la, lb)?);
        }
        self.try_resolve(self.out, leaves, vals)
    }

    fn try_resolve(&self, r: SRef, leaves: &[Lit], vals: &[Option<Lit>]) -> Option<Lit> {
        match r {
            SRef::Const(v) => Some(if v { Lit::TRUE } else { Lit::FALSE }),
            SRef::Leaf { idx, compl } => Some(leaves[idx as usize].complement_if(compl)),
            SRef::Op { idx, compl } => vals[idx as usize].map(|l| l.complement_if(compl)),
        }
    }

    /// Depth (in AND levels) of the structure, assuming all leaves at
    /// level 0. Used as a tie-break favoring shallower replacements.
    pub fn depth(&self) -> u32 {
        let mut lv: Vec<u32> = Vec::with_capacity(self.ops.len());
        for &(a, b) in &self.ops {
            let la = self.ref_level(a, &lv);
            let lb = self.ref_level(b, &lv);
            lv.push(1 + la.max(lb));
        }
        self.ref_level(self.out, &lv)
    }

    fn ref_level(&self, r: SRef, lv: &[u32]) -> u32 {
        match r {
            SRef::Op { idx, .. } => lv[idx as usize],
            _ => 0,
        }
    }

    /// Balanced AND reduction over refs; empty input yields true.
    pub fn and_many(&mut self, refs: &[SRef]) -> SRef {
        self.reduce(refs, SRef::Const(true), false)
    }

    /// Balanced OR reduction over refs; empty input yields false.
    pub fn or_many(&mut self, refs: &[SRef]) -> SRef {
        self.reduce(refs, SRef::Const(false), true)
    }

    fn reduce(&mut self, refs: &[SRef], empty: SRef, is_or: bool) -> SRef {
        match refs.len() {
            0 => empty,
            1 => refs[0],
            _ => {
                let mut layer = refs.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        if pair.len() == 2 {
                            let r = if is_or {
                                // a | b = !(!a & !b)
                                self.push_and(
                                    pair[0].complement_if(true),
                                    pair[1].complement_if(true),
                                )
                                .complement_if(true)
                            } else {
                                self.push_and(pair[0], pair[1])
                            };
                            next.push(r);
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Evaluates the structure as a truth table over `nv` leaf
    /// variables (testing aid; `nv <= 6`).
    pub fn to_tt(&self, nv: usize) -> u64 {
        assert!(nv <= 6);
        let bits = 1usize << nv;
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let leaf_tts: Vec<u64> = (0..nv)
            .map(|i| {
                let mut t = 0u64;
                for m in 0..bits {
                    if m >> i & 1 == 1 {
                        t |= 1 << m;
                    }
                }
                t
            })
            .collect();
        let mut vals: Vec<u64> = Vec::with_capacity(self.ops.len());
        for &(a, b) in &self.ops {
            let ta = self.tt_ref(a, &leaf_tts, &vals, mask);
            let tb = self.tt_ref(b, &leaf_tts, &vals, mask);
            vals.push(ta & tb & mask);
        }
        self.tt_ref(self.out, &leaf_tts, &vals, mask)
    }

    fn tt_ref(&self, r: SRef, leaves: &[u64], vals: &[u64], mask: u64) -> u64 {
        let (base, compl) = match r {
            SRef::Const(v) => (if v { mask } else { 0 }, false),
            SRef::Leaf { idx, compl } => (leaves[idx as usize], compl),
            SRef::Op { idx, compl } => (vals[idx as usize], compl),
        };
        if compl {
            !base & mask
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(i: u8) -> SRef {
        SRef::Leaf {
            idx: i,
            compl: false,
        }
    }

    #[test]
    fn instantiate_matches_tt() {
        // f = (x0 & x1) | x2 built as !(!(x0&x1) & !x2)
        let mut s = SmallStructure::default();
        let ab = s.push_and(leaf(0), leaf(1));
        let or = s.push_and(ab.complement_if(true), leaf(2).complement_if(true));
        s.out = or.complement_if(true);
        assert_eq!(s.num_ands(), 2);
        let tt = s.to_tt(3);
        // Build in an AIG and compare by simulation.
        let mut g = Aig::new();
        let lits: Vec<Lit> = (0..3).map(|_| g.add_input()).collect();
        let f = s.instantiate(&mut g, &lits);
        g.add_output(f, None::<&str>);
        let sim = aig::sim::SimTable::exhaustive(&g).expect("small");
        for m in 0..8 {
            assert_eq!(sim.lit_bit(f, m), tt >> m & 1 == 1, "minterm {m}");
        }
    }

    #[test]
    fn dry_cost_upper_bounds_actual() {
        let mut s = SmallStructure::default();
        let ab = s.push_and(leaf(0), leaf(1));
        let cd = s.push_and(leaf(2), leaf(3));
        s.out = s.push_and(ab, cd);

        let mut g = Aig::new();
        let lits: Vec<Lit> = (0..4).map(|_| g.add_input()).collect();
        // Pre-build x0 & x1 so one op already exists.
        let _existing = g.and(lits[0], lits[1]);
        let before = g.num_ands();
        let est = s.dry_cost(&g, &lits);
        let _f = s.instantiate(&mut g, &lits);
        let actual = g.num_ands() - before;
        assert!(est >= actual, "estimate {est} must bound actual {actual}");
        assert_eq!(actual, 2); // ab reused
    }

    #[test]
    fn dry_cost_exact_when_resolvable() {
        let mut s = SmallStructure::default();
        s.out = s.push_and(leaf(0), leaf(1));
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        assert_eq!(s.dry_cost(&g, &[a, b]), 1);
        let _ = g.and(a, b);
        assert_eq!(s.dry_cost(&g, &[a, b]), 0);
    }

    #[test]
    fn depth_computation() {
        let mut s = SmallStructure::default();
        let ab = s.push_and(leaf(0), leaf(1));
        let abc = s.push_and(ab, leaf(2));
        s.out = abc;
        assert_eq!(s.depth(), 2);
    }

    #[test]
    fn reductions() {
        let mut s = SmallStructure::default();
        let refs: Vec<SRef> = (0..4).map(leaf).collect();
        s.out = s.and_many(&refs);
        assert_eq!(s.to_tt(4) & 0xFFFF, 0x8000);
        assert_eq!(s.depth(), 2);

        let mut s = SmallStructure::default();
        let refs: Vec<SRef> = (0..3).map(leaf).collect();
        s.out = s.or_many(&refs);
        assert_eq!(s.to_tt(3) & 0xFF, 0xFE);
    }

    #[test]
    fn const_refs() {
        let s = SmallStructure {
            out: SRef::Const(true),
            ..SmallStructure::default()
        };
        let mut g = Aig::new();
        assert_eq!(s.instantiate(&mut g, &[]), Lit::TRUE);
        assert_eq!(s.dry_cost(&g, &[]), 0);
    }
}
