//! AND-tree balancing (ABC's `balance` analog).
//!
//! Maximal single-fanout AND trees are collapsed into supergates and
//! rebuilt as minimum-depth trees over their leaves, combining the
//! two lowest-level operands first (Huffman order).

use crate::rewrite::{
    substitute_simplifying, substitution_is_acyclic, InplaceStats, MAX_WINDOW_APPENDS,
};
use aig::analysis::fanout_counts;
use aig::cut::CutDb;
use aig::incremental::Transaction;
use aig::{Aig, Lit, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a supergate's leaves are recombined into a tree.
enum TreeMode {
    /// Huffman order: minimum depth (ABC `balance`).
    Balanced,
    /// Seeded random binary trees: structural diversification.
    Random(SmallRng),
}

/// Rebuilds `aig` with balanced AND trees, reducing logic depth while
/// preserving function.
///
/// # Examples
///
/// ```
/// use aig::{Aig, analysis::levels};
/// use transform::balance;
///
/// // A linear chain x0 & x1 & ... & x7 has depth 7.
/// let mut g = Aig::new();
/// let mut acc = g.add_input();
/// for _ in 0..7 {
///     let x = g.add_input();
///     acc = g.and(acc, x);
/// }
/// g.add_output(acc, None::<&str>);
/// assert_eq!(levels(&g).max_level, 7);
///
/// let b = balance(&g);
/// assert_eq!(levels(&b).max_level, 3); // ceil(log2(8))
/// ```
pub fn balance(aig: &Aig) -> Aig {
    rebuild_trees(aig, TreeMode::Balanced, false)
}

/// Depth-priority balancing with logic duplication: supergate
/// collection expands through *shared* AND nodes as well, flattening
/// larger trees at the cost of duplicated logic (ABC `balance -d`
/// analog). Reduces depth further than [`balance`] but may grow the
/// node count — the area-for-delay trade-off move of the SA flows.
pub fn balance_dup(aig: &Aig) -> Aig {
    rebuild_trees(aig, TreeMode::Balanced, true)
}

/// Rebuilds `aig` with *randomly shaped* AND trees, preserving
/// function while diversifying structure (depth, sharing, fanout).
///
/// This is the structural perturbation used when generating the
/// paper's "40,000 unique AIGs per design" (§III-C): optimizing
/// transforms alone converge to a fixpoint, so random re-association
/// provides the variety the training corpus needs. Different seeds
/// give different shapes.
///
/// # Examples
///
/// ```
/// use aig::{Aig, sim::equiv_exhaustive};
/// use transform::reshape;
///
/// let mut g = Aig::new();
/// let lits: Vec<aig::Lit> = (0..8).map(|_| g.add_input()).collect();
/// let f = g.and_many(&lits);
/// g.add_output(f, None::<&str>);
/// let r = reshape(&g, 1234);
/// assert!(equiv_exhaustive(&g, &r)?);
/// # Ok::<(), aig::AigError>(())
/// ```
pub fn reshape(aig: &Aig, seed: u64) -> Aig {
    rebuild_trees(aig, TreeMode::Random(SmallRng::seed_from_u64(seed)), false)
}

/// Supergate size cap for the windowed in-place move — smaller than
/// the whole-graph pass's 64 so one move's fresh-cone spend stays
/// well inside [`MAX_WINDOW_APPENDS`].
const MAX_SUPERGATE_LEAVES: usize = 16;

/// In-place windowed balancing: the SA-move flavor of [`balance`],
/// executed through a journaled [`Transaction`] instead of
/// clone-and-rebuild.
///
/// Walks at most `max_nodes` live AND nodes starting at `start`
/// (wrapping). Each node's maximal single-user supergate is collapsed
/// and, when the minimum-depth (Huffman) recombination strictly
/// reduces the node's level, rebuilt as a fresh cone above the
/// high-water mark and spliced in by substitution. Trees that
/// simplify outright (contradiction, duplicate or constant leaves)
/// substitute without appending. Candidates that would close a
/// combinational cycle are rejected visibly via
/// [`InplaceStats::skipped_nontopo`]; fresh-node spend is capped at
/// [`MAX_WINDOW_APPENDS`] per pass.
///
/// The tree shape is decided by a *dry* Huffman pass keyed on
/// `(level, slot index)` — fresh literals are unknown until
/// instantiation, so slot order stands in for the whole-graph pass's
/// raw-literal tiebreak; the recorded combine sequence is then
/// replayed through [`Transaction::and`]. Estimated levels upper
/// bound the instantiated ones (strashing only simplifies), so the
/// strict acceptance test never admits a depth regression.
///
/// The cut database is kept in step (append sync before each splice,
/// dirty-region invalidation after), and readers a substitution
/// leaves degenerate are simplified in the same move.
///
/// # Panics
///
/// Panics (debug) if `cuts` is out of sync with the transaction's
/// graph.
pub fn balance_inplace_window(
    txn: &mut Transaction<'_>,
    cuts: &mut CutDb,
    start: NodeId,
    max_nodes: usize,
) -> InplaceStats {
    debug_assert_eq!(
        cuts.num_nodes(),
        txn.aig().num_nodes(),
        "cut database out of sync with the transaction's graph"
    );
    let mut stats = InplaceStats::default();
    let n = txn.aig().num_nodes() as NodeId;
    if n <= 1 {
        return stats;
    }
    let start = start.clamp(1, n - 1);
    let mut examined = 0usize;
    let mut leaves: Vec<Lit> = Vec::new();
    let mut stack: Vec<Lit> = Vec::new();
    for id in (start..n).chain(1..start) {
        if examined >= max_nodes {
            break;
        }
        if !txn.aig().is_and(id) || txn.analysis().fanout(id) == 0 {
            continue;
        }
        examined += 1;
        let node_level = txn.analysis().level(id);
        // Collect the supergate: expand non-complemented AND fanins
        // whose only user is this tree.
        leaves.clear();
        stack.clear();
        let [f0, f1] = txn.aig().fanins(id);
        stack.push(f0);
        stack.push(f1);
        while let Some(l) = stack.pop() {
            let expandable = !l.is_complement()
                && txn.aig().is_and(l.var())
                && txn.analysis().fanout(l.var()) == 1;
            if expandable && leaves.len() + stack.len() < MAX_SUPERGATE_LEAVES {
                let [g0, g1] = txn.aig().fanins(l.var());
                stack.push(g0);
                stack.push(g1);
            } else {
                leaves.push(l);
            }
        }
        leaves.sort_by_key(|l| l.raw());
        leaves.dedup();
        let contradictory = leaves
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1]);
        let simplified = if contradictory || leaves.contains(&Lit::FALSE) {
            Some(Lit::FALSE)
        } else {
            leaves.retain(|&l| l != Lit::TRUE);
            match leaves.len() {
                0 => Some(Lit::TRUE),
                1 => Some(leaves[0]),
                _ => None,
            }
        };
        if let Some(with) = simplified {
            // The tree folds away without any fresh nodes.
            if with.var() == id {
                continue;
            }
            if !substitution_is_acyclic(txn.aig(), id, with) {
                stats.skipped_nontopo += 1;
                continue;
            }
            stats.substitutions += substitute_simplifying(txn, cuts, id, with);
            continue;
        }
        // Dry Huffman: combine the two shallowest first. Keys are
        // (level, slot index) — fresh literals are unknown until
        // instantiation — and the combine sequence is recorded as
        // slot-index pairs for exact replay below.
        let mut slot_level: Vec<u32> = leaves
            .iter()
            .map(|l| txn.analysis().level(l.var()))
            .collect();
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = slot_level
            .iter()
            .enumerate()
            .map(|(i, &lv)| Reverse((lv, i as u32)))
            .collect();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(leaves.len() - 1);
        while heap.len() > 1 {
            let Reverse((la, sa)) = heap.pop().expect("len > 1");
            let Reverse((lb, sb)) = heap.pop().expect("len > 1");
            pairs.push((sa, sb));
            let slot = slot_level.len() as u32;
            slot_level.push(1 + la.max(lb));
            heap.push(Reverse((slot_level[slot as usize], slot)));
        }
        // Upper bound on the instantiated root's level: strash hits
        // match the structural level exactly and trivial-rule hits
        // only lower it.
        let est_root = *slot_level.last().expect("nonempty");
        if est_root >= node_level {
            continue;
        }
        let sp = txn.savepoint();
        let before = txn.aig().num_nodes();
        let mut vals: Vec<Lit> = leaves.clone();
        for &(sa, sb) in &pairs {
            let (la, lb) = (vals[sa as usize], vals[sb as usize]);
            vals.push(txn.and(la, lb));
        }
        let root = *vals.last().expect("nonempty");
        let fresh = txn.aig().num_nodes() - before;
        if root.var() == id || stats.appended_nodes + fresh > MAX_WINDOW_APPENDS {
            txn.rollback_to(&sp);
        } else if !substitution_is_acyclic(txn.aig(), id, root) {
            txn.rollback_to(&sp);
            stats.skipped_nontopo += 1;
        } else {
            if fresh > 0 {
                cuts.sync_appends(txn.aig());
            }
            stats.substitutions += substitute_simplifying(txn, cuts, id, root);
            stats.appended_nodes += fresh;
        }
    }
    stats
}

fn rebuild_trees(aig: &Aig, mode: TreeMode, expand_shared: bool) -> Aig {
    let old = aig.sweep();
    let fanout = fanout_counts(&old);
    let mut st = State {
        old: &old,
        fanout: &fanout,
        new: Aig::new(),
        level: vec![0u32; 1],
        memo: vec![None; old.num_nodes()],
        input_map: vec![Lit::INVALID; old.num_nodes()],
        mode,
        expand_shared,
    };
    st.new.set_name(old.name());
    for (idx, &pi) in old.inputs().iter().enumerate() {
        let l = st
            .new
            .add_named_input(old.input_name(idx).map(str::to_owned));
        st.input_map[pi as usize] = l;
        st.level.push(0);
    }
    let outs: Vec<(Lit, Option<String>)> = old
        .outputs()
        .iter()
        .map(|o| (o.lit, o.name.clone()))
        .collect();
    for (lit, name) in outs {
        let l = st.map_lit(lit);
        st.new.add_output(l, name);
    }
    st.new
}

struct State<'a> {
    old: &'a Aig,
    fanout: &'a [u32],
    new: Aig,
    /// Level per node of the *new* graph.
    level: Vec<u32>,
    memo: Vec<Option<Lit>>,
    input_map: Vec<Lit>,
    mode: TreeMode,
    expand_shared: bool,
}

impl State<'_> {
    fn map_lit(&mut self, l: Lit) -> Lit {
        let base = match self.old.node_kind(l.var()) {
            aig::NodeKind::Const => Lit::FALSE,
            aig::NodeKind::Input => self.input_map[l.var() as usize],
            aig::NodeKind::And => self.bal(l.var()),
        };
        base.complement_if(l.is_complement())
    }

    fn lit_level(&self, l: Lit) -> u32 {
        self.level[l.var() as usize]
    }

    /// AND in the new graph with level bookkeeping.
    fn and_tracked(&mut self, a: Lit, b: Lit) -> Lit {
        let before = self.new.num_nodes();
        let r = self.new.and(a, b);
        if self.new.num_nodes() > before {
            self.level
                .push(1 + self.lit_level(a).max(self.lit_level(b)));
        }
        r
    }

    fn bal(&mut self, node: NodeId) -> Lit {
        if let Some(l) = self.memo[node as usize] {
            return l;
        }
        // Collect supergate leaves: expand non-complemented AND fanins
        // that have a single fanout (their only user is this tree).
        let mut leaves: Vec<Lit> = Vec::new();
        let [f0, f1] = self.old.fanins(node);
        let mut stack = vec![f0, f1];
        while let Some(l) = stack.pop() {
            let expandable = !l.is_complement()
                && self.old.is_and(l.var())
                && (self.expand_shared || self.fanout[l.var() as usize] == 1);
            if expandable && leaves.len() + stack.len() < 64 {
                let [g0, g1] = self.old.fanins(l.var());
                stack.push(g0);
                stack.push(g1);
            } else {
                leaves.push(l);
            }
        }
        // Map leaves into the new graph (recursing on shared subtrees)
        // and simplify duplicates / complementary pairs.
        let mut mapped: Vec<Lit> = leaves.iter().map(|&l| self.map_lit(l)).collect();
        mapped.sort_by_key(|l| l.raw());
        mapped.dedup();
        let contradictory = mapped
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1]);
        let result = if contradictory || mapped.contains(&Lit::FALSE) {
            Lit::FALSE
        } else {
            mapped.retain(|&l| l != Lit::TRUE);
            match mapped.len() {
                0 => Lit::TRUE,
                _ if matches!(self.mode, TreeMode::Balanced) => {
                    {
                        // Huffman combine: always AND the two shallowest.
                        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = mapped
                            .iter()
                            .map(|l| Reverse((self.lit_level(*l), l.raw())))
                            .collect();
                        while heap.len() > 1 {
                            let Reverse((_, ra)) = heap.pop().expect("len > 1");
                            let Reverse((_, rb)) = heap.pop().expect("len > 1");
                            let r = self.and_tracked(Lit::from_raw(ra), Lit::from_raw(rb));
                            heap.push(Reverse((self.lit_level(r), r.raw())));
                        }
                        let Reverse((_, raw)) = heap.pop().expect("nonempty");
                        Lit::from_raw(raw)
                    }
                }
                _ => {
                    // Random binary tree: repeatedly AND two random
                    // elements.
                    {
                        let mut pool = mapped;
                        while pool.len() > 1 {
                            let (i, j) = {
                                let TreeMode::Random(rng) = &mut self.mode else {
                                    unreachable!("mode checked above");
                                };
                                let i = rng.gen_range(0..pool.len());
                                let mut j = rng.gen_range(0..pool.len() - 1);
                                if j >= i {
                                    j += 1;
                                }
                                (i.min(j), i.max(j))
                            };
                            let b = pool.swap_remove(j);
                            let a = pool.swap_remove(i);
                            let r = self.and_tracked(a, b);
                            pool.push(r);
                        }
                        pool[0]
                    }
                }
            }
        };
        self.memo[node as usize] = Some(result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::analysis::levels;
    use aig::sim::equiv_exhaustive;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_aig(seed: u64, num_inputs: usize, num_nodes: usize) -> Aig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..num_inputs).map(|_| g.add_input()).collect();
        for _ in 0..num_nodes {
            let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            lits.push(g.and(a, b));
        }
        for _ in 0..4 {
            let l = lits[rng.gen_range(0..lits.len())];
            g.add_output(l.complement_if(rng.gen()), None::<&str>);
        }
        g
    }

    #[test]
    fn preserves_function_on_random_graphs() {
        for seed in 0..10 {
            let g = random_aig(seed, 7, 60);
            let b = balance(&g);
            assert!(
                equiv_exhaustive(&g, &b).expect("small"),
                "seed {seed} not equivalent"
            );
        }
    }

    #[test]
    fn does_not_blow_up_size() {
        for seed in 0..6 {
            let g = random_aig(seed + 50, 8, 100);
            let b = balance(&g);
            assert!(
                b.num_live_ands() <= g.num_live_ands() + g.num_live_ands() / 4,
                "seed {seed}: {} -> {}",
                g.num_live_ands(),
                b.num_live_ands()
            );
        }
    }

    #[test]
    fn shared_subtrees_stay_shared() {
        let mut g = Aig::new();
        let lits: Vec<Lit> = (0..4).map(|_| g.add_input()).collect();
        let shared = g.and(lits[0], lits[1]);
        let f0 = g.and(shared, lits[2]);
        let f1 = g.and(shared, lits[3]);
        g.add_output(f0, None::<&str>);
        g.add_output(f1, None::<&str>);
        let b = balance(&g);
        assert!(equiv_exhaustive(&g, &b).expect("small"));
        assert!(b.num_ands() <= 3);
    }

    #[test]
    fn handles_complement_pairs_in_tree() {
        // (a & !a) & b must fold to constant false.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        // Force a chain that balance collapses: (a & b) & !a
        let ab = g.and(a, b);
        let f = g.and(ab, !a);
        g.add_output(f, None::<&str>);
        let bal = balance(&g);
        assert!(equiv_exhaustive(&g, &bal).expect("small"));
        assert_eq!(bal.num_ands(), 0, "should fold to constant");
    }

    #[test]
    fn reduces_mixed_chain_depth() {
        // OR chain (complemented edges) also balances because each OR
        // is an AND of complemented inputs under a complement.
        let mut g = Aig::new();
        let mut acc = g.add_input();
        for _ in 0..15 {
            let x = g.add_input();
            acc = g.or(acc, x);
        }
        g.add_output(acc, None::<&str>);
        let before = levels(&g).max_level;
        let b = balance(&g);
        let after = levels(&b).max_level;
        assert!(equiv_exhaustive(&g, &b).expect("small"));
        assert!(after < before, "depth {before} -> {after}");
        assert_eq!(after, 4); // ceil(log2(16))
    }

    /// The in-place windowed move preserves function for any window
    /// and keeps the analysis and cut database exact.
    #[test]
    fn inplace_window_preserves_function() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let mut substituted_any = false;
        for seed in 0..8u64 {
            let g0 = random_aig(seed + 900, 7, 80);
            let n = g0.num_nodes() as NodeId;
            for start in [1u32, n / 2, n - 2] {
                let mut g = g0.clone();
                let mut inc = IncrementalAnalysis::new(&g);
                let mut db = aig::cut::CutDb::new(4, 8);
                db.build(&g);
                let mut txn = Transaction::begin(&mut g, &mut inc);
                let stats = balance_inplace_window(&mut txn, &mut db, start, 24);
                txn.commit();
                assert!(stats.appended_nodes <= MAX_WINDOW_APPENDS);
                assert!(
                    equiv_exhaustive(&g0, &g).expect("small"),
                    "seed {seed} start {start}: function broken"
                );
                db.assert_matches_fresh(&g);
                inc.assert_matches_oracle(&g);
                substituted_any |= stats.substitutions > 0;
            }
        }
        assert!(substituted_any, "balance move never fired");
    }

    /// The in-place move finds the same depth win as whole-graph
    /// balancing on a linear chain.
    #[test]
    fn inplace_window_reduces_chain_depth() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let mut g = Aig::new();
        let mut acc = g.add_input();
        for _ in 0..7 {
            let x = g.add_input();
            acc = g.and(acc, x);
        }
        g.add_output(acc, None::<&str>);
        let g0 = g.clone();
        assert_eq!(levels(&g).max_level, 7);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = aig::cut::CutDb::new(4, 8);
        db.build(&g);
        let mut txn = Transaction::begin(&mut g, &mut inc);
        let stats = balance_inplace_window(&mut txn, &mut db, 1, usize::MAX);
        txn.commit();
        assert!(stats.substitutions >= 1);
        assert!(stats.appended_nodes >= 1, "chain rebuild needs fresh nodes");
        assert!(equiv_exhaustive(&g0, &g).expect("small"));
        assert_eq!(inc.max_level(), 3, "ceil(log2(8))");
    }

    #[test]
    fn idempotent_on_balanced_tree() {
        let mut g = Aig::new();
        let lits: Vec<Lit> = (0..8).map(|_| g.add_input()).collect();
        let f = g.and_many(&lits);
        g.add_output(f, None::<&str>);
        let b1 = balance(&g);
        let b2 = balance(&b1);
        assert_eq!(b1.num_ands(), b2.num_ands());
        assert_eq!(levels(&b1).max_level, levels(&b2).max_level);
    }
}
