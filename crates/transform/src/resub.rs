//! Cone-internal resubstitution (0-resub).
//!
//! For each node `n` and each of its k-feasible cuts `C`, the truth
//! tables of *every* node inside the cone between `C` and `n` are
//! computed over the cut variables. If an interior node `m` computes
//! the same function as `n` (or its complement) over `C`, then `m`
//! and `n` are globally equivalent — both are the same Boolean
//! function of the same cut signals — and `n` can be replaced by
//! (the copy of) `m`, letting `n`'s now-exclusive logic die.
//!
//! This catches reconvergent redundancies that cut rewriting misses
//! because the shared function appears at different depths of the
//! same cone. The replacement is *exact* (truth-table equality over a
//! complete cut), so no SAT or fraiging is needed for soundness.

use crate::rewrite::{substitute_simplifying, substitution_is_acyclic, InplaceStats};
use aig::cut::{enumerate_cuts, expand_tt, CutDb};
use aig::incremental::Transaction;
use aig::{Aig, Lit, NodeId};

/// Applies cone-internal resubstitution with 6-input cuts.
///
/// Function-preserving; never increases the live node count (every
/// replacement redirects a node to an existing equivalent driver).
///
/// # Examples
///
/// ```
/// use aig::{Aig, sim::equiv_exhaustive};
/// use transform::resub;
///
/// // f = (a & b) | (a & b & c) == a & b: the outer OR is redundant.
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let c = g.add_input();
/// let ab = g.and(a, b);
/// let abc = g.and(ab, c);
/// let f = g.or(ab, abc);
/// g.add_output(f, None::<&str>);
///
/// let r = resub(&g);
/// assert!(equiv_exhaustive(&g, &r)?);
/// assert!(r.num_ands() < g.num_live_ands());
/// # Ok::<(), aig::AigError>(())
/// ```
pub fn resub(aig: &Aig) -> Aig {
    let old = aig.sweep();
    let cuts = enumerate_cuts(&old, 6, 5);
    let mut new = Aig::new();
    new.set_name(old.name());
    let mut map: Vec<Lit> = vec![Lit::INVALID; old.num_nodes()];
    map[0] = Lit::FALSE;
    for (idx, &pi) in old.inputs().iter().enumerate() {
        map[pi as usize] = new.add_named_input(old.input_name(idx).map(str::to_owned));
    }
    // Scratch buffers reused across nodes.
    let mut cone: Vec<NodeId> = Vec::new();
    let mut tts: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();

    for id in old.and_ids() {
        let [f0, f1] = old.fanins(id);
        let a = map[f0.var() as usize].complement_if(f0.is_complement());
        let b = map[f1.var() as usize].complement_if(f1.is_complement());
        let mut replacement: Option<Lit> = None;
        'cuts: for cut in cuts.cuts(id) {
            if cut.size() < 2 || (cut.size() == 1 && cut.leaves()[0] == id) {
                continue;
            }
            let nv = cut.size();
            let bits = 1usize << nv;
            let mask = if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            // Collect the cone between the cut and `id` (DFS).
            cone.clear();
            tts.clear();
            for (j, &leaf) in cut.leaves().iter().enumerate() {
                let mut t = 0u64;
                for m in 0..bits {
                    if m >> j & 1 == 1 {
                        t |= 1 << m;
                    }
                }
                tts.insert(leaf, t);
            }
            collect_cone(&old, id, cut.leaves(), &mut cone);
            // Evaluate cone nodes bottom-up (cone is in topo order
            // because ids are topologically sorted).
            cone.sort_unstable();
            let root_tt = cut.masked_tt();
            debug_assert_eq!(
                root_tt,
                expand_tt(root_tt, cut.leaves(), cut.leaves()) & mask
            );
            for &m in &cone {
                let [g0, g1] = old.fanins(m);
                let t0 = tts[&g0.var()];
                let t1 = tts[&g1.var()];
                let t0 = if g0.is_complement() { !t0 & mask } else { t0 };
                let t1 = if g1.is_complement() { !t1 & mask } else { t1 };
                let t = t0 & t1;
                if m != id {
                    if t == root_tt {
                        replacement = Some(Lit::new(m, false));
                        break 'cuts;
                    }
                    if (!t & mask) == root_tt {
                        replacement = Some(Lit::new(m, true));
                        break 'cuts;
                    }
                }
                tts.insert(m, t);
            }
            // A leaf itself may equal the root function (buffer).
            for (&leaf, &t) in tts.iter() {
                if leaf != id && !old.is_and(leaf) {
                    if t == root_tt {
                        replacement = Some(Lit::new(leaf, false));
                        break 'cuts;
                    }
                    if (!t & mask) == root_tt {
                        replacement = Some(Lit::new(leaf, true));
                        break 'cuts;
                    }
                }
            }
        }
        map[id as usize] = match replacement {
            Some(l) => map[l.var() as usize].complement_if(l.is_complement()),
            None => new.and(a, b),
        };
    }
    for o in old.outputs() {
        let l = map[o.lit.var() as usize].complement_if(o.lit.is_complement());
        new.add_output(l, o.name.clone());
    }
    new.sweep()
}

/// Cone node cap for the windowed in-place move: cuts whose cone
/// grows past this are skipped (the whole-graph pass has no such cap;
/// a windowed SA move must stay cheap).
const MAX_CONE_NODES: usize = 32;

/// In-place windowed resubstitution: the SA-move flavor of [`resub`],
/// executed through a journaled [`Transaction`] instead of
/// clone-and-rebuild.
///
/// Walks at most `max_nodes` live AND nodes starting at `start`
/// (wrapping). For each node and each of its cached cuts, the truth
/// tables of the cone between the cut and the node are evaluated by
/// memoized DFS — the graph may carry committed forward references
/// ([`Aig::forward_ids`]), so unlike the whole-graph pass the cone
/// cannot be evaluated in ascending id order. Any cone member (or cut
/// leaf) computing the node's function or its complement over the cut
/// is a replacement candidate; the shallowest (then lowest-literal)
/// candidate is substituted in.
///
/// Every candidate lies in the node's transitive fanin, so the
/// substitution can neither create a combinational cycle nor increase
/// the node's level — resubstitution appends nothing and strictly
/// frees the node's exclusive cone. The cut database is kept in step,
/// and readers a substitution leaves degenerate are simplified in the
/// same move.
///
/// # Panics
///
/// Panics (debug) if `cuts` is out of sync with the transaction's
/// graph.
pub fn resub_inplace_window(
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
    let mut tts: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();
    let mut stack: Vec<NodeId> = Vec::new();
    for id in (start..n).chain(1..start) {
        if examined >= max_nodes {
            break;
        }
        if !txn.aig().is_and(id) || txn.analysis().fanout(id) == 0 {
            continue;
        }
        examined += 1;
        // Shallowest (then lowest-literal) equivalent replacement.
        let mut best: Option<(u32, Lit)> = None;
        for cut in cuts.cuts(id) {
            if cut.size() < 2 {
                continue;
            }
            let nv = cut.size();
            let bits = 1usize << nv;
            let mask = if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let root_tt = cut.masked_tt();
            if root_tt == 0 || root_tt == mask {
                // Constant cone: unbeatable, and cut rewriting's
                // territory anyway.
                let lit = if root_tt == 0 { Lit::FALSE } else { Lit::TRUE };
                best = Some((0, lit));
                break;
            }
            // Seed the cut leaves with their projection tables, then
            // evaluate the cone by memoized DFS (ids may not be in
            // topological order once forward references exist).
            tts.clear();
            for (j, &leaf) in cut.leaves().iter().enumerate() {
                let mut t = 0u64;
                for m in 0..bits {
                    if m >> j & 1 == 1 {
                        t |= 1 << m;
                    }
                }
                tts.insert(leaf, t);
            }
            stack.clear();
            stack.push(id);
            let mut evaluated = 0usize;
            let mut abandoned = false;
            while let Some(&m) = stack.last() {
                if tts.contains_key(&m) {
                    stack.pop();
                    continue;
                }
                if !txn.aig().is_and(m) {
                    // Support not covered by the cut's leaves (a
                    // stale cut after edits): not evaluable.
                    abandoned = true;
                    break;
                }
                let [g0, g1] = txn.aig().fanins(m);
                let mut ready = true;
                for f in [g0, g1] {
                    if !tts.contains_key(&f.var()) {
                        stack.push(f.var());
                        ready = false;
                    }
                }
                if !ready {
                    continue;
                }
                evaluated += 1;
                if evaluated > MAX_CONE_NODES {
                    abandoned = true;
                    break;
                }
                let t0 = tts[&g0.var()];
                let t1 = tts[&g1.var()];
                let t0 = if g0.is_complement() { !t0 & mask } else { t0 };
                let t1 = if g1.is_complement() { !t1 & mask } else { t1 };
                tts.insert(m, t0 & t1);
                stack.pop();
            }
            if abandoned {
                continue;
            }
            debug_assert_eq!(tts[&id], root_tt, "cone evaluation disagrees with the cut");
            // Any cone member or leaf computing the root function (or
            // its complement) is an exact replacement. Min over the
            // map is order-independent, so the HashMap's iteration
            // order cannot leak into the result.
            for (&w, &t) in tts.iter() {
                if w == id {
                    continue;
                }
                let lit = if t == root_tt {
                    Lit::new(w, false)
                } else if (!t & mask) == root_tt {
                    Lit::new(w, true)
                } else {
                    continue;
                };
                let lv = txn.analysis().level(w);
                if best.is_none_or(|(bl, bw)| (lv, lit.raw()) < (bl, bw.raw())) {
                    best = Some((lv, lit));
                }
            }
        }
        if let Some((_, with)) = best {
            // Candidates live in TFI(id): cycle-free by construction.
            debug_assert!(substitution_is_acyclic(txn.aig(), id, with));
            stats.substitutions += substitute_simplifying(txn, cuts, id, with);
        }
    }
    stats
}

/// Collects the AND nodes strictly inside the cone of `root` over
/// `leaves` (excluding the leaves, including `root`).
fn collect_cone(aig: &Aig, root: NodeId, leaves: &[NodeId], out: &mut Vec<NodeId>) {
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if out.contains(&n) || leaves.contains(&n) && n != root {
            continue;
        }
        if leaves.contains(&n) {
            continue;
        }
        out.push(n);
        if aig.is_and(n) {
            let [f0, f1] = aig.fanins(n);
            for f in [f0, f1] {
                if !leaves.contains(&f.var()) && aig.is_and(f.var()) {
                    stack.push(f.var());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for seed in 0..12 {
            let g = random_aig(seed, 7, 90);
            let r = resub(&g);
            assert!(
                equiv_exhaustive(&g, &r).expect("small"),
                "seed {seed} not equivalent"
            );
            assert!(r.num_live_ands() <= g.num_live_ands(), "seed {seed} grew");
        }
    }

    #[test]
    fn removes_absorbed_term() {
        // x | (x & y) == x with x itself a gate.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let x = g.and(a, b);
        let xy = g.and(x, c);
        let f = g.or(x, xy);
        g.add_output(f, None::<&str>);
        let r = resub(&g);
        assert!(equiv_exhaustive(&g, &r).expect("small"));
        assert_eq!(r.num_ands(), 1, "absorption should leave only a&b");
    }

    #[test]
    fn buffer_through_cone_detected() {
        // f = (a & b) | (a & !b) == a: root equals a *leaf*.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let t0 = g.and(a, b);
        let t1 = g.and(a, !b);
        let f = g.or(t0, t1);
        g.add_output(f, None::<&str>);
        let r = resub(&g);
        assert!(equiv_exhaustive(&g, &r).expect("small"));
        assert_eq!(r.num_ands(), 0, "f == a needs no gates");
    }

    /// The in-place windowed move preserves function for any window,
    /// never appends, and keeps analysis and cut database exact.
    #[test]
    fn inplace_window_preserves_function() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let mut substituted_any = false;
        for seed in 0..8u64 {
            let g0 = random_aig(seed + 300, 7, 80);
            let n = g0.num_nodes() as NodeId;
            for start in [1u32, n / 2, n - 2] {
                let mut g = g0.clone();
                let before = g.num_nodes();
                let mut inc = IncrementalAnalysis::new(&g);
                let mut db = aig::cut::CutDb::new(6, 5);
                db.build(&g);
                let mut txn = Transaction::begin(&mut g, &mut inc);
                let stats = resub_inplace_window(&mut txn, &mut db, start, 24);
                txn.commit();
                assert_eq!(stats.appended_nodes, 0, "resub never appends");
                assert_eq!(g.num_nodes(), before);
                assert!(
                    equiv_exhaustive(&g0, &g).expect("small"),
                    "seed {seed} start {start}: function broken"
                );
                db.assert_matches_fresh(&g);
                inc.assert_matches_oracle(&g);
                substituted_any |= stats.substitutions > 0;
            }
        }
        assert!(substituted_any, "resub move never fired");
    }

    /// The in-place move catches the same absorption the whole-graph
    /// pass does, freeing the absorbed logic in place.
    #[test]
    fn inplace_window_removes_absorbed_term() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let x = g.and(a, b);
        let xy = g.and(x, c);
        let f = g.or(x, xy);
        g.add_output(f, None::<&str>);
        let g0 = g.clone();
        let live_before = g.num_live_ands();
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = aig::cut::CutDb::new(6, 5);
        db.build(&g);
        let mut txn = Transaction::begin(&mut g, &mut inc);
        let stats = resub_inplace_window(&mut txn, &mut db, 1, usize::MAX);
        txn.commit();
        assert!(stats.substitutions >= 1);
        assert!(equiv_exhaustive(&g0, &g).expect("small"));
        assert!(
            g.num_live_ands() < live_before,
            "absorption must free the OR and the AND above x"
        );
    }

    #[test]
    fn idempotent_on_irredundant_logic() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let f = g.xor(ab, c);
        g.add_output(f, None::<&str>);
        let r1 = resub(&g);
        let r2 = resub(&r1);
        assert_eq!(r1.num_ands(), r2.num_ands());
        assert!(equiv_exhaustive(&g, &r2).expect("small"));
    }
}
