//! Cut-based rewriting and refactoring.
//!
//! Both transforms share one engine, [`resynthesize_with`]: enumerate
//! k-feasible cuts on the source graph, resynthesize each cut function
//! from its factored irredundant cover ([`crate::factor::synthesize`]),
//! estimate the replacement's cost against the graph under
//! reconstruction (DAG-aware: existing nodes are free), and keep
//! whichever of {original structure, best replacement} is cheaper.
//! [`crate::apply_with`] names its configurations, among them:
//!
//! * `rw` — 4-input cuts (ABC `rewrite` analog);
//! * `rf` — 6-input cuts (ABC `refactor` analog, larger cones);
//! * `rwz` / `rfz` — also accept equal-cost replacements when they
//!   reduce estimated depth (ABC's `-z` flag analog), diversifying
//!   the search space for the optimization flows.

use crate::cache::ResynthCache;
use crate::structure::SmallStructure;
use aig::analysis::levels;
use aig::cut::{enumerate_cuts, shrink_support, CutDb};
use aig::incremental::Transaction;
use aig::{Aig, Lit, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::sync::Arc;

/// Options for the resynthesis engine.
#[derive(Clone, Copy, Debug)]
pub struct ResynthOptions {
    /// Cut size (2..=6).
    pub cut_size: usize,
    /// Cuts kept per node.
    pub max_cuts: usize,
    /// Accept equal-cost replacements that reduce estimated depth.
    pub zero_cost: bool,
    /// When set, each node is (with the given probability) replaced
    /// by the resynthesis of a *random* cut regardless of cost —
    /// a function-preserving structural perturbation.
    pub perturb: Option<(u64, f64)>,
}

/// Acceptance rule of [`resynth_inplace_window`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InplaceMode {
    /// Substitute only when the replacement literal sits at a
    /// strictly smaller level than the node (depth-improving).
    Standard,
    /// Also accept equal-level replacements (zero-cost
    /// restructurings that redirect fanout onto shared logic,
    /// diversifying the search like the `-z` transforms).
    ZeroCost,
}

/// Counters of one in-place resynthesis pass
/// (see [`resynth_inplace_window`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InplaceStats {
    /// Substitutions performed.
    pub substitutions: usize,
    /// Fresh nodes appended by accepted replacement cones (always 0
    /// with appends disabled).
    pub appended_nodes: usize,
    /// Candidate replacements rejected by the combinational-cycle
    /// guard (a non-preceding target whose transitive fanin reaches
    /// the node). These are the replacements the engine used to drop
    /// silently; they are now visible — and legal whenever acyclic.
    pub skipped_nontopo: usize,
}

/// Whether substituting `node` by `with` keeps the graph acyclic.
///
/// Constants and inputs are always safe; in a topological graph so is
/// any AND that precedes `node`. The remaining shapes (forward
/// targets, or any target once the graph carries forward references)
/// run the exact [`Aig::reaches`] test.
pub(crate) fn substitution_is_acyclic(g: &Aig, node: NodeId, with: Lit) -> bool {
    let w = with.var();
    if w == node {
        return false;
    }
    if !g.is_and(w) {
        return true;
    }
    if g.is_topological() && w < node {
        return true;
    }
    !g.reaches(w, node)
}

/// Substitutes `node` by `with` inside `txn`, keeps `cuts` in step,
/// and then simplifies every reader the rewire left degenerate.
///
/// `with` may be the root of a cone the caller just appended through
/// `txn`: `cuts` absorbs the appended nodes before the splice, so
/// callers never sync them themselves.
///
/// [`Transaction::substitute`] rewires readers verbatim, so a
/// substitution by a constant, or by a literal the reader already
/// reads, can leave `AND(0, x)` or `AND(x, !x)` (constant 0), or
/// `AND(1, x)` or `AND(x, x)` (just `x`): a live AND whose cut
/// functions are all constant, which no library cell implements.
/// Each such reader with fanout is substituted in turn by its
/// simplified literal — and its own readers checked the same way —
/// in the same transaction, so rollback, the analysis and the cut
/// database stay exact. Every in-place pass substitutes through here.
///
/// Returns the number of substitutions performed: 1 plus the
/// simplified readers.
pub(crate) fn substitute_simplifying(
    txn: &mut Transaction<'_>,
    cuts: &mut CutDb,
    node: NodeId,
    with: Lit,
) -> usize {
    fn push_degenerate(txn: &Transaction<'_>, pending: &mut Vec<NodeId>) {
        let g = txn.aig();
        let readers = txn.analysis().last_dirty().edited();
        pending.extend(
            readers
                .iter()
                .filter(|&&r| simplified(g.fanins(r)).is_some()),
        );
    }
    if cuts.num_nodes() < txn.aig().num_nodes() {
        cuts.sync_appends(txn.aig());
    }
    txn.substitute(node, with);
    cuts.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
    let mut done = 1;
    let mut pending = Vec::new();
    push_degenerate(txn, &mut pending);
    while let Some(reader) = pending.pop() {
        // Read the literal now: a substitution since the push may
        // have rewired the reader's fanins. A reader simplified
        // already has no fanout left.
        let lit = match simplified(txn.aig().fanins(reader)) {
            Some(lit) if txn.analysis().fanout(reader) > 0 => lit,
            _ => continue,
        };
        txn.substitute(reader, lit);
        cuts.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        done += 1;
        push_degenerate(txn, &mut pending);
    }
    done
}

/// The literal an AND with degenerate fanins equals: `AND(0, x)` and
/// `AND(x, !x)` are 0, `AND(1, x)` and `AND(x, x)` are `x`; `None`
/// for a proper AND.
fn simplified([a, b]: [Lit; 2]) -> Option<Lit> {
    if a == Lit::FALSE || b == Lit::FALSE || a == !b {
        Some(Lit::FALSE)
    } else if a == Lit::TRUE {
        Some(b)
    } else if b == Lit::TRUE || a == b {
        Some(a)
    } else {
        None
    }
}

/// Fresh AND nodes one windowed pass may append before further
/// append-mode candidates are skipped. Bounds the move's footprint
/// (and the dead logic it strands) regardless of the window size;
/// the SA loop's compaction checkpoints reclaim what accumulates.
pub(crate) const MAX_WINDOW_APPENDS: usize = 32;

/// Best fresh-cone candidate for one node: estimated depth, estimated
/// fresh-node cost, the structure to instantiate, its leaf literals,
/// and how many of those leaves are in use.
type ConeCandidate = (u32, usize, Arc<SmallStructure>, [Lit; 6], usize);

/// In-place windowed resynthesis, the transaction-native sibling of
/// [`resynthesize_with`] behind the SA loop's `rw` / `rwz` / `rf` /
/// `rfz` moves.
///
/// Walks at most `max_nodes` live AND nodes, beginning at the first
/// AND node with id `>= start` and wrapping around to the low ids
/// (`start = 1`, `max_nodes = usize::MAX` walks the whole graph in
/// ascending id order), so a move's footprint and cost do not grow
/// with the graph: the paper's O(edit) claim. Per node, each cached
/// cut function is resynthesized:
///
/// * a replacement already present in the graph (zero new nodes,
///   probed with [`SmallStructure::find`]) is substituted in when it
///   improves per `mode`, smallest `(level, literal)` first —
///   **wherever it sits**: targets that do not precede the node are
///   legal and leave the graph carrying forward references
///   ([`Aig::forward_ids`]); only candidates that would close a
///   combinational cycle are rejected, visibly, via
///   [`InplaceStats::skipped_nontopo`];
/// * with `allow_appends`, a node with no existing replacement may
///   instead get a **fresh replacement cone**: the best
///   depth-improving structure is instantiated above the high-water
///   mark through [`Transaction::and`] and spliced in by
///   substitution. A candidate whose instantiated root turns out
///   cyclic (or resolves back to the node) is reverted exactly via a
///   transaction savepoint. Fresh-node spend is capped at
///   `MAX_WINDOW_APPENDS` per pass.
///
/// The cut database is kept in step throughout: the substitution that
/// splices an appended cone in syncs it first, and every
/// substitution's dirty region is invalidated. Readers a
/// substitution leaves degenerate (`AND(0, x)`, `AND(x, x)`, ...) are
/// simplified in the same move.
///
/// Everything flows through `txn`, so the move rolls back exactly
/// (pair with [`CutDb::begin_edit`] / [`CutDb::rollback_edit`]). The
/// result is a pure function of `(graph, mode, allow_appends, start,
/// max_nodes)` — warm or fresh caches and databases never change it.
///
/// # Panics
///
/// Panics (debug) if `cuts` is out of sync with the transaction's
/// graph.
#[allow(clippy::too_many_arguments)]
pub fn resynth_inplace_window(
    txn: &mut Transaction<'_>,
    cuts: &mut CutDb,
    cache: &ResynthCache,
    mode: InplaceMode,
    allow_appends: bool,
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
    // Scratch reused across nodes.
    let mut cands: Vec<(u32, Lit)> = Vec::new();
    for id in (start..n).chain(1..start) {
        if examined >= max_nodes {
            break;
        }
        if !txn.aig().is_and(id) || txn.analysis().fanout(id) == 0 {
            continue;
        }
        examined += 1;
        let node_level = txn.analysis().level(id);
        // Acceptable zero-new-node replacements, and the best
        // (estimated depth, estimated cost) fresh-cone candidate.
        cands.clear();
        let mut best_cone: Option<ConeCandidate> = None;
        for cut in cuts.cuts(id) {
            if cut.size() == 1 && cut.leaves()[0] == id {
                continue; // trivial cut: a node cannot define itself
            }
            match shrink_support(cut.tt(), cut.leaves()) {
                None => {
                    // Constant cone: always the best possible outcome.
                    let lit = if cut.tt() & 1 == 1 {
                        Lit::TRUE
                    } else {
                        Lit::FALSE
                    };
                    cands.push((0, lit));
                    break;
                }
                Some((tt, kept, nv)) => {
                    let kept = &kept[..nv];
                    // One-variable functions resolve without touching
                    // the cache: identity or NOT of the surviving
                    // leaf — exactly what the synthesized structure's
                    // probe would return (pinned by a unit test).
                    if nv == 1 {
                        let lit = Lit::new(kept[0], false).complement_if(tt & 0b11 == 0b01);
                        let lv = txn.analysis().level(lit.var());
                        if improves(mode, lv, node_level) {
                            cands.push((lv, lit));
                        }
                        continue;
                    }
                    let mut leaves = [Lit::FALSE; 6];
                    for (j, &l) in kept.iter().enumerate() {
                        leaves[j] = Lit::new(l, false);
                    }
                    let structure = cache.structure_for(nv, tt);
                    match structure.find(txn.aig(), &leaves[..nv]) {
                        Some(lit) => {
                            if lit.var() == id {
                                continue; // the node's own structure
                            }
                            let lv = txn.analysis().level(lit.var());
                            if improves(mode, lv, node_level) {
                                cands.push((lv, lit));
                            }
                        }
                        None if allow_appends => {
                            let max_leaf = kept
                                .iter()
                                .map(|&l| txn.analysis().level(l))
                                .max()
                                .unwrap_or(0);
                            // Upper bound: strash hits inside the cone
                            // can only land lower.
                            let est_depth = structure.depth() + max_leaf;
                            if !improves(mode, est_depth, node_level) {
                                continue;
                            }
                            // The cone must fit the pass's append budget
                            // and beat the best `(depth, cost)` so far:
                            // count its cost only up to what could.
                            let budget = MAX_WINDOW_APPENDS.saturating_sub(stats.appended_nodes);
                            let bound = match &best_cone {
                                None => budget,
                                Some((d, c, ..)) => match est_depth.cmp(d) {
                                    Ordering::Less => budget,
                                    Ordering::Equal if *c > 0 => budget.min(c - 1),
                                    _ => continue,
                                },
                            };
                            let est_cost = structure.dry_cost(txn.aig(), &leaves[..nv], bound);
                            if est_cost > bound {
                                continue;
                            }
                            best_cone = Some((est_depth, est_cost, structure, leaves, nv));
                        }
                        None => {}
                    }
                }
            }
        }
        // Try zero-new-node replacements best-first; the cycle guard
        // may veto one without giving up on the node.
        cands.sort_unstable_by_key(|&(lv, lit)| (lv, lit.raw()));
        cands.dedup();
        let mut applied = false;
        for &(_, with) in cands.iter() {
            if !substitution_is_acyclic(txn.aig(), id, with) {
                stats.skipped_nontopo += 1;
                continue;
            }
            stats.substitutions += substitute_simplifying(txn, cuts, id, with);
            applied = true;
            break;
        }
        if applied {
            continue;
        }
        if let Some((_, _, structure, leaves, nv)) = best_cone {
            let sp = txn.savepoint();
            let before = txn.aig().num_nodes();
            let root = structure.instantiate_txn(txn, &leaves[..nv]);
            let fresh = txn.aig().num_nodes() - before;
            if root.var() == id {
                // The cone folded back onto the node itself: no-op.
                txn.rollback_to(&sp);
            } else if !substitution_is_acyclic(txn.aig(), id, root) {
                txn.rollback_to(&sp);
                stats.skipped_nontopo += 1;
            } else {
                stats.substitutions += substitute_simplifying(txn, cuts, id, root);
                stats.appended_nodes += fresh;
            }
        }
    }
    stats
}

/// The per-`mode` acceptance rule on replacement levels.
fn improves(mode: InplaceMode, replacement_level: u32, node_level: u32) -> bool {
    match mode {
        InplaceMode::Standard => replacement_level < node_level,
        InplaceMode::ZeroCost => replacement_level <= node_level,
    }
}

enum Candidate {
    /// The node's function over some cut is constant.
    Const(bool),
    /// A resynthesized structure over its first `nv` mapped leaves.
    Structure {
        cost: usize,
        depth: u32,
        s: Arc<SmallStructure>,
        leaves: [Lit; 6],
        nv: usize,
    },
}

/// The shared resynthesis engine behind `rw`, `rwz`, `rf`, `rfz` and
/// `pt` ([`crate::apply_with`] names their options), against a
/// reusable resynthesis `cache`.
///
/// Returns a functionally equivalent AIG whose live node count, without
/// `opts.perturb`, never exceeds the input's: each node keeps its
/// original structure unless a strictly cheaper (or, with `zero_cost`, equally cheap but
/// shallower) replacement is found, and cost estimates upper-bound
/// the nodes actually created.
///
/// A candidate structure is priced only up to what could still apply:
/// its cost count stops past the best candidate's and past the node's
/// own cost (one below it without `zero_cost`). A node whose own AND
/// already exists in the rebuild prices no structure without
/// `zero_cost`, since none can be strictly cheaper; its cuts are still
/// checked for a constant function. Stopping early changes no choice,
/// so the result is the same as pricing every candidate in full.
///
/// The cache may be carried across calls, SA iterations and graphs;
/// results are byte-identical to a fresh or a
/// [`ResynthCache::disabled`] cache because cached structures are
/// pure functions of the cut function.
///
/// # Panics
///
/// Panics if `opts.cut_size` is outside `2..=6`.
///
/// # Examples
///
/// ```
/// use aig::{Aig, sim::equiv_exhaustive};
/// use transform::{resynthesize_with, ResynthCache, ResynthOptions};
///
/// // A redundant mux-of-equal-branches structure shrinks.
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let t0 = g.and(a, b);
/// let t1 = g.and(a, !b);
/// let f = g.or(t0, t1); // == a
/// g.add_output(f, None::<&str>);
///
/// let opts = ResynthOptions { cut_size: 4, max_cuts: 8, zero_cost: false, perturb: None };
/// let r = resynthesize_with(&g, &opts, &ResynthCache::new());
/// assert!(equiv_exhaustive(&g, &r)?);
/// assert!(r.num_ands() < g.num_ands());
/// # Ok::<(), aig::AigError>(())
/// ```
pub fn resynthesize_with(aig: &Aig, opts: &ResynthOptions, cache: &ResynthCache) -> Aig {
    assert!(
        (2..=6).contains(&opts.cut_size),
        "cut size must be 2..=6, got {}",
        opts.cut_size
    );
    let old = aig.sweep();
    let cuts = enumerate_cuts(&old, opts.cut_size, opts.max_cuts);
    let old_levels = levels(&old);
    let mut new = Aig::new();
    new.set_name(old.name());
    // Without perturbation the rebuild holds at most one AND per old
    // AND: size the node lanes and the strash table once.
    new.reserve_nodes(old.num_nodes(), old.num_ands());
    let mut map: Vec<Lit> = vec![Lit::INVALID; old.num_nodes()];
    map[0] = Lit::FALSE;
    for (idx, &pi) in old.inputs().iter().enumerate() {
        map[pi as usize] = new.add_named_input(old.input_name(idx).map(str::to_owned));
    }
    // Whether any node took something other than its own structure.
    let mut changed = false;
    let mut rng = opts
        .perturb
        .map(|(seed, prob)| (SmallRng::seed_from_u64(seed), prob));
    // Perturbation candidates of the current node (scratch reused
    // across nodes).
    let mut pool: Vec<(Arc<SmallStructure>, [Lit; 6], usize)> = Vec::new();

    for id in old.and_ids() {
        let [f0, f1] = old.fanins(id);
        let a = map[f0.var() as usize].complement_if(f0.is_complement());
        let b = map[f1.var() as usize].complement_if(f1.is_complement());
        let default_cost = usize::from(new.find_and(a, b).is_none());
        let default_depth = old_levels.level[id as usize];
        // The highest cost a structure can have and still apply: only a
        // strictly cheaper one without `zero_cost`, so none when the
        // node's own AND is free.
        let limit = if opts.zero_cost {
            Some(default_cost)
        } else {
            default_cost.checked_sub(1)
        };

        let mut best: Option<Candidate> = None;
        let mut best_rank = (usize::MAX, u32::MAX);
        pool.clear();
        let perturb_here = match &mut rng {
            Some((r, prob)) => r.gen::<f64>() < *prob,
            None => false,
        };
        for cut in cuts.cuts(id) {
            if cut.size() == 1 && cut.leaves()[0] == id {
                continue; // trivial cut: a node cannot define itself
            }
            match shrink_support(cut.tt(), cut.leaves()) {
                None => {
                    best = Some(Candidate::Const(cut.tt() & 1 == 1));
                    break;
                }
                Some((tt, kept, nv)) => {
                    let kept = &kept[..nv];
                    let mut mapped = [Lit::INVALID; 6];
                    for (m, &l) in mapped.iter_mut().zip(kept) {
                        *m = map[l as usize];
                    }
                    debug_assert!(mapped[..nv].iter().all(|&l| l != Lit::INVALID));
                    if perturb_here {
                        // `best` is discarded whenever the pool is
                        // non-empty, so a pooled cut needs no price.
                        pool.push((cache.structure_for(nv, tt), mapped, nv));
                        continue;
                    }
                    // No structure can apply: only a constant cut, which
                    // the shrink finds, can still change the node.
                    let Some(limit) = limit else {
                        continue;
                    };
                    let structure = cache.structure_for(nv, tt);
                    // A candidate replaces `best` only below its rank,
                    // and is applied only at or below `limit`: past the
                    // smaller of the two it can do neither, so its count
                    // stops there.
                    let bound = best_rank.0.min(limit);
                    let cost = structure.dry_cost(&new, &mapped[..nv], bound);
                    if cost > bound {
                        continue;
                    }
                    let depth = structure.depth()
                        + kept
                            .iter()
                            .map(|&l| old_levels.level[l as usize])
                            .max()
                            .unwrap_or(0);
                    if (cost, depth) < best_rank {
                        best_rank = (cost, depth);
                        best = Some(Candidate::Structure {
                            cost,
                            depth,
                            s: structure,
                            leaves: mapped,
                            nv,
                        });
                    }
                }
            }
        }
        if perturb_here && !pool.is_empty() {
            if let Some((r, _)) = &mut rng {
                let (s, leaves, nv) = pool.swap_remove(r.gen_range(0..pool.len()));
                map[id as usize] = s.instantiate(&mut new, &leaves[..nv]);
                changed = true;
                continue;
            }
        }

        let new_lit = match best {
            Some(Candidate::Const(v)) => {
                changed = true;
                if v {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            }
            Some(Candidate::Structure {
                cost,
                depth,
                s,
                leaves,
                nv,
            }) if cost < default_cost
                || (opts.zero_cost && cost == default_cost && depth < default_depth) =>
            {
                changed = true;
                s.instantiate(&mut new, &leaves[..nv])
            }
            _ => new.and(a, b),
        };
        map[id as usize] = new_lit;
    }
    for o in old.outputs() {
        let l = map[o.lit.var() as usize].complement_if(o.lit.is_complement());
        new.add_output(l, o.name.clone());
    }
    // A rebuild in which every node kept its own structure is the
    // swept `old` again, node for node: nothing died, and a sweep
    // would copy it unchanged.
    if changed {
        new.sweep()
    } else {
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply, Transform};
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
    fn rewrite_preserves_function() {
        for seed in 0..10 {
            let g = random_aig(seed, 7, 80);
            let r = apply(&g, Transform::Rewrite);
            assert!(
                equiv_exhaustive(&g, &r).expect("small"),
                "seed {seed} not equivalent"
            );
        }
    }

    #[test]
    fn refactor_preserves_function() {
        for seed in 0..10 {
            let g = random_aig(seed + 1000, 8, 80);
            let r = apply(&g, Transform::Refactor);
            assert!(
                equiv_exhaustive(&g, &r).expect("small"),
                "seed {seed} not equivalent"
            );
        }
    }

    #[test]
    fn zero_cost_variants_preserve_function() {
        for seed in 0..6 {
            let g = random_aig(seed + 2000, 7, 60);
            let rz = apply(&g, Transform::RewriteZero);
            let fz = apply(&g, Transform::RefactorZero);
            assert!(equiv_exhaustive(&g, &rz).expect("small"));
            assert!(equiv_exhaustive(&g, &fz).expect("small"));
        }
    }

    #[test]
    fn rewrite_never_grows_live_nodes() {
        for seed in 0..10 {
            let g = random_aig(seed + 3000, 8, 120);
            let before = g.num_live_ands();
            for t in [
                Transform::Rewrite,
                Transform::Refactor,
                Transform::RewriteZero,
            ] {
                let r = apply(&g, t);
                assert!(
                    r.num_live_ands() <= before,
                    "seed {seed}: {before} -> {}",
                    r.num_live_ands()
                );
            }
        }
    }

    #[test]
    fn rewrite_shrinks_redundant_logic() {
        // Build (a&b)|(a&!b)|(!a&b) == a|b, structurally 8 nodes.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let t0 = g.and(a, b);
        let t1 = g.and(a, !b);
        let t2 = g.and(!a, b);
        let o1 = g.or(t0, t1);
        let f = g.or(o1, t2);
        g.add_output(f, None::<&str>);
        let r = apply(&g, Transform::Rewrite);
        assert!(equiv_exhaustive(&g, &r).expect("small"));
        assert!(
            r.num_ands() <= 2,
            "a|b needs at most 2 ANDs greedily, got {}",
            r.num_ands()
        );
        // The zero-cost variant also restructures cost ties and finds
        // the single-AND form.
        let rz = apply(&g, Transform::RewriteZero);
        assert!(equiv_exhaustive(&g, &rz).expect("small"));
        assert_eq!(rz.num_ands(), 1, "a|b is one AND");
    }

    #[test]
    fn constant_cone_detected() {
        // f = (a & b) & (a & !b) == 0 via a 4-cut.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let y = g.and(a, !b);
        let f = g.and(x, y);
        g.add_output(f, None::<&str>);
        let r = apply(&g, Transform::Refactor);
        assert!(equiv_exhaustive(&g, &r).expect("small"));
        assert_eq!(r.num_ands(), 0);
    }

    /// In-place rewriting preserves function, never creates nodes,
    /// and is a pure function of the graph (warm or fresh cut
    /// database, warm or fresh cache).
    #[test]
    fn rewrite_inplace_preserves_function_and_node_count() {
        use aig::incremental::IncrementalAnalysis;
        use aig::incremental::Transaction;
        for seed in 0..8u64 {
            for mode in [InplaceMode::Standard, InplaceMode::ZeroCost] {
                let g0 = random_aig(seed + 4000, 7, 90);
                let mut g = g0.clone();
                let before_nodes = g.num_nodes();
                let mut inc = IncrementalAnalysis::new(&g);
                let mut db = aig::cut::CutDb::new(4, 8);
                db.build(&g);
                let cache = ResynthCache::new();
                let mut txn = Transaction::begin(&mut g, &mut inc);
                let subs =
                    resynth_inplace_window(&mut txn, &mut db, &cache, mode, false, 1, usize::MAX)
                        .substitutions;
                txn.commit();
                assert_eq!(g.num_nodes(), before_nodes, "zero-new-node contract");
                assert!(
                    equiv_exhaustive(&g0, &g).expect("small"),
                    "seed {seed} {mode:?}: function broken after {subs} substitutions"
                );
                db.assert_matches_fresh(&g);
                inc.assert_matches_oracle(&g);
            }
        }
    }

    /// The depth-improving mode must actually find the canonical
    /// shallow replacement when it exists as shared structure.
    #[test]
    fn rewrite_inplace_flattens_redundant_or() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        // f = (a&b) | (a&!b) == a, with `a` trivially present.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let t0 = g.and(a, b);
        let t1 = g.and(a, !b);
        let f = g.or(t0, t1);
        let top = g.and(f, b);
        g.add_output(top, None::<&str>);
        let g0 = g.clone();
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = aig::cut::CutDb::new(4, 8);
        db.build(&g);
        let cache = ResynthCache::new();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        let subs = resynth_inplace_window(
            &mut txn,
            &mut db,
            &cache,
            InplaceMode::Standard,
            false,
            1,
            usize::MAX,
        )
        .substitutions;
        txn.commit();
        assert!(subs >= 1, "the OR node reduces to `a`");
        assert!(equiv_exhaustive(&g0, &g).expect("small"));
        assert!(
            inc.max_level() < aig::analysis::levels(&g0).max_level,
            "depth must improve"
        );
    }

    /// The one-variable fast path of the in-place probe must agree
    /// with the synthesized-structure probe it bypasses.
    #[test]
    fn one_variable_structures_resolve_to_the_leaf() {
        let cache = ResynthCache::new();
        let mut g = Aig::new();
        let a = g.add_input();
        let _ = g.add_input();
        // Identity: f(x) = x  ->  plain leaf literal, zero ops.
        let ident = cache.structure_for(1, 0b10);
        assert_eq!(ident.find(&g, &[a]), Some(a));
        // Negation: f(x) = !x  ->  complemented leaf, zero ops.
        let not = cache.structure_for(1, 0b01);
        assert_eq!(not.find(&g, &[a]), Some(!a));
    }

    /// Windowed in-place rewriting: any (start, width) is function-
    /// preserving, and the full pass equals the max-width window.
    #[test]
    fn rewrite_window_preserves_function() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        use InplaceMode::ZeroCost;
        let g0 = random_aig(5200, 7, 90);
        let n = g0.num_nodes() as NodeId;
        for start in [0u32, 1, n / 2, n - 1, n + 7] {
            let mut g = g0.clone();
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = aig::cut::CutDb::new(4, 8);
            db.build(&g);
            let cache = ResynthCache::new();
            let mut txn = Transaction::begin(&mut g, &mut inc);
            resynth_inplace_window(&mut txn, &mut db, &cache, ZeroCost, false, start, 16);
            txn.commit();
            assert!(
                equiv_exhaustive(&g0, &g).expect("small"),
                "window start {start} broke equivalence"
            );
            db.assert_matches_fresh(&g);
        }
    }

    /// Append-mode resynthesis (the refactor-flavor SA move) preserves
    /// function for any window, splices fresh cones above the
    /// high-water mark, and never exceeds the per-window budget.
    #[test]
    fn resynth_append_window_preserves_function() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let mut appended_any = false;
        for seed in 0..6u64 {
            let g0 = random_aig(seed + 6100, 7, 90);
            let n = g0.num_nodes() as NodeId;
            for start in [1u32, n / 2, n - 2] {
                let mut g = g0.clone();
                let before = g.num_nodes();
                let mut inc = IncrementalAnalysis::new(&g);
                let mut db = aig::cut::CutDb::new(6, 5);
                db.build(&g);
                let cache = ResynthCache::new();
                let mut txn = Transaction::begin(&mut g, &mut inc);
                let stats = resynth_inplace_window(
                    &mut txn,
                    &mut db,
                    &cache,
                    InplaceMode::Standard,
                    true,
                    start,
                    32,
                );
                txn.commit();
                assert!(stats.appended_nodes <= MAX_WINDOW_APPENDS);
                assert_eq!(g.num_nodes(), before + stats.appended_nodes);
                assert!(
                    equiv_exhaustive(&g0, &g).expect("small"),
                    "seed {seed} start {start}: function broken"
                );
                db.assert_matches_fresh(&g);
                inc.assert_matches_oracle(&g);
                appended_any |= stats.appended_nodes > 0;
            }
        }
        assert!(appended_any, "append path never exercised");
    }

    /// A replacement that would close a combinational cycle is
    /// rejected visibly (`skipped_nontopo`), never applied and never
    /// silently dropped: the pass still tries the node's remaining
    /// candidates.
    #[test]
    fn cycle_candidates_are_counted_not_silent() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let mut substitutions = 0;
        for seed in 0..16u64 {
            let g0 = random_aig(seed + 7300, 7, 110);
            let mut g = g0.clone();
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = aig::cut::CutDb::new(4, 8);
            db.build(&g);
            let cache = ResynthCache::new();
            let mut txn = Transaction::begin(&mut g, &mut inc);
            substitutions += resynth_inplace_window(
                &mut txn,
                &mut db,
                &cache,
                InplaceMode::ZeroCost,
                true,
                1,
                usize::MAX,
            )
            .substitutions;
            txn.commit();
            assert!(equiv_exhaustive(&g0, &g).expect("small"), "seed {seed}");
        }
        assert!(substitutions > 0);
    }

    /// A window that reaches a constant cone but not its readers
    /// substitutes the cone by 0; the readers it leaves as `AND(0, d)`
    /// and `AND(1, d)` are simplified in the same move, so no AND with
    /// fanout keeps degenerate fanins, and a rollback still restores
    /// everything exactly.
    #[test]
    fn constant_substitution_simplifies_degenerate_readers() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let mut g0 = Aig::new();
        let [a, b, c, d] = [(); 4].map(|()| g0.add_input());
        let t = g0.and(a, b);
        let u = g0.and(!a, c);
        let k = g0.and(t, u); // a & b & !a & c == 0
        let r0 = g0.and(k, d);
        let r1 = g0.and(!k, d);
        let s = g0.and(r1, b);
        g0.add_output(r0, None::<&str>);
        g0.add_output(s, None::<&str>);

        for commit in [true, false] {
            let mut g = g0.clone();
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = aig::cut::CutDb::new(4, 8);
            db.build(&g);
            let cache = ResynthCache::new();
            db.begin_edit();
            let mut txn = Transaction::begin(&mut g, &mut inc);
            // Only `k` is examined: its readers lie outside the window.
            let subs = resynth_inplace_window(
                &mut txn,
                &mut db,
                &cache,
                InplaceMode::Standard,
                false,
                k.var(),
                1,
            )
            .substitutions;
            assert_eq!(subs, 3, "k, then its readers r0 and r1");
            for id in txn.aig().and_ids() {
                if txn.analysis().fanout(id) > 0 {
                    assert_eq!(simplified(txn.aig().fanins(id)), None, "node {id}");
                }
            }
            assert_eq!(txn.aig().outputs()[0].lit, Lit::FALSE);
            assert_eq!(txn.aig().fanins(s.var()), [b, d]);
            if commit {
                txn.commit();
                db.commit_edit();
                assert!(equiv_exhaustive(&g0, &g).expect("small"));
            } else {
                txn.rollback();
                db.rollback_edit();
                assert_eq!(aig::aiger::to_ascii(&g), aig::aiger::to_ascii(&g0));
            }
            db.assert_matches_fresh(&g);
            inc.assert_matches_oracle(&g);
        }
    }

    /// A rolled-back in-place rewrite leaves no trace: graph bytes and
    /// cut database match the pre-move state.
    #[test]
    fn rewrite_inplace_rolls_back_cleanly() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let g0 = random_aig(4711, 7, 90);
        let mut g = g0.clone();
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = aig::cut::CutDb::new(4, 8);
        db.build(&g);
        let cache = ResynthCache::new();
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        resynth_inplace_window(
            &mut txn,
            &mut db,
            &cache,
            InplaceMode::ZeroCost,
            false,
            1,
            usize::MAX,
        );
        txn.rollback();
        db.rollback_edit();
        assert_eq!(aig::aiger::to_ascii(&g), aig::aiger::to_ascii(&g0));
        db.assert_matches_fresh(&g);
        inc.assert_matches_oracle(&g);
    }

    #[test]
    #[should_panic(expected = "cut size")]
    fn bad_cut_size_panics() {
        let g = random_aig(1, 4, 10);
        let _ = resynthesize_with(
            &g,
            &ResynthOptions {
                cut_size: 7,
                max_cuts: 4,
                zero_cost: false,
                perturb: None,
            },
            &ResynthCache::new(),
        );
    }
}
