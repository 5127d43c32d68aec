//! Named transformations and recipe (script) generation.
//!
//! The paper's baseline flow draws one of 103 combinations of basic
//! ABC transformations per iteration. [`recipes`] reproduces that
//! action space: short compositions of our ten primitives
//! (optimizers, trade-off moves and diversifiers), truncated to the
//! same count of 103.
//!
//! Every primitive keeps the purity contract stated on [`apply_with`],
//! which [`crate::RecipeMemo`] relies on: one stored result serves
//! every walk that reaches the same input graph.

use crate::balance::{balance, balance_dup, balance_inplace_window, reshape};
use crate::cache::ResynthCache;
use crate::resub::{resub, resub_inplace_window};
use crate::rewrite::{resynth_inplace_window, resynthesize_with, InplaceStats, ResynthOptions};
use aig::cut::CutDb;
use aig::incremental::Transaction;
use aig::{Aig, NodeId};
use std::fmt;

/// A primitive AIG transformation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transform {
    /// AND-tree balancing (depth reduction).
    Balance,
    /// 4-cut rewriting (node reduction).
    Rewrite,
    /// 4-cut rewriting accepting zero-cost restructurings.
    RewriteZero,
    /// 6-cut refactoring (larger cones).
    Refactor,
    /// 6-cut refactoring accepting zero-cost restructurings.
    RefactorZero,
    /// Dead-node sweep and structural dedup.
    Sweep,
    /// Depth-priority balancing with logic duplication (trades area
    /// for delay; ABC `balance -d` analog).
    BalanceDup,
    /// Random tree re-association (function-preserving shape change;
    /// result depends on the current structure, so repeated use keeps
    /// exploring).
    Reshape,
    /// Random cut resynthesis: every node is, with probability ~0.35,
    /// re-implemented from the factored cover of a random 5-input cut
    /// regardless of cost, so unlike the optimizers it may *grow* the
    /// graph. It is the diversification move behind the training data
    /// (paper §III-C needs 40k structurally distinct variants per
    /// design, spanning a ~3x node-count range).
    ///
    /// # Examples
    ///
    /// ```
    /// use aig::{Aig, sim::equiv_exhaustive};
    /// use transform::{apply, Transform};
    ///
    /// let mut g = Aig::new();
    /// let [a, b, c] = [(); 3].map(|()| g.add_input());
    /// let x = g.xor(a, b);
    /// let f = g.xor(x, c);
    /// g.add_output(f, None::<&str>);
    /// let p = apply(&g, Transform::Perturb);
    /// assert!(equiv_exhaustive(&g, &p)?);
    /// # Ok::<(), aig::AigError>(())
    /// ```
    Perturb,
    /// Cone-internal resubstitution (exact 0-resub over 6-cuts).
    Resub,
}

impl Transform {
    /// All primitives, in a stable order.
    pub const ALL: [Transform; 10] = [
        Transform::Balance,
        Transform::Rewrite,
        Transform::RewriteZero,
        Transform::Refactor,
        Transform::RefactorZero,
        Transform::Sweep,
        Transform::BalanceDup,
        Transform::Reshape,
        Transform::Perturb,
        Transform::Resub,
    ];

    /// Short ABC-style mnemonic (`b`, `rw`, `rwz`, `rf`, `rfz`, `sw`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Transform::Balance => "b",
            Transform::Rewrite => "rw",
            Transform::RewriteZero => "rwz",
            Transform::Refactor => "rf",
            Transform::RefactorZero => "rfz",
            Transform::Sweep => "sw",
            Transform::BalanceDup => "bd",
            Transform::Reshape => "rs",
            Transform::Perturb => "pt",
            Transform::Resub => "rsb",
        }
    }

    /// Parses a mnemonic produced by [`Transform::mnemonic`].
    pub fn from_mnemonic(m: &str) -> Option<Transform> {
        Transform::ALL.into_iter().find(|t| t.mnemonic() == m)
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// How the SA loop's transaction engine executes a single-step
/// recipe in place (see [`Recipe::as_inplace`]); [`InplacePlan::run`]
/// is the one definition of the move.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InplacePlan {
    /// Cut resynthesis, zero new nodes (`rw` / `rwz`) —
    /// [`crate::resynth_inplace_window`] with appends off. The cut
    /// size is that of the `CutDb` handed to [`InplacePlan::run`]: 4
    /// in the SA engine's (4, 8) database.
    Rewrite(crate::InplaceMode),
    /// Cut resynthesis that may splice in fresh replacement cones
    /// (`rf` / `rfz`) — [`crate::resynth_inplace_window`] with
    /// appends on and a doubled window. It differs from `Rewrite`
    /// only in appends and window width: its cuts come from the same
    /// `CutDb`, so in the SA engine they have 4 inputs, where the
    /// whole-graph `rf` enumerates 6-input cuts.
    Refactor(crate::InplaceMode),
    /// Supergate collapse and minimum-depth rebuild (`b`) —
    /// [`crate::balance_inplace_window`].
    Balance,
    /// Cone-internal equivalence splice (`rsb`) —
    /// [`crate::resub_inplace_window`].
    Resub,
}

impl InplacePlan {
    /// Live AND nodes one in-place move examines. The move's window
    /// start is drawn from the SA chain's RNG, so edits stay local and
    /// a move's cost does not grow with the graph. `Refactor` plans
    /// scan twice this many: their whole-graph counterpart works on
    /// larger cones, and the in-place flavor compensates with
    /// coverage.
    pub const WINDOW: usize = 64;

    /// Runs one in-place move of this plan inside `txn`, the window
    /// beginning at the first AND node with id `>= start`.
    ///
    /// This is the SA move: the engine runs it on the current graph,
    /// and with the engine off the SA loop runs it on a clone, so the
    /// two paths are bitwise interchangeable by construction. `cuts`
    /// must be in sync with the transaction's graph; pair the call
    /// with [`aig::cut::CutDb::begin_edit`] /
    /// [`aig::cut::CutDb::rollback_edit`] to revert the move exactly.
    /// The result is a pure function of the graph, the plan and
    /// `start`: warm or fresh caches and databases never change it.
    pub fn run(
        self,
        txn: &mut Transaction<'_>,
        cuts: &mut CutDb,
        cache: &ResynthCache,
        start: NodeId,
    ) -> InplaceStats {
        match self {
            InplacePlan::Rewrite(mode) => {
                resynth_inplace_window(txn, cuts, cache, mode, false, start, Self::WINDOW)
            }
            InplacePlan::Refactor(mode) => {
                resynth_inplace_window(txn, cuts, cache, mode, true, start, 2 * Self::WINDOW)
            }
            InplacePlan::Balance => balance_inplace_window(txn, cuts, start, Self::WINDOW),
            InplacePlan::Resub => resub_inplace_window(txn, cuts, start, Self::WINDOW),
        }
    }
}

/// Applies a single primitive, returning the transformed AIG.
///
/// Every primitive is function-preserving; the unit and property
/// tests verify equivalence by exhaustive simulation.
pub fn apply(aig: &Aig, t: Transform) -> Aig {
    apply_with(aig, t, &ResynthCache::new())
}

/// [`apply`] against a reusable resynthesis `cache`.
///
/// The resynthesizing primitives (`rw`, `rwz`, `rf`, `rfz`, `pt`)
/// read and populate `cache`; the others ignore it. Results are
/// byte-identical to [`apply`] for any cache state, so a single cache
/// can be carried across SA iterations and runs.
///
/// # Purity contract
///
/// [`crate::RecipeMemo`] hands out copies of stored results in place
/// of recomputed ones, and runs the next primitive on the graph it
/// holds rather than on the one the caller passed. That is exact
/// because every primitive keeps three properties, which a new
/// primitive must keep too:
///
/// * it is a deterministic function of its input graph's content (the
///   fields [`Aig`]'s equality compares): each one starts from
///   [`Aig::sweep`] of its input, a clone when the input is already
///   swept, and reads nothing else of it. What a clone carries beyond
///   the content (the structural-hash table's layout, reserved
///   capacity, a cached topological order) answers every query as a
///   fresh build would;
/// * the randomized primitives, `rs` and `pt`, use fixed seeds, so
///   their diversity comes from the input's structure alone;
/// * its result does not depend on the `cache` state (cached
///   structures are pure functions of their key).
pub fn apply_with(aig: &Aig, t: Transform, cache: &ResynthCache) -> Aig {
    let resynth = |cut_size, max_cuts, zero_cost, perturb| {
        let opts = ResynthOptions {
            cut_size,
            max_cuts,
            zero_cost,
            perturb,
        };
        resynthesize_with(aig, &opts, cache)
    };
    match t {
        Transform::Balance => balance(aig),
        Transform::Rewrite => resynth(4, 8, false, None),
        Transform::RewriteZero => resynth(4, 8, true, None),
        Transform::Refactor => resynth(6, 5, false, None),
        Transform::RefactorZero => resynth(6, 5, true, None),
        Transform::Sweep => aig.sweep(),
        Transform::BalanceDup => balance_dup(aig),
        // Fixed internal seeds keep `apply` deterministic; diversity
        // comes from the evolving input structure across iterations.
        Transform::Reshape => reshape(aig, 0x5EED_0001),
        Transform::Perturb => resynth(5, 6, false, Some((0x5EED_0002, 0.35))),
        Transform::Resub => resub(aig),
    }
}

/// A sequence of primitives applied left to right (an ABC "script").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Recipe(pub Vec<Transform>);

impl Recipe {
    /// Applies the recipe to `aig`.
    pub fn apply(&self, aig: &Aig) -> Aig {
        self.apply_with(aig, &ResynthCache::new())
    }

    /// Applies the recipe against a reusable resynthesis `cache`
    /// (byte-identical to [`Recipe::apply`]; see [`apply_with`]).
    ///
    /// This is the reference [`crate::RecipeMemo::walk`] is tested
    /// against. The empty recipe returns a copy of `aig`.
    pub fn apply_with(&self, aig: &Aig, cache: &ResynthCache) -> Aig {
        let Some((&first, rest)) = self.0.split_first() else {
            return aig.clone();
        };
        rest.iter().fold(apply_with(aig, first, cache), |g, &t| {
            apply_with(&g, t, cache)
        })
    }

    /// The in-place execution plan of this recipe, when it has one.
    ///
    /// The SA loop's transaction engine executes in-place-capable
    /// moves by editing the current graph through an
    /// [`aig::incremental::Transaction`] (accept = commit, reject =
    /// rollback) instead of rebuilding it. Every single-step
    /// rewrite/refactor/balance/resub recipe has a plan; multi-step
    /// recipes and the remaining primitives return `None` and take
    /// the whole-graph path.
    pub fn as_inplace(&self) -> Option<InplacePlan> {
        use crate::InplaceMode::{Standard, ZeroCost};
        match self.0.as_slice() {
            [Transform::Rewrite] => Some(InplacePlan::Rewrite(Standard)),
            [Transform::RewriteZero] => Some(InplacePlan::Rewrite(ZeroCost)),
            [Transform::Refactor] => Some(InplacePlan::Refactor(Standard)),
            [Transform::RefactorZero] => Some(InplacePlan::Refactor(ZeroCost)),
            [Transform::Balance] => Some(InplacePlan::Balance),
            [Transform::Resub] => Some(InplacePlan::Resub),
            _ => None,
        }
    }

    /// Number of primitive steps.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the recipe is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::str::FromStr for Recipe {
    type Err = ParseRecipeError;

    fn from_str(s: &str) -> Result<Recipe, ParseRecipeError> {
        let mut steps = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match Transform::from_mnemonic(part) {
                Some(t) => steps.push(t),
                None => {
                    return Err(ParseRecipeError {
                        mnemonic: part.to_owned(),
                    })
                }
            }
        }
        Ok(Recipe(steps))
    }
}

/// Error from parsing a recipe string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRecipeError {
    /// The unrecognized mnemonic.
    pub mnemonic: String,
}

impl fmt::Display for ParseRecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown transform mnemonic `{}`", self.mnemonic)
    }
}

impl std::error::Error for ParseRecipeError {}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<&str> = self.0.iter().map(|t| t.mnemonic()).collect();
        f.write_str(&parts.join(";"))
    }
}

/// The action space of the optimization flows: 103 transformation
/// recipes (matching the industry flow cited by the paper, §III-A),
/// built from all length-1 and length-2 compositions plus length-3
/// compositions without immediate repetition.
///
/// # Examples
///
/// ```
/// use transform::recipes;
///
/// let r = recipes();
/// assert_eq!(r.len(), 103);
/// assert!(r.iter().all(|recipe| !recipe.is_empty()));
/// ```
pub fn recipes() -> Vec<Recipe> {
    let mut out: Vec<Recipe> = Vec::with_capacity(128);
    for &a in &Transform::ALL {
        out.push(Recipe(vec![a]));
    }
    // Length-2 without immediate repetition: 9 * 8 = 72, for 81 total.
    for &a in &Transform::ALL {
        for &b in &Transform::ALL {
            if a != b && out.len() < 81 {
                out.push(Recipe(vec![a, b]));
            }
        }
    }
    // Length-3 classics over the optimizing core plus diversifiers,
    // topping the list up to exactly 103.
    let core = [
        Transform::Balance,
        Transform::Rewrite,
        Transform::Refactor,
        Transform::Resub,
        Transform::BalanceDup,
        Transform::Reshape,
        Transform::Perturb,
    ];
    'outer: for &a in &core {
        for &b in &core {
            for &c in &core {
                if a != b && b != c {
                    out.push(Recipe(vec![a, b, c]));
                    if out.len() == 103 {
                        break 'outer;
                    }
                }
            }
        }
    }
    debug_assert_eq!(out.len(), 103);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::sim::equiv_exhaustive;
    use aig::Lit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_aig(seed: u64) -> Aig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..7).map(|_| g.add_input()).collect();
        for _ in 0..70 {
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
    fn recipe_count_is_103() {
        assert_eq!(recipes().len(), 103);
    }

    #[test]
    fn recipes_are_distinct() {
        let r = recipes();
        let set: std::collections::HashSet<String> = r.iter().map(|x| x.to_string()).collect();
        assert_eq!(set.len(), r.len());
    }

    #[test]
    fn every_primitive_preserves_function() {
        let g = random_aig(11);
        for &t in &Transform::ALL {
            let h = apply(&g, t);
            assert!(
                equiv_exhaustive(&g, &h).expect("small"),
                "{t} broke equivalence"
            );
        }
    }

    #[test]
    fn sampled_recipes_preserve_function() {
        let g = random_aig(22);
        let all = recipes();
        for (i, recipe) in all.iter().enumerate().step_by(17) {
            let h = recipe.apply(&g);
            assert!(
                equiv_exhaustive(&g, &h).expect("small"),
                "recipe #{i} `{recipe}` broke equivalence"
            );
        }
    }

    #[test]
    fn display_roundtrip_mnemonics() {
        let r = Recipe(vec![
            Transform::Balance,
            Transform::RewriteZero,
            Transform::Refactor,
        ]);
        assert_eq!(r.to_string(), "b;rwz;rf");
        assert_eq!(r.len(), 3);
        let parsed: Recipe = "b;rwz;rf".parse().expect("parses");
        assert_eq!(parsed, r);
        // Whitespace and trailing separators tolerated.
        let parsed: Recipe = " b ; rw ;".parse().expect("parses");
        assert_eq!(parsed.len(), 2);
        assert!("b;xyz".parse::<Recipe>().is_err());
    }

    #[test]
    fn optimization_actually_reduces() {
        // A typical script should reduce a redundant random graph.
        let g = random_aig(33);
        let script = Recipe(vec![
            Transform::Balance,
            Transform::Rewrite,
            Transform::Refactor,
            Transform::Balance,
        ]);
        let h = script.apply(&g);
        assert!(
            h.num_ands() <= g.num_live_ands(),
            "{} -> {}",
            g.num_live_ands(),
            h.num_ands()
        );
    }
}
