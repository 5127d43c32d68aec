//! Memoized recipe application over one base graph.
//!
//! An SA chain prices moves against the same current graph until one
//! is accepted, and draws them from a fixed action set whose recipes
//! share primitives (`rw`, `rw;b`, `b;rw`, ...). Most moves are
//! rejected, many primitives return their input unchanged, and many
//! accepted moves leave the graph as it was, so the chain keeps
//! reaching the same few graphs. [`RecipeMemo`] holds each distinct
//! graph reached from the base once and runs each primitive at most
//! once per distinct input graph.

use crate::cache::ResynthCache;
use crate::recipes::{apply_with, Recipe, Transform};
use aig::Aig;

/// The node every walk starts from: the base graph itself.
pub const MEMO_BASE: usize = 0;

/// One distinct graph reached from the base.
#[derive(Debug)]
struct Node {
    graph: Aig,
    /// `(primitive, node)`: the primitive applied to this graph gives
    /// that node's graph.
    edges: Vec<(Transform, usize)>,
}

impl Node {
    fn new(graph: Aig) -> Self {
        Node {
            graph,
            edges: Vec::new(),
        }
    }
}

/// Where a [`RecipeMemo::walk`] ended.
#[derive(Debug)]
pub struct Walk {
    /// The node holding the result. `None` when the memo is disabled.
    pub node: Option<usize>,
    /// The result, when the walk's last step computed it. A walk served
    /// from the store leaves copying it to [`RecipeMemo::graph`].
    pub graph: Option<Aig>,
    /// Whether the walk's input differed from the base, so the store
    /// started over on it: node ids handed out before now name other
    /// graphs. A disabled memo hands out no ids and reports `false`.
    pub rebased: bool,
}

/// The distinct graphs reached from one base graph by recipes.
///
/// The store is a graph of graphs. Node [`MEMO_BASE`] is the base;
/// every other node is a distinct graph, and an edge maps a (node,
/// primitive) pair to the node that primitive yields. A recipe is a
/// walk from the base ([`RecipeMemo::walk`]): each step follows its
/// edge when the store holds it and computes the primitive otherwise,
/// so each primitive runs at most once per distinct input graph.
///
/// * **Exact.** A walk of `recipe` from `g` reaches exactly what
///   [`Recipe::apply_with`]`(g, cache)` returns, for every `g`. This
///   rests on the primitives' purity contract (see [`apply_with`]): a
///   primitive's result depends only on its input's content.
/// * **Keyed on content.** Each walk compares its graph with the base
///   ([`Aig`]'s content equality) and starts over when they differ, so
///   callers need no invalidation hooks, and a caller that moves to a
///   graph equal to the base keeps every node. A computed result that
///   equals a held graph joins that node, so no two nodes hold equal
///   graphs, and a walk whose primitives change nothing ends at the
///   base.
/// * **Held as graphs.** Each node holds its graph as the [`Aig`] the
///   primitive returned: a result is interned by content comparison
///   and served as a clone, with no encoding or decoding. A held graph
///   costs 8 bytes per node of fanin lanes plus 14–28 bytes per AND of
///   structural-hash slots, about 22–36 bytes per AND where binary
///   AIGER took about 2.6, one graph per distinct result reached from
///   the base.
/// * **Ids per base.** A node id names one graph until a walk reports
///   [`Walk::rebased`]. A caller that keeps facts about nodes, such as
///   the SA loop's prices, indexes them by id and drops them then.
///
/// [`RecipeMemo::hits`] / [`RecipeMemo::misses`] count primitive
/// applications served from an edge / computed, and
/// [`RecipeMemo::identity_walks`] the recipes that changed nothing. A
/// [`RecipeMemo::disabled`] memo computes everything and counts
/// nothing, like [`ResynthCache::disabled`].
#[derive(Debug)]
pub struct RecipeMemo {
    enabled: bool,
    /// The distinct graphs reached from the base, the base (node
    /// [`MEMO_BASE`]) first.
    nodes: Vec<Node>,
    hits: u64,
    misses: u64,
    identity_walks: u64,
}

impl Default for RecipeMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl RecipeMemo {
    /// An empty, enabled memo.
    pub fn new() -> Self {
        RecipeMemo {
            enabled: true,
            nodes: Vec::new(),
            hits: 0,
            misses: 0,
            identity_walks: 0,
        }
    }

    /// A memo that stores nothing: every walk computes
    /// [`Recipe::apply_with`] and reaches no node. The oracle side of
    /// the memo-on-vs-off determinism tests.
    pub fn disabled() -> Self {
        RecipeMemo {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether the memo stores results.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Primitive applications served from an edge so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Primitive applications computed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Walks of at least one step that ended at the base so far:
    /// recipes that left their input's content unchanged.
    pub fn identity_walks(&self) -> u64 {
        self.identity_walks
    }

    /// Number of distinct graphs held for the current base, the base
    /// included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no graph is held (no walk has set a base yet).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Walks `recipe` from `aig`, rebasing the store on `aig` when it
    /// differs from the base.
    ///
    /// The result is [`Recipe::apply_with`]`(aig, cache)`: the walk's
    /// `graph`, or [`RecipeMemo::graph`] of its `node` when the walk was
    /// served from the store. An empty recipe ends at the base.
    pub fn walk(&mut self, aig: &Aig, recipe: &Recipe, cache: &ResynthCache) -> Walk {
        if !self.enabled {
            return Walk {
                node: None,
                graph: Some(recipe.apply_with(aig, cache)),
                rebased: false,
            };
        }
        let rebased = self.nodes.first().map(|base| &base.graph) != Some(aig);
        if rebased {
            self.nodes.clear();
            self.nodes.push(Node::new(aig.clone()));
        }
        let mut node = MEMO_BASE;
        // The last step's result, when the walk computed it.
        let mut graph: Option<Aig> = None;
        for &t in &recipe.0 {
            let edges = &self.nodes[node].edges;
            if let Some(&(_, to)) = edges.iter().find(|&&(e, _)| e == t) {
                self.hits += 1;
                node = to;
                graph = None;
                continue;
            }
            let next = apply_with(&self.nodes[node].graph, t, cache);
            self.misses += 1;
            let to = self.intern(&next);
            self.nodes[node].edges.push((t, to));
            node = to;
            graph = Some(next);
        }
        if node == MEMO_BASE && !recipe.0.is_empty() {
            self.identity_walks += 1;
        }
        Walk {
            node: Some(node),
            graph,
            rebased,
        }
    }

    /// A copy of the graph held by `node`.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no such node.
    pub fn graph(&self, node: usize) -> Aig {
        self.nodes[node].graph.clone()
    }

    /// The node holding a graph equal to `g`, added if there is none.
    fn intern(&mut self, g: &Aig) -> usize {
        match self.nodes.iter().position(|n| n.graph == *g) {
            Some(held) => held,
            None => {
                self.nodes.push(Node::new(g.clone()));
                self.nodes.len() - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipes::recipes;
    use aig::Lit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_aig(seed: u64) -> Aig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..7).map(|_| g.add_named_input(Some("x"))).collect();
        for _ in 0..90 {
            let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            lits.push(g.and(a, b));
        }
        for k in 0..4 {
            let l = lits[lits.len() - 1 - 5 * k];
            g.add_output(l.complement_if(rng.gen()), Some(format!("o{k}")));
        }
        g.set_name("memo");
        g
    }

    /// The walk's result: the graph it computed, or the one its node
    /// holds when the store served it.
    fn result(memo: &mut RecipeMemo, g: &Aig, recipe: &Recipe, cache: &ResynthCache) -> Aig {
        let walk = memo.walk(g, recipe, cache);
        walk.graph
            .unwrap_or_else(|| memo.graph(walk.node.expect("a served walk ends at a node")))
    }

    #[test]
    fn every_recipe_matches_the_reference_and_graphs_are_shared() {
        let g = random_aig(3);
        let cache = ResynthCache::new();
        let mut memo = RecipeMemo::new();
        let all = recipes();
        for recipe in &all {
            assert_eq!(
                result(&mut memo, &g, recipe, &cache),
                recipe.apply_with(&g, &cache),
                "recipe `{recipe}`"
            );
        }
        // Every recipe's proper prefixes are recipes listed before it,
        // so each one computes at most its last step, and 27 of those
        // steps meet an input graph that primitive already ran on. The
        // 103 recipes reach 28 distinct graphs, the base included.
        assert_eq!((memo.misses(), memo.len()), (76, 28));
        let steps: usize = all.iter().map(Recipe::len).sum();
        assert_eq!(memo.hits() + memo.misses(), steps as u64);
        // A second pass over the same content is all hits.
        let copy = g.clone();
        for recipe in &all {
            assert_eq!(
                result(&mut memo, &copy, recipe, &cache),
                recipe.apply_with(&g, &cache)
            );
        }
        assert_eq!(memo.misses(), 76);
    }

    #[test]
    fn a_no_op_step_reuses_the_base_edges() {
        // `!a·!(a·b)` rewrites to `!a`. Balancing rebuilds the two
        // supergates, `{a, b}` and `{!a, !(a·b)}`, as they are.
        let mut g = Aig::new();
        let x: Vec<Lit> = (0..2).map(|_| g.add_input()).collect();
        let ab = g.and(x[0], x[1]);
        let f = g.and(!x[0], !ab);
        g.add_output(f, None::<&str>);
        let cache = ResynthCache::new();
        let mut memo = RecipeMemo::new();
        let rw: Recipe = "rw".parse().expect("parses");
        let b_rw: Recipe = "b;rw".parse().expect("parses");
        let rewritten = memo.walk(&g, &rw, &cache).node;
        assert_ne!(rewritten, Some(MEMO_BASE), "`rw` changes this graph");
        assert_eq!(memo.misses(), 1);
        // `b` runs once and lands on the base, whose `rw` edge serves
        // the rest: `rw` does not run again.
        assert_eq!(memo.walk(&g, &b_rw, &cache).node, rewritten);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
        assert_eq!(
            result(&mut memo, &g, &b_rw, &cache),
            b_rw.apply_with(&g, &cache)
        );
        assert_eq!((memo.hits(), memo.misses()), (3, 2));
        assert_eq!(memo.identity_walks(), 0);
    }

    #[test]
    fn a_different_graph_starts_over() {
        let (g, h) = (random_aig(5), random_aig(6));
        let cache = ResynthCache::new();
        let mut memo = RecipeMemo::new();
        let recipe: Recipe = "rw;b".parse().expect("parses");
        assert!(
            memo.walk(&g, &recipe, &cache).rebased,
            "the first walk sets the base"
        );
        assert_eq!(memo.len(), 3);
        let again = memo.walk(&g.clone(), &recipe, &cache);
        assert!(!again.rebased, "an equal copy keeps the base");
        assert!(memo.walk(&h, &recipe, &cache).rebased);
        assert_eq!(
            result(&mut memo, &h, &recipe, &cache),
            recipe.apply_with(&h, &cache)
        );
        assert_eq!((memo.hits(), memo.misses()), (4, 4));
    }

    #[test]
    fn disabled_memo_bypasses_and_empty_recipe_ends_at_the_base() {
        let g = random_aig(7);
        let cache = ResynthCache::new();
        let mut off = RecipeMemo::disabled();
        let recipe: Recipe = "b;rf".parse().expect("parses");
        assert_eq!(
            result(&mut off, &g, &recipe, &cache),
            recipe.apply_with(&g, &cache)
        );
        assert!(off.walk(&g, &recipe, &cache).node.is_none());
        assert!(!off.is_enabled() && off.is_empty());
        assert_eq!((off.hits(), off.misses()), (0, 0));
        let mut on = RecipeMemo::new();
        let empty = Recipe(Vec::new());
        assert_eq!(result(&mut on, &g, &empty, &cache), g);
        assert_eq!(on.walk(&g, &empty, &cache).node, Some(MEMO_BASE));
        assert_eq!((on.hits(), on.misses()), (0, 0));
    }
}
