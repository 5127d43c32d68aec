//! Structural analyses: levels, fanout, path depths and path counts.
//!
//! These are the raw graph quantities from which the paper's Table II
//! features are derived (see the `features` crate), and the proxy
//! metrics (level ≈ delay, node count ≈ area) used by the baseline
//! optimization flow.

use crate::graph::Aig;
use crate::lit::{Lit, NodeId};

/// Per-node logic levels of an [`Aig`].
///
/// Inputs and the constant node have level 0; an AND node has level
/// `1 + max(level(fanin0), level(fanin1))`.
#[derive(Clone, Debug)]
pub struct Levels {
    /// `level[id]` for every node id.
    pub level: Vec<u32>,
    /// Maximum level over all primary-output drivers.
    pub max_level: u32,
}

/// Computes logic levels for every node (the paper's delay proxy).
///
/// # Examples
///
/// ```
/// use aig::{Aig, analysis::levels};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let c = g.add_input();
/// let ab = g.and(a, b);
/// let abc = g.and(ab, c);
/// g.add_output(abc, None::<&str>);
/// assert_eq!(levels(&g).max_level, 2);
/// ```
pub fn levels(aig: &Aig) -> Levels {
    let mut level = vec![0u32; aig.num_nodes()];
    let (f0s, f1s) = aig.fanin_arrays();
    aig.for_each_and_topo(|id| {
        let (f0, f1) = (f0s[id as usize], f1s[id as usize]);
        level[id as usize] = 1 + level[f0.var() as usize].max(level[f1.var() as usize]);
    });
    let max_level = aig
        .outputs()
        .iter()
        .map(|o| level[o.lit.var() as usize])
        .max()
        .unwrap_or(0);
    Levels { level, max_level }
}

/// Computes the fanout count of every node.
///
/// Fanout counts include both AND fanins and primary-output drivers,
/// matching Fig. 4(b) of the paper where output edges contribute to a
/// node's annotated weight.
pub fn fanout_counts(aig: &Aig) -> Vec<u32> {
    let mut fanout = Vec::new();
    fanout_counts_into(aig, &mut fanout);
    fanout
}

/// [`fanout_counts`] into a caller-owned buffer, reusing its
/// allocation.
pub fn fanout_counts_into(aig: &Aig, fanout: &mut Vec<u32>) {
    fanout.clear();
    fanout.resize(aig.num_nodes(), 0);
    // Flat lane scan: no per-node id filtering, the INVALID check on
    // `fanin0` doubles as the is-AND test.
    let (f0s, f1s) = aig.fanin_arrays();
    for (f0, f1) in f0s.iter().zip(f1s.iter()) {
        if *f0 == Lit::INVALID {
            continue;
        }
        fanout[f0.var() as usize] += 1;
        fanout[f1.var() as usize] += 1;
    }
    for o in aig.outputs() {
        fanout[o.lit.var() as usize] += 1;
    }
}

/// How each node contributes to a weighted path depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepthWeight {
    /// Every node (inputs included, per Fig. 4(a)) weighs 1.
    Unit,
    /// Every node weighs its fanout count (Fig. 4(b)).
    Fanout,
    /// Nodes with fanout `>= threshold` weigh 1, others 0
    /// (Fig. 4(c) uses `threshold = 2`).
    FanoutAtLeast(u32),
}

/// Maximum weighted depth seen at each primary output.
///
/// Follows the paper's convention (Fig. 4): the depth of a PO counts
/// the nodes between the PO and a PI, *including* the PI node and
/// *excluding* the PO itself (the PO is a port, not a gate). The
/// constant node contributes 0.
///
/// Returns one value per primary output, in output order.
pub fn po_depths(aig: &Aig, weight: DepthWeight) -> Vec<u64> {
    let fanout;
    let node_weight: Box<dyn Fn(NodeId) -> u64> = match weight {
        DepthWeight::Unit => Box::new(|_| 1),
        DepthWeight::Fanout => {
            fanout = fanout_counts(aig);
            let f = fanout;
            Box::new(move |id| u64::from(f[id as usize]))
        }
        DepthWeight::FanoutAtLeast(t) => {
            let f = fanout_counts(aig);
            Box::new(move |id| u64::from(f[id as usize] >= t))
        }
    };
    // depth[id] = weighted longest path from any PI down to and
    // including node id. Constant node = 0, PIs = their own weight.
    let mut depth = vec![0u64; aig.num_nodes()];
    for &pi in aig.inputs() {
        depth[pi as usize] = node_weight(pi);
    }
    aig.for_each_and_topo(|id| {
        let [f0, f1] = aig.fanins(id);
        let d = depth[f0.var() as usize].max(depth[f1.var() as usize]);
        depth[id as usize] = d + node_weight(id);
    });
    aig.outputs()
        .iter()
        .map(|o| depth[o.lit.var() as usize])
        .collect()
}

/// Number of PI-to-PO paths reaching each primary output.
///
/// Counted as in Fig. 4(d): each PI contributes one path, and an AND
/// node accumulates the path counts of both fanins. Counts are `f64`
/// and saturate to `f64::MAX` instead of overflowing (deep multiplier
/// AIGs exceed `u128` path counts easily).
pub fn po_path_counts(aig: &Aig) -> Vec<f64> {
    let mut paths = vec![0.0f64; aig.num_nodes()];
    for &pi in aig.inputs() {
        paths[pi as usize] = 1.0;
    }
    aig.for_each_and_topo(|id| {
        let [f0, f1] = aig.fanins(id);
        let p = paths[f0.var() as usize] + paths[f1.var() as usize];
        paths[id as usize] = if p.is_finite() { p } else { f64::MAX };
    });
    aig.outputs()
        .iter()
        .map(|o| paths[o.lit.var() as usize])
        .collect()
}

/// Ids of the nodes lying on at least one topologically *longest* path
/// (`depth(node) + height(node) == max_level`), the paper's "long
/// path" node set used for `long_path_fanout_*` features.
pub fn long_path_nodes(aig: &Aig) -> Vec<NodeId> {
    let lv = levels(aig);
    if aig.num_ands() == 0 {
        return Vec::new();
    }
    // height[id]: longest distance (in AND nodes) from id to any PO
    // driver that it can reach.
    let n = aig.num_nodes();
    let mut height = vec![i64::MIN; n];
    for o in aig.outputs() {
        height[o.lit.var() as usize] = height[o.lit.var() as usize].max(0);
    }
    let mut propagate = |id: NodeId| {
        if height[id as usize] == i64::MIN {
            return;
        }
        let h = height[id as usize];
        let [f0, f1] = aig.fanins(id);
        for f in [f0, f1] {
            let v = f.var() as usize;
            height[v] = height[v].max(h + 1);
        }
    };
    if aig.is_topological() {
        for id in (1..n as NodeId).rev() {
            if aig.is_and(id) {
                propagate(id);
            }
        }
    } else {
        // Consumers before fanins: reverse dependency order.
        for &id in aig.topo_and_order().iter().rev() {
            propagate(id);
        }
    }
    let max = i64::from(lv.max_level);
    (1..n as NodeId)
        .filter(|&id| {
            height[id as usize] != i64::MIN
                && i64::from(lv.level[id as usize]) + height[id as usize] == max
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lit;

    fn chain(n: usize) -> Aig {
        // f = x0 & x1 & ... & x_{n} as a linear chain.
        let mut g = Aig::new();
        let mut acc = g.add_input();
        for _ in 0..n {
            let x = g.add_input();
            acc = g.and(acc, x);
        }
        g.add_output(acc, None::<&str>);
        g
    }

    #[test]
    fn chain_levels() {
        let g = chain(5);
        assert_eq!(levels(&g).max_level, 5);
    }

    #[test]
    fn unit_depth_counts_pi() {
        // Single AND of two PIs: depth per Fig 4(a) = PI + AND = 2.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        assert_eq!(po_depths(&g, DepthWeight::Unit), vec![2]);
    }

    #[test]
    fn po_direct_from_pi() {
        let mut g = Aig::new();
        let a = g.add_input();
        g.add_output(a, None::<&str>);
        assert_eq!(po_depths(&g, DepthWeight::Unit), vec![1]);
        assert_eq!(po_path_counts(&g), vec![1.0]);
    }

    #[test]
    fn po_from_const() {
        let mut g = Aig::new();
        g.add_output(Lit::TRUE, None::<&str>);
        assert_eq!(po_depths(&g, DepthWeight::Unit), vec![0]);
        assert_eq!(po_path_counts(&g), vec![0.0]);
    }

    #[test]
    fn fanout_includes_outputs() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        g.add_output(f, None::<&str>);
        let fo = fanout_counts(&g);
        assert_eq!(fo[f.var() as usize], 2);
        assert_eq!(fo[a.var() as usize], 1);
    }

    #[test]
    fn binary_weight_zeroes_low_fanout() {
        let g = chain(4);
        // Every node has fanout 1, so all weights are 0.
        let d = po_depths(&g, DepthWeight::FanoutAtLeast(2));
        assert_eq!(d, vec![0]);
        // With threshold 1 every node weighs 1 -> same as unit depth.
        assert_eq!(
            po_depths(&g, DepthWeight::FanoutAtLeast(1)),
            po_depths(&g, DepthWeight::Unit)
        );
    }

    #[test]
    fn path_counts_xor_tree() {
        // xor(a, b) has 2 AND-level paths from each input: 2+2 = 4
        // paths at the top node... count concretely.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.xor(a, b);
        g.add_output(x, None::<&str>);
        let p = po_path_counts(&g);
        assert_eq!(p, vec![4.0]);
    }

    #[test]
    fn long_path_nodes_of_chain() {
        let g = chain(3);
        // All 3 AND nodes plus the two PIs on the longest path...
        // level-based criterion keeps nodes with level+height == max.
        let nodes = long_path_nodes(&g);
        let lv = levels(&g);
        for &id in &nodes {
            assert!(lv.level[id as usize] <= lv.max_level);
        }
        // The final AND is certainly on the longest path.
        assert!(nodes.contains(&g.outputs()[0].lit.var()));
    }
}
