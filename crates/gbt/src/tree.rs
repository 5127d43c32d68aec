//! Regression trees with histogram-based split finding.

use crate::dataset::Dataset;
use minijson::Json;

/// One node of a [`Tree`]: either an internal split (`feature`,
/// `threshold`, children) or a leaf (`value`).
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Split feature (internal nodes).
    pub feature: u32,
    /// Split threshold: rows with `value < threshold` go left.
    pub threshold: f32,
    /// Left child index, 0 if leaf.
    pub left: u32,
    /// Right child index, 0 if leaf.
    pub right: u32,
    /// Prediction value (leaves; shrinkage already applied).
    pub value: f32,
    /// Whether this node is a leaf.
    pub is_leaf: bool,
    /// Total split gain accumulated at this node (for importance).
    pub gain: f32,
}

/// A single regression tree.
#[derive(Clone, Debug, Default)]
pub struct Tree {
    /// Nodes; index 0 is the root.
    pub nodes: Vec<TreeNode>,
}

impl TreeNode {
    pub(crate) fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("feature".into(), Json::Num(f64::from(self.feature))),
            ("threshold".into(), Json::Num(f64::from(self.threshold))),
            ("left".into(), Json::Num(f64::from(self.left))),
            ("right".into(), Json::Num(f64::from(self.right))),
            ("value".into(), Json::Num(f64::from(self.value))),
            ("is_leaf".into(), Json::Bool(self.is_leaf)),
            ("gain".into(), Json::Num(f64::from(self.gain))),
        ])
    }

    pub(crate) fn from_json_value(v: &Json) -> Result<TreeNode, minijson::Error> {
        Ok(TreeNode {
            feature: v.field("feature")?.as_u32()?,
            threshold: v.field("threshold")?.as_f32()?,
            left: v.field("left")?.as_u32()?,
            right: v.field("right")?.as_u32()?,
            value: v.field("value")?.as_f32()?,
            is_leaf: v.field("is_leaf")?.as_bool()?,
            gain: v.field("gain")?.as_f32()?,
        })
    }
}

impl Tree {
    /// Predicts one feature row.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut n = 0usize;
        loop {
            let node = &self.nodes[n];
            if node.is_leaf {
                return node.value;
            }
            n = if row[node.feature as usize] < node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Predicts one `f64` feature row, converting each probed feature
    /// to `f32` at the comparison — the same convert-then-compare
    /// semantics as materialising an `f32` row first, without the
    /// allocation.
    pub fn predict_row_f64(&self, row: &[f64]) -> f32 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut n = 0usize;
        loop {
            let node = &self.nodes[n];
            if node.is_leaf {
                return node.value;
            }
            n = if (row[node.feature as usize] as f32) < node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf).count()
    }

    /// Maximum depth (root = 0; empty tree = 0).
    pub fn depth(&self) -> usize {
        fn rec(t: &Tree, n: usize) -> usize {
            let node = &t.nodes[n];
            if node.is_leaf {
                0
            } else {
                1 + rec(t, node.left as usize).max(rec(t, node.right as usize))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(self, 0)
        }
    }

    pub(crate) fn to_json_value(&self) -> Json {
        Json::Obj(vec![(
            "nodes".into(),
            Json::Arr(self.nodes.iter().map(TreeNode::to_json_value).collect()),
        )])
    }

    pub(crate) fn from_json_value(v: &Json) -> Result<Tree, minijson::Error> {
        Ok(Tree {
            nodes: v
                .field("nodes")?
                .as_arr()?
                .iter()
                .map(TreeNode::from_json_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Feature binning: per-feature quantile thresholds mapping raw
/// values to at most 256 bins.
#[derive(Clone, Debug)]
pub struct Bins {
    /// `edges[f]` = ascending thresholds; value `v` falls in bin
    /// `partition_point(edges, v >= e)`.
    pub edges: Vec<Vec<f32>>,
}

impl Bins {
    /// Builds quantile bins (at most `max_bins` per feature) from a
    /// dataset.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins < 2` or `max_bins > 256`.
    pub fn build(data: &Dataset, max_bins: usize) -> Bins {
        assert!((2..=256).contains(&max_bins), "max_bins must be 2..=256");
        let n = data.len();
        let mut edges = Vec::with_capacity(data.num_features());
        for f in 0..data.num_features() {
            let mut vals: Vec<f32> = (0..n).map(|r| data.value(r, f)).collect();
            vals.sort_by(f32::total_cmp);
            vals.dedup();
            let mut e = Vec::new();
            if vals.len() > 1 {
                if vals.len() <= max_bins {
                    // One bin per distinct value: midpoints as edges.
                    for w in vals.windows(2) {
                        e.push((w[0] + w[1]) / 2.0);
                    }
                } else {
                    for k in 1..max_bins {
                        let idx = k * (vals.len() - 1) / max_bins;
                        let edge = (vals[idx] + vals[idx + 1]) / 2.0;
                        if e.last() != Some(&edge) {
                            e.push(edge);
                        }
                    }
                }
            }
            edges.push(e);
        }
        Bins { edges }
    }

    /// Bin index of `v` for feature `f`.
    #[inline]
    pub fn bin_of(&self, f: usize, v: f32) -> u16 {
        self.edges[f].partition_point(|&e| v >= e) as u16
    }

    /// Number of bins for feature `f`.
    pub fn num_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }
}

/// Training-time parameters for a single tree (shared by boosting).
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost lambda).
    pub lambda: f64,
    /// Minimum gain to accept a split (XGBoost gamma).
    pub gamma: f64,
    /// Minimum hessian sum per child (≈ row count for RMSE).
    pub min_child_weight: f64,
    /// Shrinkage applied to leaf values.
    pub learning_rate: f64,
}

/// Grows one regression tree on (gradient, hessian) targets using
/// histogram split finding.
///
/// `rows` are the in-bag row indices; `cols` are the usable feature
/// columns (column subsampling); `binned[r * F + f]` is the
/// precomputed bin of row `r`, feature `f`.
///
/// Every split search of the tree accumulates into one histogram
/// scratch, which marks each bin it adds to in a 256-bit occupancy
/// mask. The gain scan then walks only the occupied bins, in
/// ascending order, and clears each one as it reads it, so the
/// scratch is zero again for the next feature. Skipping empty bins is
/// exact: an empty bin adds `+0.0` to both running sums, so its gain
/// repeats the previous bin's, and the strict `>` of the best-split
/// test never picks a repeat over the bin before it.
#[allow(clippy::too_many_arguments)] // the tree's whole training context
pub fn grow_tree(
    data: &Dataset,
    bins: &Bins,
    binned: &[u16],
    rows: &[u32],
    cols: &[u32],
    grad: &[f64],
    hess: &[f64],
    params: &TreeParams,
) -> Tree {
    let mut grower = Grower {
        nf: data.num_features(),
        bins,
        binned,
        cols,
        grad,
        hess,
        params,
        hist: Histogram {
            grad: [0.0; 256],
            hess: [0.0; 256],
            occupied: [0; 4],
        },
    };
    let mut tree = Tree::default();
    grower.grow(&mut rows.to_vec(), &mut tree, 0);
    tree
}

/// Gradient and hessian sums over one feature's bins, and the mask of
/// the bins that received a row. A drained histogram is all zero.
struct Histogram {
    grad: [f64; 256],
    hess: [f64; 256],
    occupied: [u64; 4],
}

impl Histogram {
    fn add(&mut self, bin: usize, g: f64, h: f64) {
        self.grad[bin] += g;
        self.hess[bin] += h;
        self.occupied[bin / 64] |= 1 << (bin % 64);
    }

    /// Calls `visit(bin, grad, hess)` on every occupied bin in
    /// ascending order, clearing each.
    fn drain(&mut self, mut visit: impl FnMut(usize, f64, f64)) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut mask = std::mem::take(word);
            while mask != 0 {
                let bin = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                visit(
                    bin,
                    std::mem::take(&mut self.grad[bin]),
                    std::mem::take(&mut self.hess[bin]),
                );
            }
        }
    }
}

/// What every node of one tree reads, and the histogram scratch its
/// split searches share.
struct Grower<'a> {
    nf: usize,
    bins: &'a Bins,
    binned: &'a [u16],
    cols: &'a [u32],
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a TreeParams,
    hist: Histogram,
}

impl Grower<'_> {
    fn grow(&mut self, rows: &mut [u32], tree: &mut Tree, depth: usize) -> u32 {
        let params = self.params;
        let g_sum: f64 = rows.iter().map(|&r| self.grad[r as usize]).sum();
        let h_sum: f64 = rows.iter().map(|&r| self.hess[r as usize]).sum();
        let make_leaf = |tree: &mut Tree| -> u32 {
            let value = (-g_sum / (h_sum + params.lambda) * params.learning_rate) as f32;
            tree.nodes.push(TreeNode {
                feature: 0,
                threshold: 0.0,
                left: 0,
                right: 0,
                value,
                is_leaf: true,
                gain: 0.0,
            });
            (tree.nodes.len() - 1) as u32
        };
        if depth >= params.max_depth || rows.len() < 2 {
            return make_leaf(tree);
        }
        let Some((gain, f, split_bin)) = self.best_split(rows, g_sum, h_sum) else {
            return make_leaf(tree);
        };
        let threshold = self.bins.edges[f][split_bin as usize];
        // Partition rows in place.
        let mut lo = 0usize;
        let mut hi = rows.len();
        while lo < hi {
            if self.binned[rows[lo] as usize * self.nf + f] <= split_bin {
                lo += 1;
            } else {
                hi -= 1;
                rows.swap(lo, hi);
            }
        }
        if lo == 0 || lo == rows.len() {
            return make_leaf(tree);
        }
        let node_idx = tree.nodes.len() as u32;
        tree.nodes.push(TreeNode {
            feature: f as u32,
            threshold,
            left: 0,
            right: 0,
            value: 0.0,
            is_leaf: false,
            gain: gain as f32,
        });
        let (left_rows, right_rows) = rows.split_at_mut(lo);
        let left = self.grow(left_rows, tree, depth + 1);
        let right = self.grow(right_rows, tree, depth + 1);
        tree.nodes[node_idx as usize].left = left;
        tree.nodes[node_idx as usize].right = right;
        node_idx
    }

    /// The histogram split search: the `(gain, feature, bin)` with the
    /// highest positive gain, the first in scan order among equals.
    fn best_split(&mut self, rows: &[u32], g_sum: f64, h_sum: f64) -> Option<(f64, usize, u16)> {
        let params = self.params;
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<(f64, usize, u16)> = None;
        for &fc in self.cols {
            let f = fc as usize;
            let nb = self.bins.num_bins(f);
            if nb < 2 {
                continue;
            }
            for &r in rows {
                let r = r as usize;
                let b = usize::from(self.binned[r * self.nf + f]);
                self.hist.add(b, self.grad[r], self.hess[r]);
            }
            let mut gl = 0.0f64;
            let mut hl = 0.0f64;
            self.hist.drain(|b, g, h| {
                gl += g;
                hl += h;
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                // The last bin leaves no rows on the right.
                if b + 1 == nb || hl < params.min_child_weight || hr < params.min_child_weight {
                    return;
                }
                let gain = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > 0.0 && best.is_none_or(|(bg, ..)| gain > bg) {
                    best = Some((gain, f, b as u16));
                }
            });
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_dataset() -> Dataset {
        // y = 10 if x >= 5 else 0
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], if i >= 5 { 10.0 } else { 0.0 });
        }
        d
    }

    fn default_params() -> TreeParams {
        TreeParams {
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            learning_rate: 1.0,
        }
    }

    fn bin_all(d: &Dataset, bins: &Bins) -> Vec<u16> {
        let nf = d.num_features();
        let mut out = vec![0u16; d.len() * nf];
        for r in 0..d.len() {
            for f in 0..nf {
                out[r * nf + f] = bins.bin_of(f, d.value(r, f));
            }
        }
        out
    }

    #[test]
    fn learns_step_function() {
        let d = step_dataset();
        let bins = Bins::build(&d, 64);
        let binned = bin_all(&d, &bins);
        let rows: Vec<u32> = (0..d.len() as u32).collect();
        let cols = vec![0u32];
        // grad for rmse with pred=0: pred - y = -y
        let grad: Vec<f64> = d.labels().iter().map(|&y| -f64::from(y)).collect();
        let hess = vec![1.0f64; d.len()];
        let t = grow_tree(
            &d,
            &bins,
            &binned,
            &rows,
            &cols,
            &grad,
            &hess,
            &default_params(),
        );
        // Should split near 4.5 and predict ~0 / ~10 (lambda shrinks).
        assert!(t.predict_row(&[2.0]) < 1.0);
        assert!(t.predict_row(&[8.0]) > 7.0);
        assert!(t.depth() >= 1);
        assert!(t.num_leaves() >= 2);
    }

    #[test]
    fn depth_limit_respected() {
        let d = step_dataset();
        let bins = Bins::build(&d, 64);
        let binned = bin_all(&d, &bins);
        let rows: Vec<u32> = (0..d.len() as u32).collect();
        let grad: Vec<f64> = d.labels().iter().map(|&y| -f64::from(y)).collect();
        let hess = vec![1.0f64; d.len()];
        let mut p = default_params();
        p.max_depth = 1;
        let t = grow_tree(&d, &bins, &binned, &rows, &[0], &grad, &hess, &p);
        assert!(t.depth() <= 1);
    }

    #[test]
    fn constant_labels_yield_single_leaf() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], 5.0);
        }
        let bins = Bins::build(&d, 16);
        let binned = bin_all(&d, &bins);
        let rows: Vec<u32> = (0..10).collect();
        // grad with pred = 5 (perfect): zero gradients.
        let grad = vec![0.0f64; 10];
        let hess = vec![1.0f64; 10];
        let t = grow_tree(
            &d,
            &bins,
            &binned,
            &rows,
            &[0],
            &grad,
            &hess,
            &default_params(),
        );
        assert_eq!(t.num_leaves(), 1);
        assert!(t.predict_row(&[3.0]).abs() < 1e-6);
    }

    #[test]
    fn bins_quantiles() {
        let mut d = Dataset::new(1);
        for i in 0..1000 {
            d.push_row(&[(i % 100) as f32], 0.0);
        }
        let bins = Bins::build(&d, 16);
        assert!(bins.num_bins(0) <= 16);
        assert!(bins.num_bins(0) >= 8);
        // Monotone binning.
        let b1 = bins.bin_of(0, 3.0);
        let b2 = bins.bin_of(0, 80.0);
        assert!(b2 > b1);
    }

    #[test]
    fn binary_feature_bins() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[(i % 2) as f32], 0.0);
        }
        let bins = Bins::build(&d, 256);
        assert_eq!(bins.num_bins(0), 2);
        assert_eq!(bins.bin_of(0, 0.0), 0);
        assert_eq!(bins.bin_of(0, 1.0), 1);
    }

    #[test]
    fn empty_tree_predicts_zero() {
        assert_eq!(Tree::default().predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let d = step_dataset();
        let bins = Bins::build(&d, 64);
        let binned = bin_all(&d, &bins);
        let rows: Vec<u32> = (0..d.len() as u32).collect();
        let grad: Vec<f64> = d.labels().iter().map(|&y| -f64::from(y)).collect();
        let hess = vec![1.0f64; d.len()];
        let t = grow_tree(
            &d,
            &bins,
            &binned,
            &rows,
            &[0],
            &grad,
            &hess,
            &default_params(),
        );
        let json = t.to_json_value().dump();
        let back = Tree::from_json_value(&minijson::Json::parse(&json).expect("parses"))
            .expect("deserialize");
        assert_eq!(back.predict_row(&[7.0]), t.predict_row(&[7.0]));
        // Thresholds survive the text roundtrip bit-exactly.
        for (a, b) in t.nodes.iter().zip(&back.nodes) {
            assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }
}
