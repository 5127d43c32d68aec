//! Graph-level AIG features for post-mapping timing prediction.
//!
//! Implements Table II of *"ML-based AIG Timing Prediction to Enhance
//! Logic Optimization"* (DATE 2025). The features target the two
//! sources of miscorrelation between AIG depth and mapped delay the
//! paper identifies: path-depth changes from cell merging, and fanout
//! changes from mapping.
//!
//! | feature | count | paper name |
//! |---|---|---|
//! | AND-node count | 1 | `numberof_node` |
//! | AIG level | 1 | `aig_level` |
//! | top-3 PO depths | 3 | `aig_nth_long_path_depth` |
//! | top-3 fanout-weighted PO depths | 3 | `aig_nth_weighted_path_depth` |
//! | top-3 binary-weighted PO depths | 3 | `aig_nth_binary_weighted_path_depth` |
//! | fanout mean/max/std/sum | 4 | `fanout_*` |
//! | long-path fanout mean/max/std/sum | 4 | `long_path_fanout_*` |
//! | top-3 PO path counts (log2) | 3 | `num_of_paths` |
//!
//! Path counts are stored as `log2(1 + count)`: tree-based models are
//! invariant to monotone per-feature transforms, and raw path counts
//! overflow `f64` display ranges on multiplier cones.
//!
//! # The `DirtyRegion` feature-delta contract
//!
//! [`IncrementalFeatures`] maintains this vector as deltas under the
//! [`aig::incremental::DirtyRegion`] of an edit, bit-identical to
//! [`extract`] (which stays as the differential oracle). The features
//! split into two maintenance classes:
//!
//! * **Footprint-local** — node count, AIG level, and the fanout
//!   mean/max/std/sum families (whole-graph and long-path-restricted).
//!   These are exact integer aggregates (count / sum / sum-of-squares
//!   / histogram); an edit adjusts only the contributions of nodes in
//!   the region's footprint (`edited` ∪ `fanout_touched` ∪ re-leveled
//!   `nodes`), so the per-edit cost is bounded by the footprint, not
//!   the graph. Longest-path membership (`level + height ==
//!   max_level`) is kept per-`s` bucketed, so a `max_level` shift
//!   re-selects a bucket instead of rescanning the graph.
//! * **PO-global** — the top-3 depth families and top-3 path counts
//!   are per-output order statistics. Per-node depth/path mirrors
//!   repair by worklist with an equality cutoff from the footprint
//!   seeds; a PO's cached contribution is recomputed only when its
//!   driver literal changed or the driver's mirrored value actually
//!   moved (the `pos_recomputed` work-bound counter measures exactly
//!   this against the all-POs denominator).
//!
//! Rollback needs no special machinery: a rejected move's footprint
//! (captured before the rollback) re-seeds the same worklists on the
//! restored graph, and the equality cutoff converges back to the
//! pre-move mirrors exactly.
//!
//! # Examples
//!
//! ```
//! use aig::Aig;
//! use features::{extract, FeatureVector, NUM_FEATURES};
//!
//! let mut g = Aig::new();
//! let a = g.add_input();
//! let b = g.add_input();
//! let f = g.and(a, b);
//! g.add_output(f, None::<&str>);
//!
//! let fv: FeatureVector = extract(&g);
//! assert_eq!(fv.as_slice().len(), NUM_FEATURES);
//! assert_eq!(fv[features::NODE_COUNT], 1.0);
//! assert_eq!(fv[features::AIG_LEVEL], 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use aig::analysis::{
    fanout_counts, levels, long_path_nodes, po_depths, po_path_counts, DepthWeight,
};
use aig::Aig;
use std::fmt;
use std::ops::Index;

mod incremental;

pub use incremental::IncrementalFeatures;

/// Number of features in a [`FeatureVector`].
pub const NUM_FEATURES: usize = 22;

/// Index of the AND-node-count feature.
pub const NODE_COUNT: usize = 0;
/// Index of the AIG-level feature.
pub const AIG_LEVEL: usize = 1;
/// First index of the three plain top-depth features.
pub const LONG_PATH_DEPTH: usize = 2;
/// First index of the three fanout-weighted depth features.
pub const WEIGHTED_PATH_DEPTH: usize = 5;
/// First index of the three binary-weighted depth features.
pub const BINARY_WEIGHTED_PATH_DEPTH: usize = 8;
/// First index of the four fanout-distribution features.
pub const FANOUT_STATS: usize = 11;
/// First index of the four long-path fanout features.
pub const LONG_PATH_FANOUT_STATS: usize = 15;
/// First index of the three path-count features.
pub const NUM_PATHS: usize = 19;

/// Names of all features, aligned with [`FeatureVector`] indices.
pub fn feature_names() -> [&'static str; NUM_FEATURES] {
    [
        "number_of_node",
        "aig_level",
        "aig_1st_long_path_depth",
        "aig_2nd_long_path_depth",
        "aig_3rd_long_path_depth",
        "aig_1st_weighted_path_depth",
        "aig_2nd_weighted_path_depth",
        "aig_3rd_weighted_path_depth",
        "aig_1st_binary_weighted_path_depth",
        "aig_2nd_binary_weighted_path_depth",
        "aig_3rd_binary_weighted_path_depth",
        "fanout_mean",
        "fanout_max",
        "fanout_std",
        "fanout_sum",
        "long_path_fanout_mean",
        "long_path_fanout_max",
        "long_path_fanout_std",
        "long_path_fanout_sum",
        "num_of_paths_1st",
        "num_of_paths_2nd",
        "num_of_paths_3rd",
    ]
}

/// A fixed-size feature vector extracted from one AIG.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeatureVector(pub [f64; NUM_FEATURES]);

impl FeatureVector {
    /// The features as a slice (model input order).
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

impl Index<usize> for FeatureVector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in feature_names().iter().zip(self.0.iter()) {
            writeln!(f, "{name:38} {v:.4}")?;
        }
        Ok(())
    }
}

/// Descending top-3 of a list, padded with the minimum (or 0.0).
fn top3(mut vals: Vec<f64>) -> [f64; 3] {
    top3_in_place(&mut vals)
}

/// [`top3`] over a caller-owned scratch slice (sorted in place), so
/// the incremental path shares the exact selection and padding
/// semantics without allocating.
pub(crate) fn top3_in_place(vals: &mut [f64]) -> [f64; 3] {
    vals.sort_by(|a, b| b.total_cmp(a));
    let pad = vals.last().copied().unwrap_or(0.0);
    [
        vals.first().copied().unwrap_or(0.0),
        vals.get(1).copied().unwrap_or(pad),
        vals.get(2).copied().unwrap_or(pad),
    ]
}

/// Mean, max, population std and sum from exact integer aggregates
/// (`count`, `sum`, sum of squares, and the maximum value).
///
/// Both [`extract`] and [`IncrementalFeatures`] derive the fanout
/// statistics through this one function from integer accumulators, so
/// a delta-maintained aggregate and a from-scratch scan produce
/// identical bits regardless of summation order. Empty samples report
/// all-zero statistics.
pub(crate) fn stats_from_aggregates(count: u64, sum: u64, ssq: u128, max: u32) -> [f64; 4] {
    if count == 0 {
        return [0.0; 4];
    }
    let n = count as f64;
    let sum_f = sum as f64;
    let mean = sum_f / n;
    let var = ((ssq as f64) / n - mean * mean).max(0.0);
    [mean, f64::from(max), var.sqrt(), sum_f]
}

/// [`stats_from_aggregates`] over a stream of integer samples.
fn int_stats(vals: impl IntoIterator<Item = u32>) -> [f64; 4] {
    let (mut count, mut sum, mut ssq, mut max) = (0u64, 0u64, 0u128, 0u32);
    for v in vals {
        count += 1;
        sum += u64::from(v);
        ssq += u128::from(v) * u128::from(v);
        max = max.max(v);
    }
    stats_from_aggregates(count, sum, ssq, max)
}

/// Extracts the Table II feature vector from an AIG.
///
/// Runs in a handful of linear passes over the graph; this is the
/// "feature extraction" runtime component of the paper's ML flow
/// (Table IV).
pub fn extract(aig: &Aig) -> FeatureVector {
    let mut f = [0.0f64; NUM_FEATURES];
    f[NODE_COUNT] = aig.num_ands() as f64;
    f[AIG_LEVEL] = f64::from(levels(aig).max_level);

    let plain: Vec<f64> = po_depths(aig, DepthWeight::Unit)
        .into_iter()
        .map(|d| d as f64)
        .collect();
    f[LONG_PATH_DEPTH..LONG_PATH_DEPTH + 3].copy_from_slice(&top3(plain));

    let weighted: Vec<f64> = po_depths(aig, DepthWeight::Fanout)
        .into_iter()
        .map(|d| d as f64)
        .collect();
    f[WEIGHTED_PATH_DEPTH..WEIGHTED_PATH_DEPTH + 3].copy_from_slice(&top3(weighted));

    let binary: Vec<f64> = po_depths(aig, DepthWeight::FanoutAtLeast(2))
        .into_iter()
        .map(|d| d as f64)
        .collect();
    f[BINARY_WEIGHTED_PATH_DEPTH..BINARY_WEIGHTED_PATH_DEPTH + 3].copy_from_slice(&top3(binary));

    let fanout = fanout_counts(aig);
    // Fanout statistics over real signals (inputs + AND nodes),
    // excluding the constant node.
    f[FANOUT_STATS..FANOUT_STATS + 4].copy_from_slice(&int_stats(
        aig.node_ids().skip(1).map(|id| fanout[id as usize]),
    ));

    f[LONG_PATH_FANOUT_STATS..LONG_PATH_FANOUT_STATS + 4].copy_from_slice(&int_stats(
        long_path_nodes(aig)
            .into_iter()
            .map(|id| fanout[id as usize]),
    ));

    let paths: Vec<f64> = po_path_counts(aig)
        .into_iter()
        .map(|p| (1.0 + p).log2())
        .collect();
    f[NUM_PATHS..NUM_PATHS + 3].copy_from_slice(&top3(paths));

    FeatureVector(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Lit;

    fn chain(n: usize) -> Aig {
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
    fn names_and_groups_cover_everything() {
        assert_eq!(feature_names().len(), NUM_FEATURES);
    }

    #[test]
    fn chain_features() {
        let g = chain(5);
        let f = extract(&g);
        assert_eq!(f[NODE_COUNT], 5.0);
        assert_eq!(f[AIG_LEVEL], 5.0);
        // Depth counts PI + 5 ANDs... per Fig 4(a): PI included, so 6.
        assert_eq!(f[LONG_PATH_DEPTH], 6.0);
        // Single PO: 2nd/3rd pad with the same value.
        assert_eq!(f[LONG_PATH_DEPTH + 1], 6.0);
        // Every node fanout 1, threshold-2 binary weights are all 0.
        assert_eq!(f[BINARY_WEIGHTED_PATH_DEPTH], 0.0);
        // Paths: single path from each of 6 PIs = 6 paths.
        let want = (1.0f64 + 6.0).log2();
        assert!((f[NUM_PATHS] - want).abs() < 1e-12);
    }

    #[test]
    fn fanout_stats_with_shared_node() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let x = g.and(ab, c);
        let y = g.and(ab, !c);
        g.add_output(x, None::<&str>);
        g.add_output(y, None::<&str>);
        let f = extract(&g);
        // ab has fanout 2; max fanout is 2.
        assert_eq!(f[FANOUT_STATS + 1], 2.0);
        // Sum of fanouts: a=1, b=1, c=2, ab=2, x=1, y=1 = 8.
        assert_eq!(f[FANOUT_STATS + 3], 8.0);
    }

    #[test]
    fn weighted_depth_exceeds_plain_with_fanout() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let x = g.and(ab, c);
        let y = g.and(ab, !c);
        g.add_output(x, None::<&str>);
        g.add_output(y, None::<&str>);
        let f = extract(&g);
        assert!(
            f[WEIGHTED_PATH_DEPTH] >= f[LONG_PATH_DEPTH],
            "fanout weights >= 1 on used nodes"
        );
    }

    #[test]
    fn constant_only_graph() {
        let mut g = Aig::with_inputs(2);
        g.add_output(Lit::TRUE, None::<&str>);
        let f = extract(&g);
        assert_eq!(f[NODE_COUNT], 0.0);
        assert_eq!(f[AIG_LEVEL], 0.0);
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic() {
        let g = chain(8);
        assert_eq!(extract(&g), extract(&g));
    }

    #[test]
    fn display_lists_all_names() {
        let g = chain(3);
        let s = extract(&g).to_string();
        for name in feature_names() {
            assert!(s.contains(name), "missing {name}");
        }
    }

    #[test]
    fn finite_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = Aig::new();
            let mut lits: Vec<Lit> = (0..10).map(|_| g.add_input()).collect();
            for _ in 0..300 {
                let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                lits.push(g.and(a, b));
            }
            for _ in 0..5 {
                let l = lits[rng.gen_range(0..lits.len())];
                g.add_output(l, None::<&str>);
            }
            let f = extract(&g);
            assert!(f.as_slice().iter().all(|v| v.is_finite()));
        }
    }
}
