//! Delta-maintained Table II features under [`DirtyRegion`]
//! footprints.
//!
//! [`IncrementalFeatures`] keeps every per-node quantity the full
//! [`extract`](crate::extract) walk derives — level, fanout, the
//! three weighted depths, path counts, and longest-path height — as
//! mirrors that are repaired by worklists seeded from the
//! [`DirtyRegion`] of an edit, with an equality cutoff: propagation
//! stops at any node whose recomputed value matches its mirror.
//! Whole-graph statistics (fanout mean/max/std/sum and their
//! long-path restriction) are maintained as exact integer aggregates
//! (count / sum / sum-of-squares / value histogram), so applying a
//! delta and recomputing from scratch produce *identical bits* — the
//! full `extract` stays in the tree as the differential oracle.
//!
//! See the [crate docs](crate) for the feature-delta contract
//! (which features are footprint-local and which are PO-global).

use crate::{
    stats_from_aggregates, top3_in_place, FeatureVector, AIG_LEVEL, BINARY_WEIGHTED_PATH_DEPTH,
    FANOUT_STATS, LONG_PATH_DEPTH, LONG_PATH_FANOUT_STATS, NODE_COUNT, NUM_FEATURES, NUM_PATHS,
    WEIGHTED_PATH_DEPTH,
};
use aig::incremental::{DirtyRegion, IncrementalAnalysis};
use aig::{Aig, Lit, NodeId, NodeKind};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Sentinel for "no PO is reachable from this node" (mirrors the
/// oracle's `i64::MIN` height initialisation in
/// [`aig::analysis::long_path_nodes`]).
const NO_HEIGHT: i64 = i64::MIN;

/// Exact integer aggregates of one sample: count, sum and sum of
/// squares. Feeds [`stats_from_aggregates`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Agg {
    count: u64,
    sum: u64,
    ssq: u128,
}

impl Agg {
    fn add(&mut self, v: u32) {
        self.count += 1;
        self.sum += u64::from(v);
        self.ssq += u128::from(v) * u128::from(v);
    }

    fn remove(&mut self, v: u32) {
        self.count -= 1;
        self.sum -= u64::from(v);
        self.ssq -= u128::from(v) * u128::from(v);
    }
}

fn hist_add<K: Ord>(hist: &mut BTreeMap<K, u32>, key: K) {
    *hist.entry(key).or_insert(0) += 1;
}

fn hist_remove<K: Ord>(hist: &mut BTreeMap<K, u32>, key: K) {
    match hist.get_mut(&key) {
        Some(c) if *c > 1 => *c -= 1,
        Some(_) => {
            hist.remove(&key);
        }
        None => unreachable!("histogram remove of absent key"),
    }
}

/// The [`FeatureVector`] maintained as deltas under [`DirtyRegion`]
/// footprints, bit-identical to [`extract`](crate::extract).
///
/// Lifecycle: construct with [`IncrementalFeatures::default`], prime
/// with [`IncrementalFeatures::rebuild`], then after every edit (or
/// rollback) repair with [`IncrementalFeatures::sync`] passing the
/// edit's merged [`DirtyRegion`] and the up-to-date
/// [`IncrementalAnalysis`] of the same graph. [`IncrementalFeatures::features`]
/// assembles the current vector without touching the graph beyond
/// `num_ands`. A `sync` on an invalid state falls back to `rebuild`.
#[derive(Clone, Debug, Default)]
pub struct IncrementalFeatures {
    valid: bool,
    // Per-node mirrors (index = node id; id 0 = constant, fixed).
    level: Vec<u32>,
    fanout: Vec<u32>,
    d_unit: Vec<u64>,
    d_fo: Vec<u64>,
    d_bin: Vec<u64>,
    paths: Vec<f64>,
    height: Vec<i64>,
    // Recorded long-path contribution per node: the (s, fanout) key
    // this node currently holds in `lp_buckets`/`lp_hist`, where
    // `s = level + height`. `NO_HEIGHT` = no contribution. Keys are
    // *recorded*, not derived, so removal stays exact regardless of
    // the order mirror updates land in.
    lp_s: Vec<i64>,
    lp_fo: Vec<u32>,
    // Whole-graph fanout aggregates over ids 1..n (the constant node
    // is excluded, matching `extract`).
    fo_agg: Agg,
    fo_hist: BTreeMap<u32, u32>,
    // Long-path aggregates, bucketed by s; the feature reads the
    // bucket at s = max_level (every other bucket is kept warm so a
    // max_level change is a lookup, not a recompute).
    lp_buckets: HashMap<i64, Agg>,
    lp_hist: BTreeMap<(i64, u32), u32>,
    max_level: u32,
    // Primary-output state: driver snapshot, per-node PO refcounts,
    // and the per-output cached feature contributions
    // [d_unit, d_fo, d_bin, log2(1 + paths)].
    out_snapshot: Vec<Lit>,
    po_ref: Vec<u32>,
    po_cache: Vec<[f64; 4]>,
    po_dirty: Vec<bool>,
    // Worklists + scratch (persistent, allocation-free once warm).
    fwd_heap: BinaryHeap<Reverse<NodeId>>,
    bwd_heap: BinaryHeap<NodeId>,
    in_fwd: Vec<bool>,
    in_bwd: Vec<bool>,
    stamp: Vec<u64>,
    epoch: u64,
    seeds: Vec<NodeId>,
    vals: Vec<f64>,
    pos_recomputed: u64,
    pos_evaluated: u64,
}

impl IncrementalFeatures {
    /// Whether the state currently mirrors some graph. A fresh (or
    /// [`IncrementalFeatures::invalidate`]d) state reports `false`
    /// and the next [`IncrementalFeatures::sync`] rebuilds.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Marks the state stale; the next `sync` takes the `rebuild`
    /// path. Called after whole-graph evaluations (clone-based SA
    /// candidates).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// POs whose cached depth/path contributions were actually
    /// recomputed, accumulated over all `sync`/`rebuild` calls (the
    /// work-bound counter).
    pub fn pos_recomputed(&self) -> u64 {
        self.pos_recomputed
    }

    /// Total POs seen over all `sync`/`rebuild` calls (the work-bound
    /// denominator: a full recompute would have refreshed all of
    /// them).
    pub fn pos_evaluated(&self) -> u64 {
        self.pos_evaluated
    }

    /// Recomputes every mirror and aggregate from scratch, using the
    /// same recurrences as the worklist repair path (the oracle
    /// semantics of [`aig::analysis`]).
    pub fn rebuild(&mut self, aig: &Aig) {
        let n = aig.num_nodes();
        self.level.clear();
        self.level.resize(n, 0);
        aig::analysis::fanout_counts_into(aig, &mut self.fanout);
        self.d_unit.clear();
        self.d_unit.resize(n, 0);
        self.d_fo.clear();
        self.d_fo.resize(n, 0);
        self.d_bin.clear();
        self.d_bin.resize(n, 0);
        self.paths.clear();
        self.paths.resize(n, 0.0);
        self.height.clear();
        self.height.resize(n, NO_HEIGHT);
        self.lp_s.clear();
        self.lp_s.resize(n, NO_HEIGHT);
        self.lp_fo.clear();
        self.lp_fo.resize(n, 0);
        self.fo_agg = Agg::default();
        self.fo_hist.clear();
        self.lp_buckets.clear();
        self.lp_hist.clear();
        self.in_fwd.clear();
        self.in_fwd.resize(n, false);
        self.in_bwd.clear();
        self.in_bwd.resize(n, false);
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.epoch = 0;
        self.fwd_heap.clear();
        self.bwd_heap.clear();

        // Levels (identical recurrence to `analysis::levels`).
        aig.for_each_and_topo(|id| {
            let [f0, f1] = aig.fanins(id);
            self.level[id as usize] =
                1 + self.level[f0.var() as usize].max(self.level[f1.var() as usize]);
        });
        self.max_level = aig
            .outputs()
            .iter()
            .map(|o| self.level[o.lit.var() as usize])
            .max()
            .unwrap_or(0);

        // Forward pass: depths + path counts (PIs seed, ANDs in topo
        // order — same recurrence the worklist repair applies).
        for &pi in aig.inputs() {
            let (du, df, db, p) = self.forward_values(aig, pi);
            let i = pi as usize;
            self.d_unit[i] = du;
            self.d_fo[i] = df;
            self.d_bin[i] = db;
            self.paths[i] = p;
        }
        aig.for_each_and_topo(|id| {
            let (du, df, db, p) = self.forward_values(aig, id);
            let i = id as usize;
            self.d_unit[i] = du;
            self.d_fo[i] = df;
            self.d_bin[i] = db;
            self.paths[i] = p;
        });

        // Backward pass: heights, exactly as `long_path_nodes` — PO
        // drivers floor at 0, AND nodes push `h + 1` to fanins in
        // reverse dependency order.
        self.po_ref.clear();
        self.po_ref.resize(n, 0);
        for o in aig.outputs() {
            let v = o.lit.var() as usize;
            self.po_ref[v] += 1;
            self.height[v] = self.height[v].max(0);
        }
        let propagate = |height: &mut [i64], id: NodeId| {
            let h = height[id as usize];
            if h == NO_HEIGHT {
                return;
            }
            let [f0, f1] = aig.fanins(id);
            for f in [f0, f1] {
                let v = f.var() as usize;
                height[v] = height[v].max(h + 1);
            }
        };
        if aig.is_topological() {
            for id in (1..n as NodeId).rev() {
                if aig.is_and(id) {
                    propagate(&mut self.height, id);
                }
            }
        } else {
            let order = aig.topo_and_order();
            for &id in order.order().iter().rev() {
                propagate(&mut self.height, id);
            }
        }

        // Aggregates + PO caches.
        for id in 1..n {
            self.fo_agg.add(self.fanout[id]);
            hist_add(&mut self.fo_hist, self.fanout[id]);
            self.refresh_lp(id as NodeId);
        }
        self.out_snapshot.clear();
        self.out_snapshot
            .extend(aig.outputs().iter().map(|o| o.lit));
        let p = aig.num_outputs();
        self.po_cache.clear();
        self.po_cache.resize(p, [0.0; 4]);
        self.po_dirty.clear();
        self.po_dirty.resize(p, false);
        for idx in 0..p {
            self.po_cache[idx] = self.po_values(self.out_snapshot[idx].var());
        }
        self.pos_recomputed += p as u64;
        self.pos_evaluated += p as u64;
        self.valid = true;
    }

    /// Repairs the mirrors after an edit (or a rollback), given the
    /// edit's merged [`DirtyRegion`] and the already-synced
    /// [`IncrementalAnalysis`] of the same graph. Falls back to
    /// [`IncrementalFeatures::rebuild`] when the state is invalid.
    pub fn sync(&mut self, aig: &Aig, region: &DirtyRegion, analysis: &IncrementalAnalysis) {
        if !self.valid {
            self.rebuild(aig);
            return;
        }
        debug_assert_eq!(analysis.num_nodes(), aig.num_nodes());
        self.epoch += 1;
        let n = aig.num_nodes();
        let old_len = self.level.len();
        self.resize_nodes(n);

        // Footprint scan: refresh level + fanout mirrors from the
        // analysis for every touched id, seeding both worklists.
        self.seeds.clear();
        for set in [region.nodes(), region.edited(), region.fanout_touched()] {
            self.seeds.extend(
                set.iter()
                    .copied()
                    .filter(|&id| id >= 1 && (id as usize) < n),
            );
        }
        self.seeds.extend((old_len.max(1) as NodeId)..(n as NodeId));
        self.seeds.sort_unstable();
        self.seeds.dedup();
        let seeds = std::mem::take(&mut self.seeds);
        for &id in &seeds {
            let i = id as usize;
            let lv = analysis.level(id);
            if lv != self.level[i] {
                self.level[i] = lv;
                self.refresh_lp(id);
            }
            let fo = analysis.fanout(id);
            if fo != self.fanout[i] {
                self.fo_agg.remove(self.fanout[i]);
                hist_remove(&mut self.fo_hist, self.fanout[i]);
                self.fo_agg.add(fo);
                hist_add(&mut self.fo_hist, fo);
                self.fanout[i] = fo;
                self.refresh_lp(id);
            }
            self.push_fwd(id);
            self.push_bwd(id);
        }
        self.seeds = seeds;
        self.max_level = analysis.max_level();

        // Primary-output diff: refcounts, height floors, and cache
        // dirty marks for retargeted outputs.
        let outs = aig.outputs();
        self.diff_outputs(outs);

        // Forward worklist: depths + path counts, equality cutoff.
        while let Some(Reverse(id)) = self.fwd_heap.pop() {
            let i = id as usize;
            self.in_fwd[i] = false;
            let (du, df, db, p) = self.forward_values(aig, id);
            if du != self.d_unit[i]
                || df != self.d_fo[i]
                || db != self.d_bin[i]
                || p.to_bits() != self.paths[i].to_bits()
            {
                self.d_unit[i] = du;
                self.d_fo[i] = df;
                self.d_bin[i] = db;
                self.paths[i] = p;
                self.stamp[i] = self.epoch;
                for &c in analysis.consumers(id) {
                    self.push_fwd(c);
                }
            }
        }

        // Backward worklist: heights, equality cutoff; a changed
        // height re-keys the node's long-path contribution.
        while let Some(id) = self.bwd_heap.pop() {
            let i = id as usize;
            self.in_bwd[i] = false;
            let mut h = if self.po_ref[i] > 0 { 0 } else { NO_HEIGHT };
            for &c in analysis.consumers(id) {
                let hc = self.height[c as usize];
                if hc != NO_HEIGHT {
                    h = h.max(hc + 1);
                }
            }
            if h != self.height[i] {
                self.height[i] = h;
                self.refresh_lp(id);
                if aig.is_and(id) {
                    let [f0, f1] = aig.fanins(id);
                    self.push_bwd(f0.var());
                    self.push_bwd(f1.var());
                }
            }
        }

        // PO cache refresh: only outputs whose driver literal changed
        // or whose driver's forward values were stamped this epoch.
        self.pos_evaluated += outs.len() as u64;
        for (idx, o) in outs.iter().enumerate() {
            let v = o.lit.var() as usize;
            if self.po_dirty[idx] || self.stamp[v] == self.epoch {
                self.po_cache[idx] = self.po_values(v as NodeId);
                self.po_dirty[idx] = false;
                self.pos_recomputed += 1;
            }
        }
    }

    /// Assembles the current [`FeatureVector`]; bit-identical to
    /// [`extract`](crate::extract) on the same graph.
    ///
    /// # Panics
    ///
    /// If the state is invalid (never rebuilt, or invalidated).
    pub fn features(&mut self, aig: &Aig) -> FeatureVector {
        assert!(self.valid, "features() on invalid IncrementalFeatures");
        let mut f = [0.0f64; NUM_FEATURES];
        f[NODE_COUNT] = aig.num_ands() as f64;
        f[AIG_LEVEL] = f64::from(self.max_level);
        for (col, at) in [
            (0, LONG_PATH_DEPTH),
            (1, WEIGHTED_PATH_DEPTH),
            (2, BINARY_WEIGHTED_PATH_DEPTH),
            (3, NUM_PATHS),
        ] {
            self.vals.clear();
            self.vals.extend(self.po_cache.iter().map(|c| c[col]));
            f[at..at + 3].copy_from_slice(&top3_in_place(&mut self.vals));
        }
        let fo_max = self.fo_hist.keys().next_back().copied().unwrap_or(0);
        f[FANOUT_STATS..FANOUT_STATS + 4].copy_from_slice(&stats_from_aggregates(
            self.fo_agg.count,
            self.fo_agg.sum,
            self.fo_agg.ssq,
            fo_max,
        ));
        // Long-path stats: the bucket at s = max_level. An AND-free
        // graph reports the empty stats, matching the oracle's early
        // return in `long_path_nodes`.
        let lp = if aig.num_ands() == 0 {
            [0.0; 4]
        } else {
            let s = i64::from(self.max_level);
            match self.lp_buckets.get(&s) {
                Some(b) => {
                    let max = self
                        .lp_hist
                        .range((s, 0)..=(s, u32::MAX))
                        .next_back()
                        .map(|((_, fo), _)| *fo)
                        .unwrap_or(0);
                    stats_from_aggregates(b.count, b.sum, b.ssq, max)
                }
                None => [0.0; 4],
            }
        };
        f[LONG_PATH_FANOUT_STATS..LONG_PATH_FANOUT_STATS + 4].copy_from_slice(&lp);
        FeatureVector(f)
    }

    /// Differential check: the assembled vector must equal the full
    /// [`extract`](crate::extract) bit for bit.
    ///
    /// # Panics
    ///
    /// On any differing feature bit.
    pub fn assert_matches_oracle(&mut self, aig: &Aig) {
        let got = self.features(aig);
        let want = crate::extract(aig);
        for (i, name) in crate::feature_names().iter().enumerate() {
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "feature {name}: incremental {} != oracle {}",
                got[i],
                want[i],
            );
        }
    }

    /// The forward recurrences (depths + path counts) of one node
    /// from its fanin mirrors — the exact oracle expressions of
    /// [`aig::analysis::po_depths`] / [`aig::analysis::po_path_counts`].
    fn forward_values(&self, aig: &Aig, id: NodeId) -> (u64, u64, u64, f64) {
        let i = id as usize;
        match aig.node_kind(id) {
            NodeKind::Const => (0, 0, 0, 0.0),
            NodeKind::Input => (
                1,
                u64::from(self.fanout[i]),
                u64::from(self.fanout[i] >= 2),
                1.0,
            ),
            NodeKind::And => {
                let [f0, f1] = aig.fanins(id);
                let a = f0.var() as usize;
                let b = f1.var() as usize;
                let du = self.d_unit[a].max(self.d_unit[b]) + 1;
                let df = self.d_fo[a].max(self.d_fo[b]) + u64::from(self.fanout[i]);
                let db = self.d_bin[a].max(self.d_bin[b]) + u64::from(self.fanout[i] >= 2);
                let p = self.paths[a] + self.paths[b];
                let p = if p.is_finite() { p } else { f64::MAX };
                (du, df, db, p)
            }
        }
    }

    /// The cached per-output contributions of a driver node.
    fn po_values(&self, v: NodeId) -> [f64; 4] {
        let i = v as usize;
        [
            self.d_unit[i] as f64,
            self.d_fo[i] as f64,
            self.d_bin[i] as f64,
            (1.0 + self.paths[i]).log2(),
        ]
    }

    /// Reconciles node `id`'s recorded long-path contribution with
    /// the one its current mirrors imply. Called on any change to the
    /// node's level, height or fanout.
    fn refresh_lp(&mut self, id: NodeId) {
        let i = id as usize;
        if i == 0 {
            return;
        }
        let want = if self.height[i] == NO_HEIGHT {
            NO_HEIGHT
        } else {
            i64::from(self.level[i]) + self.height[i]
        };
        let want_fo = self.fanout[i];
        if self.lp_s[i] == want && (want == NO_HEIGHT || self.lp_fo[i] == want_fo) {
            return;
        }
        if self.lp_s[i] != NO_HEIGHT {
            let agg = self
                .lp_buckets
                .get_mut(&self.lp_s[i])
                .expect("recorded long-path bucket");
            agg.remove(self.lp_fo[i]);
            if agg.count == 0 {
                self.lp_buckets.remove(&self.lp_s[i]);
            }
            hist_remove(&mut self.lp_hist, (self.lp_s[i], self.lp_fo[i]));
        }
        self.lp_s[i] = want;
        self.lp_fo[i] = want_fo;
        if want != NO_HEIGHT {
            self.lp_buckets.entry(want).or_default().add(want_fo);
            hist_add(&mut self.lp_hist, (want, want_fo));
        }
    }

    /// Grows or shrinks every per-node table to `n`, maintaining the
    /// aggregates: dropped ids surrender their contributions (a
    /// rollback pops appended ids contiguously), fresh ids join the
    /// fanout population at 0 and are re-scanned by the caller.
    fn resize_nodes(&mut self, n: usize) {
        let old = self.level.len();
        for id in n..old {
            self.fo_agg.remove(self.fanout[id]);
            hist_remove(&mut self.fo_hist, self.fanout[id]);
            if self.lp_s[id] != NO_HEIGHT {
                let agg = self
                    .lp_buckets
                    .get_mut(&self.lp_s[id])
                    .expect("recorded long-path bucket");
                agg.remove(self.lp_fo[id]);
                if agg.count == 0 {
                    self.lp_buckets.remove(&self.lp_s[id]);
                }
                hist_remove(&mut self.lp_hist, (self.lp_s[id], self.lp_fo[id]));
            }
        }
        self.level.truncate(n);
        self.fanout.truncate(n);
        self.d_unit.truncate(n);
        self.d_fo.truncate(n);
        self.d_bin.truncate(n);
        self.paths.truncate(n);
        self.height.truncate(n);
        self.lp_s.truncate(n);
        self.lp_fo.truncate(n);
        self.po_ref.truncate(n);
        self.in_fwd.truncate(n);
        self.in_bwd.truncate(n);
        self.stamp.truncate(n);
        if n > old {
            self.level.resize(n, 0);
            self.fanout.resize(n, 0);
            self.d_unit.resize(n, 0);
            self.d_fo.resize(n, 0);
            self.d_bin.resize(n, 0);
            self.paths.resize(n, 0.0);
            self.height.resize(n, NO_HEIGHT);
            self.lp_s.resize(n, NO_HEIGHT);
            self.lp_fo.resize(n, 0);
            self.po_ref.resize(n, 0);
            self.in_fwd.resize(n, false);
            self.in_bwd.resize(n, false);
            self.stamp.resize(n, 0);
            for _ in old.max(1)..n {
                self.fo_agg.add(0);
                hist_add(&mut self.fo_hist, 0);
            }
        }
    }

    /// Applies the primary-output diff against the snapshot:
    /// refcounts move, both drivers seed the height worklist, and the
    /// output's cache entry is marked dirty.
    fn diff_outputs(&mut self, outs: &[aig::Output]) {
        let n = self.level.len();
        let p = outs.len();
        if self.out_snapshot.len() > p {
            for idx in p..self.out_snapshot.len() {
                let old = self.out_snapshot[idx].var();
                if (old as usize) < n {
                    self.po_ref[old as usize] -= 1;
                    self.push_bwd(old);
                }
            }
            self.out_snapshot.truncate(p);
            self.po_cache.truncate(p);
            self.po_dirty.truncate(p);
        }
        for (idx, o) in outs.iter().enumerate() {
            if idx >= self.out_snapshot.len() {
                self.out_snapshot.push(o.lit);
                self.po_cache.push([0.0; 4]);
                self.po_dirty.push(true);
                self.po_ref[o.lit.var() as usize] += 1;
                self.push_bwd(o.lit.var());
                continue;
            }
            let old = self.out_snapshot[idx];
            if old == o.lit {
                continue;
            }
            let ov = old.var();
            if (ov as usize) < n {
                self.po_ref[ov as usize] -= 1;
                self.push_bwd(ov);
            }
            self.po_ref[o.lit.var() as usize] += 1;
            self.push_bwd(o.lit.var());
            self.out_snapshot[idx] = o.lit;
            self.po_dirty[idx] = true;
        }
    }

    fn push_fwd(&mut self, id: NodeId) {
        let i = id as usize;
        if id >= 1 && i < self.in_fwd.len() && !self.in_fwd[i] {
            self.in_fwd[i] = true;
            self.fwd_heap.push(Reverse(id));
        }
    }

    fn push_bwd(&mut self, id: NodeId) {
        let i = id as usize;
        if id >= 1 && i < self.in_bwd.len() && !self.in_bwd[i] {
            self.in_bwd[i] = true;
            self.bwd_heap.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::incremental::{IncrementalAnalysis, Transaction};

    fn diamond() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let x = g.and(ab, c);
        let y = g.and(ab, !c);
        g.add_output(x, None::<&str>);
        g.add_output(y, None::<&str>);
        g
    }

    #[test]
    fn rebuild_matches_oracle() {
        let g = diamond();
        let mut inc = IncrementalFeatures::default();
        inc.rebuild(&g);
        inc.assert_matches_oracle(&g);
    }

    #[test]
    fn sync_after_substitute_matches_oracle() {
        let mut g = diamond();
        let mut ia = IncrementalAnalysis::new(&g);
        let mut feats = IncrementalFeatures::default();
        feats.rebuild(&g);

        let mut txn = Transaction::begin(&mut g, &mut ia);
        // Retarget output 1 onto the shared node: fanouts, heights
        // and PO caches all move.
        let ab = 4 as NodeId;
        txn.retarget_output(1, aig::Lit::new(ab, false));
        let region = txn.touched_region().clone();
        txn.commit();
        feats.sync(&g, &region, &ia);
        feats.assert_matches_oracle(&g);
    }

    #[test]
    fn sync_after_rollback_matches_oracle() {
        let mut g = diamond();
        let mut ia = IncrementalAnalysis::new(&g);
        let mut feats = IncrementalFeatures::default();
        feats.rebuild(&g);
        let before = feats.features(&g);

        let mut txn = Transaction::begin(&mut g, &mut ia);
        let a = aig::Lit::new(1, false);
        let c = aig::Lit::new(3, false);
        let fresh = txn.and(a, c);
        txn.retarget_output(0, fresh);
        let region = txn.touched_region().clone();
        txn.rollback();
        feats.sync(&g, &region, &ia);
        feats.assert_matches_oracle(&g);
        let after = feats.features(&g);
        assert_eq!(
            before
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            after
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn invalid_sync_rebuilds() {
        let g = diamond();
        let ia = IncrementalAnalysis::new(&g);
        let mut feats = IncrementalFeatures::default();
        assert!(!feats.is_valid());
        feats.sync(&g, ia.last_dirty(), &ia);
        assert!(feats.is_valid());
        feats.assert_matches_oracle(&g);
    }

    #[test]
    fn po_counter_is_bounded() {
        let mut g = Aig::new();
        let mut lits = Vec::new();
        for _ in 0..8 {
            lits.push(g.add_input());
        }
        let mut pairs: Vec<aig::Lit> = lits
            .chunks(2)
            .map(|c| {
                let [a, b] = [c[0], c[1]];
                g.and(a, b)
            })
            .collect();
        for p in pairs.drain(..) {
            g.add_output(p, None::<&str>);
        }
        let mut ia = IncrementalAnalysis::new(&g);
        let mut feats = IncrementalFeatures::default();
        feats.rebuild(&g);
        let base = feats.pos_recomputed();

        // Retarget one output onto a PI; the old driver keeps no PO
        // and no other driver's values move, so exactly one cache
        // entry is refreshed.
        let mut txn = Transaction::begin(&mut g, &mut ia);
        txn.retarget_output(0, aig::Lit::new(1, false));
        let region = txn.touched_region().clone();
        txn.commit();
        feats.sync(&g, &region, &ia);
        feats.assert_matches_oracle(&g);
        assert_eq!(feats.pos_recomputed() - base, 1);
        assert_eq!(feats.pos_evaluated(), 4 + 4);
    }
}
