//! A message-passing GNN regressor for AIG timing prediction.
//!
//! The paper (§III-B) reports that a GNN baseline is ~2% *worse* than
//! the decision-tree model on this task while costing far more to
//! train — node features in an AIG are too weak for message passing
//! to shine, and maximum delay is dominated by a few long paths that
//! mean-aggregation struggles to represent. This crate implements
//! that baseline so the claim can be reproduced (see the
//! `gnn-ablation` experiment): a small graph convolution network with
//! per-node features, fanin/fanout mean aggregation, mean+max global
//! pooling and a linear head, trained with Adam on manually derived
//! gradients (no autograd dependency).
//!
//! # Examples
//!
//! ```
//! use aig::Aig;
//! use gnn::{GnnParams, GnnModel, GraphData};
//!
//! let mut g = Aig::new();
//! let a = g.add_input();
//! let b = g.add_input();
//! let f = g.and(a, b);
//! g.add_output(f, None::<&str>);
//!
//! let data = GraphData::from_aig(&g);
//! let samples = vec![(data.clone(), 100.0), (data, 100.0)];
//! let params = GnnParams { epochs: 5, ..GnnParams::default() };
//! let (model, losses) = GnnModel::train(&samples, &params);
//! assert_eq!(losses.len(), 5);
//! assert!(model.predict(&samples[0].0).is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod tensor;

pub use tensor::{Adam, Tensor};

use aig::analysis::{fanout_counts, levels};
use aig::Aig;
use minijson::Json;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Number of per-node input features.
pub const NODE_FEATURES: usize = 6;

/// Preprocessed graph: node features plus fanin/fanout adjacency.
#[derive(Clone, Debug)]
pub struct GraphData {
    /// `n x NODE_FEATURES` row-major node features.
    pub x: Vec<f32>,
    /// Number of nodes.
    pub n: usize,
    /// Fanin node lists (AND nodes have 2, inputs 0).
    pub fanins: Vec<Vec<u32>>,
    /// Fanout node lists.
    pub fanouts: Vec<Vec<u32>>,
}

impl GraphData {
    /// Extracts GNN inputs from an AIG.
    ///
    /// Per-node features: `[is_input, is_and, level/max_level,
    /// log2(1+fanout), num_complemented_fanins/2, drives_po]`.
    pub fn from_aig(aig: &Aig) -> GraphData {
        let n = aig.num_nodes();
        let lv = levels(aig);
        let fo = fanout_counts(aig);
        let max_level = lv.max_level.max(1) as f32;
        let mut drives_po = vec![false; n];
        for o in aig.outputs() {
            drives_po[o.lit.var() as usize] = true;
        }
        let mut x = vec![0.0f32; n * NODE_FEATURES];
        let mut fanins: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut fanouts: Vec<Vec<u32>> = vec![Vec::new(); n];
        for id in aig.node_ids() {
            let i = id as usize;
            let row = &mut x[i * NODE_FEATURES..(i + 1) * NODE_FEATURES];
            match aig.node_kind(id) {
                aig::NodeKind::Input => row[0] = 1.0,
                aig::NodeKind::And => row[1] = 1.0,
                aig::NodeKind::Const => {}
            }
            row[2] = lv.level[i] as f32 / max_level;
            row[3] = (1.0 + fo[i] as f32).log2();
            if aig.is_and(id) {
                let [f0, f1] = aig.fanins(id);
                row[4] = (f0.is_complement() as u32 + f1.is_complement() as u32) as f32 / 2.0;
                fanins[i] = vec![f0.var(), f1.var()];
                fanouts[f0.var() as usize].push(id);
                fanouts[f1.var() as usize].push(id);
            }
            row[5] = drives_po[i] as u8 as f32;
        }
        GraphData {
            x,
            n,
            fanins,
            fanouts,
        }
    }
}

/// GNN hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct GnnParams {
    /// Hidden width per layer.
    pub hidden: usize,
    /// Number of message-passing layers.
    pub layers: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs (full passes over the samples).
    pub epochs: usize,
    /// RNG seed (init + shuffling).
    pub seed: u64,
}

impl Default for GnnParams {
    fn default() -> Self {
        GnnParams {
            hidden: 32,
            layers: 2,
            lr: 3e-3,
            epochs: 60,
            seed: 0,
        }
    }
}

impl GnnParams {
    fn to_json_value(self) -> Json {
        Json::Obj(vec![
            ("hidden".into(), Json::Num(self.hidden as f64)),
            ("layers".into(), Json::Num(self.layers as f64)),
            ("lr".into(), Json::Num(f64::from(self.lr))),
            ("epochs".into(), Json::Num(self.epochs as f64)),
            ("seed".into(), Json::from_u64(self.seed)),
        ])
    }

    fn from_json_value(v: &Json) -> Result<GnnParams, minijson::Error> {
        Ok(GnnParams {
            hidden: v.field("hidden")?.as_usize()?,
            layers: v.field("layers")?.as_usize()?,
            lr: v.field("lr")?.as_f32()?,
            epochs: v.field("epochs")?.as_usize()?,
            seed: v.field("seed")?.as_u64()?,
        })
    }
}

/// A trained GNN regressor.
#[derive(Clone, Debug)]
pub struct GnnModel {
    params: GnnParams,
    /// Per layer: `[w_self, w_in, w_out, bias]`, then `[w_read, bias_read]`.
    weights: Vec<Tensor>,
    label_mean: f32,
    label_std: f32,
}

#[derive(Default)]
struct Forward {
    /// Activations per layer (layer 0 = input features).
    acts: Vec<Vec<f32>>,
    /// Pre-activations per layer (for relu backprop).
    pres: Vec<Vec<f32>>,
    /// Pooled readout vector (2 * hidden).
    pooled: Vec<f32>,
    /// argmax node per hidden dim (for max-pool backprop).
    argmax: Vec<usize>,
    /// Max-pool running maxima (scratch for the pooling pass).
    maxv: Vec<f32>,
    /// Standardized prediction.
    y: f32,
}

/// Reusable forward-pass scratch for allocation-free prediction.
///
/// [`GnnModel::predict_with`] reuses the activation, pre-activation
/// and pooling buffers across calls; once warm, a prediction
/// allocates nothing. One scratch serves one thread — the batched
/// path keeps one per worker.
#[derive(Default)]
pub struct GnnScratch(Forward);

/// Minimum nodes per worker chunk in the layer-parallel node loop;
/// below this the loop runs inline (small benchgen-class graphs, or
/// nested inside a graph-level `par_map`).
const PAR_MIN_NODES: usize = 256;

impl GnnModel {
    fn layer_weights(&self, l: usize) -> (&Tensor, &Tensor, &Tensor, &Tensor) {
        let base = l * 4;
        (
            &self.weights[base],
            &self.weights[base + 1],
            &self.weights[base + 2],
            &self.weights[base + 3],
        )
    }

    fn forward(&self, g: &GraphData) -> Forward {
        let mut fwd = Forward::default();
        self.forward_into(g, &mut fwd);
        fwd
    }

    /// The forward pass into caller-owned scratch. This is the single
    /// implementation — training, scalar and batched prediction all
    /// run through it, so there is no arithmetic to diverge. Within a
    /// layer the per-node rows are independent (they read only the
    /// previous layer), so the node loop splits the layer's rows into
    /// contiguous chunks across `aig::par` workers
    /// ([`aig::par::par_rows_mut`]); per-node float order is
    /// unchanged, keeping results identical for any thread count.
    fn forward_into(&self, g: &GraphData, fwd: &mut Forward) {
        let h = self.params.hidden;
        let n = g.n;
        let layers = self.params.layers;
        fwd.acts.truncate(layers + 1);
        fwd.acts.resize_with(layers + 1, Vec::new);
        fwd.pres.truncate(layers);
        fwd.pres.resize_with(layers, Vec::new);
        fwd.acts[0].clear();
        fwd.acts[0].extend_from_slice(&g.x);
        let mut in_dim = NODE_FEATURES;
        for l in 0..layers {
            let (ws, wi, wo, b) = self.layer_weights(l);
            let mut pre = std::mem::take(&mut fwd.pres[l]);
            pre.clear();
            pre.resize(n * h, 0.0);
            {
                let prev = &fwd.acts[l];
                aig::par::par_rows_mut(&mut pre, h, PAR_MIN_NODES, |first, rows| {
                    let mut agg = vec![0.0f32; in_dim];
                    for (v, out) in (first..).zip(rows.chunks_mut(h)) {
                        out.copy_from_slice(&b.data);
                        ws.matvec_add(&prev[v * in_dim..(v + 1) * in_dim], out);
                        // Mean over fanins.
                        if !g.fanins[v].is_empty() {
                            agg.fill(0.0);
                            for &u in &g.fanins[v] {
                                for (a, p) in agg
                                    .iter_mut()
                                    .zip(&prev[u as usize * in_dim..(u as usize + 1) * in_dim])
                                {
                                    *a += p;
                                }
                            }
                            let k = g.fanins[v].len() as f32;
                            for a in &mut agg {
                                *a /= k;
                            }
                            wi.matvec_add(&agg, out);
                        }
                        if !g.fanouts[v].is_empty() {
                            agg.fill(0.0);
                            for &u in &g.fanouts[v] {
                                for (a, p) in agg
                                    .iter_mut()
                                    .zip(&prev[u as usize * in_dim..(u as usize + 1) * in_dim])
                                {
                                    *a += p;
                                }
                            }
                            let k = g.fanouts[v].len() as f32;
                            for a in &mut agg {
                                *a /= k;
                            }
                            wo.matvec_add(&agg, out);
                        }
                    }
                });
            }
            let mut act = std::mem::take(&mut fwd.acts[l + 1]);
            act.clear();
            act.extend(pre.iter().map(|&v| v.max(0.0)));
            fwd.pres[l] = pre;
            fwd.acts[l + 1] = act;
            in_dim = h;
        }
        // Global mean + max pooling over the last activation.
        let last = &fwd.acts[layers];
        fwd.pooled.clear();
        fwd.pooled.resize(2 * h, 0.0);
        fwd.argmax.clear();
        fwd.argmax.resize(h, 0);
        fwd.maxv.clear();
        fwd.maxv.resize(h, f32::MIN);
        for v in 0..n {
            for d in 0..h {
                let val = last[v * h + d];
                fwd.pooled[d] += val / n as f32;
                if val > fwd.maxv[d] {
                    fwd.maxv[d] = val;
                    fwd.argmax[d] = v;
                }
            }
        }
        fwd.pooled[h..2 * h].copy_from_slice(&fwd.maxv);
        let w_read = &self.weights[layers * 4];
        let bias_read = &self.weights[layers * 4 + 1];
        let mut y = bias_read.data[0];
        for (w, p) in w_read.data.iter().zip(&fwd.pooled) {
            y += w * p;
        }
        fwd.y = y;
    }

    /// Predicts the (denormalized) label for one graph.
    pub fn predict(&self, g: &GraphData) -> f64 {
        let f = self.forward(g);
        f64::from(f.y * self.label_std + self.label_mean)
    }

    /// [`GnnModel::predict`] into reusable scratch: allocation-free
    /// once the scratch is warm, bit-identical to the scalar path
    /// (they share one forward implementation).
    pub fn predict_with(&self, g: &GraphData, scratch: &mut GnnScratch) -> f64 {
        self.forward_into(g, &mut scratch.0);
        f64::from(scratch.0.y * self.label_std + self.label_mean)
    }

    /// Batched prediction over many graphs, parallel across
    /// `aig::par` workers with one warm [`GnnScratch`] per worker.
    /// Results are in input order and bit-identical to calling
    /// [`GnnModel::predict`] per graph, for any `AIG_THREADS`.
    pub fn predict_batch(&self, graphs: &[GraphData]) -> Vec<f64> {
        aig::par::par_map_with(graphs, GnnScratch::default, |scratch, _i, g| {
            self.predict_with(g, scratch)
        })
    }

    /// Trains a model; returns it plus the mean squared loss (on
    /// standardized labels) per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or parameters are degenerate.
    pub fn train(samples: &[(GraphData, f64)], params: &GnnParams) -> (GnnModel, Vec<f64>) {
        assert!(!samples.is_empty(), "cannot train on zero graphs");
        assert!(params.hidden > 0 && params.layers > 0, "degenerate shape");
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let h = params.hidden;
        let mut weights = Vec::new();
        let mut in_dim = NODE_FEATURES;
        for _ in 0..params.layers {
            weights.push(Tensor::glorot(h, in_dim, &mut rng)); // w_self
            weights.push(Tensor::glorot(h, in_dim, &mut rng)); // w_in
            weights.push(Tensor::glorot(h, in_dim, &mut rng)); // w_out
            weights.push(Tensor::zeros(h, 1)); // bias
            in_dim = h;
        }
        weights.push(Tensor::glorot(1, 2 * h, &mut rng)); // readout
        weights.push(Tensor::zeros(1, 1)); // readout bias

        let mean = samples.iter().map(|(_, y)| y).sum::<f64>() / samples.len() as f64;
        let var = samples
            .iter()
            .map(|(_, y)| (y - mean) * (y - mean))
            .sum::<f64>()
            / samples.len() as f64;
        let std = var.sqrt().max(1e-9);

        let mut model = GnnModel {
            params: *params,
            weights,
            label_mean: mean as f32,
            label_std: std as f32,
        };
        let mut grads: Vec<Tensor> = model
            .weights
            .iter()
            .map(|w| Tensor::zeros(w.rows, w.cols))
            .collect();
        let mut adam = Adam::new(&model.weights, params.lr);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut losses = Vec::with_capacity(params.epochs);
        for _epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for &i in &order {
                let (g, label) = &samples[i];
                let target = ((label - mean) / std) as f32;
                let fwd = model.forward(g);
                let err = fwd.y - target;
                epoch_loss += f64::from(err * err);
                for gr in &mut grads {
                    gr.clear();
                }
                model.backward(g, &fwd, 2.0 * err, &mut grads);
                adam.step(&mut model.weights, &grads);
            }
            losses.push(epoch_loss / samples.len() as f64);
        }
        (model, losses)
    }

    /// Accumulates gradients for one graph given dL/dy.
    fn backward(&self, g: &GraphData, fwd: &Forward, dy: f32, grads: &mut [Tensor]) {
        let h = self.params.hidden;
        let n = g.n;
        let ro = self.params.layers * 4;
        // Readout.
        grads[ro].outer_add(&[dy], &fwd.pooled);
        grads[ro + 1].data[0] += dy;
        let w_read = &self.weights[ro];
        // d pooled
        let mut dpooled = vec![0.0f32; 2 * h];
        w_read.tmatvec_add(&[dy], &mut dpooled);
        // d last activations.
        let mut dact = vec![0.0f32; n * h];
        for v in 0..n {
            for d in 0..h {
                dact[v * h + d] += dpooled[d] / n as f32;
            }
        }
        for d in 0..h {
            dact[fwd.argmax[d] * h + d] += dpooled[h + d];
        }
        // Layers in reverse.
        for l in (0..self.params.layers).rev() {
            let in_dim = if l == 0 { NODE_FEATURES } else { h };
            let base = l * 4;
            let pre = &fwd.pres[l];
            let prev = &fwd.acts[l];
            let mut dprev = vec![0.0f32; n * in_dim];
            for v in 0..n {
                let mut dpre = vec![0.0f32; h];
                for d in 0..h {
                    if pre[v * h + d] > 0.0 {
                        dpre[d] = dact[v * h + d];
                    }
                }
                if dpre.iter().all(|&x| x == 0.0) {
                    continue;
                }
                let xv = &prev[v * in_dim..(v + 1) * in_dim];
                grads[base].outer_add(&dpre, xv);
                for (bslot, dp) in grads[base + 3].data.iter_mut().zip(&dpre) {
                    *bslot += dp;
                }
                self.weights[base].tmatvec_add(&dpre, &mut dprev[v * in_dim..(v + 1) * in_dim]);
                // Fanin mean aggregation.
                if !g.fanins[v].is_empty() {
                    let k = g.fanins[v].len() as f32;
                    let mut agg = vec![0.0f32; in_dim];
                    for &u in &g.fanins[v] {
                        for (a, p) in agg
                            .iter_mut()
                            .zip(&prev[u as usize * in_dim..(u as usize + 1) * in_dim])
                        {
                            *a += p / k;
                        }
                    }
                    grads[base + 1].outer_add(&dpre, &agg);
                    let mut dagg = vec![0.0f32; in_dim];
                    self.weights[base + 1].tmatvec_add(&dpre, &mut dagg);
                    for &u in &g.fanins[v] {
                        for (slot, da) in dprev[u as usize * in_dim..(u as usize + 1) * in_dim]
                            .iter_mut()
                            .zip(&dagg)
                        {
                            *slot += da / k;
                        }
                    }
                }
                if !g.fanouts[v].is_empty() {
                    let k = g.fanouts[v].len() as f32;
                    let mut agg = vec![0.0f32; in_dim];
                    for &u in &g.fanouts[v] {
                        for (a, p) in agg
                            .iter_mut()
                            .zip(&prev[u as usize * in_dim..(u as usize + 1) * in_dim])
                        {
                            *a += p / k;
                        }
                    }
                    grads[base + 2].outer_add(&dpre, &agg);
                    let mut dagg = vec![0.0f32; in_dim];
                    self.weights[base + 2].tmatvec_add(&dpre, &mut dagg);
                    for &u in &g.fanouts[v] {
                        for (slot, da) in dprev[u as usize * in_dim..(u as usize + 1) * in_dim]
                            .iter_mut()
                            .zip(&dagg)
                        {
                            *slot += da / k;
                        }
                    }
                }
            }
            dact = dprev;
        }
    }

    /// Serializes the model as JSON.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("params".into(), self.params.to_json_value()),
            (
                "weights".into(),
                Json::Arr(self.weights.iter().map(Tensor::to_json_value).collect()),
            ),
            ("label_mean".into(), Json::Num(f64::from(self.label_mean))),
            ("label_std".into(), Json::Num(f64::from(self.label_std))),
        ])
        .dump()
    }

    /// Loads a model from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`minijson::Error`] for malformed input.
    pub fn from_json(json: &str) -> Result<GnnModel, minijson::Error> {
        let v = Json::parse(json)?;
        Ok(GnnModel {
            params: GnnParams::from_json_value(v.field("params")?)?,
            weights: v
                .field("weights")?
                .as_arr()?
                .iter()
                .map(Tensor::from_json_value)
                .collect::<Result<_, _>>()?,
            label_mean: v.field("label_mean")?.as_f32()?,
            label_std: v.field("label_std")?.as_f32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph(n: usize) -> (GraphData, f64) {
        let mut g = Aig::new();
        let mut acc = g.add_input();
        for _ in 0..n {
            let x = g.add_input();
            acc = g.and(acc, x);
        }
        g.add_output(acc, None::<&str>);
        (GraphData::from_aig(&g), 50.0 * n as f64)
    }

    #[test]
    fn features_shape() {
        let (g, _) = chain_graph(5);
        assert_eq!(g.x.len(), g.n * NODE_FEATURES);
        // AND nodes have 2 fanins.
        assert!(g.fanins.iter().filter(|f| f.len() == 2).count() == 5);
    }

    #[test]
    fn loss_decreases_when_overfitting() {
        let samples: Vec<(GraphData, f64)> = (2..10).map(chain_graph).collect();
        let (model, losses) = GnnModel::train(
            &samples,
            &GnnParams {
                epochs: 80,
                hidden: 16,
                ..GnnParams::default()
            },
        );
        let early: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = losses[losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(
            late < early * 0.5,
            "loss did not decrease: early {early}, late {late}"
        );
        // Predictions must be ordered with graph size (bigger chain,
        // bigger label) at least at the extremes.
        let p_small = model.predict(&samples[0].0);
        let p_big = model.predict(&samples[7].0);
        assert!(p_big > p_small, "{p_small} vs {p_big}");
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of a couple of weights.
        let samples = vec![chain_graph(3), chain_graph(6)];
        let params = GnnParams {
            epochs: 1,
            hidden: 4,
            layers: 1,
            lr: 0.0, // no updates; we only want the structure
            seed: 3,
        };
        let (model, _) = GnnModel::train(&samples, &params);
        let g = &samples[0].0;
        let target = 0.3f32;
        let loss_of = |m: &GnnModel| {
            let f = m.forward(g);
            let e = f.y - target;
            e * e
        };
        let mut grads: Vec<Tensor> = model
            .weights
            .iter()
            .map(|w| Tensor::zeros(w.rows, w.cols))
            .collect();
        let fwd = model.forward(g);
        model.backward(g, &fwd, 2.0 * (fwd.y - target), &mut grads);
        let eps = 1e-3f32;
        // Check several parameters across tensors.
        for (ti, slot) in [(0usize, 0usize), (1, 2), (4, 1), (5, 0)] {
            let mut m2 = model.clone();
            if m2.weights[ti].data.len() <= slot {
                continue;
            }
            m2.weights[ti].data[slot] += eps;
            let lp = loss_of(&m2);
            m2.weights[ti].data[slot] -= 2.0 * eps;
            let lm = loss_of(&m2);
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads[ti].data[slot];
            assert!(
                (fd - an).abs() <= 0.05 * fd.abs().max(an.abs()).max(0.05),
                "tensor {ti} slot {slot}: finite-diff {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn json_roundtrip() {
        let samples = vec![chain_graph(3), chain_graph(4)];
        let (model, _) = GnnModel::train(
            &samples,
            &GnnParams {
                epochs: 3,
                hidden: 8,
                ..GnnParams::default()
            },
        );
        let back = GnnModel::from_json(&model.to_json()).expect("roundtrip");
        let p1 = model.predict(&samples[0].0);
        let p2 = back.predict(&samples[0].0);
        assert!((p1 - p2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero graphs")]
    fn empty_training_panics() {
        let _ = GnnModel::train(&[], &GnnParams::default());
    }

    #[test]
    fn batched_and_scratch_match_scalar_bits() {
        let samples: Vec<(GraphData, f64)> = (2..10).map(chain_graph).collect();
        let (model, _) = GnnModel::train(
            &samples[..3],
            &GnnParams {
                epochs: 4,
                hidden: 8,
                ..GnnParams::default()
            },
        );
        let graphs: Vec<GraphData> = samples.iter().map(|(g, _)| g.clone()).collect();
        let want: Vec<u64> = graphs.iter().map(|g| model.predict(g).to_bits()).collect();
        let batched: Vec<u64> = model
            .predict_batch(&graphs)
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(batched, want);
        // One warm scratch across differently-shaped graphs.
        let mut scratch = GnnScratch::default();
        for (g, &w) in graphs.iter().zip(&want) {
            assert_eq!(model.predict_with(g, &mut scratch).to_bits(), w);
        }
        // And again in reverse order (shrinking shapes).
        for (g, &w) in graphs.iter().zip(&want).rev() {
            assert_eq!(model.predict_with(g, &mut scratch).to_bits(), w);
        }
    }

    #[test]
    fn deterministic_training() {
        let samples = vec![chain_graph(3), chain_graph(5)];
        let p = GnnParams {
            epochs: 5,
            hidden: 8,
            seed: 42,
            ..GnnParams::default()
        };
        let (m1, _) = GnnModel::train(&samples, &p);
        let (m2, _) = GnnModel::train(&samples, &p);
        assert_eq!(m1.predict(&samples[0].0), m2.predict(&samples[0].0));
    }
}
