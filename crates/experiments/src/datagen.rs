//! Training-data generation (paper §III-C).
//!
//! The paper generates 40,000 unique AIGs per design by randomly
//! applying logic transformations, then labels each with post-mapping
//! delay (and area) from technology mapping + STA. This module does
//! the same with a configurable sample count: random walks through
//! recipe space produce structurally diverse variants, and labeling
//! runs mapping + STA in parallel.

use aig::{par, Aig};
use benchgen::Design;
use cells::Library;
use features::{extract, FeatureVector, NUM_FEATURES};
use gbt::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use saopt::{CostEvaluator, GroundTruthCost};
use transform::{recipes, Recipe, ResynthCache};

/// One labeled AIG variant.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Table II features.
    pub features: FeatureVector,
    /// Ground-truth post-mapping delay (ps).
    pub delay_ps: f64,
    /// Ground-truth post-mapping area (µm²).
    pub area_um2: f64,
    /// Proxy delay (AIG levels).
    pub levels: f64,
    /// Proxy area (AND-node count).
    pub nodes: f64,
}

/// All labeled variants of one design.
#[derive(Clone, Debug)]
pub struct LabeledSet {
    /// Design name.
    pub design: String,
    /// Samples in generation order.
    pub samples: Vec<Sample>,
}

/// Which ground-truth label a [`Dataset`] should carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Post-mapping maximum delay (ps).
    Delay,
    /// Post-mapping cell area (µm²).
    Area,
}

impl LabeledSet {
    /// Converts samples to a [`gbt::Dataset`] with the given target.
    pub fn to_dataset(&self, target: Target) -> Dataset {
        let mut d = Dataset::new(NUM_FEATURES);
        for s in &self.samples {
            let label = match target {
                Target::Delay => s.delay_ps,
                Target::Area => s.area_um2,
            };
            d.push_row_f64(s.features.as_slice(), label);
        }
        d
    }

    /// Median AND-node count across samples.
    pub fn median_nodes(&self) -> f64 {
        let mut nodes: Vec<f64> = self.samples.iter().map(|s| s.nodes).collect();
        nodes.sort_by(f64::total_cmp);
        if nodes.is_empty() {
            0.0
        } else {
            nodes[nodes.len() / 2]
        }
    }

    /// Min/max AND-node counts (the paper's Table III `#Node` range).
    pub fn node_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for s in &self.samples {
            lo = lo.min(s.nodes);
            hi = hi.max(s.nodes);
        }
        (lo, hi)
    }
}

/// Generates `count` structurally distinct variants of `aig` by
/// random walks through transformation space (walk length 6,
/// resetting to the original between walks; the original itself is
/// variant 0).
///
/// Each step applies either a random optimization recipe or a
/// seeded random re-association ([`transform::reshape`]). Recipes
/// alone converge to a structural fixpoint; the reshape moves keep
/// the walk exploring the much larger space of equivalent structures,
/// matching the diversity of the paper's 40k-variant corpus.
pub fn generate_variants(aig: &Aig, count: usize, seed: u64) -> Vec<Aig> {
    let actions = recipes();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return out;
    }
    // One NPN-canonical cache serves the whole walk: the cut
    // functions of a design's variants overlap heavily, so later
    // steps mostly reuse earlier syntheses (results are identical to
    // the uncached path — the cache only memoizes pure functions).
    let cache = ResynthCache::new();
    out.push(aig.sweep());
    let mut current = aig.clone();
    let mut steps_in_walk = 0;
    while out.len() < count {
        if steps_in_walk == 6 {
            current = aig.clone();
            steps_in_walk = 0;
        }
        let dice = rng.gen::<f64>();
        if dice < 0.5 {
            // Perturbation with randomized strength: the wider the
            // strength range, the wider the node/level distribution.
            let strength = rng.gen_range(0.2..0.9);
            current = transform::resynthesize_with(
                &current,
                &transform::ResynthOptions {
                    cut_size: 5,
                    max_cuts: 6,
                    zero_cost: false,
                    perturb: Some((rng.gen(), strength)),
                },
                &cache,
            );
        } else if dice < 0.7 {
            current = transform::reshape(&current, rng.gen());
        } else {
            let recipe: &Recipe = &actions[rng.gen_range(0..actions.len())];
            current = recipe.apply_with(&current, &cache);
        }
        out.push(current.clone());
        steps_in_walk += 1;
    }
    out
}

/// Produces a structurally degraded (but functionally equivalent)
/// version of `aig`: two rounds of strong random cut resynthesis with
/// a random re-association in between.
///
/// The synthetic benchmark designs are built from near-optimal
/// word-level generators, unlike the paper's raw truth-table-derived
/// contest circuits; degrading first recreates the paper's
/// optimization-from-raw-logic setting (a realistic RTL-elaboration
/// starting point) that Fig. 5's flows are compared on.
pub fn degrade(aig: &Aig, seed: u64) -> Aig {
    use transform::{reshape, resynthesize_with, ResynthOptions};
    let cache = ResynthCache::new();
    let strong = |g: &Aig, s: u64| {
        resynthesize_with(
            g,
            &ResynthOptions {
                cut_size: 5,
                max_cuts: 6,
                zero_cost: false,
                perturb: Some((s, 0.9)),
            },
            &cache,
        )
    };
    let p1 = strong(aig, seed);
    let p2 = reshape(&p1, seed ^ 0xABCD);
    strong(&p2, seed ^ 0x1234)
}

/// Labels variants with post-mapping delay/area via mapping, greedy
/// gate sizing, and STA, in parallel (one [`GroundTruthCost`] per
/// worker, via [`aig::par::par_map_with`]; worker count follows
/// `AIG_THREADS`), so labels are exactly the ground-truth flow's
/// costs.
///
/// Inside the design workers of
/// [`Corpus::generate`](crate::table3::Corpus::generate) it runs
/// serially, as every nested `aig::par` call does: there the design
/// sweep is the parallelism.
pub fn label_variants(variants: &[Aig], lib: &Library) -> Vec<(f64, f64)> {
    par::par_map_with(
        variants,
        || GroundTruthCost::new(lib),
        |gt, _i, aig| {
            let m = gt.evaluate(aig);
            (m.delay, m.area)
        },
    )
}

/// Generates and labels `count` samples for one design.
pub fn labeled_set(design: &Design, count: usize, seed: u64, lib: &Library) -> LabeledSet {
    let variants = generate_variants(&design.aig, count, seed);
    let labels = label_variants(&variants, lib);
    let samples = par::par_map(&variants, |i, aig| {
        let (delay_ps, area_um2) = labels[i];
        let features = extract(aig);
        Sample {
            features,
            delay_ps,
            area_um2,
            levels: features[features::AIG_LEVEL],
            nodes: features[features::NODE_COUNT],
        }
    });
    LabeledSet {
        design: design.name.clone(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::ex00;
    use cells::sky130ish;

    #[test]
    fn variants_are_equivalent_and_diverse() {
        let d = ex00();
        let variants = generate_variants(&d.aig, 12, 5);
        assert_eq!(variants.len(), 12);
        for v in &variants {
            assert!(
                aig::sim::equiv_exhaustive(&d.aig, v).expect("16 inputs"),
                "variant broke function"
            );
        }
        // Structural diversity: several distinct (nodes, levels) shapes.
        let mut shapes: Vec<(usize, u32)> = variants
            .iter()
            .map(|v| (v.num_ands(), aig::analysis::levels(v).max_level))
            .collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert!(shapes.len() >= 3, "variants lack diversity: {shapes:?}");
    }

    #[test]
    fn labels_are_positive_and_vary() {
        let d = ex00();
        let lib = sky130ish();
        let set = labeled_set(&d, 10, 3, &lib);
        assert_eq!(set.samples.len(), 10);
        for s in &set.samples {
            assert!(s.delay_ps > 0.0 && s.area_um2 > 0.0);
            assert!(s.levels > 0.0 && s.nodes > 0.0);
        }
        let (lo, hi) = set.node_range();
        assert!(lo <= set.median_nodes() && set.median_nodes() <= hi);
    }

    #[test]
    fn dataset_conversion() {
        let d = ex00();
        let lib = sky130ish();
        let set = labeled_set(&d, 6, 4, &lib);
        let ds = set.to_dataset(Target::Delay);
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.num_features(), NUM_FEATURES);
        let da = set.to_dataset(Target::Area);
        let rel =
            (f64::from(da.label(0)) - set.samples[0].area_um2).abs() / set.samples[0].area_um2;
        assert!(rel < 1e-5, "f32 label should match to rounding, rel {rel}");
    }

    #[test]
    fn deterministic_generation() {
        let d = ex00();
        let v1 = generate_variants(&d.aig, 5, 9);
        let v2 = generate_variants(&d.aig, 5, 9);
        let n1: Vec<usize> = v1.iter().map(Aig::num_ands).collect();
        let n2: Vec<usize> = v2.iter().map(Aig::num_ands).collect();
        assert_eq!(n1, n2);
    }
}
