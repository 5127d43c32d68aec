//! The NPN-canonical resynthesis cache.
//!
//! Resynthesis spends most of its time factoring cut functions into
//! [`SmallStructure`]s. The structure for a truth table is a pure
//! function of `(num_vars, tt)`, and 4-variable functions (the bulk
//! of `rewrite`'s cuts) fall into only 222 NPN classes — so one
//! synthesis per *class* serves every member function via a cheap
//! leaf permutation/complementation. [`ResynthCache`] memoizes both
//! levels:
//!
//! * a **raw map** keyed by `(nv, tt)` holds the exact derived
//!   structure (`Arc`-shared, so lookups clone a pointer). It is
//!   looked up once per cut, so it hashes with the fixed
//!   multiplicative [`TtHasher`](aig::tt::TtHasher) instead of
//!   `std`'s SipHash; nothing reads its iteration order;
//! * a **canonical map** holds one synthesized structure per
//!   4-variable NPN class; raw misses derive from it instead of
//!   re-running ISOP + factoring.
//!
//! Because every cached value is a pure function of its key, a cache
//! may serve any number of SA iterations, runs and graphs: results
//! are byte-identical whether it is cold, warm from other graphs, or
//! disabled (the determinism integration tests assert this). A cache
//! belongs to one thread; parallel chains each keep their own.

use crate::factor::synthesize;
use crate::structure::{SRef, SmallStructure};
use aig::tt::{npn4_canon, Npn4, Tt, TtBuildHasher};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// A single-threaded memo of cut-function resyntheses.
///
/// Create one per optimization run or worker ([`ResynthCache::new`])
/// and thread it through [`crate::resynthesize_with`] /
/// [`crate::Recipe::apply_with`]; [`ResynthCache::disabled`] computes
/// every structure from scratch (identical results, no memory), which
/// the determinism tests use as the reference.
#[derive(Debug)]
pub struct ResynthCache {
    enabled: bool,
    raw: RefCell<HashMap<(u8, u64), Arc<SmallStructure>, TtBuildHasher>>,
    canon: RefCell<HashMap<u16, Arc<SmallStructure>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl Default for ResynthCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResynthCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        ResynthCache {
            enabled: true,
            raw: RefCell::default(),
            canon: RefCell::default(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// A cache that never memoizes: every lookup synthesizes from
    /// scratch. Structures are identical to the enabled cache's (the
    /// computation is pure), so this is the oracle for the
    /// cache-on-vs-off determinism tests.
    pub fn disabled() -> Self {
        ResynthCache {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether lookups memoize.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Raw-map lookups served from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Raw-map lookups that had to derive or synthesize.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Number of distinct `(nv, tt)` structures held.
    pub fn len(&self) -> usize {
        self.raw.borrow().len()
    }

    /// Whether no structure is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The replacement structure for the `nv`-variable function `tt`
    /// (`tt` masked to `2^nv` bits, full support, `1 <= nv <= 6`).
    ///
    /// The result is a pure function of `(nv, tt)`: 4-variable
    /// functions are synthesized once per NPN class and derived by
    /// leaf relabeling; other widths are synthesized directly.
    pub fn structure_for(&self, nv: usize, tt: u64) -> Arc<SmallStructure> {
        debug_assert!((1..=6).contains(&nv));
        if !self.enabled {
            return Arc::new(self.compute(nv, tt));
        }
        let key = (nv as u8, tt);
        if let Some(s) = self.raw.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Arc::clone(s);
        }
        self.misses.set(self.misses.get() + 1);
        // `compute` borrows the canonical map, never the raw one.
        let s = Arc::new(self.compute(nv, tt));
        self.raw.borrow_mut().insert(key, Arc::clone(&s));
        s
    }

    fn compute(&self, nv: usize, tt: u64) -> SmallStructure {
        if nv == 4 {
            let (canon, t) = npn4_canon(tt as u16);
            let canonical = self.canonical_structure(canon);
            derive_npn4(&canonical, t)
        } else {
            synthesize(&Tt::from_u64(nv, tt))
        }
    }

    fn canonical_structure(&self, canon: u16) -> Arc<SmallStructure> {
        if !self.enabled {
            return Arc::new(synthesize(&Tt::from_u64(4, u64::from(canon))));
        }
        Arc::clone(
            self.canon
                .borrow_mut()
                .entry(canon)
                .or_insert_with(|| Arc::new(synthesize(&Tt::from_u64(4, u64::from(canon))))),
        )
    }
}

/// Derives the structure of `f` from the structure of its NPN
/// representative `c = apply_npn4(f, t)`.
///
/// [`npn4_canon`] guarantees `c(x) = f(y) ^ out` with
/// `y[perm[j]] = x[j] ^ compl_j`, so binding canonical leaf `j` to
/// `f`-leaf `perm[j]` complemented by `compl_j`, and flipping the
/// output by `out`, yields a structure computing exactly `f` — same
/// op count and depth (complements are free on AIG edges).
fn derive_npn4(canonical: &SmallStructure, t: Npn4) -> SmallStructure {
    let remap = |r: SRef| match r {
        SRef::Leaf { idx, compl } => SRef::Leaf {
            idx: t.perm[idx as usize],
            compl: compl ^ (t.input_compl >> idx & 1 == 1),
        },
        other => other,
    };
    SmallStructure {
        ops: canonical
            .ops
            .iter()
            .map(|&(a, b)| (remap(a), remap(b)))
            .collect(),
        out: remap(canonical.out).complement_if(t.output_compl),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The NPN derivation must reproduce the requested function
    /// exactly, across random and structured 4-variable functions.
    #[test]
    fn npn_derivation_is_exact() {
        let cache = ResynthCache::new();
        let mut rng = SmallRng::seed_from_u64(42);
        let check = |f: u16| {
            let s = cache.structure_for(4, u64::from(f));
            assert_eq!(
                s.to_tt(4) as u16,
                f,
                "derived structure computes the wrong function for {f:#06x}"
            );
        };
        for f in [0x6996u16, 0x8000, 0xFFFE, 0xCAFE, 0x0001, 0x7FFF] {
            check(f);
        }
        for _ in 0..3000 {
            check(rng.gen::<u16>());
        }
    }

    /// Enabled and disabled caches must produce identical structures
    /// (op-for-op), at every width.
    #[test]
    fn disabled_cache_matches_enabled() {
        let on = ResynthCache::new();
        let off = ResynthCache::disabled();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..500 {
            let nv = rng.gen_range(1..7usize);
            let bits = 1usize << nv;
            let mask = if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let tt = rng.gen::<u64>() & mask;
            let a = on.structure_for(nv, tt);
            let b = off.structure_for(nv, tt);
            assert_eq!(a.ops, b.ops, "nv {nv} tt {tt:#x}");
            assert_eq!(a.out, b.out, "nv {nv} tt {tt:#x}");
        }
        assert!(on.hits() + on.misses() > 0);
        assert!(!on.is_empty());
        assert!(off.is_empty(), "disabled cache must not retain entries");
    }

    /// Functions of one NPN class share a single synthesis: the
    /// canonical map stays at one entry while the raw map grows.
    #[test]
    fn npn_class_members_share_synthesis() {
        let cache = ResynthCache::new();
        // All 2^4 input-complement variants of AND4 are one class.
        let and4 = 0x8000u16;
        let mut distinct = 0usize;
        for compl in 0..16u8 {
            let t = Npn4 {
                perm: [0, 1, 2, 3],
                input_compl: compl,
                output_compl: false,
            };
            let f = aig::tt::apply_npn4(and4, t);
            let s = cache.structure_for(4, u64::from(f));
            assert_eq!(s.to_tt(4) as u16, f);
            distinct += 1;
        }
        assert_eq!(cache.len(), distinct);
        assert_eq!(cache.canon.borrow().len(), 1, "one synthesis per NPN class");
    }

    /// Repeated lookups hit and share one Arc.
    #[test]
    fn hits_share_storage() {
        let cache = ResynthCache::new();
        let a = cache.structure_for(3, 0b1110_1000);
        let b = cache.structure_for(3, 0b1110_1000);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }
}
