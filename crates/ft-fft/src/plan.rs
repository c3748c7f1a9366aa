//! Transform planning and caching.
//!
//! [`Fft`] picks the right algorithm for a size (radix-2 for powers of two,
//! mixed-radix for 7-smooth composites, Bluestein otherwise). [`FftPlanner`]
//! caches plans by size; [`with_plan`] offers a zero-setup thread-local cache
//! so call sites never re-derive twiddle tables.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use ft_tensor::Complex64;

use crate::bluestein::Bluestein;
use crate::mixed::{smooth_factors, MixedRadix};
use crate::radix2::Radix2;
use crate::Direction;

/// A planned 1D transform of a fixed size.
pub enum Fft {
    /// Power-of-two size.
    Radix2(Radix2),
    /// 7-smooth composite size.
    Mixed(MixedRadix),
    /// Any other size (contains a large prime factor).
    Bluestein(Bluestein),
}

impl Fft {
    /// Plans the best algorithm for size `n > 0`.
    pub fn plan(n: usize) -> Self {
        assert!(n > 0, "FFT size must be positive");
        if n.is_power_of_two() {
            Fft::Radix2(Radix2::new(n))
        } else if smooth_factors(n).is_some() {
            Fft::Mixed(MixedRadix::new(n))
        } else {
            Fft::Bluestein(Bluestein::new(n))
        }
    }

    /// The planned size.
    pub fn len(&self) -> usize {
        match self {
            Fft::Radix2(p) => p.len(),
            Fft::Mixed(p) => p.len(),
            Fft::Bluestein(p) => p.len(),
        }
    }

    /// `true` when the planned size is zero (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place transform; `data.len()` must equal the planned size.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        match self {
            Fft::Radix2(p) => p.process(data, dir),
            Fft::Mixed(p) => p.process(data, dir),
            Fft::Bluestein(p) => p.process(data, dir),
        }
    }
}

/// Plan-cache hits across every planner in the process (including the
/// thread-local ones behind [`with_plan`] and the real-transform plan cache
/// in `crate::real`). Only ticks while `ft-obs` instrumentation is enabled.
pub(crate) static PLAN_CACHE_HITS: ft_obs::Counter = ft_obs::Counter::new("fft.plan_cache.hits");
/// Plan-cache misses (a twiddle-table derivation) across the process.
pub(crate) static PLAN_CACHE_MISSES: ft_obs::Counter =
    ft_obs::Counter::new("fft.plan_cache.misses");

/// A by-size cache of [`Fft`] plans. Clone the returned `Arc`s freely; plans
/// are immutable after construction and safe to share across threads.
#[derive(Default)]
pub struct FftPlanner {
    cache: HashMap<usize, Arc<Fft>>,
}

impl FftPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached plan for size `n`, creating it on first use.
    /// Hits and misses feed the `fft.plan_cache.{hits,misses}` counters
    /// when observability is enabled.
    pub fn plan(&mut self, n: usize) -> Arc<Fft> {
        match self.cache.entry(n) {
            Entry::Occupied(e) => {
                PLAN_CACHE_HITS.inc();
                e.get().clone()
            }
            Entry::Vacant(v) => {
                PLAN_CACHE_MISSES.inc();
                v.insert(Arc::new(Fft::plan(n))).clone()
            }
        }
    }
}

thread_local! {
    static LOCAL_PLANNER: RefCell<FftPlanner> = RefCell::new(FftPlanner::new());
}

/// Runs `f` with the thread-local cached plan for size `n`.
///
/// Each rayon worker keeps its own cache, so parallel batched transforms
/// never contend on a lock.
pub fn with_plan<R>(n: usize, f: impl FnOnce(&Fft) -> R) -> R {
    let plan = LOCAL_PLANNER.with(|p| p.borrow_mut().plan(n));
    f(&plan)
}

/// Returns the thread-local cached plan for size `n` as a shareable handle.
///
/// Batched call sites hoist this out of their per-slice loops: one planner
/// lookup (and one hit/miss tick) covers the whole batch, and because plans
/// are immutable the `Arc` crosses worker threads without each of them
/// paying a cache lookup per row.
pub fn shared_plan(n: usize) -> Arc<Fft> {
    LOCAL_PLANNER.with(|p| p.borrow_mut().plan(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    #[test]
    fn plan_selects_expected_algorithm() {
        assert!(matches!(Fft::plan(256), Fft::Radix2(_)));
        assert!(matches!(Fft::plan(10), Fft::Mixed(_)));
        assert!(matches!(Fft::plan(13), Fft::Bluestein(_)));
        assert!(matches!(Fft::plan(1), Fft::Radix2(_)));
    }

    #[test]
    fn all_paths_agree_with_oracle() {
        for &n in &[8usize, 12, 13, 30, 37] {
            let plan = Fft::plan(n);
            let x: Vec<Complex64> =
                (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.5)).collect();
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            let oracle = dft(&x, Direction::Forward);
            for (a, b) in y.iter().zip(&oracle) {
                assert!((*a - *b).abs() < 1e-8 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn planner_caches_by_size() {
        let mut planner = FftPlanner::new();
        let a = planner.plan(64);
        let b = planner.plan(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(planner.plan(48).len(), 48);
    }

    #[test]
    fn thread_local_convenience_roundtrip() {
        let x: Vec<Complex64> = (0..24).map(|i| Complex64::from_re(i as f64)).collect();
        let mut y = x.clone();
        with_plan(24, |p| p.process(&mut y, Direction::Forward));
        with_plan(24, |p| p.process(&mut y, Direction::Inverse));
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }
}
