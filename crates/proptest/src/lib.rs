//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this API-compatible subset instead. It covers what the workspace's
//! property tests use: range and tuple strategies, `prop_map` /
//! `prop_flat_map`, `collection::vec`, the [`proptest!`] macro with an
//! optional `#![proptest_config(..)]` attribute, and the `prop_assert*` /
//! `prop_assume!` macros.
//!
//! Semantics differ from upstream in one deliberate way: there is no
//! shrinking. A failing case panics with the seed-derived case index in the
//! message, which is enough to reproduce (cases are generated
//! deterministically from the test function's name).

use rand::Rng;

/// Per-test configuration (`#![proptest_config(ProptestConfig::with_cases(n))]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The RNG handed to strategies (deterministic per test + case index).
pub type TestRng = rand::rngs::StdRng;

/// Builds the deterministic RNG for one test case. Used by the
/// [`proptest!`] macro; not part of the upstream API.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    <TestRng as rand::SeedableRng>::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// A generator of random values — upstream's `Strategy`, minus shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(usize, u64, u32, i64, i32, f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Sizes accepted by [`vec()`]: an exact length or a length range.
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }
    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }
    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec`s of `elem` values with a length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// (Upstream rejects and retries; this subset simply skips the case.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ..)`
/// becomes a regular `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($cfg) $($rest)*);
    };
    (@with ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut proptest_rng = $crate::case_rng(stringify!($name), case);
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut proptest_rng);)*
                    #[allow(unused_mut)]
                    let mut proptest_case = move || $body;
                    proptest_case();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, Vec<f32>)> {
        (1usize..5).prop_flat_map(|n| {
            (1usize..=n, collection::vec(-1.0f32..1.0, n)).prop_map(|(k, v)| (k, v))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in 2usize..9, x in -3.0f32..3.0) {
            prop_assert!((2..9).contains(&a));
            prop_assert!((-3.0..3.0).contains(&x));
        }

        #[test]
        fn vec_lengths_respect_size_range(v in collection::vec(0.0f32..1.0, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        #[test]
        fn flat_map_dependencies_hold((k, v) in pair()) {
            prop_assert!(k <= v.len());
            prop_assert!(!v.is_empty());
        }

        #[test]
        fn assume_skips_cases(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<usize> = (0..8)
            .map(|c| Strategy::generate(&(0usize..1000), &mut crate::case_rng("t", c)))
            .collect();
        let b: Vec<usize> = (0..8)
            .map(|c| Strategy::generate(&(0usize..1000), &mut crate::case_rng("t", c)))
            .collect();
        assert_eq!(a, b);
        assert!(a.windows(2).any(|w| w[0] != w[1]), "cases should vary");
    }
}
