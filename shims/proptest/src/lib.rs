//! Offline shim for [`proptest`](https://crates.io/crates/proptest).
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), range strategies
//! over integers and floats, `Just`, tuple strategies, `prop_flat_map`,
//! `collection::vec`, `any::<bool>()`, and the `prop_assert*` macros.
//!
//! Differences from the real crate: inputs are drawn from a deterministic
//! per-test PRNG (seeded from the test name, overridable via
//! `PROPTEST_SHIM_SEED`), and failing cases are **not shrunk** — the panic
//! message reports the raw failing case number instead.

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    /// Run-count configuration (`ProptestConfig::with_cases(n)`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each test executes.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configures `cases` executions per test.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Deterministic SplitMix64 stream used to draw test inputs.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from the test name (stable across runs) plus an
        /// optional `PROPTEST_SHIM_SEED` environment override.
        pub fn for_test(test_name: &str) -> Self {
            let env_seed: u64 = std::env::var("PROPTEST_SHIM_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x5EED_CAFE);
            let mut state = env_seed;
            for b in test_name.bytes() {
                state = splitmix(state ^ b as u64);
            }
            Self { state }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix(self.state)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    #[inline]
    fn splitmix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Builds a dependent strategy from each drawn value.
        fn prop_flat_map<F, S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> S,
            S: Strategy,
        {
            FlatMap { inner: self, f }
        }

        /// Maps drawn values through a function.
        fn prop_map<F, T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<I, F> {
        inner: I,
        f: F,
    }

    impl<I, F, S> Strategy for FlatMap<I, F>
    where
        I: Strategy,
        F: Fn(I::Value) -> S,
        S: Strategy,
    {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            let intermediate = self.inner.sample(rng);
            (self.f)(intermediate).sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<I, F> {
        inner: I,
        f: F,
    }

    impl<I, F, T> Strategy for Map<I, F>
    where
        I: Strategy,
        F: Fn(I::Value) -> T,
    {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
}

use strategy::Strategy;
use test_runner::TestRng;

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + ((rng.next_u64() as u128 * span as u128) >> 64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + ((rng.next_u64() as u128 * (span as u128 + 1)) >> 64) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u8, u16, u32, u64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        // next_unit_f64 is in [0, 1); scale slightly past hi and clamp so
        // the endpoint is reachable.
        (lo + rng.next_unit_f64() * (hi - lo) * (1.0 + 1e-12)).min(hi)
    }
}

/// Types with a canonical "any value" strategy (`any::<bool>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy.
    type Strategy: Strategy<Value = Self>;

    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy behind `any::<bool>()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;

    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;

    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// The canonical strategy for `T` (`any::<T>()`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec`](fn@vec).
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.clone().sample(rng)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.clone().sample(rng)
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// Strategy producing vectors of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr) $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    let mut run = || {
                        $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                        $body
                    };
                    let guard = $crate::CaseReporter { case, armed: true };
                    run();
                    std::mem::forget(guard);
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Prints the failing case number when a property panics (no shrinking).
#[doc(hidden)]
pub struct CaseReporter {
    pub case: u32,
    pub armed: bool,
}

impl Drop for CaseReporter {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            eprintln!(
                "proptest shim: property failed at case {} (set PROPTEST_SHIM_SEED to vary inputs)",
                self.case
            );
        }
    }
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sanity: strategies stay in range and tuples/vecs compose.
        #[test]
        fn shim_machinery_works(
            n in 5usize..50,
            x in 0.0f64..=1.0,
            pair in (0u32..10, any::<bool>()),
            items in collection::vec(0u64..100, 1..20),
        ) {
            prop_assert!((5..50).contains(&n));
            prop_assert!((0.0..=1.0).contains(&x));
            prop_assert!(pair.0 < 10);
            prop_assert!(!items.is_empty() && items.len() < 20);
            prop_assert!(items.iter().all(|&i| i < 100));
        }

        #[test]
        fn flat_map_dependent_values(
            (n, v) in (2u32..30).prop_flat_map(|n| (Just(n), collection::vec(0u32..n, 0..10)))
        ) {
            prop_assert!(v.iter().all(|&x| x < n));
        }
    }
}
