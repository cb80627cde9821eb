//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates-registry access, so this local crate
//! implements the subset of proptest the workspace's property tests use:
//!
//! * [`Strategy`] with `prop_map` / `prop_flat_map`,
//! * range strategies over integers, tuple strategies, [`collection::vec`],
//!   [`option::of`], [`any`] for `bool`,
//! * the [`proptest!`] macro (with `#![proptest_config(...)]`),
//!   [`prop_assert!`] and [`prop_assert_eq!`].
//!
//! Differences from upstream: generation is purely random (no shrinking —
//! a failing case panics with its case index; the streams are deterministic
//! per test name, so failures reproduce exactly), and the default case count
//! is smaller. That trades minimality of counterexamples for zero
//! dependencies, which is the right trade for an offline CI.

use std::fmt;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// New generator from a seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Stable hash of a test name, used to derive per-test seeds.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Config and errors
// ---------------------------------------------------------------------------

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// The default configuration with `cases` random cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig::with_cases(64)
    }
}

/// A failed `prop_assert!` (subset of `proptest::test_runner::TestCaseError`).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build from a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating random values (simplified from upstream: no value
/// trees, no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { s: self, f }
    }

    /// Generate a value, then a dependent strategy from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F, S2>
    where
        Self: Sized,
    {
        FlatMap { s: self, f, _marker: std::marker::PhantomData }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    s: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.s.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F, S2> {
    s: S,
    f: F,
    _marker: std::marker::PhantomData<fn() -> S2>,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F, S2> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.s.generate(rng)).generate(rng)
    }
}

// Strategies compose by reference too (the proptest! macro generates through
// a fresh expression each case, but helpers may hold references).
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                let span = (e as i128 - s as i128) as u128 + 1;
                (s as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// A fixed value as a (degenerate) strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $S:ident),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

// ---------------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical strategy (subset of `proptest::arbitrary`).
pub trait Arbitrary: Sized {
    /// The canonical strategy's type.
    type Strategy: Strategy<Value = Self>;
    /// The canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Canonical strategy for `bool`: a fair coin.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = core::ops::RangeInclusive<$t>;
            fn arbitrary() -> Self::Strategy {
                <$t>::MIN..=<$t>::MAX
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

// ---------------------------------------------------------------------------
// collection / option
// ---------------------------------------------------------------------------

pub mod collection {
    //! Collection strategies (subset of `proptest::collection`).

    use super::{Strategy, TestRng};

    /// An inclusive size window for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max_incl: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max_incl: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { min: *r.start(), max_incl: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Vector of values from `elem`, sized within `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_incl - self.size.min) as u64 + 1;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies (subset of `proptest::option`).

    use super::{Strategy, TestRng};

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` roughly three times out of four, like upstream's default
    /// weighting.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.unit_f64() < 0.75 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Assert inside a `proptest!` body; failure aborts the case with a message
/// instead of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: `{:?}` == `{:?}`", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: `{:?}` != `{:?}`", a, b);
    }};
}

/// The property-test macro: wraps `#[test]` functions whose arguments are
/// drawn from strategies, running each body over `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $pat:pat in $strat:expr ),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut seeds = $crate::TestRng::new($crate::fnv1a(stringify!($name)));
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::new(seeds.next_u64());
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                        $( let $pat = $crate::Strategy::generate(&$strat, &mut rng); )*
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest `{}` failed at case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };

    pub mod prop {
        //! The `prop::` namespace used by `prop::collection::vec` et al.
        pub use crate::collection;
        pub use crate::option;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_compose() {
        let mut rng = crate::TestRng::new(1);
        let s = prop::collection::vec((0i64..8, prop::option::of(0i64..8)), 0..25)
            .prop_map(|v| v.len());
        for _ in 0..100 {
            assert!(s.generate(&mut rng) < 25);
        }
        let fm = (2usize..7).prop_flat_map(|n| (0usize..n).prop_map(move |k| (n, k)));
        for _ in 0..100 {
            let (n, k) = fm.generate(&mut rng);
            assert!(k < n && (2..7).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_patterns(x in 0i64..10, (a, b) in (0usize..5, any::<bool>())) {
            prop_assert!((0..10).contains(&x));
            prop_assert!(a < 5);
            let _ = b;
            prop_assert_eq!(a, a);
        }
    }

    #[test]
    #[should_panic(expected = "proptest `always_fails` failed")]
    fn failure_panics_with_case_info() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]
            #[allow(unused, reason = "the macro must pass item attributes through")]
            fn always_fails(x in 0i64..4) {
                prop_assert!(x < 0, "x was {}", x);
            }
        }
        always_fails();
    }
}
