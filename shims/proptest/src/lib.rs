//! Offline shim for `proptest`: the strategy combinators and `proptest!`
//! runner macro used by this workspace's property tests.
//!
//! Differences from upstream, by design: cases are generated from a
//! deterministic per-test RNG, failures report the case index and message
//! but are **not shrunk**, and there is no failure persistence. The
//! properties themselves are unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random source handed to strategies (wraps the workspace RNG shim).
pub type TestRng = StdRng;

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` returns.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
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
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always produces a clone of the given value.
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
                rng.random_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, f32, f64);

macro_rules! range_incl_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
range_incl_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i64, *self.end() as i64);
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                (lo + (rng.next_u64() % (span + 1)) as i64) as $t
            }
        }
    )*};
}
signed_range_strategy!(i8, i16, i32, i64, isize);

use rand::RngCore;

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Uniform boolean strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// `proptest::bool::ANY` — a fair coin.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.random()
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Acceptable size arguments to [`vec`](fn@vec): a fixed size or a range.
    pub trait IntoSizeRange {
        /// Resolve to `(min, max)` inclusive bounds.
        fn bounds(&self) -> (usize, usize);
    }
    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }
    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }
    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy producing `Option<T>` (`None` ~25% of the time, matching
    /// upstream's default weighting).
    pub struct OptionStrategy<S>(S);

    /// `proptest::option::of(element)`.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.random_bool(0.25) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

pub mod test_runner {
    /// Why a test case failed (or was rejected).
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property did not hold.
        Fail(String),
        /// The input was rejected (unused by this shim, kept for parity).
        Reject(String),
    }

    impl TestCaseError {
        /// Construct a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }

    /// Runner configuration (`cases` is the only knob this shim reads).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Run `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// Drive one property: `cases` deterministic random inputs, panicking with
/// the case index on the first failure. Called by the `proptest!` macro.
pub fn run_prop_test(
    config: ProptestConfig,
    file: &str,
    line: u32,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<(), test_runner::TestCaseError>,
) {
    // Stable per-test seed: FNV-1a over the call site and the property's
    // name, so adding tests elsewhere does not perturb this test's inputs
    // and the properties of one `proptest!` block draw distinct streams.
    let mut seed: u64 = 0xcbf29ce484222325;
    for b in file.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
    }
    seed = (seed ^ line as u64).wrapping_mul(0x100000001b3);
    for b in name.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
    }
    for i in 0..config.cases {
        let mut rng = TestRng::seed_from_u64(seed.wrapping_add(i as u64));
        if let Err(e) = case(&mut rng) {
            panic!(
                "proptest case {i}/{} of {name} failed at {file}:{line}: {e}",
                config.cases
            );
        }
    }
}

/// Property-test declaration macro: each `fn name(pat in strategy, ...)`
/// becomes a `#[test]` running [`run_prop_test`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal: expand each property fn. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_prop_test($cfg, file!(), line!(), stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                let mut __case = || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, fmt, ...)`: fail the current
/// case (with message) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert_eq!(a, b)` / `prop_assert_eq!(a, b, fmt, ...)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$a, &$b);
        if !(__l == __r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} (`{:?}` != `{:?}`)", format!($($fmt)*), __l, __r),
            ));
        }
    }};
}

pub mod prelude {
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples((a, b) in (0u32..10, 5usize..=9), v in crate::collection::vec(0i32..100, 3..6)) {
            prop_assert!(a < 10);
            prop_assert!((5..=9).contains(&b), "b = {}", b);
            prop_assert!(v.len() >= 3 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| (0..100).contains(&x)));
        }

        #[test]
        fn flat_map_and_option(len in 1usize..8) {
            let strat = crate::collection::vec(crate::option::of(0u32..5), len);
            // Re-generate inside the case to exercise prop_map/flat_map.
            let doubled = (0u32..4).prop_map(|x| x * 2);
            let mut r: crate::TestRng = rand::SeedableRng::seed_from_u64(1);
            prop_assert!(doubled.generate(&mut r) % 2 == 0);
            prop_assert!(strat.generate(&mut r).len() == len);
        }
    }

    #[test]
    fn properties_at_one_call_site_draw_distinct_inputs() {
        let first_draw = |name: &str| {
            let mut drawn = 0u64;
            crate::run_prop_test(ProptestConfig::with_cases(1), file!(), 1, name, |rng| {
                drawn = crate::Strategy::generate(&(0u64..u64::MAX), rng);
                Ok(())
            });
            drawn
        };
        assert_eq!(first_draw("a"), first_draw("a"));
        assert_ne!(first_draw("a"), first_draw("b"));
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_reports_case() {
        crate::run_prop_test(
            ProptestConfig::with_cases(5),
            file!(),
            line!(),
            "nope",
            |_rng| Err(crate::test_runner::TestCaseError::fail("nope")),
        );
    }
}
