//! Offline stand-in for [`proptest`](https://docs.rs/proptest): the
//! [`Strategy`] trait over integer/float ranges, tuples, `collection::vec`,
//! and `prop_map`, driven by the [`proptest!`] macro with deterministic
//! seeding (seed = hash of the test name, [`CASES`] cases per test).
//!
//! No shrinking: a failing case reports its index and seed instead. See
//! `docs/offline-build.md` for why the workspace vendors its dependencies.

use rand::rngs::StdRng;
use rand::{Rng as _, RngCore, SeedableRng};

/// Number of cases each [`proptest!`]-generated test runs.
pub const CASES: u32 = 64;

/// The deterministic generator backing strategy sampling.
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds from a test name (FNV-1a), so every test gets a distinct but
    /// reproducible stream.
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A proptest failure raised by `prop_assert!`-family macros.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A value generator, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn gen_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.gen_value(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident: $idx:tt),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen_value(rng),)*)
            }
        }
    };
}

impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

pub mod collection {
    //! Collection strategies (`vec`).

    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Anything usable as the vec-length argument: a fixed `usize` or a
    /// `usize` range.
    pub trait IntoLenRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for core::ops::Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoLenRange for core::ops::RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `len`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// The strategy returned by [`vec`](fn@vec).
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The usual `use proptest::prelude::*` imports.
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Strategy, TestCaseError, TestRng};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies,
/// mirroring `proptest::proptest!`. Each test runs [`CASES`] deterministic
/// cases; a failure reports the case index (no shrinking).
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $( $arg:pat in $strat:expr ),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for case in 0..$crate::CASES {
                    $( let $arg = $crate::Strategy::gen_value(&$strat, &mut rng); )*
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("proptest {} failed at case {case}: {e}", stringify!($name));
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(::std::format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 0usize..10, (a, b) in (-5i64..=5, 1i64..=4)) {
            prop_assert!(x < 10);
            prop_assert!((-5..=5).contains(&a));
            prop_assert!((1..=4).contains(&b));
        }

        #[test]
        fn mapped_vec(v in crate::collection::vec(0u32..100, 3..6).prop_map(|v| v.len())) {
            prop_assert!((3..6).contains(&v));
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = TestRng::deterministic("t");
        let mut b = TestRng::deterministic("t");
        let s = crate::collection::vec(0u64..1000, 4);
        assert_eq!(s.gen_value(&mut a), s.gen_value(&mut b));
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_surface() {
        proptest! {
            fn inner(x in 0u32..10) {
                prop_assert!(x < 5);
            }
        }
        inner();
    }
}
