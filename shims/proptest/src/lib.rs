//! Offline stand-in for the crates.io `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API used by this workspace's
//! property tests: the [`Strategy`](strategy::Strategy) trait with `prop_map`, range and tuple
//! strategies, [`strategy::Just`], weighted [`prop_oneof!`],
//! [`collection::vec`], [`arbitrary::any`], the [`proptest!`] macro with
//! `#![proptest_config(...)]`, and the `prop_assert*` macros.
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failing case reports its inputs (via `Debug` of
//!   the failure message) but is not minimized;
//! * **deterministic seeding** — case `i` of test `t` is seeded from
//!   `hash(t, i)`, so failures reproduce exactly across runs and platforms;
//! * strategies sample directly instead of building value trees.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy, Union};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced re-exports (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Declares property tests. Mirrors `proptest::proptest!`:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u64..100, flag in any::<bool>()) {
///         prop_assert!(x < 100 || flag);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::Config = $config;
                $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), __rng);)+
                    let __case_input = format!(
                        concat!($(stringify!($arg), " = {:?}, ",)+ ""),
                        $(&$arg),+
                    );
                    let __result: $crate::test_runner::TestCaseResult =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    (__result, __case_input)
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

/// Builds a [`strategy::Union`] over several strategies producing the same
/// value type, optionally weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::arm($weight as u32, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Asserts a condition inside a `proptest!` body; on failure the current
/// case returns an error (instead of panicking immediately) so the runner
/// can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*))
            );
        }
    };
}

/// Asserts two values are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)*), l, r
        );
    }};
}

/// Asserts two values are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}
