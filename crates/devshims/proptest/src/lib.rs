//! Offline stand-in for the `proptest` crate.
//!
//! This workspace builds in a container with no access to crates.io, so the
//! real `proptest` cannot be vendored. This shim reimplements exactly the
//! API surface the workspace's property tests use:
//!
//! - the `proptest!` macro (with an optional `#![proptest_config(..)]`
//!   inner attribute and multiple `fn name(arg in strategy, ..) { .. }`
//!   test items);
//! - `prop_assert!` / `prop_assert_eq!`;
//! - `any::<T>()` for the integer primitives and `f32`;
//! - numeric `Range` strategies (`0u64..1000`, `-10.0f32..10.0`, ...);
//! - `proptest::collection::vec(strategy, size_range)`;
//! - `&str` regex-ish patterns, approximated as bounded random strings
//!   (the only pattern the workspace uses is `".{0,64}"`).
//!
//! Generation is *deterministic*: each test derives its RNG seed from the
//! test function's name, so failures reproduce across runs. Unlike the real
//! proptest there is no shrinking — a failing case prints its inputs via
//! the `prop_assert!` message instead.

#![forbid(unsafe_code)]

/// Runtime configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Error type returned (via `prop_assert!`) from a generated test body.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// SplitMix64 — small, deterministic, and plenty for test-input generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant for test-input generation.
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over the test name — the per-test deterministic seed.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A value generator. The real proptest separates strategies from value
/// trees (for shrinking); without shrinking a strategy is just a generator.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// `any::<T>()` marker — generates from `T`'s full bit domain.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(lo < hi, "empty range strategy");
                let span = (hi - lo) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<f32> {
    type Value = f32;
    /// Arbitrary bit patterns — exercises NaN/inf codec paths like the real
    /// `any::<f32>()`.
    fn generate(&self, rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

/// String "pattern" strategy. A faithful regex engine is far out of scope
/// for a shim; the workspace only uses `".{0,64}"`-style patterns, so any
/// pattern generates a random unicode string of length 0..=64 chars.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let len = rng.below(65) as usize;
        (0..len)
            .map(|_| match rng.below(8) {
                // mostly printable ASCII, sprinkled with multibyte chars to
                // exercise UTF-8 handling
                0 => char::from_u32(0x00a1 + rng.below(0x2000) as u32).unwrap_or('é'),
                _ => (0x20u8 + rng.below(0x5f) as u8) as char,
            })
            .collect()
    }
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// `vec(element_strategy, len_range)`.
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    /// Anything accepted as a vec length spec: a `usize` (exact length) or
    /// a half-open `Range<usize>` — the two forms the workspace uses.
    pub trait IntoSizeRange {
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec length range");
            (self.start, self.end)
        }
    }

    pub fn vec<S: Strategy>(elem: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = len.bounds();
        VecStrategy { elem, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below((self.hi - self.lo) as u64) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new($crate::seed_from_name(stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // Render inputs before the body runs: the body may move
                    // the generated values.
                    let mut inputs = String::new();
                    $(inputs.push_str(&format!("{}={:?} ", stringify!($arg), &$arg));)+
                    let result = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = result {
                        panic!(
                            "proptest case {}/{} failed: {}\n  inputs: {}",
                            case + 1,
                            config.cases,
                            e.0,
                            inputs
                        );
                    }
                }
            }
        )*
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}
