//! Offline stand-in for the `proptest` crate.
//!
//! Reimplements the API subset this workspace's property tests use:
//! `proptest!`, `prop_assert*`, `prop_assume!`, `prop_oneof!`, `Just`,
//! `any`, range and tuple strategies, `collection::vec`, `prop_map`,
//! `prop_flat_map`, and `prop_recursive`. Cases are generated from a fixed
//! seed so runs are deterministic; shrinking is not implemented (failures
//! report the raw counterexample case index instead).

use rand::{Rng as _, StdRng};
use std::ops::Range;
use std::rc::Rc;

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
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
        ProptestConfig { cases: 64 }
    }
}

/// The random source threaded through strategies.
pub type TestRng = StdRng;

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Applies a pure transformation to generated values.
    fn prop_map<U, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        MapStrategy { inner: self, f }
    }

    /// Derives a dependent strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMapStrategy { inner: self, f }
    }

    /// Type-erases the strategy (cheaply cloneable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Recursive structures: up to `depth` nested applications of
    /// `recurse` over the leaf strategy. `desired_size` and
    /// `expected_branch_size` are accepted for API compatibility; the shim
    /// bounds growth by depth alone.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf: BoxedStrategy<Self::Value> = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let expanded = recurse(strat.clone()).boxed();
            strat = Union::new(vec![leaf.clone(), expanded]).boxed();
        }
        strat
    }
}

// Object-safe mirror backing BoxedStrategy.
trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased, cheaply cloneable strategy.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_dyn(rng)
    }
}

/// `prop_map` adapter.
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMapStrategy<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// A constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among same-valued strategies (backs `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds from the candidate strategies (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let ix = rng.gen_range(0..self.options.len());
        self.options[ix].sample(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// String strategy from a simplified regex pattern.
///
/// Supports the shape this workspace uses — `[chars]{min,max}` with literal
/// characters and `a-z` ranges inside the class. Any other pattern falls
/// back to short alphanumeric strings.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        sample_pattern(self, rng)
    }
}

fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
    if let Some(parsed) = parse_class_repeat(pattern) {
        let (chars, min, max) = parsed;
        let len = rng.gen_range(min..=max);
        (0..len)
            .map(|_| chars[rng.gen_range(0..chars.len())])
            .collect()
    } else {
        let len = rng.gen_range(0usize..9);
        const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        (0..len)
            .map(|_| ALNUM[rng.gen_range(0..ALNUM.len())] as char)
            .collect()
    }
}

fn parse_class_repeat(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class = &rest[..close];
    let repeat = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (min_s, max_s) = repeat.split_once(',')?;
    let (min, max) = (min_s.parse().ok()?, max_s.parse().ok()?);
    let mut chars = Vec::new();
    let src: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < src.len() {
        if i + 2 < src.len() && src[i + 1] == '-' {
            let (a, b) = (src[i], src[i + 2]);
            for c in a..=b {
                chars.push(c);
            }
            i += 3;
        } else {
            chars.push(src[i]);
            i += 1;
        }
    }
    (!chars.is_empty()).then_some((chars, min, max))
}

/// `any::<T>()` — full-domain strategies for primitives.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// The strategy type `any::<T>()` returns.
    type Strategy: Strategy<Value = Self>;
    /// The canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain primitive strategy.
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_primitive {
    ($($t:ty => $sample:expr),*) => {$(
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrimitive(std::marker::PhantomData)
            }
        }
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let f: fn(&mut TestRng) -> $t = $sample;
                f(rng)
            }
        }
    )*};
}
arbitrary_primitive! {
    bool => |rng| rng.gen::<bool>(),
    i64 => |rng| {
        // Mix small magnitudes with full-range values; naive uniform u64
        // almost never produces the small numbers properties care about.
        if rng.gen_bool(0.5) { rng.gen_range(-1000i64..1000) } else { rng.gen::<i64>() }
    },
    u64 => |rng| {
        if rng.gen_bool(0.5) { rng.gen_range(0u64..1000) } else { rng.gen::<u64>() }
    },
    u32 => |rng| {
        if rng.gen_bool(0.5) { rng.gen_range(0u32..1000) } else { (rng.gen::<u64>() >> 32) as u32 }
    },
    usize => |rng| {
        if rng.gen_bool(0.5) { rng.gen_range(0usize..1000) } else { rng.gen::<u64>() as usize }
    },
    f64 => |rng| {
        if rng.gen_bool(0.5) { rng.gen_range(-1000.0f64..1000.0) } else { f64::from_bits(rng.gen::<u64>()) }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Length specification: an exact size or a range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// A vector of values from an element strategy.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Why a property case did not pass (bodies may `return Ok(())` to skip).
#[derive(Debug)]
pub enum TestCaseError {
    /// Inputs rejected by `prop_assume!`.
    Reject(String),
    /// Assertion failure.
    Fail(String),
}

/// The result type property bodies implicitly return.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runs one property's cases; used by the generated test bodies.
#[doc(hidden)]
pub fn deterministic_rng(test_name: &str, case: u32) -> TestRng {
    // FNV over the test name keeps distinct properties on distinct streams.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    rand::SeedableRng::seed_from_u64(h ^ ((case as u64) << 32) ^ 0x9E3779B97F4A7C15)
}

/// Declares deterministic property tests over strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($parm:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut proptest_rng = $crate::deterministic_rng(stringify!($name), case);
                    $(
                        let $parm = $crate::Strategy::sample(&($strategy), &mut proptest_rng);
                    )+
                    // Bodies may `return Ok(())` (skip) like real proptest's
                    // TestCaseResult-returning closures, so the body needs
                    // a closure of its own.
                    #[allow(clippy::redundant_closure_call)]
                    let outcome: $crate::TestCaseResult = (|| {
                        $body
                        Ok(())
                    })();
                    if let Err(e) = outcome {
                        panic!("property {} failed at case {}: {:?}", stringify!($name), case, e);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// `assert!` inside a property (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// `assert_eq!` inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// `assert_ne!` inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Skips the current case when its inputs don't meet a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Ok(());
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Ok(());
        }
    };
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism_across_runs() {
        let mut a = super::deterministic_rng("t", 3);
        let mut b = super::deterministic_rng("t", 3);
        let s = super::collection::vec(0i64..100, 1..10);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, 5i64..9), s in "[a-c]{1,3}") {
            prop_assert!(a < 10);
            prop_assert!((5..9).contains(&b));
            prop_assert!((1..=3).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn oneof_and_flat_map(v in prop_oneof![Just(1i64), Just(2i64)].prop_flat_map(|n| {
            crate::collection::vec(0i64..10, 1..4).prop_map(move |xs| (n, xs))
        })) {
            prop_assert!(v.0 == 1 || v.0 == 2);
            prop_assert!(!v.1.is_empty());
        }
    }
}
