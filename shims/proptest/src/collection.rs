//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// Anything expressible as a size range for generated collections.
pub trait IntoSizeRange {
    /// The inclusive `(min, max)` length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl IntoSizeRange for core::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty vec size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min_len, max_len) = size.bounds();
    VecStrategy {
        element,
        min_len,
        max_len,
    }
}

/// The strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.rng().gen_range(self.min_len..=self.max_len);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}
