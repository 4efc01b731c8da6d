//! Pins the quote-to-cut reuse of `A x` to the uncached computation, bit
//! for bit.
//!
//! `support_bounds_mut` records `A x` and `x^T A x` so that a cut along the
//! same direction can skip its own pass over the shape matrix;
//! `support_bounds` records nothing.  Two twin ellipsoids run one random
//! sequence of operations, one quoting through each entry point, and must
//! agree on every bound, every cut outcome, and every bit of the centre and
//! shape after every step.  The sequences mix the cases the record must
//! survive or be dropped in: a cut along the quoted direction, a cut along
//! another direction, an `inflate` between quote and cut, cuts that return
//! early, and a clone taken between quote and cut.

use pdm_ellipsoid::{CutOutcome, Ellipsoid, KnowledgeSet};
use pdm_linalg::{sampling, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dimensions under test: the one-dimensional interval path, the smallest
/// general case, and sizes on either side of the symmetrize tile.
const DIMS: [usize; 4] = [1, 2, 33, 100];

/// One ellipsoid that quotes with `support_bounds_mut` (and so records the
/// quote) and a twin that quotes with `support_bounds` (and never does).
struct Twins {
    cached: Ellipsoid,
    plain: Ellipsoid,
}

impl Twins {
    fn quote(&mut self, direction: &Vector) -> Result<(f64, f64), TestCaseError> {
        let (lo, hi) = self.cached.support_bounds_mut(direction);
        let (plain_lo, plain_hi) = self.plain.support_bounds(direction);
        prop_assert_eq!(lo.to_bits(), plain_lo.to_bits());
        prop_assert_eq!(hi.to_bits(), plain_hi.to_bits());
        Ok((lo, hi))
    }

    fn cut(
        &mut self,
        direction: &Vector,
        threshold: f64,
        above: bool,
    ) -> Result<CutOutcome, TestCaseError> {
        let (cached, plain) = if above {
            (
                self.cached.cut_above(direction, threshold),
                self.plain.cut_above(direction, threshold),
            )
        } else {
            (
                self.cached.cut_below(direction, threshold),
                self.plain.cut_below(direction, threshold),
            )
        };
        prop_assert_eq!(&cached, &plain);
        self.check_state()?;
        Ok(cached)
    }

    fn inflate(&mut self, factor: f64) -> TestCaseResult {
        self.cached.inflate(factor);
        self.plain.inflate(factor);
        self.check_state()
    }

    fn clone_both(&mut self) {
        self.cached = self.cached.clone();
        self.plain = self.plain.clone();
    }

    fn check_state(&self) -> TestCaseResult {
        assert_bits_eq(
            self.cached.center().as_slice(),
            self.plain.center().as_slice(),
            "center",
        )?;
        assert_bits_eq(
            self.cached.shape().as_slice(),
            self.plain.shape().as_slice(),
            "shape",
        )?;
        prop_assert_eq!(self.cached.cuts_applied(), self.plain.cuts_applied());
        Ok(())
    }
}

fn assert_bits_eq(actual: &[f64], expected: &[f64], what: &str) -> TestCaseResult {
    prop_assert_eq!(actual.len(), expected.len());
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        prop_assert!(
            a.to_bits() == e.to_bits(),
            "{}: slot {} diverged ({} vs {})",
            what,
            i,
            a,
            e
        );
    }
    Ok(())
}

/// A threshold strictly inside `[lo, hi]`, so the cut is a live update.
fn inner_threshold(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    lo + sampling::uniform(rng, 0.2, 0.8) * (hi - lo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cut_after_recorded_quote_matches_uncached_cut_bitwise(
        dim_index in 0usize..DIMS.len(),
        seed in 0u64..1_000,
    ) {
        let dim = DIMS[dim_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Ellipsoid::ball(dim, 2.0);
        let mut twins = Twins { cached: start.clone(), plain: start };
        for _ in 0..12 {
            let direction = sampling::unit_sphere(&mut rng, dim);
            let above = rng.gen_bool(0.5);
            match rng.gen_range(0..5) {
                // Quote, then cut along the quoted direction; a second cut
                // without a fresh quote must not reuse the spent record.
                0 => {
                    let bounds = twins.quote(&direction)?;
                    twins.cut(&direction, inner_threshold(&mut rng, bounds), above)?;
                    let bounds = twins.plain.support_bounds(&direction);
                    twins.cut(&direction, inner_threshold(&mut rng, bounds), !above)?;
                }
                // Quote one direction, cut along another.
                1 => {
                    twins.quote(&direction)?;
                    let other = sampling::unit_sphere(&mut rng, dim);
                    let bounds = twins.plain.support_bounds(&other);
                    twins.cut(&other, inner_threshold(&mut rng, bounds), above)?;
                }
                // Quote, inflate, then cut along the quoted direction.
                2 => {
                    let bounds = twins.quote(&direction)?;
                    twins.inflate(sampling::uniform(&mut rng, 1.0, 1.5))?;
                    twins.cut(&direction, inner_threshold(&mut rng, bounds), above)?;
                }
                // Quote, then cuts that return early without touching the
                // set, then a live cut along the same direction.
                3 => {
                    let (lo, hi) = twins.quote(&direction)?;
                    // Past `hi`: keeping the part below is too shallow a
                    // cut, keeping the part above leaves nothing.
                    let far = hi + (hi - lo) + 1.0;
                    let outcome = twins.cut(&direction, far, above)?;
                    let early = if above {
                        matches!(outcome, CutOutcome::WouldBeEmpty { .. })
                    } else {
                        matches!(outcome, CutOutcome::OutOfRange { .. })
                    };
                    prop_assert!(early, "expected an early return, got {:?}", outcome);
                    twins.cut(&direction, inner_threshold(&mut rng, (lo, hi)), above)?;
                }
                // Quote, clone both twins, then cut the clones.
                _ => {
                    let bounds = twins.quote(&direction)?;
                    twins.clone_both();
                    twins.cut(&direction, inner_threshold(&mut rng, bounds), above)?;
                }
            }
        }
    }
}
