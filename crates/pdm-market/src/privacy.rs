//! Differential-privacy leakage quantification and the Laplace answering
//! mechanism.
//!
//! Following the "theory of pricing private data" pipeline (Li et al.) the
//! paper builds on, answering a linear query with Laplace noise of scale `b`
//! leaks `ε_i = |w_i| · Δ_i / b` about owner `i`, where `w_i` is the owner's
//! weight in the query and `Δ_i` bounds how much her data can move the true
//! answer.  The broker pre-computes these leakages for every arriving query;
//! they drive the compensations and hence the reserve price and the feature
//! vector.

use crate::owner::DataOwner;
use crate::query::LinearQuery;
use pdm_linalg::sampling;
use rand::Rng;

/// The saturating leakage reported for degenerate mechanisms (a
/// non-positive Laplace scale answers the query noiselessly, which in ε
/// terms is unbounded disclosure).  Saturating instead of returning
/// `f64::INFINITY` keeps every downstream aggregate — ledger debits,
/// compensation sums, snapshot fingerprints — finite and bit-stable; the
/// value is far above any budget a ledger would grant, so a saturated owner
/// is exhausted by the first query that touches her.
pub const SATURATED_LEAKAGE: f64 = 1e9;

/// Quantifies per-owner differential-privacy leakage of a noisy linear query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivacyQuantifier;

impl PrivacyQuantifier {
    /// Creates a quantifier.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// The privacy leakage `ε_i = |w_i| · Δ_i / b` of a single owner.
    ///
    /// Degenerate inputs saturate instead of escaping the finite range:
    /// an owner with zero weight or a non-positive data range contributes
    /// nothing (leakage 0), a non-positive noise scale discloses the
    /// contribution in full (leakage [`SATURATED_LEAKAGE`]), and every
    /// leakage is capped at [`SATURATED_LEAKAGE`].  The result is always
    /// finite, non-negative, and monotone non-decreasing in `|w_i|`.
    #[must_use]
    pub fn owner_leakage(&self, weight: f64, data_range: f64, laplace_scale: f64) -> f64 {
        if weight == 0.0 || data_range <= 0.0 {
            return 0.0;
        }
        if laplace_scale <= 0.0 {
            return SATURATED_LEAKAGE;
        }
        (weight.abs() * data_range / laplace_scale).min(SATURATED_LEAKAGE)
    }

    /// Per-owner leakages for a query over the given owner population.
    ///
    /// # Panics
    /// Panics when the query covers a different number of owners.
    #[must_use]
    pub fn leakages(&self, query: &LinearQuery, owners: &[DataOwner]) -> Vec<f64> {
        assert_eq!(
            query.num_owners(),
            owners.len(),
            "query must cover exactly the owner population"
        );
        let scale = query.laplace_scale();
        query
            .weights
            .iter()
            .zip(owners.iter())
            .map(|(w, owner)| self.owner_leakage(*w, owner.data_range, scale))
            .collect()
    }
}

/// The Laplace mechanism used to answer sold queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaplaceMechanism;

impl LaplaceMechanism {
    /// Creates the mechanism.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Computes the noisy answer of a query over the owners' aggregate
    /// record values.
    ///
    /// # Panics
    /// Panics when the query covers a different number of owners.
    pub fn answer<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        query: &LinearQuery,
        owners: &[DataOwner],
    ) -> f64 {
        assert_eq!(
            query.num_owners(),
            owners.len(),
            "query must cover exactly the owner population"
        );
        let values: Vec<f64> = owners.iter().map(DataOwner::record_sum).collect();
        let truth = query.true_answer(&values);
        truth + sampling::laplace(rng, query.laplace_scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn owners(n: usize) -> Vec<DataOwner> {
        (0..n)
            .map(|i| DataOwner::new(i as u64, vec![1.0, 2.0], 1.0))
            .collect()
    }

    #[test]
    fn leakage_scales_with_weight_and_noise() {
        let q = PrivacyQuantifier::new();
        // Larger weight ⇒ more leakage, larger noise ⇒ less leakage.
        assert!(q.owner_leakage(2.0, 1.0, 1.0) > q.owner_leakage(1.0, 1.0, 1.0));
        assert!(q.owner_leakage(1.0, 1.0, 2.0) < q.owner_leakage(1.0, 1.0, 1.0));
        // Sign of the weight does not matter.
        assert_eq!(
            q.owner_leakage(-3.0, 1.0, 1.0),
            q.owner_leakage(3.0, 1.0, 1.0)
        );
        // Degenerate noise scale saturates instead of going non-finite: the
        // noiseless answer discloses the weighted contribution in full.
        assert_eq!(q.owner_leakage(1.0, 1.0, 0.0), SATURATED_LEAKAGE);
        assert_eq!(q.owner_leakage(1.0, 1.0, -2.0), SATURATED_LEAKAGE);
        // But a zero weight leaks nothing even through a noiseless channel,
        // and a degenerate (zero or negative) data range cannot move the
        // answer, so it leaks nothing either.
        assert_eq!(q.owner_leakage(0.0, 1.0, 0.0), 0.0);
        assert_eq!(q.owner_leakage(1.0, 0.0, 1.0), 0.0);
        assert_eq!(q.owner_leakage(1.0, -1.0, 1.0), 0.0);
        // A huge weight over a tiny noise scale caps at the saturation
        // value rather than overflowing past it.
        assert_eq!(q.owner_leakage(1e300, 1.0, 1e-300), SATURATED_LEAKAGE);
    }

    #[test]
    fn leakages_follow_query_weights() {
        let quantifier = PrivacyQuantifier::new();
        let owners = owners(3);
        let query = LinearQuery::new(0, vec![0.0, 1.0, -2.0], 2.0);
        let eps = quantifier.leakages(&query, &owners);
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[0], 0.0);
        assert!((eps[2] / eps[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "owner population")]
    fn leakages_require_matching_population() {
        let quantifier = PrivacyQuantifier::new();
        let query = LinearQuery::new(0, vec![1.0], 1.0);
        let _ = quantifier.leakages(&query, &owners(2));
    }

    #[test]
    fn laplace_answers_concentrate_on_the_truth() {
        let mechanism = LaplaceMechanism::new();
        let owners = owners(4);
        // Each owner's record sum is 3, so the all-ones query has truth 12.
        let query = LinearQuery::new(0, vec![1.0; 4], 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let mean: f64 = (0..5000)
            .map(|_| mechanism.answer(&mut rng, &query, &owners))
            .sum::<f64>()
            / 5000.0;
        assert!(
            (mean - 12.0).abs() < 0.1,
            "noisy answers must centre on the truth, got {mean}"
        );
    }
}
