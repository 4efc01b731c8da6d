//! Privacy-compensation contracts (the tanh compensation functions of
//! Li et al. that the paper adopts).
//!
//! Each data owner signs a contract mapping a privacy leakage `ε` to a
//! monetary compensation.  The paper uses the bounded, concave
//! `c(ε) = base · tanh(sensitivity · ε)` family: compensation rises quickly
//! for small leakages and saturates at the owner's maximum acceptable
//! payment.  The total compensation over all owners is the query's reserve
//! price.

use pdm_linalg::sampling;
use rand::Rng;

/// A per-owner compensation contract `c(ε) = base · tanh(sensitivity · ε)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompensationContract {
    /// Saturation level: the most the owner can be paid for one query.
    pub base: f64,
    /// How fast the compensation rises with leakage.
    pub sensitivity: f64,
}

impl CompensationContract {
    /// Creates a contract.
    ///
    /// # Panics
    /// Panics when `base` or `sensitivity` is not strictly positive.
    #[must_use]
    pub fn new(base: f64, sensitivity: f64) -> Self {
        assert!(base > 0.0, "compensation base must be positive");
        assert!(
            sensitivity > 0.0,
            "compensation sensitivity must be positive"
        );
        Self { base, sensitivity }
    }

    /// The compensation owed for a privacy leakage `ε ≥ 0`.
    #[must_use]
    pub fn compensation(&self, leakage: f64) -> f64 {
        self.base * (self.sensitivity * leakage.max(0.0)).tanh()
    }

    /// Samples a heterogeneous population of contracts: bases and
    /// sensitivities are log-uniform over one order of magnitude around the
    /// given centres, mirroring the heterogeneity of real owner valuations.
    pub fn sample_population<R: Rng + ?Sized>(
        rng: &mut R,
        count: usize,
        base_center: f64,
        sensitivity_center: f64,
    ) -> Vec<Self> {
        (0..count)
            .map(|_| {
                let base = base_center * 10f64.powf(sampling::uniform(rng, -0.5, 0.5));
                let sens = sensitivity_center * 10f64.powf(sampling::uniform(rng, -0.5, 0.5));
                Self::new(base, sens)
            })
            .collect()
    }
}

impl Default for CompensationContract {
    fn default() -> Self {
        Self::new(1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compensation_is_monotone_and_saturating() {
        let c = CompensationContract::new(2.0, 1.5);
        assert_eq!(c.compensation(0.0), 0.0);
        let small = c.compensation(0.1);
        let medium = c.compensation(1.0);
        let large = c.compensation(100.0);
        assert!(small < medium && medium < large);
        assert!(
            large <= 2.0 + 1e-12,
            "compensation must saturate at the base"
        );
        assert!((large - 2.0).abs() < 1e-6);
    }

    #[test]
    fn negative_leakage_is_treated_as_zero() {
        let c = CompensationContract::default();
        assert_eq!(c.compensation(-1.0), 0.0);
    }

    #[test]
    fn concavity_diminishing_returns() {
        // tanh is concave on [0, ∞): equal increments of leakage yield
        // decreasing increments of compensation.
        let c = CompensationContract::new(1.0, 1.0);
        let d1 = c.compensation(0.5) - c.compensation(0.0);
        let d2 = c.compensation(1.0) - c.compensation(0.5);
        let d3 = c.compensation(1.5) - c.compensation(1.0);
        assert!(d1 > d2 && d2 > d3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_contract_rejected() {
        let _ = CompensationContract::new(0.0, 1.0);
    }

    #[test]
    fn population_sampling_is_heterogeneous_and_bounded() {
        let mut rng = StdRng::seed_from_u64(17);
        let pop = CompensationContract::sample_population(&mut rng, 200, 1.0, 2.0);
        assert_eq!(pop.len(), 200);
        for c in &pop {
            assert!(c.base > 0.3 && c.base < 3.3);
            assert!(c.sensitivity > 0.6 && c.sensitivity < 6.4);
        }
        // Heterogeneity: not all contracts identical.
        assert!(pop.iter().any(|c| (c.base - pop[0].base).abs() > 1e-6));
    }
}
