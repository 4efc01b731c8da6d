//! The data broker: privacy accounting and query featurisation.
//!
//! [`DataBroker`] owns the collected dataset (the owner population and their
//! compensation contracts).  For every arriving query it produces a
//! [`PricedQuery`]: the per-owner leakages and compensations, the total
//! compensation (= reserve price), and the aggregated feature vector the
//! pricing mechanism consumes.

use crate::compensation::CompensationContract;
use crate::features::FeatureAggregator;
use crate::owner::DataOwner;
use crate::privacy::PrivacyQuantifier;
use crate::query::LinearQuery;
use pdm_linalg::Vector;

/// A query that the broker has run through privacy accounting and
/// featurisation, ready to be priced.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedQuery {
    /// Identifier of the underlying query.
    pub query_id: u64,
    /// Per-owner privacy leakages `ε_i`.
    pub leakages: Vec<f64>,
    /// Per-owner privacy compensations `c_i(ε_i)`.
    pub compensations: Vec<f64>,
    /// Total compensation in the raw (monetary) scale.
    pub total_compensation: f64,
    /// The aggregated, L2-normalised feature vector `x_t`.
    pub features: Vector,
    /// The reserve price in the normalised scale the mechanism prices in
    /// (the sum of the normalised features, Section V-A).
    pub reserve_price: f64,
}

impl PricedQuery {
    /// The `(features, reserve)` pair a posted-price engine consumes.
    ///
    /// This is the hand-off point between the privacy-accounting substrate
    /// and the pricing layer: the serving engine (`pdm-service`) builds its
    /// quote requests from exactly these two quantities.
    #[must_use]
    pub fn pricing_inputs(&self) -> (&Vector, f64) {
        (&self.features, self.reserve_price)
    }
}

/// The data broker of Fig. 2.
#[derive(Debug, Clone)]
pub struct DataBroker {
    owners: Vec<DataOwner>,
    contracts: Vec<CompensationContract>,
    quantifier: PrivacyQuantifier,
    aggregator: FeatureAggregator,
}

impl DataBroker {
    /// Creates a broker over an owner population with per-owner contracts and
    /// an `n`-dimensional feature aggregation.
    ///
    /// # Panics
    /// Panics when the number of contracts differs from the number of owners
    /// or the population is empty.
    #[must_use]
    pub fn new(
        owners: Vec<DataOwner>,
        contracts: Vec<CompensationContract>,
        feature_dim: usize,
    ) -> Self {
        assert!(!owners.is_empty(), "broker needs at least one data owner");
        assert_eq!(
            owners.len(),
            contracts.len(),
            "each owner needs exactly one compensation contract"
        );
        Self {
            owners,
            contracts,
            quantifier: PrivacyQuantifier::new(),
            aggregator: FeatureAggregator::new(feature_dim),
        }
    }

    /// Number of data owners in the collected dataset.
    #[must_use]
    pub fn num_owners(&self) -> usize {
        self.owners.len()
    }

    /// Dimension of the feature vectors the broker produces.
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.aggregator.dim()
    }

    /// The owner population.
    #[must_use]
    pub fn owners(&self) -> &[DataOwner] {
        &self.owners
    }

    /// The compensation contracts (same order as the owners).
    #[must_use]
    pub fn contracts(&self) -> &[CompensationContract] {
        &self.contracts
    }

    /// Runs privacy accounting and featurisation for one query.
    ///
    /// # Panics
    /// Panics when the query does not cover exactly the owner population.
    #[must_use]
    pub fn prepare(&self, query: &LinearQuery) -> PricedQuery {
        let leakages = self.quantifier.leakages(query, &self.owners);
        let compensations: Vec<f64> = leakages
            .iter()
            .zip(self.contracts.iter())
            .map(|(eps, contract)| contract.compensation(*eps))
            .collect();
        let total_compensation = compensations.iter().sum();
        let (features, reserve_price) = self.aggregator.features_and_reserve(&compensations);
        PricedQuery {
            query_id: query.id,
            leakages,
            compensations,
            total_compensation,
            features,
            reserve_price,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryGenerator;
    use crate::query::QueryWeightDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn broker(num_owners: usize, dim: usize) -> DataBroker {
        let owners: Vec<DataOwner> = (0..num_owners)
            .map(|i| DataOwner::new(i as u64, vec![(i % 5) as f64 + 1.0], 1.0))
            .collect();
        let contracts = vec![CompensationContract::new(1.0, 2.0); num_owners];
        DataBroker::new(owners, contracts, dim)
    }

    #[test]
    fn prepare_produces_consistent_quantities() {
        let broker = broker(40, 8);
        let query = LinearQuery::new(3, vec![0.5; 40], 1.0);
        let priced = broker.prepare(&query);
        assert_eq!(priced.query_id, 3);
        assert_eq!(priced.leakages.len(), 40);
        assert_eq!(priced.compensations.len(), 40);
        assert!((priced.features.norm() - 1.0).abs() < 1e-12);
        assert!((priced.reserve_price - priced.features.sum()).abs() < 1e-12);
        assert!(
            (priced.total_compensation - priced.compensations.iter().sum::<f64>()).abs() < 1e-12
        );
        // Identical owners and weights ⇒ identical compensations ⇒ the
        // normalised features are uniform: each ≈ 1/√8.
        let expected = 1.0 / (8.0_f64).sqrt();
        for value in priced.features.iter() {
            assert!((value - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn pricing_inputs_expose_the_serving_hand_off() {
        let broker = broker(12, 4);
        let priced = broker.prepare(&LinearQuery::new(0, vec![0.3; 12], 1.0));
        let (features, reserve) = priced.pricing_inputs();
        assert_eq!(features, &priced.features);
        assert_eq!(reserve, priced.reserve_price);
    }

    #[test]
    fn heavier_queries_cost_more() {
        let broker = broker(30, 5);
        // Same weights, less noise ⇒ more leakage ⇒ higher total compensation.
        let gentle = LinearQuery::new(0, vec![0.2; 30], 10.0);
        let invasive = LinearQuery::new(1, vec![0.2; 30], 0.01);
        let gentle_priced = broker.prepare(&gentle);
        let invasive_priced = broker.prepare(&invasive);
        assert!(invasive_priced.total_compensation > gentle_priced.total_compensation);
    }

    #[test]
    fn generated_queries_flow_through_the_broker() {
        let broker = broker(25, 10);
        let mut generator = QueryGenerator::new(25, QueryWeightDistribution::Gaussian);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let query = generator.next_query(&mut rng);
            let priced = broker.prepare(&query);
            assert_eq!(priced.features.len(), 10);
            assert!(priced.reserve_price >= 0.0);
            assert!(priced.features.iter().all(|x| *x >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "one compensation contract")]
    fn mismatched_contracts_rejected() {
        let owners = vec![DataOwner::new(0, vec![1.0], 1.0)];
        let _ = DataBroker::new(owners, vec![], 1);
    }

    #[test]
    #[should_panic(expected = "at least one data owner")]
    fn empty_population_rejected() {
        let _ = DataBroker::new(vec![], vec![], 1);
    }
}
