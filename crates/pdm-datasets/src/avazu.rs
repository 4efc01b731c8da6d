//! Synthetic stand-in for the Avazu mobile ad click dataset.
//!
//! The impression-pricing experiment (Fig. 5(c)) needs categorical ad-display
//! records whose click labels follow a *sparse* logistic model over hashed
//! one-hot features: the paper reports only ~20 non-zero weights after
//! FTRL-Proximal training at hashing dimensions 128 and 1024.  The generator
//! plants exactly that structure: every record is a tuple of categorical
//! fields; a small subset of (field, value) pairs carries a non-zero logit
//! contribution; clicks are Bernoulli draws from the resulting CTR.

use pdm_linalg::sampling;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The categorical fields of an impression record, in order.
pub const FIELDS: [&str; 8] = [
    "site_id",
    "app_id",
    "device_model",
    "device_type",
    "banner_pos",
    "site_category",
    "connection_type",
    "hour_of_day",
];

/// Number of distinct values per field (same order as [`FIELDS`]).
pub const FIELD_CARDINALITIES: [usize; 8] = [400, 300, 500, 5, 7, 25, 4, 24];

/// One ad-display record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Impression {
    /// Record identifier.
    pub id: u64,
    /// Categorical value index per field (same order as [`FIELDS`]).
    pub field_values: Vec<u32>,
    /// Whether the impression was clicked.
    pub clicked: bool,
}

impl Impression {
    /// Produces the string tokens (`field=value`) that the hashing encoder
    /// consumes.
    #[must_use]
    pub fn tokens(&self) -> Vec<String> {
        self.field_values
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{}={}", FIELDS[i], v))
            .collect()
    }
}

/// Seeded generator for Avazu-like click logs.
#[derive(Debug, Clone, PartialEq)]
pub struct AvazuGenerator {
    /// Number of impressions to generate.
    pub num_impressions: usize,
    /// Number of (field, value) pairs that carry a non-zero logit weight.
    pub active_tokens: usize,
    /// Base logit (controls the overall CTR level; the real dataset's CTR is
    /// ≈ 17 %).
    pub base_logit: f64,
}

impl Default for AvazuGenerator {
    fn default() -> Self {
        Self {
            num_impressions: 100_000,
            active_tokens: 22,
            base_logit: -1.8,
        }
    }
}

/// The ground truth planted by the generator: which tokens matter and by how
/// much.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedCtrModel {
    /// `(field index, value index, logit weight)` triples.
    pub active: Vec<(usize, u32, f64)>,
    /// The base logit added to every impression.
    pub base_logit: f64,
}

impl PlantedCtrModel {
    /// The logit of an impression under the planted model.
    #[must_use]
    pub fn logit(&self, impression_values: &[u32]) -> f64 {
        let mut z = self.base_logit;
        for &(field, value, weight) in &self.active {
            if impression_values.get(field).copied() == Some(value) {
                z += weight;
            }
        }
        z
    }

    /// The click-through rate of an impression under the planted model.
    #[must_use]
    pub fn ctr(&self, impression_values: &[u32]) -> f64 {
        let z = self.logit(impression_values);
        1.0 / (1.0 + (-z).exp())
    }
}

impl AvazuGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics when `num_impressions == 0` or `active_tokens == 0`.
    #[must_use]
    pub fn new(num_impressions: usize, active_tokens: usize, base_logit: f64) -> Self {
        assert!(num_impressions > 0 && active_tokens > 0);
        Self {
            num_impressions,
            active_tokens,
            base_logit,
        }
    }

    /// Generates the impressions and returns them together with the planted
    /// ground-truth CTR model.
    #[must_use]
    pub fn generate(&self, seed: u64) -> (Vec<Impression>, PlantedCtrModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Plant the sparse ground truth: favour low-cardinality fields so the
        // active tokens actually recur in the data.
        let mut active = Vec::with_capacity(self.active_tokens);
        for k in 0..self.active_tokens {
            let field = [3usize, 4, 5, 6, 7, 0, 1][k % 7];
            let value = rng.gen_range(0..FIELD_CARDINALITIES[field]) as u32;
            let weight = sampling::normal(&mut rng, 0.0, 1.2);
            active.push((field, value, weight));
        }
        let model = PlantedCtrModel {
            active,
            base_logit: self.base_logit,
        };

        let impressions = (0..self.num_impressions)
            .map(|id| {
                let field_values: Vec<u32> = FIELD_CARDINALITIES
                    .iter()
                    .map(|&card| rng.gen_range(0..card) as u32)
                    .collect();
                let ctr = model.ctr(&field_values);
                let clicked = rng.gen::<f64>() < ctr;
                Impression {
                    id: id as u64,
                    field_values,
                    clicked,
                }
            })
            .collect();
        (impressions, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = AvazuGenerator::new(500, 10, -1.8);
        assert_eq!(g.generate(3), g.generate(3));
    }

    #[test]
    fn field_values_respect_cardinalities() {
        let (impressions, _) = AvazuGenerator::new(1_000, 15, -1.8).generate(1);
        for imp in &impressions {
            assert_eq!(imp.field_values.len(), FIELDS.len());
            for (i, &v) in imp.field_values.iter().enumerate() {
                assert!((v as usize) < FIELD_CARDINALITIES[i]);
            }
        }
    }

    #[test]
    fn overall_ctr_is_realistic() {
        let (impressions, _) = AvazuGenerator::default_small().generate(2);
        let ctr =
            impressions.iter().filter(|i| i.clicked).count() as f64 / impressions.len() as f64;
        // The real dataset's CTR is ≈ 0.17; accept a broad band.
        assert!((0.05..=0.4).contains(&ctr), "overall CTR was {ctr}");
    }

    #[test]
    fn planted_model_is_sparse_and_predictive() {
        let (impressions, model) = AvazuGenerator::new(20_000, 12, -1.8).generate(4);
        assert_eq!(model.active.len(), 12);
        // Impressions whose planted CTR is high click more often than ones
        // whose planted CTR is low.
        let mut high = (0usize, 0usize);
        let mut low = (0usize, 0usize);
        for imp in &impressions {
            let ctr = model.ctr(&imp.field_values);
            if ctr > 0.4 {
                high.0 += usize::from(imp.clicked);
                high.1 += 1;
            } else if ctr < 0.12 {
                low.0 += usize::from(imp.clicked);
                low.1 += 1;
            }
        }
        if high.1 > 20 && low.1 > 20 {
            let high_rate = high.0 as f64 / high.1 as f64;
            let low_rate = low.0 as f64 / low.1 as f64;
            assert!(high_rate > low_rate, "{high_rate} vs {low_rate}");
        }
    }

    #[test]
    fn tokens_are_field_value_pairs() {
        let imp = Impression {
            id: 0,
            field_values: vec![1, 2, 3, 0, 1, 2, 3, 12],
            clicked: false,
        };
        let tokens = imp.tokens();
        assert_eq!(tokens.len(), FIELDS.len());
        assert_eq!(tokens[0], "site_id=1");
        assert_eq!(tokens[7], "hour_of_day=12");
    }

    impl AvazuGenerator {
        fn default_small() -> Self {
            Self::new(5_000, 22, -1.8)
        }
    }
}
