//! Feature encoders: categorical codes, one-hot hashing, and interaction
//! features.

use pdm_linalg::Vector;
use std::collections::hash_map::DefaultHasher;
// pdm-lint: allow(no-hashmap-iteration) reason="the interner below needs O(1) per-token lookup on the encode hot path; it is never iterated"
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Maps string categories of one column to dense integer codes, like the
/// pandas `categoricals` dtype the paper uses for the Airbnb fields.
///
/// Unknown categories at transform time (and the missing-value marker `""`)
/// map to a dedicated code of `-1.0`, mirroring pandas' behaviour.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoricalEncoder {
    // pdm-lint: allow(no-hashmap-iteration) reason="code assignment order comes from first-seen order in the input stream, not map traversal; lookups only"
    codes: HashMap<String, usize>,
    categories: Vec<String>,
}

impl CategoricalEncoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns the category set from a column of values.
    pub fn fit<S: AsRef<str>>(&mut self, values: &[S]) {
        for value in values {
            let v = value.as_ref();
            if v.is_empty() {
                continue;
            }
            if !self.codes.contains_key(v) {
                let code = self.categories.len();
                self.codes.insert(v.to_owned(), code);
                self.categories.push(v.to_owned());
            }
        }
    }

    /// Number of known categories.
    #[must_use]
    pub fn num_categories(&self) -> usize {
        self.categories.len()
    }

    /// The learned categories, in code order.
    #[must_use]
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Encodes one value (unknown or missing values map to `-1.0`).
    #[must_use]
    pub fn encode(&self, value: &str) -> f64 {
        self.codes.get(value).map_or(-1.0, |&c| c as f64)
    }

    /// Encodes a whole column.
    #[must_use]
    pub fn encode_column<S: AsRef<str>>(&self, values: &[S]) -> Vec<f64> {
        values.iter().map(|v| self.encode(v.as_ref())).collect()
    }
}

/// One-hot encoding with the hashing trick: each token hashes to one of
/// `dim` buckets, which receives the value `1.0` (Section V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashingEncoder {
    dim: usize,
    seed: u64,
}

impl HashingEncoder {
    /// Creates an encoder hashing into `dim` buckets.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    #[must_use]
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "hashing dimension must be positive");
        Self { dim, seed }
    }

    /// The hashing dimension (the modulus after hashing).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The bucket a token falls into.
    #[must_use]
    pub fn bucket(&self, token: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        self.seed.hash(&mut hasher);
        token.hash(&mut hasher);
        (hasher.finish() % self.dim as u64) as usize
    }

    /// Encodes a set of tokens into a (dense) one-hot-hashed vector.
    /// Collisions accumulate, as in the standard hashing trick.
    #[must_use]
    pub fn encode(&self, tokens: &[String]) -> Vector {
        let mut v = Vector::zeros(self.dim);
        for token in tokens {
            let b = self.bucket(token);
            v[b] += 1.0;
        }
        v
    }
}

/// Appends pairwise interaction (product) features for selected column pairs,
/// the "interaction features to enhance model capacity" step of Section V-B.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionFeatures {
    pairs: Vec<(usize, usize)>,
}

impl InteractionFeatures {
    /// Creates the transform for the given column-index pairs.
    #[must_use]
    pub fn new(pairs: Vec<(usize, usize)>) -> Self {
        Self { pairs }
    }

    /// Builds all pairwise interactions among the given columns.
    #[must_use]
    pub fn all_pairs(columns: &[usize]) -> Self {
        let mut pairs = Vec::new();
        for (i, &a) in columns.iter().enumerate() {
            for &b in &columns[i + 1..] {
                pairs.push((a, b));
            }
        }
        Self { pairs }
    }

    /// Number of interaction columns appended.
    #[must_use]
    pub fn num_interactions(&self) -> usize {
        self.pairs.len()
    }

    /// Appends the interaction products to a feature row.
    ///
    /// # Panics
    /// Panics when a configured column index is out of range.
    #[must_use]
    pub fn transform(&self, row: &Vector) -> Vector {
        let mut out = row.as_slice().to_vec();
        for &(a, b) in &self.pairs {
            out.push(row[a] * row[b]);
        }
        Vector::from_vec(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_encoder_assigns_stable_codes() {
        let mut enc = CategoricalEncoder::new();
        enc.fit(&["NYC", "LA", "NYC", "SF"]);
        assert_eq!(enc.num_categories(), 3);
        assert_eq!(enc.encode("NYC"), 0.0);
        assert_eq!(enc.encode("LA"), 1.0);
        assert_eq!(enc.encode("SF"), 2.0);
        // Unknown and missing values map to −1, like pandas categoricals.
        assert_eq!(enc.encode("Boston"), -1.0);
        assert_eq!(enc.encode(""), -1.0);
        assert_eq!(enc.encode_column(&["LA", "??"]), vec![1.0, -1.0]);
    }

    #[test]
    fn categorical_encoder_ignores_missing_during_fit() {
        let mut enc = CategoricalEncoder::new();
        enc.fit(&["", "a", "", "b"]);
        assert_eq!(enc.num_categories(), 2);
        assert_eq!(enc.categories(), &["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn hashing_encoder_is_deterministic_and_bounded() {
        let enc = HashingEncoder::new(64, 42);
        let tokens = vec!["site_id=3".to_owned(), "device_type=1".to_owned()];
        let a = enc.encode(&tokens);
        let b = enc.encode(&tokens);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(
            (a.sum() - 2.0).abs() < 1e-12,
            "each token adds exactly one count"
        );
        for token in &tokens {
            assert!(enc.bucket(token) < 64);
        }
    }

    #[test]
    fn different_seeds_give_different_hash_layouts() {
        let a = HashingEncoder::new(1024, 1);
        let b = HashingEncoder::new(1024, 2);
        let tokens: Vec<String> = (0..50).map(|i| format!("t={i}")).collect();
        let differs = tokens.iter().any(|t| a.bucket(t) != b.bucket(t));
        assert!(differs);
    }

    #[test]
    fn hashing_collisions_accumulate() {
        let enc = HashingEncoder::new(1, 0);
        let v = enc.encode(&["a".to_owned(), "b".to_owned(), "c".to_owned()]);
        assert_eq!(v.as_slice(), &[3.0]);
    }

    #[test]
    fn interaction_features_append_products() {
        let t = InteractionFeatures::new(vec![(0, 1), (1, 2)]);
        let row = Vector::from_slice(&[2.0, 3.0, 4.0]);
        let out = t.transform(&row);
        assert_eq!(out.as_slice(), &[2.0, 3.0, 4.0, 6.0, 12.0]);
        assert_eq!(t.num_interactions(), 2);
    }

    #[test]
    fn all_pairs_enumerates_upper_triangle() {
        let t = InteractionFeatures::all_pairs(&[0, 2, 3]);
        assert_eq!(t.num_interactions(), 3);
        let row = Vector::from_slice(&[1.0, 10.0, 2.0, 3.0]);
        let out = t.transform(&row);
        assert_eq!(&out.as_slice()[4..], &[2.0, 3.0, 6.0]);
    }
}
