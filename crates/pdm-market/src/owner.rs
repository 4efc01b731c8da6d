//! Data owners: the individuals whose private records the broker aggregates.

/// A data owner who contributed private records to the broker's dataset.
///
/// In the MovieLens-backed evaluation each owner is one rating user; the
/// `records` are her (normalised) rating values and `data_range` bounds how
/// much any single record can change, which drives the sensitivity term of
/// the differential-privacy leakage quantification.
#[derive(Debug, Clone, PartialEq)]
pub struct DataOwner {
    /// Stable identifier of the owner.
    pub id: u64,
    /// The owner's private records (already scaled to `[0, data_range]`).
    pub records: Vec<f64>,
    /// Upper bound on the magnitude of a single record.
    pub data_range: f64,
}

impl DataOwner {
    /// Creates an owner with the given records.
    ///
    /// # Panics
    /// Panics when `data_range` is not strictly positive.
    #[must_use]
    pub fn new(id: u64, records: Vec<f64>, data_range: f64) -> Self {
        assert!(data_range > 0.0, "data range must be positive");
        Self {
            id,
            records,
            data_range,
        }
    }

    /// Number of records the owner contributed.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// The owner's aggregate (sum) record value, the quantity a linear query
    /// weights.
    #[must_use]
    pub fn record_sum(&self) -> f64 {
        self.records.iter().sum()
    }

    /// Mean record value (zero for an owner with no records).
    #[must_use]
    pub fn record_mean(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.record_sum() / self.records.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_and_accessors() {
        let owner = DataOwner::new(7, vec![1.0, 2.0, 3.0], 5.0);
        assert_eq!(owner.id, 7);
        assert_eq!(owner.record_count(), 3);
        assert!((owner.record_sum() - 6.0).abs() < 1e-12);
        assert!((owner.record_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_records_are_allowed() {
        let owner = DataOwner::new(1, vec![], 1.0);
        assert_eq!(owner.record_count(), 0);
        assert_eq!(owner.record_mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_data_range_rejected() {
        let _ = DataOwner::new(1, vec![1.0], 0.0);
    }
}
