//! Synthetic stand-in for the MovieLens 20M rating dataset.
//!
//! The pricing experiments never look at the rating *contents*; they only
//! need a heterogeneous population of data owners (the rating users), each
//! with a handful of bounded records, so that per-query privacy compensations
//! vary across owners.  The generator reproduces those structural properties:
//! a configurable number of users, a long-tailed number of ratings per user,
//! ratings on the 0.5–5.0 star scale in half-star steps, and increasing
//! timestamps.

use pdm_linalg::sampling;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One rating record (user, movie, stars, timestamp).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// Rating user (the data owner).
    pub user_id: u64,
    /// Rated movie.
    pub movie_id: u64,
    /// Star rating in half-star steps on `[0.5, 5.0]`.
    pub stars: f64,
    /// Seconds since an arbitrary epoch; non-decreasing across the dataset.
    pub timestamp: u64,
}

/// A generated rating dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingDataset {
    /// Number of distinct users.
    pub num_users: usize,
    /// Number of distinct movies.
    pub num_movies: usize,
    /// All rating records.
    pub ratings: Vec<Rating>,
}

impl RatingDataset {
    /// Groups the star values by user (index = user id).
    #[must_use]
    pub fn ratings_by_user(&self) -> Vec<Vec<f64>> {
        let mut per_user = vec![Vec::new(); self.num_users];
        for rating in &self.ratings {
            per_user[rating.user_id as usize].push(rating.stars);
        }
        per_user
    }

    /// Mean star rating over the whole dataset (zero when empty).
    #[must_use]
    pub fn mean_rating(&self) -> f64 {
        if self.ratings.is_empty() {
            return 0.0;
        }
        self.ratings.iter().map(|r| r.stars).sum::<f64>() / self.ratings.len() as f64
    }
}

/// Seeded generator for [`RatingDataset`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovieLensGenerator {
    /// Number of rating users to generate.
    pub num_users: usize,
    /// Number of movies in the catalogue.
    pub num_movies: usize,
    /// Average number of ratings per user (the per-user count is geometric-ish
    /// around this value, giving the long tail of the real dataset).
    pub mean_ratings_per_user: usize,
}

impl Default for MovieLensGenerator {
    fn default() -> Self {
        Self {
            num_users: 1_000,
            num_movies: 500,
            mean_ratings_per_user: 8,
        }
    }
}

impl MovieLensGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics when any parameter is zero.
    #[must_use]
    pub fn new(num_users: usize, num_movies: usize, mean_ratings_per_user: usize) -> Self {
        assert!(num_users > 0 && num_movies > 0 && mean_ratings_per_user > 0);
        Self {
            num_users,
            num_movies,
            mean_ratings_per_user,
        }
    }

    /// Generates the dataset deterministically from the seed.
    #[must_use]
    pub fn generate(&self, seed: u64) -> RatingDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ratings = Vec::new();
        let mut timestamp = 789_652_009u64; // the real dataset starts in 1995
        for user in 0..self.num_users {
            // Long-tailed per-user activity: 1 + geometric-ish draw.
            let count = 1
                + (sampling::uniform(&mut rng, 0.0, 1.0) * 2.0 * self.mean_ratings_per_user as f64)
                    as usize;
            // Per-user bias so owners are heterogeneous.
            let bias = sampling::normal(&mut rng, 0.0, 0.7);
            for _ in 0..count {
                let movie_id = rng.gen_range(0..self.num_movies) as u64;
                let raw = 3.5 + bias + sampling::normal(&mut rng, 0.0, 1.0);
                // Snap to the half-star grid and clamp to the legal range.
                let stars = (raw * 2.0).round().clamp(1.0, 10.0) / 2.0;
                timestamp += rng.gen_range(1..1_000u64);
                ratings.push(Rating {
                    user_id: user as u64,
                    movie_id,
                    stars,
                    timestamp,
                });
            }
        }
        RatingDataset {
            num_users: self.num_users,
            num_movies: self.num_movies,
            ratings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_given_seed() {
        let generator = MovieLensGenerator::new(50, 40, 5);
        let a = generator.generate(7);
        let b = generator.generate(7);
        assert_eq!(a, b);
        let c = generator.generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn ratings_respect_the_star_scale() {
        let dataset = MovieLensGenerator::new(200, 100, 6).generate(1);
        assert!(!dataset.ratings.is_empty());
        for rating in &dataset.ratings {
            assert!(rating.stars >= 0.5 && rating.stars <= 5.0);
            // Half-star grid.
            assert!(((rating.stars * 2.0) - (rating.stars * 2.0).round()).abs() < 1e-9);
            assert!((rating.movie_id as usize) < 100);
            assert!((rating.user_id as usize) < 200);
        }
        // Timestamps non-decreasing.
        for pair in dataset.ratings.windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp);
        }
    }

    #[test]
    fn every_user_contributes_at_least_one_rating() {
        let dataset = MovieLensGenerator::new(120, 30, 3).generate(2);
        let by_user = dataset.ratings_by_user();
        assert_eq!(by_user.len(), 120);
        assert!(by_user.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn mean_rating_is_plausible() {
        let dataset = MovieLensGenerator::new(500, 200, 8).generate(3);
        let mean = dataset.mean_rating();
        // The real MovieLens mean is ≈ 3.5 stars.
        assert!((2.8..=4.2).contains(&mean), "mean rating was {mean}");
    }

    #[test]
    fn empty_dataset_mean_is_zero() {
        let dataset = RatingDataset {
            num_users: 1,
            num_movies: 1,
            ratings: vec![],
        };
        assert_eq!(dataset.mean_rating(), 0.0);
    }
}
