//! Synthetic stand-in for the Airbnb "listings in major US cities" dataset.
//!
//! The accommodation-rental experiment (Fig. 5(b)) needs listing records with
//! a mix of categorical and numeric fields whose *log price* is approximately
//! linear in the encoded features plus residual noise.  The generator plants
//! a hedonic ground-truth model — per-city and per-room-type premiums,
//! per-bedroom/bathroom/amenity increments, review and host-quality effects —
//! and emits records whose log price is that model's output plus Gaussian
//! noise, mirroring the 0.226 test MSE the paper reports after fitting.

use pdm_linalg::sampling;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six cities covered by the original dataset.
pub const CITIES: [&str; 6] = ["NYC", "LA", "SF", "DC", "Chicago", "Boston"];

/// Property type of a listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyType {
    /// A whole apartment.
    Apartment,
    /// A detached house.
    House,
    /// A condominium.
    Condo,
    /// A townhouse.
    Townhouse,
    /// Anything else (lofts, boats, …).
    Other,
}

/// Room type of a listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoomType {
    /// The entire home or apartment.
    EntireHome,
    /// A private room.
    PrivateRoom,
    /// A shared room.
    SharedRoom,
}

/// Cancellation policy of a listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancellationPolicy {
    /// Flexible.
    Flexible,
    /// Moderate.
    Moderate,
    /// Strict.
    Strict,
}

/// One listing record.
#[derive(Debug, Clone, PartialEq)]
pub struct AirbnbListing {
    /// Listing identifier.
    pub id: u64,
    /// City (one of [`CITIES`]).
    pub city: String,
    /// Property type.
    pub property_type: PropertyType,
    /// Room type.
    pub room_type: RoomType,
    /// Cancellation policy.
    pub cancellation_policy: CancellationPolicy,
    /// Maximum number of guests.
    pub accommodates: u32,
    /// Number of bedrooms.
    pub bedrooms: u32,
    /// Number of bathrooms (can be fractional, e.g. 1.5).
    pub bathrooms: f64,
    /// Number of beds.
    pub beds: u32,
    /// Number of listed amenities.
    pub amenities_count: u32,
    /// Review score on `[0, 100]` (missing reviews are encoded as 0).
    pub review_score: f64,
    /// Host response rate on `[0, 1]`.
    pub host_response_rate: f64,
    /// Whether the host is a verified "superhost".
    pub superhost: bool,
    /// Natural logarithm of the nightly price (the regression target).
    pub log_price: f64,
}

/// Seeded generator for Airbnb-like listings.
///
/// Real listing inventories are highly redundant: most records are minor
/// variations of a modest number of archetypes ("entire-home one-bedroom
/// apartment in NYC with ~30 amenities and a 95-point review score", …).
/// The generator therefore first draws `num_prototypes` archetypes and then
/// emits each listing as a jittered copy of a random archetype.  This
/// redundancy is what lets the online pricing mechanism converge within the
/// 74k-round horizon, exactly as it does on the real dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirbnbGenerator {
    /// Number of listings to generate (the real dataset has 74,111).
    pub num_listings: usize,
    /// Standard deviation of the residual noise on the log price.
    pub noise_std: f64,
    /// Number of listing archetypes the inventory is built from.
    pub num_prototypes: usize,
}

impl Default for AirbnbGenerator {
    fn default() -> Self {
        Self {
            num_listings: 74_111,
            noise_std: 0.45,
            num_prototypes: 40,
        }
    }
}

impl AirbnbGenerator {
    /// Creates a generator with the default archetype count.
    ///
    /// # Panics
    /// Panics when `num_listings == 0` or the noise is negative.
    #[must_use]
    pub fn new(num_listings: usize, noise_std: f64) -> Self {
        assert!(num_listings > 0, "need at least one listing");
        assert!(noise_std >= 0.0, "noise must be non-negative");
        Self {
            num_listings,
            noise_std,
            num_prototypes: 40,
        }
    }

    /// Overrides the number of listing archetypes.
    ///
    /// # Panics
    /// Panics when `num_prototypes == 0`.
    #[must_use]
    pub fn with_prototypes(mut self, num_prototypes: usize) -> Self {
        assert!(num_prototypes > 0, "need at least one prototype");
        self.num_prototypes = num_prototypes;
        self
    }

    /// Generates the listings deterministically from the seed.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Vec<AirbnbListing> {
        let mut rng = StdRng::seed_from_u64(seed);
        let prototypes: Vec<AirbnbListing> = (0..self.num_prototypes)
            .map(|id| self.one_listing(id as u64, &mut rng))
            .collect();
        (0..self.num_listings)
            .map(|id| {
                let base = &prototypes[rng.gen_range(0..prototypes.len())];
                self.jittered(id as u64, base, &mut rng)
            })
            .collect()
    }

    /// Emits a listing that differs from its archetype only in the soft
    /// fields (review score, response rate, amenity count) and in the price
    /// noise.
    fn jittered(&self, id: u64, base: &AirbnbListing, rng: &mut StdRng) -> AirbnbListing {
        let mut listing = base.clone();
        listing.id = id;
        listing.review_score = if listing.review_score == 0.0 {
            0.0
        } else {
            (listing.review_score + sampling::normal(rng, 0.0, 2.0)).clamp(60.0, 100.0)
        };
        listing.host_response_rate =
            (listing.host_response_rate + sampling::normal(rng, 0.0, 0.03)).clamp(0.5, 1.0);
        let amenity_jitter = rng.gen_range(0..=4i64) - 2;
        listing.amenities_count =
            (i64::from(listing.amenities_count) + amenity_jitter).clamp(3, 40) as u32;
        listing.log_price =
            self.ground_truth_log_price(&listing) + sampling::normal(rng, 0.0, self.noise_std);
        listing
    }

    /// The planted hedonic value of a listing (without residual noise).
    fn ground_truth_log_price(&self, listing: &AirbnbListing) -> f64 {
        let city_idx = CITIES.iter().position(|c| *c == listing.city).unwrap_or(0);
        let city_premium = [0.55, 0.45, 0.65, 0.35, 0.20, 0.30][city_idx];
        let property_premium = match listing.property_type {
            PropertyType::Apartment => 0.05,
            PropertyType::House => 0.12,
            PropertyType::Condo => 0.10,
            PropertyType::Townhouse => 0.08,
            PropertyType::Other => 0.0,
        };
        let room_premium = match listing.room_type {
            RoomType::EntireHome => 0.60,
            RoomType::PrivateRoom => 0.15,
            RoomType::SharedRoom => 0.0,
        };
        let policy_premium = match listing.cancellation_policy {
            CancellationPolicy::Flexible => 0.0,
            CancellationPolicy::Moderate => 0.02,
            CancellationPolicy::Strict => 0.05,
        };
        3.4 + city_premium
            + property_premium
            + room_premium
            + policy_premium
            + 0.16 * f64::from(listing.bedrooms)
            + 0.08 * listing.bathrooms
            + 0.05 * f64::from(listing.accommodates)
            + 0.02 * f64::from(listing.beds)
            + 0.004 * f64::from(listing.amenities_count)
            + 0.003 * listing.review_score
            + 0.10 * listing.host_response_rate
            + if listing.superhost { 0.06 } else { 0.0 }
    }

    fn one_listing(&self, id: u64, rng: &mut StdRng) -> AirbnbListing {
        let city_idx = rng.gen_range(0..CITIES.len());
        let property_type = match rng.gen_range(0..10) {
            0..=4 => PropertyType::Apartment,
            5..=6 => PropertyType::House,
            7 => PropertyType::Condo,
            8 => PropertyType::Townhouse,
            _ => PropertyType::Other,
        };
        let room_type = match rng.gen_range(0..10) {
            0..=5 => RoomType::EntireHome,
            6..=8 => RoomType::PrivateRoom,
            _ => RoomType::SharedRoom,
        };
        let cancellation_policy = match rng.gen_range(0..3) {
            0 => CancellationPolicy::Flexible,
            1 => CancellationPolicy::Moderate,
            _ => CancellationPolicy::Strict,
        };
        let bedrooms = rng.gen_range(0..=4u32);
        let accommodates = 1 + bedrooms * 2 + rng.gen_range(0..=2u32);
        let bathrooms = 1.0 + 0.5 * f64::from(rng.gen_range(0..=3u32));
        let beds = bedrooms.max(1) + rng.gen_range(0..=1u32);
        let amenities_count = rng.gen_range(3..=40u32);
        let review_score = if rng.gen::<f64>() < 0.1 {
            0.0
        } else {
            sampling::uniform(rng, 70.0, 100.0)
        };
        let host_response_rate = sampling::uniform(rng, 0.5, 1.0);
        let superhost = rng.gen::<f64>() < 0.2;

        let mut listing = AirbnbListing {
            id,
            city: CITIES[city_idx].to_owned(),
            property_type,
            room_type,
            cancellation_policy,
            accommodates,
            bedrooms,
            bathrooms,
            beds,
            amenities_count,
            review_score,
            host_response_rate,
            superhost,
            log_price: 0.0,
        };
        listing.log_price =
            self.ground_truth_log_price(&listing) + sampling::normal(rng, 0.0, self.noise_std);
        listing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Vec<AirbnbListing> {
        AirbnbGenerator::new(2_000, 0.3).generate(5)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AirbnbGenerator::new(100, 0.3).generate(1);
        let b = AirbnbGenerator::new(100, 0.3).generate(1);
        assert_eq!(a, b);
    }

    #[test]
    fn fields_are_in_range() {
        for listing in small() {
            assert!(CITIES.contains(&listing.city.as_str()));
            assert!(listing.accommodates >= 1);
            assert!(listing.bathrooms >= 1.0);
            assert!(listing.beds >= 1);
            assert!((0.0..=100.0).contains(&listing.review_score));
            assert!((0.5..=1.0).contains(&listing.host_response_rate));
            assert!(listing.log_price.is_finite());
        }
    }

    #[test]
    fn log_prices_are_plausible_nightly_rates() {
        let listings = small();
        let mean_log = listings.iter().map(|l| l.log_price).sum::<f64>() / listings.len() as f64;
        // e^{4.5..5.7} ≈ 90..300 dollars per night.
        assert!(
            (4.3..=6.0).contains(&mean_log),
            "mean log price was {mean_log}"
        );
    }

    #[test]
    fn entire_homes_cost_more_than_shared_rooms_on_average() {
        let listings = small();
        let avg = |room: RoomType| {
            let subset: Vec<f64> = listings
                .iter()
                .filter(|l| l.room_type == room)
                .map(|l| l.log_price)
                .collect();
            subset.iter().sum::<f64>() / subset.len() as f64
        };
        assert!(avg(RoomType::EntireHome) > avg(RoomType::SharedRoom) + 0.3);
    }

    #[test]
    fn more_bedrooms_cost_more_on_average() {
        let listings = small();
        let avg = |bedrooms: u32| {
            let subset: Vec<f64> = listings
                .iter()
                .filter(|l| l.bedrooms == bedrooms)
                .map(|l| l.log_price)
                .collect();
            if subset.is_empty() {
                f64::NAN
            } else {
                subset.iter().sum::<f64>() / subset.len() as f64
            }
        };
        assert!(avg(3) > avg(0));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_listings_rejected() {
        let _ = AirbnbGenerator::new(0, 0.1);
    }
}
