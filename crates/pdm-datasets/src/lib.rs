//! # pdm-datasets
//!
//! Seeded synthetic stand-ins for the three proprietary real-world datasets
//! the paper evaluates on, plus the loan-application scenario from its
//! extensions section:
//!
//! | paper dataset | generator | role in the evaluation |
//! |---------------|-----------|------------------------|
//! | MovieLens 20M ratings | [`movielens::MovieLensGenerator`] | population of data owners whose privacy compensations form the query features (Fig. 4, 5(a), Table I) |
//! | Airbnb US-city listings | [`airbnb::AirbnbGenerator`] | listings with categorical/numeric features and log-price targets for the log-linear hedonic model (Fig. 5(b)) |
//! | Avazu CTR logs | [`avazu::AvazuGenerator`] | categorical impression records with click labels for the sparse logistic model (Fig. 5(c)) |
//! | (extension) loan applications | [`loan::LoanGenerator`] | borrower records with interest-rate targets for the log-log model |
//!
//! Every generator is deterministic given a seed, documents which structural
//! properties of the original dataset it preserves, and exposes the ground
//! truth it planted so experiments can verify the learners recover it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airbnb;
pub mod avazu;
pub mod loan;
pub mod movielens;

pub use airbnb::{AirbnbGenerator, AirbnbListing, CancellationPolicy, PropertyType, RoomType};
pub use avazu::{AvazuGenerator, Impression};
pub use loan::{EmploymentStatus, LoanApplication, LoanGenerator};
pub use movielens::{MovieLensGenerator, Rating, RatingDataset};
