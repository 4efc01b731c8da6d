//! The experiment grid: self-contained job descriptions the parallel runner
//! executes.
//!
//! A job is one point of the evaluation grid — a workload specification
//! ([`JobSpec`]) reseeded for one repetition of one cell; [`expand_jobs`]
//! lists them cell by cell, each cell's repetitions together.  Every job
//! carries its own RNG seeds, so running a grid with one worker or with
//! sixteen produces bit-identical results; repetitions re-derive their seeds
//! through a SplitMix64 mix ([`derive_seed`]) so rep 0 reproduces the single
//! runs of the original per-figure binaries exactly.
//!
//! The heavyweight dataset pipelines (the fitted accommodation-rental and
//! impression-pricing models) are memoised per `(size, dimension, seed)` key:
//! the pipeline is a *trained artifact*, identical for every cell that shares
//! the key, and rebuilding it per job would dominate the runtime of the
//! `fig5b`/`fig5c` grids.  The cache is keyed on everything that affects the
//! build, so memoisation never changes results.

use crate::airbnb_pipeline::{self, AirbnbPipeline};
use crate::avazu_pipeline::{self, AvazuPipeline, FeatureCase};
use crate::linear_market::{self, LinearMarketConfig, Version};
use pdm_datasets::Impression;
use pdm_linalg::Vector;
use pdm_pricing::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
// pdm-lint: allow(no-hashmap-iteration) reason="memo caches below are keyed lookups guarded by a mutex; no code path iterates them"
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Mixes a repetition index into a base seed (SplitMix64 finaliser).
///
/// Repetition 0 keeps the base seed untouched so the first rep of every cell
/// reproduces the original single-run binaries bit-for-bit; later reps get
/// well-separated streams.
#[must_use]
pub fn derive_seed(base: u64, rep: u64) -> u64 {
    if rep == 0 {
        return base;
    }
    let mut z = base ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which contextual mechanism a [`JobSpec::Synthetic`] job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticMechanism {
    /// The paper's ellipsoid mechanism (Algorithms 1/2).
    Ellipsoid,
    /// The interval knowledge set of Theorem 3 (`n = 1` only).
    OneDim,
    /// The exact polytope ablation (two LPs per round).
    ExactPolytope,
}

/// A self-contained workload: everything needed to produce one
/// [`SimulationOutcome`], including the RNG seeds.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One mechanism version on the MovieLens-backed noisy-linear-query
    /// market (Fig. 4 / 5(a) / Table I).
    LinearMarket {
        /// Market configuration (dimension, horizon, owners, δ, seed).
        config: LinearMarketConfig,
        /// Which of the four algorithm versions runs.
        version: Version,
    },
    /// The risk-averse baseline on the same market.
    LinearBaseline {
        /// Market configuration.
        config: LinearMarketConfig,
    },
    /// Accommodation rental under the log-linear model (Fig. 5(b)).
    Airbnb {
        /// Number of generated listings.
        listings: usize,
        /// Seed of the listing population and model fit (cache key part).
        pipeline_seed: u64,
        /// Reserve log-ratio `ln q / ln v`; `None` runs the pure version.
        log_ratio: Option<f64>,
        /// Run the risk-averse baseline instead of the mechanism
        /// (requires a `log_ratio`).
        baseline: bool,
        /// Seed of the simulation run.
        sim_seed: u64,
    },
    /// Impression pricing under the logistic model (Fig. 5(c)).
    Avazu {
        /// Total generated impressions (80 % train / 20 % priced).
        num_impressions: usize,
        /// Hashing dimension `n`.
        dim: usize,
        /// Seed of the click log and FTRL fit (cache key part).
        pipeline_seed: u64,
        /// Sparse or dense feature treatment.
        case: FeatureCase,
        /// Number of pricing rounds (the held-out stream is cycled).
        pricing_rounds: usize,
        /// Seed of the simulation run.
        sim_seed: u64,
    },
    /// A synthetic linear environment (regret scaling, ε ablation, the
    /// polytope-overhead ablation).
    Synthetic {
        /// Feature dimension `n`.
        dim: usize,
        /// Horizon `T`.
        rounds: usize,
        /// Seed of the environment draw.
        env_seed: u64,
        /// Seed of the simulation run.
        run_seed: u64,
        /// Reserve-price switch; `None` keeps the config default.
        reserve: Option<bool>,
        /// Explicit exploration threshold; `None` uses the paper's schedule.
        epsilon: Option<f64>,
        /// Which mechanism runs.
        mechanism: SyntheticMechanism,
    },
    /// The Lemma-8 adversarial game (deterministic, no RNG).
    Lemma8 {
        /// Horizon `T`.
        horizon: usize,
        /// Whether the misbehaving variant (cuts on conservative prices)
        /// plays.
        conservative_cuts: bool,
    },
}

impl JobSpec {
    /// Re-derives every seed in the spec for repetition `rep`
    /// (via [`derive_seed`]; rep 0 is the identity).
    #[must_use]
    pub fn with_rep(&self, rep: u64) -> JobSpec {
        let mut spec = self.clone();
        match &mut spec {
            JobSpec::LinearMarket { config, .. } | JobSpec::LinearBaseline { config } => {
                config.seed = derive_seed(config.seed, rep);
            }
            JobSpec::Airbnb {
                pipeline_seed,
                sim_seed,
                ..
            } => {
                // The replay environment is fully determined by the pipeline,
                // so replication must redraw the listing population itself.
                *pipeline_seed = derive_seed(*pipeline_seed, rep);
                *sim_seed = derive_seed(*sim_seed, rep);
            }
            JobSpec::Avazu {
                pipeline_seed,
                sim_seed,
                ..
            } => {
                *pipeline_seed = derive_seed(*pipeline_seed, rep);
                *sim_seed = derive_seed(*sim_seed, rep);
            }
            JobSpec::Synthetic {
                env_seed, run_seed, ..
            } => {
                *env_seed = derive_seed(*env_seed, rep);
                *run_seed = derive_seed(*run_seed, rep);
            }
            // The adversarial game has no randomness: every rep is the same.
            JobSpec::Lemma8 { .. } => {}
        }
        spec
    }

    /// Executes the workload to completion.
    ///
    /// # Panics
    /// Panics on inconsistent specs (an [`JobSpec::Airbnb`] baseline without
    /// a `log_ratio`, or [`SyntheticMechanism::OneDim`] with `dim != 1`).
    #[must_use]
    pub fn run(&self) -> SimulationOutcome {
        match self {
            JobSpec::LinearMarket { config, version } => {
                linear_market::run_version(config, *version)
            }
            JobSpec::LinearBaseline { config } => linear_market::run_reserve_baseline(config),
            JobSpec::Airbnb {
                listings,
                pipeline_seed,
                log_ratio,
                baseline,
                sim_seed,
            } => {
                let pipeline = cached_airbnb(*listings, *pipeline_seed);
                if *baseline {
                    let ratio = log_ratio.expect("an Airbnb baseline needs a log_ratio");
                    pipeline.run_baseline(ratio, *sim_seed)
                } else {
                    pipeline.run_mechanism(*log_ratio, *sim_seed)
                }
            }
            JobSpec::Avazu {
                num_impressions,
                dim,
                pipeline_seed,
                case,
                pricing_rounds,
                sim_seed,
            } => {
                let bundle = cached_avazu(*num_impressions, *dim, *pipeline_seed);
                let (pipeline, holdout) = &*bundle;
                let stream: Vec<Impression> = holdout
                    .iter()
                    .cloned()
                    .cycle()
                    .take(*pricing_rounds)
                    .collect();
                pipeline.run_mechanism(&stream, *case, *sim_seed)
            }
            JobSpec::Synthetic {
                dim,
                rounds,
                env_seed,
                run_seed,
                reserve,
                epsilon,
                mechanism,
            } => {
                let mut rng = StdRng::seed_from_u64(*env_seed);
                let env = SyntheticLinearEnvironment::builder(*dim)
                    .rounds(*rounds)
                    .build(&mut rng);
                let mut config = PricingConfig::for_environment(&env, *rounds);
                if let Some(use_reserve) = reserve {
                    config = config.with_reserve(*use_reserve);
                }
                if let Some(eps) = epsilon {
                    config = config.with_epsilon(*eps);
                }
                let mut run_rng = StdRng::seed_from_u64(*run_seed);
                match mechanism {
                    SyntheticMechanism::Ellipsoid => {
                        Simulation::new(env, EllipsoidPricing::new(LinearModel::new(*dim), config))
                            .run(&mut run_rng)
                    }
                    SyntheticMechanism::OneDim => {
                        assert_eq!(*dim, 1, "the interval mechanism is one-dimensional");
                        Simulation::new(env, OneDimPricing::one_dimensional(config))
                            .run(&mut run_rng)
                    }
                    SyntheticMechanism::ExactPolytope => Simulation::new(
                        env,
                        ExactPolytopePricing::exact(LinearModel::new(*dim), config),
                    )
                    .run(&mut run_rng),
                }
            }
            JobSpec::Lemma8 {
                horizon,
                conservative_cuts,
            } => {
                let theta_star = Vector::from_slice(&[0.5, 0.5]);
                let adversary = AdversarialLemma8Environment::new(*horizon, theta_star);
                let config = PricingConfig::new(1.0, *horizon)
                    .with_reserve(true)
                    .with_conservative_cuts(*conservative_cuts);
                let mut mechanism = EllipsoidPricing::new(LinearModel::new(2), config);
                let tracker = adversary.play(&mut mechanism);
                SimulationOutcome::from_report(mechanism.name(), tracker.report())
            }
        }
    }
}

/// A regret-curve checkpoint, resolved against the realised horizon when a
/// cell's rounds are only known after the first run (replay environments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Checkpoint {
    /// An absolute round index.
    Round(usize),
    /// A fraction of the realised horizon in `(0, 1]`.
    Fraction(f64),
}

impl Checkpoint {
    /// The concrete round index for a simulation of `rounds` rounds.
    #[must_use]
    pub fn resolve(self, rounds: usize) -> usize {
        match self {
            Checkpoint::Round(r) => r.min(rounds.max(1)),
            Checkpoint::Fraction(f) => ((rounds as f64 * f) as usize).clamp(1, rounds.max(1)),
        }
    }
}

/// One cell of an experiment: a labelled workload plus the checkpoints its
/// regret curve is sampled at.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Row label in tables and reports.
    pub label: String,
    /// The workload.
    pub spec: JobSpec,
    /// Where along the horizon the regret curve is sampled.
    pub checkpoints: Vec<Checkpoint>,
}

impl CellSpec {
    /// Creates a cell with no checkpoints.
    #[must_use]
    pub fn new(label: impl Into<String>, spec: JobSpec) -> Self {
        Self {
            label: label.into(),
            spec,
            checkpoints: Vec::new(),
        }
    }

    /// Attaches checkpoints.
    #[must_use]
    pub fn with_checkpoints(mut self, checkpoints: Vec<Checkpoint>) -> Self {
        self.checkpoints = checkpoints;
        self
    }
}

/// Expands experiment cells into the flat, deterministic list of reseeded
/// specs the runner consumes: experiments × cells × repetitions, in index
/// order, so each cell's `reps.max(1)` repetitions are adjacent.
#[must_use]
pub fn expand_jobs(experiments: &[Vec<CellSpec>], reps: u64) -> Vec<JobSpec> {
    experiments
        .iter()
        .flatten()
        .flat_map(|cell| (0..reps.max(1)).map(|rep| cell.spec.with_rep(rep)))
        .collect()
}

// pdm-lint: allow(no-hashmap-iteration) reason="pipeline memo cache: get-or-insert by exact key only, never iterated"
type AirbnbCache = Mutex<HashMap<(usize, u64), Arc<OnceLock<Arc<AirbnbPipeline>>>>>;
type AvazuBundle = Arc<(AvazuPipeline, Vec<Impression>)>;
// pdm-lint: allow(no-hashmap-iteration) reason="bundle memo cache: get-or-insert by exact key only, never iterated"
type AvazuCache = Mutex<HashMap<(usize, usize, u64), Arc<OnceLock<AvazuBundle>>>>;

static AIRBNB_CACHE: OnceLock<AirbnbCache> = OnceLock::new();
static AVAZU_CACHE: OnceLock<AvazuCache> = OnceLock::new();

/// Memoised [`airbnb_pipeline::default_pipeline`].  The per-key `OnceLock`
/// ensures concurrent workers build each pipeline exactly once.
fn cached_airbnb(listings: usize, seed: u64) -> Arc<AirbnbPipeline> {
    // pdm-lint: allow(no-hashmap-iteration) reason="lazy cache construction; the map is only ever probed by key"
    let cache = AIRBNB_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let slot = {
        let mut map = cache.lock().expect("airbnb cache poisoned");
        Arc::clone(map.entry((listings, seed)).or_default())
    };
    Arc::clone(slot.get_or_init(|| Arc::new(airbnb_pipeline::default_pipeline(listings, seed))))
}

/// Memoised [`avazu_pipeline::default_pipeline`].
fn cached_avazu(num_impressions: usize, dim: usize, seed: u64) -> AvazuBundle {
    // pdm-lint: allow(no-hashmap-iteration) reason="lazy cache construction; the map is only ever probed by key"
    let cache = AVAZU_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let slot = {
        let mut map = cache.lock().expect("avazu cache poisoned");
        Arc::clone(map.entry((num_impressions, dim, seed)).or_default())
    };
    Arc::clone(
        slot.get_or_init(|| Arc::new(avazu_pipeline::default_pipeline(num_impressions, dim, seed))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_identity_at_rep_zero_and_injective_like() {
        assert_eq!(derive_seed(42, 0), 42);
        let s1 = derive_seed(42, 1);
        let s2 = derive_seed(42, 2);
        assert_ne!(s1, 42);
        assert_ne!(s1, s2);
        // Deterministic.
        assert_eq!(derive_seed(42, 1), s1);
    }

    #[test]
    fn with_rep_reseeds_every_variant() {
        let config = LinearMarketConfig {
            dim: 4,
            rounds: 50,
            num_owners: 40,
            delta: 0.0,
            seed: 9,
        };
        let linear = JobSpec::LinearMarket {
            config,
            version: Version::Pure,
        };
        match linear.with_rep(3) {
            JobSpec::LinearMarket { config, .. } => assert_eq!(config.seed, derive_seed(9, 3)),
            other => panic!("variant changed: {other:?}"),
        }
        let synthetic = JobSpec::Synthetic {
            dim: 2,
            rounds: 10,
            env_seed: 5,
            run_seed: 6,
            reserve: None,
            epsilon: None,
            mechanism: SyntheticMechanism::Ellipsoid,
        };
        match synthetic.with_rep(2) {
            JobSpec::Synthetic {
                env_seed, run_seed, ..
            } => {
                assert_eq!(env_seed, derive_seed(5, 2));
                assert_eq!(run_seed, derive_seed(6, 2));
            }
            other => panic!("variant changed: {other:?}"),
        }
        // Lemma 8 is deterministic: reps are intentionally identical.
        let lemma = JobSpec::Lemma8 {
            horizon: 10,
            conservative_cuts: false,
        };
        match lemma.with_rep(5) {
            JobSpec::Lemma8 { horizon, .. } => assert_eq!(horizon, 10),
            other => panic!("variant changed: {other:?}"),
        }
    }

    #[test]
    fn checkpoints_resolve_against_the_horizon() {
        assert_eq!(Checkpoint::Round(100).resolve(50), 50);
        assert_eq!(Checkpoint::Round(10).resolve(50), 10);
        assert_eq!(Checkpoint::Fraction(0.25).resolve(1_000), 250);
        assert_eq!(Checkpoint::Fraction(1.0).resolve(77), 77);
        assert_eq!(Checkpoint::Fraction(0.0001).resolve(100), 1);
    }

    #[test]
    fn expand_jobs_orders_by_experiment_cell_rep() {
        let cell = |seed: u64| {
            CellSpec::new(
                "cell",
                JobSpec::Synthetic {
                    dim: 2,
                    rounds: 4,
                    env_seed: seed,
                    run_seed: seed,
                    reserve: None,
                    epsilon: None,
                    mechanism: SyntheticMechanism::Ellipsoid,
                },
            )
        };
        let experiments = vec![vec![cell(1), cell(2)], vec![cell(3)]];
        let jobs = expand_jobs(&experiments, 2);
        // The reseeded env seed names each job's cell and repetition.
        let seeds: Vec<u64> = jobs
            .iter()
            .map(|job| match job {
                JobSpec::Synthetic { env_seed, .. } => *env_seed,
                other => panic!("unexpected job {other:?}"),
            })
            .collect();
        let expected: Vec<u64> = [1, 1, 2, 2, 3, 3]
            .iter()
            .zip([0, 1, 0, 1, 0, 1])
            .map(|(&seed, rep)| derive_seed(seed, rep))
            .collect();
        assert_eq!(seeds, expected);
        // `reps = 0` still runs each cell once.
        assert_eq!(expand_jobs(&experiments, 0).len(), 3);
    }

    #[test]
    fn synthetic_and_lemma8_jobs_run_end_to_end() {
        let outcome = JobSpec::Synthetic {
            dim: 2,
            rounds: 60,
            env_seed: 1,
            run_seed: 2,
            reserve: Some(true),
            epsilon: None,
            mechanism: SyntheticMechanism::Ellipsoid,
        }
        .run();
        assert_eq!(outcome.report.rounds, 60);
        assert!(outcome.cumulative_regret().is_finite());

        let lemma = JobSpec::Lemma8 {
            horizon: 20,
            conservative_cuts: true,
        }
        .run();
        assert_eq!(lemma.report.rounds, 20);
        assert!(lemma.round_latency_p50_micros.is_nan());
    }
}
