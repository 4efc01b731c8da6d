//! Seeded inputs: a noiseless linear market per tenant.
//!
//! Every tenant `t` has hidden positive weights `θ_t` (unit norm); round `r`
//! of tenant `t` draws a query from a shared pool of positive unit feature
//! vectors by hashing `(seed, t, r)`.  The market value is `θ_t · x`, the
//! reserve price is [`RESERVE_FRACTION`] of it, and the buyer accepts iff the
//! posted price is at most the value.  The pool and the weights are built
//! before timing starts; during the run a query costs one hash and one dot
//! product.  A tenant's stream depends only on `(seed, t, r)`, never on
//! timing, so the serial replay can regenerate it.

use pdm_linalg::Vector;

/// Reserve prices are this share of the hidden market value.
pub const RESERVE_FRACTION: f64 = 0.6;

/// SplitMix64: a small, seedable generator with good statistical quality.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let (u, v) = (self.unit(), self.unit());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// The SplitMix64 finaliser, used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A positive unit vector with half-normal coordinates.
fn positive_unit(rng: &mut Rng, dim: usize) -> Vector {
    Vector::from_fn(dim, |_| rng.normal().abs() + 1e-9).normalized()
}

/// One tenant's round: which pooled query it asks, its reserve and value.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub query: usize,
    pub reserve: f64,
    pub value: f64,
}

/// The generated market of one run.
#[derive(Debug)]
pub struct Market {
    seed: u64,
    pool: Vec<Vector>,
    thetas: Vec<Vector>,
}

impl Market {
    pub fn new(seed: u64, tenants: usize, dim: usize, pool_size: usize) -> Self {
        let mut rng = Rng::new(mix(seed ^ 0x6D61_726B_6574));
        let thetas = (0..tenants).map(|_| positive_unit(&mut rng, dim)).collect();
        let pool = (0..pool_size)
            .map(|_| positive_unit(&mut rng, dim))
            .collect();
        Self { seed, pool, thetas }
    }

    pub fn tenants(&self) -> usize {
        self.thetas.len()
    }

    pub fn features(&self, query: usize) -> &Vector {
        &self.pool[query]
    }

    /// Round `round` of tenant `tenant`.
    pub fn round(&self, tenant: usize, round: u64) -> Round {
        let key = mix(self.seed ^ mix(((tenant as u64) << 40) ^ round));
        let query = (key % self.pool.len() as u64) as usize;
        let value: f64 = self.thetas[tenant]
            .as_slice()
            .iter()
            .zip(self.pool[query].as_slice())
            .map(|(a, b)| a * b)
            .sum();
        Round {
            query,
            reserve: RESERVE_FRACTION * value,
            value,
        }
    }
}
