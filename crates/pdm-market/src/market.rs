//! The end-to-end market loop of Fig. 2.
//!
//! [`Market`] closes the full circle: query arrives → privacy accounting →
//! posted price → consumer decision → (on a sale) noisy answer returned,
//! consumer charged, owners compensated.  The broker's *net revenue* is the
//! difference between the prices charged and the compensations allocated,
//! which is exactly the quantity the paper's regret converts into.
//!
//! Prices and compensations are accounted in the normalised scale the
//! mechanism prices in (the reserve equals the sum of the normalised
//! features), so revenue, compensation, and regret are directly comparable.

use crate::broker::DataBroker;
use crate::consumer::ConsumerPool;
use crate::privacy::LaplaceMechanism;
use crate::query::QueryGenerator;
use pdm_pricing::mechanism::PostedPriceMechanism;
use pdm_pricing::regret::{single_round_regret, RegretTracker};
use rand::Rng;

/// The result of one trading round.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeOutcome {
    /// Identifier of the traded query.
    pub query_id: u64,
    /// Identifier of the arriving consumer.
    pub consumer_id: u64,
    /// The price posted by the broker.
    pub posted_price: f64,
    /// The reserve price (total normalised compensation).
    pub reserve_price: f64,
    /// The consumer's (hidden) market value.
    pub market_value: f64,
    /// Whether the consumer accepted.
    pub accepted: bool,
    /// The noisy answer returned to the consumer (only on a sale).
    pub noisy_answer: Option<f64>,
    /// The broker's net revenue this round (price − compensation, zero if no
    /// sale).
    pub net_revenue: f64,
    /// The broker's regret this round (Eq. 1).
    pub regret: f64,
}

/// Aggregate report over a full market run.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketReport {
    /// Number of trading rounds executed.
    pub rounds: usize,
    /// Number of sales.
    pub sales: usize,
    /// Gross revenue charged to consumers.
    pub gross_revenue: f64,
    /// Total compensation allocated to data owners.
    pub total_compensation_paid: f64,
    /// Net broker revenue (gross − compensations).
    pub net_revenue: f64,
    /// Cumulative regret (Eq. 1).
    pub cumulative_regret: f64,
    /// Cumulative market value of the arrived queries.
    pub cumulative_market_value: f64,
}

impl MarketReport {
    /// Regret ratio over the run.
    #[must_use]
    pub fn regret_ratio(&self) -> f64 {
        if self.cumulative_market_value <= 0.0 {
            0.0
        } else {
            self.cumulative_regret / self.cumulative_market_value
        }
    }
}

/// A running personal data market with a pluggable pricing mechanism.
#[derive(Debug)]
pub struct Market<P> {
    broker: DataBroker,
    generator: QueryGenerator,
    consumers: ConsumerPool,
    mechanism: P,
    answering: LaplaceMechanism,
    tracker: RegretTracker,
    gross_revenue: f64,
    compensation_paid: f64,
    sales: usize,
}

impl<P: PostedPriceMechanism> Market<P> {
    /// Assembles a market.
    ///
    /// # Panics
    /// Panics when the generator's owner count or the consumers' feature
    /// dimension do not match the broker.
    #[must_use]
    pub fn new(
        broker: DataBroker,
        generator: QueryGenerator,
        consumers: ConsumerPool,
        mechanism: P,
    ) -> Self {
        assert_eq!(generator.num_owners(), broker.num_owners());
        assert_eq!(consumers.feature_dim(), broker.feature_dim());
        Self {
            broker,
            generator,
            consumers,
            mechanism,
            answering: LaplaceMechanism::new(),
            tracker: RegretTracker::new(false),
            gross_revenue: 0.0,
            compensation_paid: 0.0,
            sales: 0,
        }
    }

    /// The pricing mechanism (e.g. to inspect its learned knowledge set).
    #[must_use]
    pub fn mechanism(&self) -> &P {
        &self.mechanism
    }

    /// Executes one trading round.
    pub fn trade_one<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TradeOutcome {
        let query = self.generator.next_query(rng);
        let priced = self.broker.prepare(&query);
        let consumer = self.consumers.next_consumer();
        let market_value = self.consumers.market_value(rng, &priced.features);

        let quote = self.mechanism.quote(&priced.features, priced.reserve_price);
        let accepted = consumer.decide(quote.posted_price, market_value);
        self.mechanism.observe(&priced.features, &quote, accepted);

        let regret = single_round_regret(quote.posted_price, market_value, priced.reserve_price);
        self.tracker
            .record(market_value, priced.reserve_price, quote.posted_price);

        let (noisy_answer, net_revenue) = if accepted {
            self.sales += 1;
            self.gross_revenue += quote.posted_price;
            self.compensation_paid += priced.reserve_price;
            let answer = self.answering.answer(rng, &query, self.broker.owners());
            (Some(answer), quote.posted_price - priced.reserve_price)
        } else {
            (None, 0.0)
        };

        TradeOutcome {
            query_id: priced.query_id,
            consumer_id: consumer.id,
            posted_price: quote.posted_price,
            reserve_price: priced.reserve_price,
            market_value,
            accepted,
            noisy_answer,
            net_revenue,
            regret,
        }
    }

    /// Runs `rounds` trading rounds and returns the aggregate report.
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R, rounds: usize) -> MarketReport {
        for _ in 0..rounds {
            let _ = self.trade_one(rng);
        }
        self.report()
    }

    /// The aggregate report so far.
    #[must_use]
    pub fn report(&self) -> MarketReport {
        MarketReport {
            rounds: self.tracker.rounds(),
            sales: self.sales,
            gross_revenue: self.gross_revenue,
            total_compensation_paid: self.compensation_paid,
            net_revenue: self.gross_revenue - self.compensation_paid,
            cumulative_regret: self.tracker.cumulative_regret(),
            cumulative_market_value: self.tracker.cumulative_market_value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compensation::CompensationContract;
    use crate::owner::DataOwner;
    use crate::query::QueryWeightDistribution;
    use pdm_pricing::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn market(num_owners: usize, dim: usize, seed: u64) -> Market<EllipsoidPricing<LinearModel>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let owners: Vec<DataOwner> = (0..num_owners)
            .map(|i| DataOwner::new(i as u64, vec![1.0 + (i % 3) as f64], 4.0))
            .collect();
        let contracts = CompensationContract::sample_population(&mut rng, num_owners, 1.0, 1.0);
        let broker = DataBroker::new(owners, contracts, dim);
        let generator = QueryGenerator::new(num_owners, QueryWeightDistribution::Gaussian);
        let consumers = ConsumerPool::sample(&mut rng, dim, NoiseModel::None);
        let config = PricingConfig::new(2.0 * (dim as f64).sqrt(), 1_000).with_reserve(true);
        let mechanism = EllipsoidPricing::new(LinearModel::new(dim), config);
        Market::new(broker, generator, consumers, mechanism)
    }

    #[test]
    fn single_trade_is_internally_consistent() {
        let mut market = market(30, 6, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = market.trade_one(&mut rng);
        assert_eq!(outcome.consumer_id, 0);
        if outcome.accepted {
            assert!(outcome.noisy_answer.is_some());
            assert!(
                (outcome.net_revenue - (outcome.posted_price - outcome.reserve_price)).abs()
                    < 1e-12
            );
            assert!(outcome.posted_price <= outcome.market_value + 1e-12);
        } else {
            assert!(outcome.noisy_answer.is_none());
            assert_eq!(outcome.net_revenue, 0.0);
        }
        assert!(outcome.regret >= 0.0);
    }

    #[test]
    fn report_accounting_adds_up() {
        let mut market = market(40, 8, 9);
        let mut rng = StdRng::seed_from_u64(2);
        let mut gross = 0.0;
        let mut comp = 0.0;
        let mut sales = 0usize;
        for _ in 0..300 {
            let outcome = market.trade_one(&mut rng);
            if outcome.accepted {
                gross += outcome.posted_price;
                comp += outcome.reserve_price;
                sales += 1;
            }
        }
        let report = market.report();
        assert_eq!(report.rounds, 300);
        assert_eq!(report.sales, sales);
        assert!((report.gross_revenue - gross).abs() < 1e-9);
        assert!((report.total_compensation_paid - comp).abs() < 1e-9);
        assert!((report.net_revenue - (gross - comp)).abs() < 1e-9);
        assert!(report.regret_ratio() >= 0.0 && report.regret_ratio() <= 1.0);
    }

    #[test]
    fn broker_earns_positive_net_revenue_with_reserve_constraint() {
        // The reserve constraint guarantees every sale covers the
        // compensations, so net revenue can never be negative and should be
        // strictly positive over a reasonable run.
        let mut market = market(50, 10, 11);
        let mut rng = StdRng::seed_from_u64(4);
        let report = market.run(&mut rng, 500);
        assert!(report.net_revenue >= 0.0);
        assert!(report.sales > 0);
        assert!(report.net_revenue > 0.0);
    }

    #[test]
    fn learning_market_beats_reserve_posting_market_on_net_revenue() {
        let mut rng = StdRng::seed_from_u64(21);
        let num_owners = 40;
        let dim = 6;
        let owners: Vec<DataOwner> = (0..num_owners)
            .map(|i| DataOwner::new(i as u64, vec![2.0 + (i % 2) as f64], 4.0))
            .collect();
        let contracts = CompensationContract::sample_population(&mut rng, num_owners, 1.0, 1.0);
        let broker = DataBroker::new(owners, contracts, dim);
        let generator = QueryGenerator::new(num_owners, QueryWeightDistribution::Gaussian);
        let consumers = ConsumerPool::sample(&mut rng, dim, NoiseModel::None);

        let config = PricingConfig::new(2.0 * (dim as f64).sqrt(), 2_000).with_reserve(true);
        let mut learning = Market::new(
            broker.clone(),
            generator.clone(),
            consumers.clone(),
            EllipsoidPricing::new(LinearModel::new(dim), config),
        );
        let mut risk_averse =
            Market::new(broker, generator, consumers, ReservePriceBaseline::new());

        let mut rng_a = StdRng::seed_from_u64(7);
        let learning_report = learning.run(&mut rng_a, 2_000);
        let mut rng_b = StdRng::seed_from_u64(7);
        let baseline_report = risk_averse.run(&mut rng_b, 2_000);

        // Posting the reserve earns zero net revenue by construction; the
        // learning mechanism must extract a strictly positive margin.
        assert!(baseline_report.net_revenue.abs() < 1e-9);
        assert!(learning_report.net_revenue > 0.0);
        assert!(learning_report.cumulative_regret < baseline_report.cumulative_regret);
    }
}
