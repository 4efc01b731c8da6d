//! Synthetic loan-application records for the paper's loan-pricing extension
//! (Section IV-B).
//!
//! A financial institution quotes an interest rate to a borrower, who accepts
//! or walks away; the paper notes the rate is well captured by a linear or
//! log-log model of the borrower's situation.  The generator plants a
//! log-log ground truth: the log interest rate is linear in the logs of the
//! credit score, income, loan amount, and debt-to-income ratio.

use pdm_linalg::sampling;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Employment status of a borrower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmploymentStatus {
    /// Salaried employee.
    Employed,
    /// Self-employed.
    SelfEmployed,
    /// Not currently employed.
    Unemployed,
    /// Retired.
    Retired,
}

/// One loan application.
#[derive(Debug, Clone, PartialEq)]
pub struct LoanApplication {
    /// Application identifier.
    pub id: u64,
    /// FICO-style credit score in `[300, 850]`.
    pub credit_score: f64,
    /// Annual income in dollars.
    pub annual_income: f64,
    /// Requested loan amount in dollars.
    pub loan_amount: f64,
    /// Debt-to-income ratio in `(0, 1]`.
    pub debt_to_income: f64,
    /// Years with the current employer.
    pub employment_years: f64,
    /// Employment status.
    pub employment_status: EmploymentStatus,
    /// The annual interest rate (fraction, e.g. 0.08) the institution would
    /// quote — the regression target.
    pub interest_rate: f64,
}

/// Seeded generator for loan applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoanGenerator {
    /// Number of applications to generate.
    pub num_applications: usize,
    /// Residual noise on the log interest rate.
    pub noise_std: f64,
}

impl Default for LoanGenerator {
    fn default() -> Self {
        Self {
            num_applications: 20_000,
            noise_std: 0.08,
        }
    }
}

impl LoanGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics when `num_applications == 0` or the noise is negative.
    #[must_use]
    pub fn new(num_applications: usize, noise_std: f64) -> Self {
        assert!(num_applications > 0 && noise_std >= 0.0);
        Self {
            num_applications,
            noise_std,
        }
    }

    /// Generates the applications deterministically from the seed.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Vec<LoanApplication> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.num_applications)
            .map(|id| {
                let credit_score = sampling::uniform(&mut rng, 520.0, 830.0);
                let annual_income = 25_000.0 * (sampling::uniform(&mut rng, 0.0, 1.6)).exp();
                let loan_amount = 4_000.0 * (sampling::uniform(&mut rng, 0.0, 2.2)).exp();
                let debt_to_income = sampling::uniform(&mut rng, 0.05, 0.6);
                let employment_years = sampling::uniform(&mut rng, 0.0, 25.0);
                let employment_status = match rng.gen_range(0..10) {
                    0..=6 => EmploymentStatus::Employed,
                    7..=8 => EmploymentStatus::SelfEmployed,
                    9 => EmploymentStatus::Retired,
                    _ => EmploymentStatus::Unemployed,
                };
                // Planted log-log ground truth: better credit and income lower
                // the rate, larger loans and higher leverage raise it.
                let log_rate = 2.2 - 0.75 * credit_score.ln() + 0.12 * loan_amount.ln()
                    - 0.10 * annual_income.ln()
                    + 0.20 * debt_to_income.ln().abs().recip().min(1.0)
                    + 0.15 * debt_to_income
                    + sampling::normal(&mut rng, 0.0, self.noise_std);
                let interest_rate = log_rate.exp().clamp(0.03, 0.36);
                LoanApplication {
                    id: id as u64,
                    credit_score,
                    annual_income,
                    loan_amount,
                    debt_to_income,
                    employment_years,
                    employment_status,
                    interest_rate,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = LoanGenerator::new(200, 0.05);
        assert_eq!(g.generate(9), g.generate(9));
    }

    #[test]
    fn fields_are_in_range() {
        for app in LoanGenerator::new(1_000, 0.05).generate(1) {
            assert!((300.0..=850.0).contains(&app.credit_score));
            assert!(app.annual_income > 0.0);
            assert!(app.loan_amount > 0.0);
            assert!((0.0..=1.0).contains(&app.debt_to_income));
            assert!((0.03..=0.36).contains(&app.interest_rate));
        }
    }

    #[test]
    fn better_credit_scores_get_lower_rates_on_average() {
        let apps = LoanGenerator::new(5_000, 0.05).generate(2);
        let avg = |pred: &dyn Fn(&LoanApplication) -> bool| {
            let subset: Vec<f64> = apps
                .iter()
                .filter(|a| pred(a))
                .map(|a| a.interest_rate)
                .collect();
            subset.iter().sum::<f64>() / subset.len() as f64
        };
        let good = avg(&|a| a.credit_score > 780.0);
        let poor = avg(&|a| a.credit_score < 580.0);
        assert!(
            good < poor,
            "good-credit rate {good} vs poor-credit rate {poor}"
        );
    }

    #[test]
    fn larger_loans_carry_higher_rates_on_average() {
        let apps = LoanGenerator::new(5_000, 0.05).generate(3);
        let median_amount = {
            let mut amounts: Vec<f64> = apps.iter().map(|a| a.loan_amount).collect();
            amounts.sort_by(|a, b| a.partial_cmp(b).unwrap());
            amounts[amounts.len() / 2]
        };
        let avg = |big: bool| {
            let subset: Vec<f64> = apps
                .iter()
                .filter(|a| (a.loan_amount > median_amount) == big)
                .map(|a| a.interest_rate)
                .collect();
            subset.iter().sum::<f64>() / subset.len() as f64
        };
        assert!(avg(true) > avg(false));
    }
}
