//! Statistical substrate for SEA's sampling-estimation pipeline (§V).
//!
//! Everything the accuracy guarantee needs, implemented from scratch:
//!
//! * [`normal`] — standard normal quantiles (`z_{α/2}`) and CDF;
//! * [`binomial`] — the exact binomial tail behind the certificate
//!   coverage test (is an observed violation rate compatible with α?);
//! * [`hoeffding`] — minimum sampling-population sizes derived from the
//!   Hoeffding inequality (Theorems 7–10);
//! * [`bootstrap`] — the classic bootstrap and the Bag of Little
//!   Bootstraps used to compute a Margin of Error for the estimated
//!   attribute distance δ⋆;
//! * [`accuracy`] — the Theorem-11 gate `ε ≤ δ⋆·e/(1+e)` that converts a
//!   confidence interval into a relative-error guarantee, plus the Eq.-12
//!   incremental sample sizing;
//! * [`sampling`] — weighted sampling without replacement
//!   (Efraimidis–Spirakis) used by attribute-aware sampling;
//! * [`describe`] — small descriptive-statistics helpers.

pub mod accuracy;
pub mod binomial;
pub mod bootstrap;
pub mod describe;
pub mod hoeffding;
pub mod normal;
pub mod sampling;

pub use accuracy::{
    incremental_sample_size, required_moe, satisfies_error_bound, ConfidenceInterval,
};
pub use binomial::binomial_tail;
pub use bootstrap::{bootstrap_std, bootstrap_std_sized, Blb, BlbEstimate};
pub use hoeffding::{min_population_size, min_possible_worlds};
pub use normal::{normal_cdf, normal_quantile, z_for_confidence};
pub use sampling::{weighted_sample_without_replacement, weighted_sample_without_replacement_into};
