//! # batterylab-stats
//!
//! Statistics utilities shared by the BatteryLab measurement path and the
//! evaluation harness: empirical CDFs (Figs. 2, 4 and 5 of the paper are
//! CDFs), summary statistics with standard deviations (the error bars of
//! Figs. 3 and 6), and energy integration from current samples to mAh
//! (the Y axis of Figs. 3 and 6).

#![warn(missing_docs)]

mod cdf;
mod energy;
mod summary;

pub use cdf::{Cdf, SampleCounts};
pub use energy::{mah_from_ma_samples, mwh_from_samples, EnergyAccumulator};
pub use summary::{ci95_half_width, Summary};
