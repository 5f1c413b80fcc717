//! BattOr-style portable power monitor (§2: "In the near future, we will
//! explore solutions like BattOr to potentially enhance BatteryLab with
//! mobility support").
//!
//! BattOr (Schulman et al., MobiCom '11) sits inline with the phone's
//! battery and logs to local flash while running from its own cell —
//! which is exactly what makes *mobile* (walk-around, cellular)
//! measurements possible, and exactly what the mains-tethered Monsoon
//! cannot do. The trade-offs it brings are modelled:
//!
//! * lower sampling rate (1 kHz vs the Monsoon's 5 kHz);
//! * finite buffer: the logger stops when flash fills;
//! * finite runtime: the logger stops when its own battery dies;
//! * no programmable supply — it *observes* the phone's battery rail
//!   rather than replacing it, so no battery-bypass relay is involved.

use batterylab_sim::{SimRng, SimTime, TimeSeries};
use batterylab_stats::EnergyAccumulator;

use crate::monsoon::Calibration;
use crate::source::CurrentSource;

/// BattOr's sampling rate, Hz.
pub const BATTOR_RATE_HZ: f64 = 1000.0;
/// Flash buffer, in samples (enough for ~2.2 hours at 1 kHz).
pub const BATTOR_BUFFER_SAMPLES: u64 = 8_000_000;
/// The logger's own battery life, seconds of continuous logging.
pub const BATTOR_RUNTIME_S: f64 = 4.0 * 3600.0;

/// BattOr faults.
#[derive(Clone, Debug, PartialEq)]
pub enum BattOrError {
    /// The logger's own battery is exhausted.
    LoggerBatteryDead {
        /// Seconds of logging that were captured before death.
        captured_s: f64,
    },
    /// Flash is full.
    BufferFull {
        /// Samples captured before the buffer filled.
        captured: u64,
    },
}

impl std::fmt::Display for BattOrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BattOrError::LoggerBatteryDead { captured_s } => {
                write!(f, "BattOr battery died after {captured_s:.0}s of logging")
            }
            BattOrError::BufferFull { captured } => {
                write!(f, "BattOr flash full after {captured} samples")
            }
        }
    }
}

impl std::error::Error for BattOrError {}

/// A logging run's result (downloaded over USB after the walk).
#[derive(Clone, Debug)]
pub struct BattOrLog {
    /// The samples (mA).
    pub samples: TimeSeries,
    /// Aggregates.
    pub energy: EnergyAccumulator,
    /// Whether the run ended early (battery/buffer) rather than by
    /// request.
    pub truncated: Option<BattOrError>,
}

/// The portable monitor.
pub struct BattOr {
    calibration: Calibration,
    rng: SimRng,
    /// Seconds of logging left in the logger's own battery.
    runtime_left_s: f64,
    /// Samples of flash left.
    buffer_left: u64,
}

impl BattOr {
    /// A charged BattOr with empty flash. BattOr's front-end is noisier
    /// than the bench Monsoon.
    pub fn new(rng: SimRng) -> Self {
        BattOr {
            calibration: Calibration {
                gain: 1.002,
                offset_ma: 0.2,
                noise_ma: 1.1,
                lsb_ma: 0.1,
            },
            rng,
            runtime_left_s: BATTOR_RUNTIME_S,
            buffer_left: BATTOR_BUFFER_SAMPLES,
        }
    }

    /// Seconds of logging remaining in the logger's battery.
    pub fn runtime_left_s(&self) -> f64 {
        self.runtime_left_s
    }

    /// Samples of flash remaining.
    pub fn buffer_left(&self) -> u64 {
        self.buffer_left
    }

    /// Recharge and wipe (back at the bench).
    pub fn recharge_and_wipe(&mut self) {
        self.runtime_left_s = BATTOR_RUNTIME_S;
        self.buffer_left = BATTOR_BUFFER_SAMPLES;
    }

    /// Log `load` from `start` for `duration_s`. Unlike the Monsoon this
    /// never fails outright: a dead logger battery or full flash
    /// truncates the log, as in the field.
    pub fn log_run(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
    ) -> BattOrLog {
        assert!(duration_s > 0.0);
        let requested = (duration_s * BATTOR_RATE_HZ).round() as u64;
        let period_us = (1e6 / BATTOR_RATE_HZ) as u64;
        let mut samples = TimeSeries::new();
        let mut energy = EnergyAccumulator::new(BATTOR_RATE_HZ);
        let mut truncated = None;
        for i in 0..requested {
            if self.runtime_left_s <= 0.0 {
                truncated = Some(BattOrError::LoggerBatteryDead {
                    captured_s: i as f64 / BATTOR_RATE_HZ,
                });
                break;
            }
            if self.buffer_left == 0 {
                truncated = Some(BattOrError::BufferFull { captured: i });
                break;
            }
            let t = SimTime::from_micros(start.as_micros() + i * period_us);
            // BattOr observes the battery rail at its own terminal voltage.
            let true_ma = load.current_ma(t, 3.85);
            let ma = self
                .calibration
                .reading(true_ma, self.rng.standard_normal());
            samples.push(t, ma);
            energy.push(ma, 3.85);
            self.runtime_left_s -= 1.0 / BATTOR_RATE_HZ;
            self.buffer_left -= 1;
        }
        BattOrLog {
            samples,
            energy,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ConstantLoad;

    fn battor(seed: u64) -> BattOr {
        BattOr::new(SimRng::new(seed).derive("battor"))
    }

    #[test]
    fn logs_at_1khz() {
        let mut b = battor(1);
        let log = b.log_run(&ConstantLoad::new(200.0, 3.85), SimTime::ZERO, 2.0);
        assert_eq!(log.samples.len(), 2000);
        assert!(log.truncated.is_none());
        assert!((log.energy.mean_ma() - 200.0).abs() < 2.0);
    }

    #[test]
    fn noisier_than_the_monsoon() {
        use batterylab_stats::Summary;
        let mut b = battor(2);
        let log = b.log_run(&ConstantLoad::new(150.0, 3.85), SimTime::ZERO, 5.0);
        let s = Summary::of(log.samples.values());
        assert!(s.std_dev > 0.5, "field instrument noise: {}", s.std_dev);
        assert!(s.std_dev < 3.0);
    }

    #[test]
    fn logger_battery_truncates() {
        let mut b = battor(3);
        b.runtime_left_s = 1.0; // nearly dead
        let log = b.log_run(&ConstantLoad::new(100.0, 3.85), SimTime::ZERO, 10.0);
        assert!(matches!(
            log.truncated,
            Some(BattOrError::LoggerBatteryDead { .. })
        ));
        assert!((log.samples.len() as f64 - 1000.0).abs() <= 1.0);
    }

    #[test]
    fn flash_truncates() {
        let mut b = battor(4);
        b.buffer_left = 500;
        let log = b.log_run(&ConstantLoad::new(100.0, 3.85), SimTime::ZERO, 10.0);
        assert!(matches!(
            log.truncated,
            Some(BattOrError::BufferFull { captured: 500 })
        ));
        assert_eq!(log.samples.len(), 500);
    }

    #[test]
    fn recharge_resets() {
        let mut b = battor(5);
        b.log_run(&ConstantLoad::new(100.0, 3.85), SimTime::ZERO, 60.0);
        assert!(b.runtime_left_s() < BATTOR_RUNTIME_S);
        assert!(b.buffer_left() < BATTOR_BUFFER_SAMPLES);
        b.recharge_and_wipe();
        assert_eq!(b.runtime_left_s(), BATTOR_RUNTIME_S);
        assert_eq!(b.buffer_left(), BATTOR_BUFFER_SAMPLES);
    }

    #[test]
    fn seeded_log_is_pinned_bit_for_bit() {
        // A noisy stepped load with boundaries off the 1 ms grid, cut
        // short by a full flash. The sample bits, mAh bits and the
        // truncation were recorded from a release build before BattOr
        // shared the Monsoon's `Calibration::reading`, which must not
        // move them in any build profile.
        let mut trace = batterylab_sim::StepSignal::new(210.0);
        trace.set(SimTime::from_micros(123_456), 480.5);
        trace.set(SimTime::from_micros(401_999), 0.0);
        trace.set(SimTime::from_micros(650_001), 95.25);
        let load = crate::source::TraceLoad::new(trace, 4.0);
        let mut b = battor(2019);
        b.buffer_left = 900;
        let log = b.log_run(&load, SimTime::from_micros(500), 1.0);
        let digest = log.samples.values().iter().zip(log.samples.times()).fold(
            0xcbf2_9ce4_8422_2325u64,
            |h, (v, t)| {
                let h = (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
                (h ^ t.as_micros()).wrapping_mul(0x0100_0000_01b3)
            },
        );
        assert_eq!(log.samples.len(), 900);
        assert_eq!(digest, 0x5bf9_c1e9_b366_e6e3);
        assert_eq!(log.energy.mah().to_bits(), 0x3fab_3d9c_e9c8_0ec9);
        assert_eq!(log.samples.values()[0].to_bits(), 0x406b_3ccc_cccc_cccd);
        assert_eq!(log.samples.values()[899].to_bits(), 0x4059_3999_9999_999a);
        assert_eq!(
            log.truncated,
            Some(BattOrError::BufferFull { captured: 900 })
        );
    }

    #[test]
    fn mobile_cellular_session_works_untethered() {
        // The point of BattOr: measure a device on the move (cellular),
        // with no mains, no relay, no bypass.
        use batterylab_sim::SimDuration;
        let rng = SimRng::new(6);
        // A device on cellular doing a transfer mid-walk.
        let device = crate::source::TraceLoad::new(
            {
                let mut sig = batterylab_sim::StepSignal::new(180.0);
                sig.set(SimTime::from_secs(10), 420.0); // cellular burst
                sig.set(SimTime::from_secs(30), 190.0);
                sig
            },
            4.0,
        );
        let _ = SimDuration::ZERO;
        let mut b = BattOr::new(rng.derive("battor"));
        let log = b.log_run(&device, SimTime::ZERO, 60.0);
        assert!(log.truncated.is_none());
        // The burst is visible in the log.
        let cdf = batterylab_stats::Cdf::from_samples(log.samples.values());
        assert!(cdf.quantile(0.95) > 380.0, "{}", cdf.quantile(0.95));
        assert!(cdf.median() < 250.0);
    }
}
