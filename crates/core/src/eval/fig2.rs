//! Figure 2: CDF of current drawn during 5 minutes of mp4 playback under
//! four scenarios — direct, relay, direct-mirroring, relay-mirroring.
//!
//! The paper's takeaways, which this reproduction must preserve:
//! 1. direct vs relay is negligible (the relay's contact resistance does
//!    not perturb readings);
//! 2. mirroring shifts the median from ≈160 mA to ≈220 mA.

use std::sync::Arc;

use batterylab_device::{boot_j7_duo, PowerSource};
use batterylab_mirror::{EncoderConfig, ScrcpyCapture};
use batterylab_power::Monsoon;
use batterylab_relay::CircuitSwitch;
use batterylab_sim::{SimDuration, SimRng};
use batterylab_stats::Cdf;

use crate::eval::common::EvalConfig;
use crate::eval::par;

/// One Fig. 2 scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig2Scenario {
    /// Monsoon wired straight to the device.
    Direct,
    /// Through the relay circuit switch.
    Relay,
    /// Direct wiring with mirroring active.
    DirectMirroring,
    /// Relay wiring with mirroring active.
    RelayMirroring,
}

impl Fig2Scenario {
    /// All four, in the figure's legend order.
    pub const ALL: [Fig2Scenario; 4] = [
        Fig2Scenario::Direct,
        Fig2Scenario::Relay,
        Fig2Scenario::DirectMirroring,
        Fig2Scenario::RelayMirroring,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig2Scenario::Direct => "direct",
            Fig2Scenario::Relay => "relay",
            Fig2Scenario::DirectMirroring => "direct-mirroring",
            Fig2Scenario::RelayMirroring => "relay-mirroring",
        }
    }

    fn through_relay(self) -> bool {
        matches!(self, Fig2Scenario::Relay | Fig2Scenario::RelayMirroring)
    }

    fn mirroring(self) -> bool {
        matches!(
            self,
            Fig2Scenario::DirectMirroring | Fig2Scenario::RelayMirroring
        )
    }
}

/// The figure's data: one current CDF per scenario.
pub struct Fig2 {
    /// `(scenario, cdf of current samples in mA)`.
    pub scenarios: Vec<(Fig2Scenario, Cdf)>,
}

impl Fig2 {
    /// CDF for one scenario.
    pub fn cdf(&self, scenario: Fig2Scenario) -> &Cdf {
        &self
            .scenarios
            .iter()
            .find(|(s, _)| *s == scenario)
            .expect("all scenarios present")
            .1
    }

    /// Render the figure's series as a text table: quantiles per scenario.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 2: CDF of current drawn (mA), 5-min mp4 playback\n");
        out.push_str(&format!(
            "{:<20} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "scenario", "p10", "p25", "p50", "p75", "p90"
        ));
        for (scenario, cdf) in &self.scenarios {
            out.push_str(&format!(
                "{:<20} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}\n",
                scenario.label(),
                cdf.quantile(0.10),
                cdf.quantile(0.25),
                cdf.median(),
                cdf.quantile(0.75),
                cdf.quantile(0.90),
            ));
        }
        out
    }
}

/// Run the Figure 2 experiment.
///
/// Each scenario gets its own fresh device and meter (as on the bench: you
/// re-wire, you re-baseline), seeded identically so the only differences
/// are the scenario's wiring and mirroring. The four scenarios are
/// independent runs, so they fan out across `config.jobs` workers; the
/// per-scenario seeding makes the output identical for any job count.
pub fn run(config: &EvalConfig) -> Fig2 {
    let cdfs = par::run_ordered(
        config.effective_jobs(),
        &Fig2Scenario::ALL,
        |_, &scenario| run_scenario(config, scenario),
    );
    Fig2 {
        scenarios: Fig2Scenario::ALL.into_iter().zip(cdfs).collect(),
    }
}

/// One measured scenario on its own device + meter.
fn run_scenario(config: &EvalConfig, scenario: Fig2Scenario) -> Cdf {
    let rng = SimRng::new(config.seed).derive("fig2");
    let device = boot_j7_duo(&rng, "fig2-dev");
    device.with_sim(|s| s.set_power_source(PowerSource::MonsoonBypass));

    let mut monsoon = Monsoon::new(rng.derive(&format!("monsoon/{}", scenario.label())));
    monsoon.set_powered(true);
    monsoon.set_voltage(4.0).expect("valid voltage");
    monsoon.enable_vout().expect("powered");

    let mut capture = scenario.mirroring().then(|| {
        let mut c = ScrcpyCapture::new(device.clone(), EncoderConfig::default());
        c.start().expect("J7 Duo supports mirroring");
        c
    });

    // The workload: a pre-loaded mp4 from the sdcard (no network).
    let start = device.with_sim(|s| {
        s.set_screen(true);
        let t0 = s.now();
        s.play_video(SimDuration::from_secs_f64(config.fig2_duration_s));
        t0
    });
    if let Some(c) = capture.as_mut() {
        c.stop().expect("was running");
    }

    let run = if scenario.through_relay() {
        let switch = CircuitSwitch::new(1);
        switch
            .attach(0, Arc::new(device.clone()))
            .expect("channel 0");
        switch.engage_bypass(0, start).expect("device attached");
        let meter_side = switch.meter_side();
        monsoon
            .sample_counts_at_rate(
                &meter_side,
                start,
                config.fig2_duration_s,
                config.sample_rate_hz,
            )
            .expect("sampling")
    } else {
        monsoon
            .sample_counts_at_rate(
                &device,
                start,
                config.fig2_duration_s,
                config.sample_rate_hz,
            )
            .expect("sampling")
    };
    run.samples.cdf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Fig2 {
        run(&EvalConfig {
            fig2_duration_s: 60.0,
            sample_rate_hz: 200.0,
            ..EvalConfig::quick(11)
        })
    }

    #[test]
    fn direct_vs_relay_negligible() {
        let f = fig2();
        let direct = f.cdf(Fig2Scenario::Direct).median();
        let relay = f.cdf(Fig2Scenario::Relay).median();
        let rel = (direct - relay).abs() / direct;
        assert!(
            rel < 0.02,
            "direct {direct} vs relay {relay}: {:.2}%",
            rel * 100.0
        );
    }

    #[test]
    fn mirroring_gap_matches_paper() {
        let f = fig2();
        let plain = f.cdf(Fig2Scenario::Relay).median();
        let mirrored = f.cdf(Fig2Scenario::RelayMirroring).median();
        assert!((145.0..180.0).contains(&plain), "plain median {plain}");
        assert!(
            (200.0..245.0).contains(&mirrored),
            "mirrored median {mirrored}"
        );
        assert!((40.0..85.0).contains(&(mirrored - plain)));
    }

    #[test]
    fn render_has_all_scenarios() {
        let text = fig2().render();
        for s in Fig2Scenario::ALL {
            assert!(text.contains(s.label()), "{text}");
        }
    }

    #[test]
    fn deterministic() {
        let a = fig2().cdf(Fig2Scenario::Direct).median();
        let b = fig2().cdf(Fig2Scenario::Direct).median();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
