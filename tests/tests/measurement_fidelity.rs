//! Measurement-path fidelity: cross-crate invariants tying the Monsoon's
//! readings to the device's ground-truth trace, and the §3.3/§4.1
//! interference effects (USB power, relay resistance, mirroring cost).

use batterylab::device::{boot_j7_duo, PowerSource};
use batterylab::platform::Platform;
use batterylab::power::{ConstantLoad, Monsoon, MonsoonError};
use batterylab::sim::{SimDuration, SimRng, SimTime};

/// The meter's integral must match the device trace's integral to within
/// calibration error — the whole pipeline is only as good as this.
#[test]
fn monsoon_energy_matches_device_ground_truth() {
    let mut platform = Platform::paper_testbed(301);
    let serial = platform.j7_serial().to_string();
    let vp = platform.node1();
    vp.power_monitor().unwrap();
    vp.set_voltage(4.0).unwrap();
    vp.batt_switch(&serial).unwrap();
    vp.start_monitor(&serial).unwrap();
    let device = vp.device_handle(&serial).unwrap();
    device.with_sim(|s| {
        s.set_screen(true);
        s.run_activity(SimDuration::from_secs(30), 0.3, 0.5);
        s.idle(SimDuration::from_secs(5));
    });
    let report = vp.stop_monitor_at_rate(1000.0).unwrap();
    let (from, to) = report.window;
    let truth_mah = device.with_sim(|s| s.current_trace().integral(from, to)) / 3600.0;
    let rel = (report.mah() - truth_mah).abs() / truth_mah;
    assert!(
        rel < 0.01,
        "meter {:.4} mAh vs ground truth {truth_mah:.4} mAh ({:.2}% off)",
        report.mah(),
        rel * 100.0
    );
}

/// §3.3: attaching USB bus power during a measurement corrupts it.
/// The controller refuses to start in that state; if USB appears
/// mid-measurement (which the controller also blocks), readings collapse.
#[test]
fn usb_power_corrupts_the_reading() {
    let rng = SimRng::new(302);
    let device = boot_j7_duo(&rng, "usb-dev");
    device.with_sim(|s| {
        s.set_power_source(PowerSource::MonsoonBypass);
        s.set_screen(true);
        s.run_activity(SimDuration::from_secs(10), 0.3, 0.5);
    });
    let mut monsoon = Monsoon::new(rng.derive("m"));
    monsoon.set_powered(true);
    monsoon.set_voltage(4.0).unwrap();
    monsoon.enable_vout().unwrap();
    let clean = monsoon
        .sample_run_at_rate(&device, SimTime::ZERO, 10.0, 200.0)
        .unwrap();
    device.with_sim(|s| s.set_usb_connected(true));
    let corrupted = monsoon
        .sample_run_at_rate(&device, SimTime::ZERO, 10.0, 200.0)
        .unwrap();
    assert!(
        corrupted.energy.mean_ma() < clean.energy.mean_ma() * 0.25,
        "USB must steal the load: {} vs {}",
        corrupted.energy.mean_ma(),
        clean.energy.mean_ma()
    );
}

/// Fig. 2's premise: the relay adds nothing measurable.
#[test]
fn relay_perturbation_below_2_percent() {
    use batterylab::relay::CircuitSwitch;
    use std::sync::Arc;
    let rng = SimRng::new(303);
    let device = boot_j7_duo(&rng, "relay-dev");
    device.with_sim(|s| {
        s.set_power_source(PowerSource::MonsoonBypass);
        s.set_screen(true);
        s.play_video(SimDuration::from_secs(20));
    });
    let run = |use_relay: bool| {
        let mut monsoon = Monsoon::new(SimRng::new(303).derive("m"));
        monsoon.set_powered(true);
        monsoon.set_voltage(4.0).unwrap();
        monsoon.enable_vout().unwrap();
        if use_relay {
            let switch = CircuitSwitch::new(1);
            switch.attach(0, Arc::new(device.clone())).unwrap();
            switch.engage_bypass(0, SimTime::ZERO).unwrap();
            monsoon
                .sample_run_at_rate(&switch.meter_side(), SimTime::ZERO, 20.0, 500.0)
                .unwrap()
                .energy
                .mean_ma()
        } else {
            monsoon
                .sample_run_at_rate(&device, SimTime::ZERO, 20.0, 500.0)
                .unwrap()
                .energy
                .mean_ma()
        }
    };
    let direct = run(false);
    let relay = run(true);
    let rel = (direct - relay).abs() / direct;
    assert!(rel < 0.02, "direct {direct} vs relay {relay}");
}

/// The over-current protection actually protects: a short trips the run.
#[test]
fn over_current_aborts_the_run() {
    let mut monsoon = Monsoon::new(SimRng::new(304).derive("m"));
    monsoon.set_powered(true);
    monsoon.set_voltage(4.0).unwrap();
    monsoon.enable_vout().unwrap();
    let short = ConstantLoad::new(6500.0, 4.0);
    let err = monsoon
        .sample_run(&short, SimTime::ZERO, 1.0)
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, MonsoonError::OverCurrent { .. }));
}

/// Same seed, same platform, bit-identical measurement — the whole stack
/// is deterministic.
#[test]
fn full_pipeline_determinism() {
    let run = || {
        let mut platform = Platform::paper_testbed(305);
        let serial = platform.j7_serial().to_string();
        let vp = platform.node1();
        vp.power_monitor().unwrap();
        vp.batt_switch(&serial).unwrap();
        vp.start_monitor(&serial).unwrap();
        let device = vp.device_handle(&serial).unwrap();
        device.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(15));
        });
        let report = vp.stop_monitor_at_rate(500.0).unwrap();
        // The report keeps counts, not the trace: what it counted and
        // summed, plus the device's own trace over the measured window,
        // read sample by sample through a Monsoon of its own.
        let counted: Vec<(u64, u64)> = report
            .cdf()
            .counts()
            .map(|(v, n)| (v.to_bits(), n))
            .collect();
        let e = &report.energy;
        let energy = [e.mah(), e.mwh(), e.min_ma(), e.max_ma()].map(f64::to_bits);
        let (from, to) = report.window;
        let mut meter = Monsoon::new(SimRng::new(305).derive("replay"));
        meter.set_powered(true);
        meter.set_voltage(4.0).unwrap();
        meter.enable_vout().unwrap();
        let trace = meter
            .sample_run_at_rate(&device, from, (to - from).as_secs_f64(), 500.0)
            .unwrap();
        let trace: Vec<(SimTime, u64)> = trace
            .samples
            .iter()
            .map(|(t, v)| (t, v.to_bits()))
            .collect();
        assert_eq!(trace.len(), report.samples.len());
        (energy, e.samples(), counted, trace)
    };
    let (energy_a, len_a, counted_a, trace_a) = run();
    let (energy_b, len_b, counted_b, trace_b) = run();
    assert_eq!(energy_a, energy_b);
    assert_eq!(len_a, len_b);
    assert_eq!(counted_a, counted_b);
    assert_eq!(trace_a, trace_b);
}

/// Battery accounting: on battery power the pack drains by exactly the
/// trace integral; on the bypass it doesn't drain at all.
#[test]
fn battery_vs_bypass_accounting() {
    let rng = SimRng::new(306);
    let device = boot_j7_duo(&rng, "batt-dev");
    let full = device.with_sim(|s| s.battery().charge_mah());
    device.with_sim(|s| {
        s.set_screen(true);
        s.run_activity(SimDuration::from_secs(60), 0.4, 0.5);
    });
    let after_battery = device.with_sim(|s| s.battery().charge_mah());
    assert!(after_battery < full);
    device.with_sim(|s| s.set_power_source(PowerSource::MonsoonBypass));
    device.with_sim(|s| s.run_activity(SimDuration::from_secs(60), 0.4, 0.5));
    assert_eq!(
        device.with_sim(|s| s.battery().charge_mah()),
        after_battery,
        "bypass must not drain the pack"
    );
}
