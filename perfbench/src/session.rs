//! `session`: the `blab measure --mirror` path through the Table 1 API —
//! one measured, mirrored video session at the native 5 kHz, then the
//! report's `mah()` and `cdf()`. Scheduler and WAL are not involved.

use std::time::Instant;

use batterylab::power::MONSOON_RATE_HZ;
use batterylab::sim::SimDuration;
use batterylab::Platform;

use crate::util::Digest;
use crate::Round;

/// An assembled testbed with the meter powered, the bypass engaged and
/// the device mirrored: everything before `start_monitor`.
pub struct Setup {
    pub platform: Platform,
    pub serial: String,
}

/// Assemble and arm the testbed for `seed`.
pub fn setup(seed: u64) -> Setup {
    let mut platform = Platform::paper_testbed(seed);
    let serial = platform.j7_serial().to_string();
    let vp = platform.node1();
    vp.power_monitor().expect("meter socket powers on");
    vp.set_voltage(4.0).expect("4 V is in range");
    vp.batt_switch(&serial).expect("bypass engages");
    vp.device_mirroring(&serial).expect("mirroring starts");
    Setup { platform, serial }
}

/// One measured session of `seconds` of video. Work time runs from
/// `start_monitor` through `cdf()`.
pub fn round(seed: u64, seconds: u64) -> Round {
    let Setup {
        mut platform,
        serial,
    } = setup(seed);
    let vp = platform.node1();

    let start = Instant::now();
    vp.start_monitor(&serial).expect("monitor arms");
    let device = vp.device_handle(&serial).expect("device attached");
    device.with_sim(|s| {
        s.set_screen(true);
        s.play_video(SimDuration::from_secs(seconds));
    });
    let report = vp
        .stop_monitor_at_rate(MONSOON_RATE_HZ)
        .expect("session report");
    let mah = report.mah();
    let cdf = report.cdf();
    let work_s = start.elapsed().as_secs_f64();

    let expected = (MONSOON_RATE_HZ as u64) * seconds;
    let mut notes = Vec::new();
    if report.samples.len() as u64 != expected {
        notes.push(format!(
            "{} samples for {expected} expected",
            report.samples.len()
        ));
    }
    if !(mah.is_finite() && mah > 0.0) {
        notes.push(format!("discharge {mah} mAh is not positive"));
    }
    if cdf.len() != report.samples.len() {
        notes.push(format!(
            "CDF over {} of {} samples",
            cdf.len(),
            report.samples.len()
        ));
    }

    let mut digest = Digest::default();
    digest.f64(mah);
    digest.u64(report.samples.len() as u64);
    for q in [0.1, 0.5, 0.9, 0.99] {
        digest.f64(cdf.quantile(q));
    }
    digest.str(&platform.metrics().to_json());

    Round {
        work_s,
        items: report.samples.len() as u64,
        op_ms: vec![work_s * 1e3],
        attempted: 3,
        failed: notes.len() as u64,
        digest,
        extra: vec![("mah", mah)],
        notes,
    }
}
