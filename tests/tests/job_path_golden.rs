//! Golden values for the bytes the job path produces.
//!
//! 200 measured browser jobs run through a durable, billing-enabled
//! testbed: the four §4.2 browsers in turn, one job in four mirrored and
//! one in four tunnelled through a seed-chosen VPN exit. The WAL size,
//! its record count, the summed `logcat.txt` artifact bytes, the ledger
//! balance and a CRC over every replayed record payload are pinned.
//! Any change to what a job logs, writes or charges moves one of them,
//! so a speed-up that alters outputs fails here rather than in the
//! benchmark's digest check.

use batterylab::automation::Script;
use batterylab::durable::crc32;
use batterylab::net::VpnLocation;
use batterylab::server::{BuildState, Constraints, ExperimentSpec, Payload};
use batterylab::sim::SimRng;
use batterylab::workloads::{news_sites, BrowserProfile};
use batterylab::Platform;

const SEED: u64 = 2019;
const JOBS: usize = 200;

#[test]
fn job_path_outputs_are_pinned() {
    let (mut platform, wal) = Platform::durable_testbed(SEED);
    platform.server.enable_billing();
    let serial = platform.j7_serial().to_string();
    let token = platform.experimenter_token;
    let browsers = BrowserProfile::all_four();
    let sites = news_sites();
    let mut rng = SimRng::new(SEED).derive("tests/job_path_golden");

    let mut ids = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let browser = &browsers[i % browsers.len()];
        let url = sites[rng.index(sites.len())].url();
        let scrolls = 1 + rng.index(3);
        let script = Script::browser_workload(&browser.package, &[url.as_str()], scrolls);
        let mut spec = ExperimentSpec::measured(&serial, script);
        match i % 4 {
            1 => spec.mirroring = true,
            2 => spec.vpn = Some(*rng.choose(&VpnLocation::ALL)),
            _ => {}
        }
        let id = platform
            .server
            .submit_job(
                token,
                &format!("golden-{i}"),
                Constraints::default(),
                Payload::Experiment(spec),
            )
            .expect("submit");
        ids.push(id);
    }
    while platform.server.tick().is_some() {}

    let mut logcat_bytes = 0usize;
    for id in &ids {
        let build = platform.server.build(token, *id).expect("build");
        assert_eq!(build.state, BuildState::Succeeded, "job {id:?}");
        logcat_bytes += build
            .artifacts
            .iter()
            .filter(|a| a.name == "logcat.txt")
            .map(|a| a.content.len())
            .sum::<usize>();
    }
    let balance = platform
        .server
        .ledger()
        .expect("billing on")
        .balance("alice")
        .expect("alice has an account");

    let (records, torn) = wal.replay();
    assert_eq!(torn, 0);
    let mut framed = Vec::new();
    for payload in &records {
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(payload);
    }

    let observed = (
        wal.durable_len(),
        wal.record_count(),
        logcat_bytes,
        balance.to_bits(),
        crc32(&framed),
    );
    // (WAL bytes, WAL records, logcat bytes, balance bits, payload CRC)
    assert_eq!(
        observed,
        (
            1_387_111,
            405,
            1_128_548,
            13_839_847_183_125_909_500,
            3_673_932_229
        )
    );
}
