//! `campaign`: one experimenter's batch of measured browser jobs through
//! the whole job path of a durable, billing-enabled testbed, drained by
//! a single dispatcher, then the server rebuilt from the full WAL.

use std::time::Instant;

use batterylab::automation::Script;
use batterylab::durable::Wal;
use batterylab::net::VpnLocation;
use batterylab::server::{
    AccessServer, BuildRecord, BuildState, Constraints, CreditLedger, ExperimentSpec, JobId,
    Payload,
};
use batterylab::sim::{SimDuration, SimRng};
use batterylab::telemetry::Registry;
use batterylab::workloads::{news_sites, BrowserProfile};
use batterylab::Platform;

use crate::util::{timed, Digest};
use crate::Round;

/// One campaign's inputs: the assembled testbed, its WAL and the jobs.
pub struct Setup {
    pub platform: Platform,
    pub wal: Wal,
    pub jobs: Vec<(String, ExperimentSpec)>,
}

/// The simulated result of one job, as the traced run re-derives it.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    pub mah: f64,
    pub logcat_bytes: usize,
}

/// Assemble the testbed and generate `count` jobs from `seed`: the four
/// §4.2 browsers in turn; in each group of sixteen, four jobs mirror and
/// four tunnel through a seed-chosen VPN exit; sites and scroll counts
/// are drawn from the seed.
pub fn setup(seed: u64, count: usize) -> Setup {
    let (mut platform, wal) = Platform::durable_testbed(seed);
    platform.server.enable_billing();
    let serial = platform.j7_serial().to_string();
    let browsers = BrowserProfile::all_four();
    let sites = news_sites();
    let mut rng = SimRng::new(seed).derive("perfbench/campaign");
    let jobs = (0..count)
        .map(|i| {
            let browser = &browsers[i % browsers.len()];
            let url = sites[rng.index(sites.len())].url();
            let scrolls = 1 + rng.index(3);
            let script = Script::browser_workload(&browser.package, &[url.as_str()], scrolls);
            let mut spec = ExperimentSpec::measured(&serial, script);
            match (i / 4) % 4 {
                1 => spec.mirroring = true,
                2 => spec.vpn = Some(*rng.choose(&VpnLocation::ALL)),
                _ => {}
            }
            (format!("campaign-{i}"), spec)
        })
        .collect();
    Setup {
        platform,
        wal,
        jobs,
    }
}

/// Per-job results read back from the build table, in submission order.
pub fn job_results<'a>(builds: impl IntoIterator<Item = &'a BuildRecord>) -> Vec<JobResult> {
    builds
        .into_iter()
        .map(|b| JobResult {
            mah: b
                .summary
                .as_ref()
                .and_then(|s| s["discharge_mah"].as_f64())
                .unwrap_or(f64::NAN),
            logcat_bytes: artifact(b, "logcat.txt").map_or(0, str::len),
        })
        .collect()
}

fn artifact<'a>(build: &'a BuildRecord, name: &str) -> Option<&'a str> {
    build
        .artifacts
        .iter()
        .find(|a| a.name == name)
        .map(|a| a.content.as_str())
}

/// One measured campaign. `op_ms` holds the host time of every
/// `AccessServer::tick`; the work time covers submission and drain.
pub fn round(seed: u64, count: usize) -> (Round, Vec<JobResult>) {
    let Setup {
        mut platform,
        wal,
        jobs,
    } = setup(seed, count);
    let mut notes = Vec::new();
    let generated = jobs.len() as u64;

    let start = Instant::now();
    let token = platform.experimenter_token;
    let mut ids = Vec::with_capacity(jobs.len());
    for (name, spec) in jobs {
        match platform.server.submit_job(
            token,
            &name,
            Constraints::default(),
            Payload::Experiment(spec),
        ) {
            Ok(id) => ids.push(id),
            Err(e) => notes.push(format!("submit {name}: {e}")),
        }
    }
    let mut ran = Vec::with_capacity(ids.len());
    let mut tick_ms = Vec::with_capacity(ids.len());
    loop {
        let t = Instant::now();
        let Some(id) = platform.server.tick() else {
            break;
        };
        tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ran.push(id);
    }
    let work_s = start.elapsed().as_secs_f64();

    let (recovered, recover_s) = timed(|| AccessServer::recover(&wal, &Registry::new()));

    // Table-level checks; each failed one counts as one failure.
    let mut failed_checks = 0;
    ran.sort();
    if ran != ids {
        failed_checks += 1;
        notes.push(format!(
            "{} ticks for {} submitted jobs (lost or duplicated)",
            ran.len(),
            ids.len()
        ));
    }
    if platform.server.queue_len() > 0 {
        failed_checks += 1;
        notes.push(format!("{} jobs left queued", platform.server.queue_len()));
    }
    let builds: Vec<&BuildRecord> = ids
        .iter()
        .filter_map(|id| platform.server.build(token, *id).ok())
        .collect();
    let succeeded = builds
        .iter()
        .filter(|b| b.state == BuildState::Succeeded)
        .count() as u64;

    failed_checks += u64::from(!check_ledger(&platform, &builds, &mut notes));
    failed_checks += u64::from(!check_recovered(
        recovered, &platform, &ids, &builds, &mut notes,
    ));

    let results = job_results(builds.iter().copied());
    let mut digest = Digest::default();
    for (b, r) in builds.iter().zip(&results) {
        digest.str(&format!("{:?}", b.state));
        digest.f64(r.mah);
        digest.f64(duration_s(b));
        digest.u64(r.logcat_bytes as u64);
        let samples = artifact(b, "power_summary.json")
            .and_then(|s| serde_json::from_str::<serde_json::Value>(s).ok())
            .and_then(|v| v["samples"].as_u64())
            .unwrap_or(0);
        digest.u64(samples);
    }
    digest.u64(wal.durable_len() as u64);
    digest.u64(wal.record_count());
    digest.str(&platform.metrics().to_json());
    let balance = ledger_balance(&platform);
    digest.f64(balance);

    let count = ids.len().max(1) as f64;
    let round = Round {
        work_s,
        items: ids.len() as u64,
        op_ms: tick_ms,
        attempted: generated + CHECKS,
        failed: generated - succeeded + failed_checks,
        digest,
        extra: vec![
            ("recover_s", recover_s),
            ("wal_bytes_per_job", wal.durable_len() as f64 / count),
            (
                "logcat_bytes_last",
                results.last().map_or(0.0, |r| r.logcat_bytes as f64),
            ),
        ],
        notes,
    };
    (round, results)
}

/// Table-level output checks per campaign, counted as attempts on top of
/// the jobs: dispatch exactly once, empty queue, ledger, recovery.
const CHECKS: u64 = 4;

fn duration_s(build: &BuildRecord) -> f64 {
    build
        .summary
        .as_ref()
        .and_then(|s| s["duration_s"].as_f64())
        .unwrap_or(0.0)
}

fn ledger_balance(platform: &Platform) -> f64 {
    platform
        .server
        .ledger()
        .and_then(|l| l.balance("alice").ok())
        .unwrap_or(f64::NAN)
}

/// The ledger charged exactly the device time the builds report.
fn check_ledger(platform: &Platform, builds: &[&BuildRecord], notes: &mut Vec<String>) -> bool {
    let Some(ledger) = platform.server.ledger() else {
        notes.push("billing is off".to_string());
        return false;
    };
    let charged: f64 = ledger
        .history()
        .iter()
        .filter(|e| e.user == "alice" && e.reason.starts_with("job "))
        .map(|e| -e.amount)
        .sum();
    let expected: f64 = builds
        .iter()
        .map(|b| CreditLedger::cost_of(SimDuration::from_secs_f64(duration_s(b))))
        .sum();
    if (charged - expected).abs() > 1e-9 * expected.abs().max(1.0) {
        notes.push(format!(
            "ledger charged {charged} credits for {expected} of device time"
        ));
        return false;
    }
    true
}

/// The server rebuilt from the WAL holds the live build table and
/// balance, byte for byte.
fn check_recovered(
    recovered: Result<AccessServer, batterylab::server::ServerError>,
    live: &Platform,
    ids: &[JobId],
    builds: &[&BuildRecord],
    notes: &mut Vec<String>,
) -> bool {
    let mut server = match recovered {
        Ok(server) => server,
        Err(e) => {
            notes.push(format!("recovery failed: {e}"));
            return false;
        }
    };
    let token = match server.login("alice", "alice-pw", true) {
        Ok(session) => session.token,
        Err(e) => {
            notes.push(format!("login after recovery: {e}"));
            return false;
        }
    };
    let before = notes.len();
    let mismatched = ids
        .iter()
        .zip(builds)
        .filter(|(id, live_build)| {
            let ours = serde_json::to_string(*live_build).ok();
            let theirs = server
                .build(token, **id)
                .ok()
                .and_then(|b| serde_json::to_string(b).ok());
            ours.is_none() || ours != theirs
        })
        .count();
    if mismatched > 0 || builds.len() != ids.len() {
        notes.push(format!(
            "{mismatched} recovered builds differ from the live table"
        ));
    }
    let recovered_balance = server
        .ledger()
        .and_then(|l| l.balance("alice").ok())
        .unwrap_or(f64::NAN);
    if recovered_balance.to_bits() != ledger_balance(live).to_bits() {
        notes.push("recovered ledger balance differs".to_string());
    }
    notes.len() == before
}
