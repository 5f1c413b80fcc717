//! `faults`: the chaos soak at full intensity (server crashes included)
//! plus crash-point sweeps over consecutive seeds, both across the
//! `eval::par` pool at `jobs = nproc`.

use std::time::Instant;

use batterylab::chaos::{run_chaos, ChaosConfig, ChaosReport};
use batterylab::crashpoint::{sweep, CrashPointConfig, CrashPointReport};
use batterylab::eval::par;
use batterylab::Platform;

use crate::util::Digest;
use crate::Round;

/// Fault-schedule intensity: every fault kind, server crashes included.
pub const INTENSITY: f64 = 1.0;

/// One round's scenarios: a soak of `chaos_runs` runs and one sweep per
/// consecutive seed.
pub struct Setup {
    pub chaos: ChaosConfig,
    pub sweeps: Vec<CrashPointConfig>,
}

/// Generate the scenario configs for `seed`. The testbed each scenario
/// assembles internally is timed here too, once, as the set-up cost.
pub fn setup(seed: u64, chaos_runs: usize, sweeps: usize, jobs: usize) -> Setup {
    std::hint::black_box(Platform::durable_testbed(seed));
    Setup {
        chaos: ChaosConfig {
            seed,
            runs: chaos_runs,
            intensity: INTENSITY,
            jobs,
        },
        sweeps: (0..sweeps as u64)
            .map(|i| CrashPointConfig {
                seed: seed.wrapping_add(i),
                intensity: INTENSITY,
            })
            .collect(),
    }
}

/// Run the sweeps across the pool, returning each report with its host
/// start and end.
pub fn run_sweeps(
    jobs: usize,
    sweeps: &[CrashPointConfig],
) -> Vec<(CrashPointReport, Instant, Instant)> {
    par::run_ordered(jobs, sweeps, |_, config| {
        let start = Instant::now();
        let report = sweep(config);
        (report, start, Instant::now())
    })
}

/// Digest and output checks of one round's reports.
pub fn check(
    chaos: &ChaosReport,
    sweeps: &[CrashPointReport],
    digest: &mut Digest,
    notes: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    // A violation names its run (`run N: ...`); count failing runs.
    let mut failing_runs: Vec<&str> = chaos
        .violations
        .iter()
        .map(|v| v.split(':').next().unwrap_or(v))
        .collect();
    failing_runs.dedup();
    failed += failing_runs.len() as u64;
    notes.extend(chaos.violations.iter().cloned());
    digest.str(&chaos.to_json());
    for v in [
        chaos.faults_injected,
        chaos.jobs_submitted,
        chaos.jobs_succeeded,
        chaos.jobs_failed,
        chaos.server_crashes,
    ] {
        digest.u64(v);
    }
    for (i, s) in sweeps.iter().enumerate() {
        if !s.passed() {
            failed += 1;
            notes.extend(s.violations.iter().map(|v| format!("sweep {i}: {v}")));
        }
        digest.u64(s.wal_records);
        digest.u64(s.prefixes_checked);
        digest.u64(s.continuation_crashes);
    }
    failed
}

/// One measured round: the soak, then the sweeps.
pub fn round(seed: u64, chaos_runs: usize, sweeps: usize, jobs: usize) -> Round {
    let setup = setup(seed, chaos_runs, sweeps, jobs);
    let start = Instant::now();
    let chaos = run_chaos(&setup.chaos);
    let sweep_reports: Vec<CrashPointReport> = run_sweeps(jobs, &setup.sweeps)
        .into_iter()
        .map(|(report, _, _)| report)
        .collect();
    let work_s = start.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    let mut notes = Vec::new();
    let failed = check(&chaos, &sweep_reports, &mut digest, &mut notes);
    let scenarios = (chaos.runs + sweep_reports.len()) as u64;
    Round {
        work_s,
        items: scenarios,
        op_ms: vec![work_s * 1e3],
        attempted: scenarios,
        failed,
        digest,
        extra: vec![
            ("faults_injected", chaos.faults_injected as f64),
            ("server_crashes", chaos.server_crashes as f64),
        ],
        notes,
    }
}
