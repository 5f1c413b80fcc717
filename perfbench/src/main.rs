//! The BatteryLab benchmark: four workloads through the platform's
//! public API, each measured for a fixed host-time budget in its own
//! process, with output checks and a digest of the simulated results.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the named workload;
//! `--trace 1` runs every workload once traced and once untraced and
//! prints the per-layer metrics. The last line of standard output is
//! the result object; the lines before it are `#`-prefixed details.

mod campaign;
mod faults;
mod paper_eval;
mod session;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use util::{median, nproc, peak_rss_mb, quantile, reset_peak_rss, timed, Digest};

/// What one round of a workload produced.
pub struct Round {
    /// Host seconds of the measured work.
    pub work_s: f64,
    /// Work items completed: jobs, samples, scenarios or evaluations.
    pub items: u64,
    /// Host milliseconds of each user-visible operation in the round.
    pub op_ms: Vec<f64>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Digest of the simulated (virtual-time) results.
    pub digest: Digest,
    /// Workload-specific figures, reported as medians over rounds.
    pub extra: Vec<(&'static str, f64)>,
    /// What failed, for the report.
    pub notes: Vec<String>,
}

impl Round {
    /// The workload-specific figure `key` (`NaN` if the round has none).
    pub fn extra(&self, key: &str) -> f64 {
        self.extra
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Campaign,
    Session,
    Faults,
    PaperEval,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign" => Some(Workload::Campaign),
            "session" => Some(Workload::Session),
            "faults" => Some(Workload::Faults),
            "paper_eval" => Some(Workload::PaperEval),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Session => "session",
            Workload::Faults => "faults",
            Workload::PaperEval => "paper_eval",
        }
    }
}

/// Workload sizes. `tiny` is for the smoke test only.
pub struct Params {
    pub campaign_jobs: usize,
    pub session_s: u64,
    pub chaos_runs: usize,
    pub sweeps: usize,
    pub eval_seeds: usize,
    pub eval_quick: bool,
    /// Worker threads for the `par` pool.
    pub jobs: usize,
}

impl Params {
    fn new(tiny: bool) -> Params {
        let jobs = nproc();
        if tiny {
            Params {
                campaign_jobs: 12,
                session_s: 10,
                chaos_runs: 1,
                sweeps: 1,
                eval_seeds: 1,
                eval_quick: true,
                jobs,
            }
        } else {
            Params {
                campaign_jobs: 2000,
                session_s: 3600,
                chaos_runs: 32,
                sweeps: 32,
                eval_seeds: 4,
                eval_quick: false,
                jobs,
            }
        }
    }
}

/// Set-up is timed this many times after the warm-up round, apart from
/// the measured rounds; the median is reported.
const SETUPS: usize = 51;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage() -> String {
    "usage: perfbench --workload campaign|session|faults|paper_eval \
     [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2019u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(format!("bad size {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
    })
}

fn round(w: Workload, seed: u64, p: &Params) -> Round {
    match w {
        Workload::Campaign => campaign::round(seed, p.campaign_jobs).0,
        Workload::Session => session::round(seed, p.session_s),
        Workload::Faults => faults::round(seed, p.chaos_runs, p.sweeps, p.jobs),
        Workload::PaperEval => paper_eval::round(seed, p.eval_seeds, p.eval_quick, p.jobs),
    }
}

/// Time one set-up of `w` on its own (the result is dropped untimed).
fn setup_only(w: Workload, seed: u64, p: &Params) -> f64 {
    match w {
        Workload::Campaign => timed(|| campaign::setup(seed, p.campaign_jobs)).1,
        Workload::Session => timed(|| session::setup(seed)).1,
        Workload::Faults => timed(|| faults::setup(seed, p.chaos_runs, p.sweeps, p.jobs)).1,
        Workload::PaperEval => {
            timed(|| paper_eval::setup(seed, p.eval_seeds, p.eval_quick, p.jobs)).1
        }
    }
}

/// `nproc`, git revision, `rustc -V` and build profile.
fn environment() -> serde_json::Value {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    serde_json::json!({
        "nproc": nproc(),
        "git_revision": command("git", &["rev-parse", "HEAD"]),
        "rustc": command("rustc", &["-V"]),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
    })
}

/// One metric as the result object carries it. Non-finite values are
/// not JSON numbers; they are printed as `null` and fail the run.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let correct = correct && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| metric_json(n, *v, u))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn measure(args: &Args, p: &Params) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let w = args.workload;
    let mut notes = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    if w == Workload::PaperEval {
        let config = &paper_eval::configs(args.seed, 1, p.eval_quick, p.jobs)[0];
        attempted += 1;
        if let Some(e) = paper_eval::check_jobs_invariance(config, p.jobs) {
            failed += 1;
            notes.push(e);
        }
    }

    // Warm-up: caches fill and lazy set-up finishes; checked, not timed.
    let warm = round(w, args.seed, p);
    let digest = warm.digest;
    attempted += warm.attempted;
    failed += warm.failed;
    notes.extend(warm.notes);

    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_only(w, args.seed, p)).collect();

    // Peak RSS per round: `VmHWM` is reset before each one where the
    // kernel allows it; otherwise the process-wide peak is reported.
    let mut round_rss = Vec::new();
    let mut rss_per_round = true;
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        rss_per_round &= reset_peak_rss();
        let r = round(w, args.seed, p);
        round_rss.push(peak_rss_mb());
        attempted += r.attempted;
        failed += r.failed;
        if r.digest != digest {
            attempted += 1;
            failed += 1;
            notes.push(format!(
                "digest {} differs from the first round's {}",
                r.digest.hex(),
                digest.hex()
            ));
        }
        notes.extend(r.notes.iter().cloned());
        rounds.push(r);
    }

    let work_s: f64 = rounds.iter().map(|r| r.work_s).sum();
    let items: u64 = rounds.iter().map(|r| r.items).sum();
    let op_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .collect();
    let extra = |key: &str| median(&rounds.iter().map(|r| r.extra(key)).collect::<Vec<_>>());
    let setup_s = median(&setups);
    let throughput = items as f64 / work_s;
    let latency_ms = median(&op_ms);
    let process_rss = peak_rss_mb();
    let rss = if rss_per_round {
        median(&round_rss)
    } else {
        process_rss
    };
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let mut detail = serde_json::json!({
        "workload": w.name(),
        "seed": args.seed,
        "rounds": rounds.len(),
        "digest": digest.hex(),
        "setup_s": setup_s,
        "setup_samples": setups.len(),
        "op_ms_quartiles": [quantile(&op_ms, 0.25), latency_ms, quantile(&op_ms, 0.75)],
        "op_samples": op_ms.len(),
        "peak_rss_mb": rss,
        "rss_per_round": rss_per_round,
        "process_peak_rss_mb": process_rss,
        "work_s": work_s,
        "items": items,
        "error_rate": error_rate,
        "environment": environment(),
    });
    match w {
        Workload::Campaign => {
            detail["jobs_per_s"] = serde_json::json!(throughput);
            detail["job_us_p50"] = serde_json::json!(latency_ms * 1e3);
            detail["job_us_p99"] = serde_json::json!(quantile(&op_ms, 0.99) * 1e3);
            detail["job_us_samples"] = serde_json::json!(op_ms.len());
            detail["wal_bytes_per_job"] = serde_json::json!(extra("wal_bytes_per_job"));
            detail["recover_s"] = serde_json::json!(extra("recover_s"));
            detail["logcat_bytes_last"] = serde_json::json!(extra("logcat_bytes_last"));
        }
        Workload::Session => {
            detail["samples_per_s"] = serde_json::json!(throughput);
            detail["mah"] = serde_json::json!(extra("mah"));
        }
        Workload::Faults => {
            detail["scenarios_per_s"] = serde_json::json!(throughput);
            detail["faults_injected"] = serde_json::json!(extra("faults_injected"));
            detail["server_crashes"] = serde_json::json!(extra("server_crashes"));
        }
        Workload::PaperEval => {
            detail["eval_s"] = serde_json::json!(latency_ms / 1e3);
        }
    }
    if !notes.is_empty() {
        notes.truncate(20);
        detail["failures"] = serde_json::json!(notes);
    }
    println!("# {detail}");

    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ("throughput_per_s".to_string(), throughput, "1/s"),
        ("latency_ms_p50".to_string(), latency_ms, "ms"),
        ("peak_rss_mb".to_string(), rss, "MB"),
    ];
    (failed == 0, attempted, failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let p = Params::new(args.tiny);
    util::cap_arenas(p.jobs);
    if args.trace {
        let out = trace::run(args.seed, &p);
        let mut detail = serde_json::json!({
            "trace": true,
            "seed": args.seed,
            "spans_file": out.spans_file,
            "environment": environment(),
        });
        if !out.notes.is_empty() {
            detail["failures"] = serde_json::json!(out.notes);
        }
        println!("# {detail}");
        print_result(out.failed == 0, out.attempted, out.failed, &out.metrics);
    } else {
        let (correct, attempted, failed, metrics) = measure(&args, &p);
        print_result(correct, attempted, failed, &metrics);
    }
    ExitCode::SUCCESS
}
