//! `paper_eval`: the full (paper-scale) evaluation — every figure and
//! table runner — at `jobs = nproc`, over a few consecutive seeds.

use std::time::Instant;

use batterylab::eval::{export, fig2, fig3, fig4, fig5, fig6, sysperf, table2, EvalConfig};
use batterylab::Platform;

use crate::util::Digest;
use crate::Round;

/// The evaluation targets, in the order `eval all` runs them.
pub const TARGETS: [&str; 7] = ["fig2", "fig3", "fig4", "fig5", "table2", "fig6", "sysperf"];

/// Run one target and return its exported output (the CSV/JSON the
/// `eval` binary writes; `render()` for `sysperf`, which exports none).
pub fn run_target(target: &str, config: &EvalConfig) -> String {
    match target {
        "fig2" => export::cdf_series_csv(&export::fig2_series(&fig2::run(config))),
        "fig3" => {
            let f = fig3::run(config);
            export::bars_csv(&export::fig3_bars(&f)) + &f.metrics.to_json()
        }
        "fig4" => export::cdf_series_csv(&export::fig4_series(&fig4::run(config))),
        "fig5" => export::cdf_series_csv(&export::fig5_series(&fig5::run(config))),
        "table2" => serde_json::to_string(&export::table2_rows(&table2::run(config)))
            .expect("table rows serialise"),
        "fig6" => export::bars_csv(&export::fig6_bars(&fig6::run(config))),
        "sysperf" => sysperf::run(config).render(),
        other => unreachable!("unknown evaluation target {other}"),
    }
}

/// The configurations of one round: paper scale (or the quick one when
/// `quick`), one per seed, at `jobs` workers.
pub fn configs(seed: u64, seeds: usize, quick: bool, jobs: usize) -> Vec<EvalConfig> {
    (0..seeds as u64)
        .map(|i| {
            let seed = seed.wrapping_add(i);
            let config = if quick {
                EvalConfig::quick(seed)
            } else {
                EvalConfig {
                    seed,
                    ..EvalConfig::default()
                }
            };
            config.with_jobs(jobs)
        })
        .collect()
}

/// Set-up: the evaluation configurations, their site lists and one
/// paper testbed of the kind every runner assembles.
pub fn setup(seed: u64, seeds: usize, quick: bool, jobs: usize) -> Vec<EvalConfig> {
    std::hint::black_box(Platform::paper_testbed(seed));
    let configs = configs(seed, seeds, quick, jobs);
    for c in &configs {
        std::hint::black_box(c.site_list());
    }
    configs
}

/// `platform_metrics.json` (fig3's merged telemetry) is byte-identical
/// serial and across the pool. Run once per process, outside the timed
/// rounds; returns the failure, if any.
pub fn check_jobs_invariance(config: &EvalConfig, jobs: usize) -> Option<String> {
    let serial = fig3::run(&config.clone().with_jobs(1)).metrics.to_json();
    let pooled = fig3::run(&config.clone().with_jobs(jobs)).metrics.to_json();
    (serial != pooled).then(|| format!("platform_metrics differs between jobs=1 and jobs={jobs}"))
}

/// One measured round: a full evaluation per seed. `op_ms` holds the
/// round's mean host time per full evaluation.
pub fn round(seed: u64, seeds: usize, quick: bool, jobs: usize) -> Round {
    let configs = setup(seed, seeds, quick, jobs);
    let mut digest = Digest::default();
    let mut notes = Vec::new();
    let start = Instant::now();
    let outputs: Vec<Vec<String>> = configs
        .iter()
        .map(|config| TARGETS.iter().map(|t| run_target(t, config)).collect())
        .collect();
    let work_s = start.elapsed().as_secs_f64();
    for (config, outputs) in configs.iter().zip(&outputs) {
        for (target, out) in TARGETS.iter().zip(outputs) {
            if out.trim().is_empty() {
                notes.push(format!("seed {}: {target} returned nothing", config.seed));
            }
            digest.str(target);
            digest.str(out);
        }
    }
    Round {
        work_s,
        items: configs.len() as u64,
        op_ms: vec![work_s * 1e3 / configs.len() as f64],
        attempted: (configs.len() * TARGETS.len()) as u64,
        failed: notes.len() as u64,
        digest,
        extra: Vec::new(),
        notes,
    }
}
