//! The traced run. Spans are recorded in memory by the benchmark around
//! its own calls into each layer's public functions (nothing inside the
//! program is instrumented), written out when the run ends, and reduced
//! to per-layer metrics: call times, counts read from reports and the
//! WAL, each layer's self time, and the tracing overhead against an
//! untraced round of the same workload at the same seed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use batterylab::adb::TransportKind;
use batterylab::automation::{AdbBackend, AutomationBackend};
use batterylab::chaos::run_chaos;
use batterylab::power::{Monsoon, SocketState, MONSOON_RATE_HZ};
use batterylab::server::{
    AccessServer, Artifact, BuildRecord, BuildState, ChargeRecord, Constraints, ExperimentSpec,
    JobId, Payload, WalRecord,
};
use batterylab::sim::{SimDuration, SimRng};
use batterylab::telemetry::Registry;
use batterylab::Platform;

use crate::campaign::{self, JobResult};
use crate::util::{median, peak_rss_mb, quantile, Digest};
use crate::{faults, paper_eval, session, Params};

/// One recorded span.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    /// Shared by every span of one job (0 outside jobs).
    job: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: u64) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, `idx`.
    pub fn end(&mut self, idx: usize) {
        let open = self.stack.pop();
        assert_eq!(open, Some(idx), "spans close innermost first");
        self.spans[idx].end = Instant::now();
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name, job);
        let out = f();
        self.end(idx);
        out
    }

    /// Add a span timed elsewhere (on a pool worker) under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied(),
            job,
        });
    }

    fn micros(span: &Span) -> f64 {
        (span.end - span.start).as_secs_f64() * 1e6
    }

    /// Durations (µs) of every span called `name`, in recording order.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::micros)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`.
    fn p50_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Self time per layer (the span name up to its first `.`), ms: each
    /// span's duration minus the union of its children's intervals.
    fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort();
            let mut covered = 0.0;
            let mut cur: Option<(Instant, Instant)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += (cb - ca).as_secs_f64();
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += (cb - ca).as_secs_f64();
            }
            let own = ((s.end - s.start).as_secs_f64() - covered).max(0.0);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) += own * 1e3;
        }
        by_layer
    }

    /// Write every span as one JSON line (`ns` offsets from the start of
    /// the traced run).
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name,
                (s.start - self.origin).as_nanos(),
                (s.end - self.origin).as_nanos(),
                s.job
            )?;
        }
        out.flush()
    }
}

/// Span-name prefixes: the crates the spans time, plus `bench` for the
/// benchmark's own code between them.
const LAYERS: [&str; 14] = [
    "adb",
    "automation",
    "bench",
    "controller",
    "core",
    "device",
    "durable",
    "eval",
    "mirror",
    "net",
    "power",
    "server",
    "stats",
    "telemetry",
];

/// Per-layer metrics in emission order: `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Outcome of the traced run.
pub struct TraceOutcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub spans_file: String,
}

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_string(), value, unit));
}

/// Attempts, failures and their descriptions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn round(&mut self, r: &crate::Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.notes.extend(r.notes.iter().cloned());
    }

    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }
}

/// Run every workload once traced (session first, so its memory
/// readings are not masked by the campaign's) and once untraced.
pub fn run(seed: u64, p: &Params) -> TraceOutcome {
    let mut tr = Tracer::new();
    let mut m = Metrics::new();
    let mut t = Tally::default();

    let (traced_s, mah) = trace_session(&mut tr, &mut m, seed, p);
    let untraced = session::round(seed, p.session_s);
    t.round(&untraced);
    let untraced_mah = untraced.extra("mah");
    t.check(mah.to_bits() == untraced_mah.to_bits(), || {
        format!("traced session mAh {mah} differs from untraced {untraced_mah}")
    });
    put(
        &mut m,
        "trace.session_overhead_s",
        traced_s - untraced.work_s,
        "s",
    );

    let (traced_s, digest) = trace_faults(&mut tr, &mut m, seed, p);
    let untraced = faults::round(seed, p.chaos_runs, p.sweeps, p.jobs);
    t.round(&untraced);
    t.check(digest == untraced.digest, || {
        "traced fault scenarios differ from untraced".to_string()
    });
    put(
        &mut m,
        "trace.faults_overhead_s",
        traced_s - untraced.work_s,
        "s",
    );

    let (traced_s, digest) = trace_eval(&mut tr, &mut m, seed, p);
    let untraced = paper_eval::round(seed, p.eval_seeds, p.eval_quick, p.jobs);
    t.round(&untraced);
    t.check(digest == untraced.digest, || {
        "traced evaluation outputs differ from untraced".to_string()
    });
    put(
        &mut m,
        "trace.paper_eval_overhead_s",
        traced_s - untraced.work_s,
        "s",
    );

    let (traced_s, traced_jobs) = trace_campaign(&mut tr, &mut m, &mut t, seed, p);
    let (untraced, untraced_jobs) = campaign::round(seed, p.campaign_jobs);
    t.round(&untraced);
    let divergent = diverging_jobs(&traced_jobs, &untraced_jobs, &mut t.notes);
    t.attempted += traced_jobs.len() as u64;
    t.failed += divergent;
    put(&mut m, "trace.divergent_jobs", divergent as f64, "count");
    put(
        &mut m,
        "trace.campaign_overhead_s",
        traced_s - untraced.work_s,
        "s",
    );

    let self_ms = tr.self_ms_by_layer();
    for layer in LAYERS {
        let ms = self_ms.get(layer).copied().unwrap_or(0.0);
        put(&mut m, &format!("self.{layer}_ms"), ms, "ms");
    }
    put(&mut m, "trace.spans", tr.spans.len() as f64, "count");

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-seed{seed}.jsonl"));
    let written = tr.write_jsonl(&path);
    t.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    TraceOutcome {
        metrics: m,
        attempted: t.attempted,
        failed: t.failed,
        notes: t.notes,
        spans_file: path.display().to_string(),
    }
}

/// Jobs whose traced mAh or logcat size differ from the untraced run's
/// build summaries; each is reported in `notes`.
fn diverging_jobs(traced: &[JobResult], untraced: &[JobResult], notes: &mut Vec<String>) -> u64 {
    if traced.len() != untraced.len() {
        notes.push(format!(
            "traced campaign ran {} jobs, untraced {}",
            traced.len(),
            untraced.len()
        ));
    }
    let mut divergent = 0;
    for (i, (t, u)) in traced.iter().zip(untraced).enumerate() {
        if t.mah.to_bits() != u.mah.to_bits() || t.logcat_bytes != u.logcat_bytes {
            divergent += 1;
            if divergent <= 5 {
                notes.push(format!("job {i}: traced {t:?}, untraced {u:?}"));
            }
        }
    }
    divergent + traced.len().abs_diff(untraced.len()) as u64
}

/// The session path with a span per call, plus a direct sampler probe
/// over the device. Returns the traced start-monitor-to-CDF host
/// seconds (probe excluded) and the session's mAh.
fn trace_session(tr: &mut Tracer, m: &mut Metrics, seed: u64, p: &Params) -> (f64, f64) {
    let mut platform = tr.span("bench.setup", 0, || Platform::paper_testbed(seed));
    let serial = platform.j7_serial().to_string();
    let vp = platform.node1();
    tr.span("controller.arm", 0, || {
        vp.power_monitor().expect("meter socket powers on");
        vp.set_voltage(4.0).expect("4 V is in range");
        vp.batt_switch(&serial).expect("bypass engages");
    });
    tr.span("mirror.start", 0, || vp.device_mirroring(&serial))
        .expect("mirroring starts");

    let start = Instant::now();
    tr.span("controller.start_monitor", 0, || vp.start_monitor(&serial))
        .expect("monitor arms");
    let device = vp.device_handle(&serial).expect("device attached");
    let from = device.with_sim(|s| s.now());
    tr.span("device.play_video", 0, || {
        device.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(p.session_s));
        })
    });
    put(
        m,
        "device.play_video_us",
        tr.p50_us("device.play_video"),
        "us",
    );
    put(m, "device.rss_mb", peak_rss_mb(), "MB");

    // Direct sampler probe: the device itself as the meter's load.
    let probe = Instant::now();
    let mut meter = Monsoon::new(SimRng::new(seed).derive("perfbench/probe"));
    meter.set_powered(true);
    meter.set_voltage(4.0).expect("4 V is in range");
    meter.enable_vout().expect("powered meter enables Vout");
    let run = tr.span("power.sample_run", 0, || {
        meter.sample_run_at_rate(&device, from, p.session_s as f64, MONSOON_RATE_HZ)
    });
    let run_us = tr.p50_us("power.sample_run");
    let samples = run.map(|r| r.samples.len()).unwrap_or(0) as f64;
    put(m, "power.sample_run_us", run_us, "us");
    put(m, "power.samples_per_s", samples / (run_us / 1e6), "1/s");
    put(m, "power.samples", samples, "count");
    put(m, "power.rss_mb", peak_rss_mb(), "MB");
    let probe_s = probe.elapsed().as_secs_f64();

    let report = tr
        .span("controller.stop_monitor", 0, || {
            vp.stop_monitor_at_rate(MONSOON_RATE_HZ)
        })
        .expect("session report");
    let mah = tr.span("power.mah", 0, || report.mah());
    let cdf = tr.span("stats.cdf", 0, || report.cdf());
    std::hint::black_box(cdf.median());
    let traced_s = start.elapsed().as_secs_f64() - probe_s;
    put(m, "stats.cdf_us", tr.p50_us("stats.cdf"), "us");
    put(m, "stats.rss_mb", peak_rss_mb(), "MB");
    (traced_s, mah)
}

/// The fault round with a span per soak and per sweep. Returns the
/// traced round's host seconds and the reports' digest.
fn trace_faults(tr: &mut Tracer, m: &mut Metrics, seed: u64, p: &Params) -> (f64, Digest) {
    let setup = tr.span("bench.setup", 0, || {
        faults::setup(seed, p.chaos_runs, p.sweeps, p.jobs)
    });
    let start = Instant::now();
    let chaos = tr.span("core.chaos", 0, || run_chaos(&setup.chaos));
    let pool = tr.begin("core.sweep_pool", 0);
    let sweeps = faults::run_sweeps(p.jobs, &setup.sweeps);
    for (i, (_, s, e)) in sweeps.iter().enumerate() {
        tr.record("core.crashpoint", i as u64 + 1, *s, *e);
    }
    tr.end(pool);
    let traced_s = start.elapsed().as_secs_f64();

    let retries = chaos.report.counter("scheduler.retries") as f64;
    let done = (chaos.jobs_succeeded + chaos.jobs_failed) as f64;
    put(m, "core.chaos_us", tr.p50_us("core.chaos"), "us");
    put(m, "core.crashpoint_us", tr.p50_us("core.crashpoint"), "us");
    put(m, "faults.injected", chaos.faults_injected as f64, "count");
    put(
        m,
        "core.server_crashes",
        chaos.server_crashes as f64,
        "count",
    );
    let prefixes: u64 = sweeps.iter().map(|(r, _, _)| r.prefixes_checked).sum();
    put(m, "core.prefixes_checked", prefixes as f64, "count");
    put(m, "scheduler.retries", retries, "count");
    put(
        m,
        "scheduler.useful_ratio",
        chaos.jobs_succeeded as f64 / (done + retries).max(1.0),
        "ratio",
    );
    let reports: Vec<_> = sweeps.into_iter().map(|(r, _, _)| r).collect();
    let mut digest = Digest::default();
    faults::check(&chaos, &reports, &mut digest, &mut Vec::new());
    (traced_s, digest)
}

fn eval_span(target: &str) -> &'static str {
    match target {
        "fig2" => "eval.fig2",
        "fig3" => "eval.fig3",
        "fig4" => "eval.fig4",
        "fig5" => "eval.fig5",
        "table2" => "eval.table2",
        "fig6" => "eval.fig6",
        _ => "eval.sysperf",
    }
}

/// The evaluation round with a span per target. Returns the traced
/// host seconds and the outputs' digest.
fn trace_eval(tr: &mut Tracer, m: &mut Metrics, seed: u64, p: &Params) -> (f64, Digest) {
    let configs = tr.span("bench.setup", 0, || {
        paper_eval::setup(seed, p.eval_seeds, p.eval_quick, p.jobs)
    });
    let mut digest = Digest::default();
    let start = Instant::now();
    for config in &configs {
        for target in paper_eval::TARGETS {
            let out = tr.span(eval_span(target), 0, || {
                paper_eval::run_target(target, config)
            });
            digest.str(target);
            digest.str(&out);
        }
    }
    let traced_s = start.elapsed().as_secs_f64();
    for target in paper_eval::TARGETS {
        let name = eval_span(target);
        put(m, &format!("{name}_ms"), tr.p50_us(name) / 1e3, "ms");
    }
    (traced_s, digest)
}

/// Leave the bench safe after a job, as the platform does: meter off
/// (`power_monitor` toggles, so an `On` reply means it was off).
fn safety_off(vp: &mut batterylab::controller::VantagePoint) {
    if matches!(vp.power_monitor(), Ok(SocketState::On)) {
        let _ = vp.power_monitor();
    }
}

/// Run one measured job through the public steps the platform's
/// experiment runner takes, a span per step. Returns the build summary
/// and artifacts.
fn traced_job(
    tr: &mut Tracer,
    vp: &mut batterylab::controller::VantagePoint,
    spec: &ExperimentSpec,
    job: u64,
) -> Result<(serde_json::Value, Vec<Artifact>, batterylab::sim::SimTime), String> {
    let ctl = |e: batterylab::controller::ControllerError| format!("controller: {e}");
    let dev = spec.device.as_str();
    match spec.vpn {
        Some(loc) => tr
            .span("net.vpn_connect", job, || vp.connect_vpn(loc))
            .map_err(ctl)?,
        None if vp.vpn_location().is_some() => tr
            .span("net.vpn_disconnect", job, || vp.disconnect_vpn())
            .map_err(ctl)?,
        None => {}
    }
    tr.span("controller.arm", job, || {
        if !matches!(vp.power_monitor(), Ok(SocketState::On)) {
            vp.power_monitor()?;
        }
        vp.set_voltage(4.0)?;
        vp.batt_switch(dev).map(|_| ())
    })
    .map_err(ctl)?;
    if spec.mirroring && !vp.is_mirroring(dev) {
        tr.span("mirror.start", job, || vp.device_mirroring(dev))
            .map_err(ctl)?;
    }
    tr.span("controller.start_monitor", job, || vp.start_monitor(dev))
        .map_err(ctl)?;
    let device = vp.device_handle(dev).map_err(ctl)?;
    let key = vp.adb_key().clone();
    tr.span("automation.run_script", job, || {
        let mut backend = AdbBackend::connect(device, TransportKind::WiFi, key)?;
        backend.run_script(&spec.script)
    })
    .map_err(|e| format!("automation: {e}"))?;

    let mut summary = serde_json::json!({
        "job": spec.script.name,
        "device": spec.device,
        "mirroring": spec.mirroring,
        "vpn": spec.vpn.map(|l| l.country().to_string()),
    });
    if spec.mirroring {
        tr.span("mirror.pump", job, || vp.pump_mirrors())
            .map_err(ctl)?;
        summary["mirror_upload_bytes"] = serde_json::json!(vp.mirror_upload_bytes());
    }
    let report = tr
        .span("controller.stop_monitor", job, || {
            vp.stop_monitor_at_rate(spec.sample_rate_hz)
        })
        .map_err(ctl)?;
    summary["discharge_mah"] = serde_json::json!(report.mah());
    summary["mean_ma"] = serde_json::json!(report.mean_ma());
    summary["duration_s"] = serde_json::json!((report.window.1 - report.window.0).as_secs_f64());
    let mut artifacts = vec![Artifact {
        name: "power_summary.json".to_string(),
        content: serde_json::json!({
            "voltage_v": report.voltage_v,
            "rate_hz": report.rate_hz,
            "samples": report.samples.len(),
            "mean_ma": report.mean_ma(),
            "mah": report.mah(),
        })
        .to_string(),
    }];
    tr.span("controller.batt_release", job, || vp.batt_switch(dev))
        .map_err(ctl)?;
    let logcat = tr
        .span("adb.logcat", job, || vp.execute_adb(dev, "logcat -d"))
        .map_err(ctl)?;
    artifacts.push(Artifact {
        name: "logcat.txt".to_string(),
        content: logcat,
    });
    if spec.mirroring && vp.is_mirroring(dev) {
        tr.span("mirror.stop", job, || vp.device_mirroring(dev))
            .map_err(ctl)?;
    }
    if vp.vpn_location().is_some() {
        tr.span("net.vpn_disconnect", job, || vp.disconnect_vpn())
            .map_err(ctl)?;
    }
    Ok((summary, artifacts, report.window.1))
}

/// The campaign driven job by job through the same public steps a
/// dispatcher tick takes, with the server's bookkeeping (WAL commit,
/// charge) done through its public record and ledger types. Returns the
/// traced submit-through-last-job host seconds and per-job results.
fn trace_campaign(
    tr: &mut Tracer,
    m: &mut Metrics,
    t: &mut Tally,
    seed: u64,
    p: &Params,
) -> (f64, Vec<JobResult>) {
    let campaign::Setup {
        mut platform,
        wal,
        jobs,
    } = tr.span("bench.setup", 0, || campaign::setup(seed, p.campaign_jobs));
    let token = platform.experimenter_token;
    let start = Instant::now();
    let mut submitted: Vec<(JobId, String, ExperimentSpec)> = Vec::with_capacity(jobs.len());
    for (name, spec) in jobs {
        let id = tr.span("server.submit", 0, || {
            platform.server.submit_job(
                token,
                &name,
                Constraints::default(),
                Payload::Experiment(spec.clone()),
            )
        });
        match id {
            Ok(id) => submitted.push((id, name, spec)),
            Err(e) => t.check(false, || format!("traced submit {name}: {e}")),
        }
    }

    let mut builds = Vec::with_capacity(submitted.len());
    let mut record_bytes = Vec::with_capacity(submitted.len());
    for (id, name, spec) in submitted {
        let job = id.0;
        let root = tr.begin("bench.job", job);
        let vp = platform.server.node_mut("node1").expect("node1 enrolled");
        let outcome = traced_job(tr, vp, &spec, job);
        tr.span("controller.safety_off", job, || safety_off(vp));
        let (state, summary, artifacts, finished_at) = match outcome {
            Ok((summary, artifacts, at)) => {
                (BuildState::Succeeded, Some(summary), artifacts, Some(at))
            }
            Err(e) => (BuildState::Failed(e), None, Vec::new(), None),
        };
        let secs = summary
            .as_ref()
            .and_then(|s| s["duration_s"].as_f64())
            .unwrap_or(0.0);
        let build = BuildRecord {
            id,
            name: name.clone(),
            owner: "alice".to_string(),
            node: Some("node1".to_string()),
            state,
            summary,
            artifacts,
            finished_at,
        };
        let charge = (secs > 0.0).then(|| ChargeRecord {
            user: "alice".to_string(),
            job: name.clone(),
            device_time: SimDuration::from_secs_f64(secs),
        });
        let record = tr.span("server.wal_encode", job, || {
            WalRecord::Completed {
                record: build.clone(),
                charge: charge.clone(),
            }
            .encode()
        });
        record_bytes.push(record.len() as f64);
        tr.span("durable.wal_append", job, || wal.append(&record));
        if let (Some(ledger), Some(c)) = (platform.server.ledger_mut(), charge) {
            let _ = tr.span("server.credits_charge", job, || {
                ledger.charge_experiment(&c.user, &c.job, c.device_time)
            });
        }
        tr.end(root);
        builds.push(build);
    }
    let traced_s = start.elapsed().as_secs_f64();

    let report = platform.metrics();
    tr.span("telemetry.snapshot", 0, || platform.metrics().to_json());
    let (payloads, _) = tr.span("durable.replay", 0, || wal.replay());
    let mut decode_us = Vec::new();
    for payload in &payloads {
        let t = Instant::now();
        let decoded = WalRecord::decode(payload);
        if matches!(decoded, Ok(WalRecord::Completed { .. })) {
            decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let recovered = tr.span("server.recover", 0, || {
        AccessServer::recover(&wal, &Registry::new())
    });
    t.check(recovered.is_ok(), || {
        format!("recovering the traced WAL: {:?}", recovered.err())
    });

    let results = campaign::job_results(&builds);
    let logcat: Vec<f64> = results.iter().map(|r| r.logcat_bytes as f64).collect();
    let job_us = tr.durations_us("bench.job");
    let tenth = (job_us.len() / 10).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let growth = mean(&job_us[job_us.len().saturating_sub(tenth)..])
        / mean(&job_us[..tenth.min(job_us.len())]);

    put(m, "controller.arm_us", tr.p50_us("controller.arm"), "us");
    put(
        m,
        "controller.start_monitor_us",
        tr.p50_us("controller.start_monitor"),
        "us",
    );
    put(
        m,
        "controller.stop_monitor_us",
        tr.p50_us("controller.stop_monitor"),
        "us",
    );
    put(
        m,
        "automation.run_script_us",
        tr.p50_us("automation.run_script"),
        "us",
    );
    put(m, "adb.logcat_us", tr.p50_us("adb.logcat"), "us");
    put(
        m,
        "adb.frames_tx",
        report.counter("adb.frames_tx") as f64,
        "count",
    );
    put(
        m,
        "adb.bytes_rx",
        report.counter("adb.bytes_rx") as f64,
        "B",
    );
    put(m, "device.logcat_bytes_p50", median(&logcat), "B");
    put(
        m,
        "device.logcat_bytes_last",
        logcat.last().copied().unwrap_or(0.0),
        "B",
    );
    put(m, "mirror.pump_us", tr.p50_us("mirror.pump"), "us");
    put(
        m,
        "mirror.encoded_bytes",
        report.counter("mirror.encoded_bytes") as f64,
        "B",
    );
    put(
        m,
        "relay.actuations",
        report.counter("relay.actuations") as f64,
        "count",
    );
    put(
        m,
        "net.vpn_switches",
        report.counter("node1.controller.vpn_switches") as f64,
        "count",
    );
    put(m, "server.submit_us", tr.p50_us("server.submit"), "us");
    put(
        m,
        "server.wal_encode_us",
        tr.p50_us("server.wal_encode"),
        "us",
    );
    put(m, "server.wal_record_bytes_p50", median(&record_bytes), "B");
    put(
        m,
        "server.wal_record_bytes_max",
        quantile(&record_bytes, 1.0),
        "B",
    );
    put(
        m,
        "server.credits_charge_us",
        tr.p50_us("server.credits_charge"),
        "us",
    );
    put(m, "server.wal_decode_us", median(&decode_us), "us");
    put(
        m,
        "server.recover_self_us",
        tr.p50_us("server.recover"),
        "us",
    );
    put(m, "server.tick_growth", growth, "ratio");
    put(
        m,
        "durable.wal_append_us",
        tr.p50_us("durable.wal_append"),
        "us",
    );
    put(m, "durable.wal_records", wal.record_count() as f64, "count");
    put(m, "durable.wal_bytes", wal.durable_len() as f64, "B");
    put(m, "durable.replay_us", tr.p50_us("durable.replay"), "us");
    put(
        m,
        "telemetry.snapshot_us",
        tr.p50_us("telemetry.snapshot"),
        "us",
    );
    (traced_s, results)
}
