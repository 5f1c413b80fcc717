//! Monsoon HV power-monitor simulator.
//!
//! The Monsoon High Voltage Power Monitor supplies a programmable voltage
//! (0.8–13.5 V, up to 6 A continuous) and samples the delivered current at
//! 5 kHz. BatteryLab drives it through its Python API; this module is that
//! control surface over a simulated instrument, with the imperfections a
//! real meter has: calibration gain/offset error, ADC quantisation and a
//! noise floor.
//!
//! The controller toggles the instrument's mains power through a WiFi
//! power socket (see [`crate::socket`]) — the paper keeps the meter off
//! when idle "for safety reasons".

use std::ops::Range;

use batterylab_durable::{CheckpointStream, GapReport};
use batterylab_faults::{FaultInjector, FaultKind};
use batterylab_sim::{SimRng, SimTime, TimeSeries};
use batterylab_stats::{EnergyAccumulator, SampleCounts};
use batterylab_telemetry::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::source::{CurrentSource, Segment};

/// Native sampling rate of the Monsoon HV, Hz.
pub const MONSOON_RATE_HZ: f64 = 5000.0;
/// Samples generated per chunk in the sampling loop. Chunking amortises
/// the telemetry counter RMW, the histogram update and the sink call
/// into one operation per chunk.
const SAMPLE_CHUNK: usize = 1024;
/// Sample instants per request for the load's segments: a run of any
/// length holds the segments of at most this many instants at once.
const SEGMENT_SPAN: u64 = 64 * 1024;
/// Programmable output voltage range, volts.
pub const VOLTAGE_RANGE: (f64, f64) = (0.8, 13.5);
/// Continuous current limit, mA.
pub const MAX_CONTINUOUS_MA: f64 = 6000.0;

/// Errors raised by the instrument.
#[derive(Clone, Debug, PartialEq)]
pub enum MonsoonError {
    /// Mains power is off (the WiFi socket has not enabled it).
    PoweredOff,
    /// Requested voltage is outside 0.8–13.5 V.
    VoltageOutOfRange(f64),
    /// Output current exceeded the 6 A continuous limit; the instrument
    /// tripped its protection during a run.
    OverCurrent {
        /// When the trip occurred.
        at: SimTime,
        /// The offending current, mA.
        current_ma: f64,
    },
    /// Operation requires Vout enabled.
    OutputDisabled,
    /// A checkpointed run's salvaged prefix failed verification (gap,
    /// overlap, corruption or plan mismatch) and was NOT integrated.
    Checkpoint(GapReport),
}

impl std::fmt::Display for MonsoonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonsoonError::PoweredOff => write!(f, "monsoon is powered off"),
            MonsoonError::VoltageOutOfRange(v) => {
                write!(f, "voltage {v} V outside {:?}", VOLTAGE_RANGE)
            }
            MonsoonError::OverCurrent { at, current_ma } => {
                write!(f, "over-current {current_ma:.0} mA at {at}")
            }
            MonsoonError::OutputDisabled => write!(f, "Vout is disabled"),
            MonsoonError::Checkpoint(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for MonsoonError {}

/// Result of a sampling run: by default the full timestamped trace, or
/// [`SampleCounts`] for a counting run
/// ([`Monsoon::sample_counts_at_rate`]).
#[derive(Clone, Debug)]
pub struct SampleRun<S = TimeSeries> {
    /// The current samples, mA.
    pub samples: S,
    /// Charge, energy and extremes, accumulated chunk by chunk in sample
    /// order; bit-identical whichever form `samples` takes.
    pub energy: EnergyAccumulator,
    /// Voltage the run was performed at.
    pub voltage_v: f64,
}

/// Calibration and noise characteristics of an individual instrument.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Calibration {
    /// Multiplicative gain error (1.0 = perfect).
    pub gain: f64,
    /// Additive offset, mA.
    pub offset_ma: f64,
    /// Gaussian noise floor, mA RMS per sample.
    pub noise_ma: f64,
    /// ADC step, mA (readings quantise to this).
    pub lsb_ma: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        // A healthy, factory-calibrated HV unit.
        Calibration {
            gain: 1.0005,
            offset_ma: 0.03,
            noise_ma: 0.25,
            lsb_ma: 0.02,
        }
    }
}

impl Calibration {
    /// The reading of a true draw of `true_ma` under the standard-normal
    /// noise draw `z`: gain and offset error plus the noise floor, ADC
    /// quantisation, then a clamp at zero — currents cannot read negative
    /// on the HV's unidirectional main channel.
    pub(crate) fn reading(&self, true_ma: f64, z: f64) -> f64 {
        let noisy = true_ma * self.gain + self.offset_ma + self.noise_ma * z;
        let quantised = (noisy / self.lsb_ma).round() * self.lsb_ma;
        // Not `max(0.0)`: for a reading that quantises to -0.0 it may
        // return either zero, and debug and release builds disagree.
        if quantised > 0.0 {
            quantised
        } else {
            0.0
        }
    }
}

/// Pre-resolved telemetry handles. Bound once at construction so the
/// 5 kHz sampling loop never touches the registry lock — each chunk
/// costs one counter add and one histogram update on top of the physics.
struct MonsoonTelemetry {
    registry: Registry,
    samples: Counter,
    runs: Counter,
    overcurrent_trips: Counter,
    sample_ua: Histogram,
    run_us: Histogram,
}

impl MonsoonTelemetry {
    fn bind(registry: &Registry) -> Self {
        MonsoonTelemetry {
            samples: registry.counter("power.samples"),
            runs: registry.counter("power.sample_runs"),
            overcurrent_trips: registry.counter("power.overcurrent_trips"),
            sample_ua: registry.histogram("power.sample_ua"),
            run_us: registry.histogram("power.run_us"),
            registry: registry.clone(),
        }
    }

    /// Count and journal a protection trip on a draw of `current_ma` at
    /// `at`; returns the error the run aborts with.
    fn overcurrent(&self, at: SimTime, current_ma: f64) -> MonsoonError {
        self.overcurrent_trips.inc();
        self.registry
            .event("power.overcurrent", format!("{current_ma:.0} mA at {at}"));
        MonsoonError::OverCurrent { at, current_ma }
    }
}

/// The simulated instrument.
pub struct Monsoon {
    powered: bool,
    vout_enabled: bool,
    voltage_v: f64,
    calibration: Calibration,
    rng: SimRng,
    total_samples: u64,
    telemetry: MonsoonTelemetry,
    /// Platform fault plan: brownout/over-current/sag specs at
    /// `fault_site` fire at the start of a sampling run.
    faults: FaultInjector,
    fault_site: String,
}

impl Monsoon {
    /// A powered-off instrument with default calibration. `rng` should be
    /// derived from the experiment seed (label `"monsoon"`).
    pub fn new(rng: SimRng) -> Self {
        Monsoon {
            powered: false,
            vout_enabled: false,
            voltage_v: 4.0,
            calibration: Calibration::default(),
            rng,
            total_samples: 0,
            telemetry: MonsoonTelemetry::bind(&Registry::new()),
            faults: FaultInjector::disabled(),
            fault_site: batterylab_faults::site::POWER_METER.to_string(),
        }
    }

    /// Replace the calibration (fault-injection tests use this).
    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.calibration = cal;
        self
    }

    /// Rebind telemetry to a shared registry (`power.*` metrics).
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.set_telemetry(registry);
        self
    }

    /// In-place variant of [`Self::with_telemetry`].
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = MonsoonTelemetry::bind(registry);
    }

    /// Consult `injector` at the start of every sampling run for
    /// `MeterBrownout`, `OverCurrent` and `VoltageSag` specs at `site`.
    pub fn set_faults(&mut self, injector: &FaultInjector, site: &str) {
        self.faults = injector.clone();
        self.fault_site = site.to_string();
    }

    /// Mains power state.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Apply/remove mains power (driven by the WiFi socket). Removing
    /// power drops Vout.
    pub fn set_powered(&mut self, on: bool) {
        self.powered = on;
        if !on {
            self.vout_enabled = false;
        }
    }

    /// Program the output voltage.
    pub fn set_voltage(&mut self, volts: f64) -> Result<(), MonsoonError> {
        if !self.powered {
            return Err(MonsoonError::PoweredOff);
        }
        if !(VOLTAGE_RANGE.0..=VOLTAGE_RANGE.1).contains(&volts) {
            return Err(MonsoonError::VoltageOutOfRange(volts));
        }
        self.voltage_v = volts;
        Ok(())
    }

    /// Programmed output voltage.
    pub fn voltage(&self) -> f64 {
        self.voltage_v
    }

    /// Enable the main output channel.
    pub fn enable_vout(&mut self) -> Result<(), MonsoonError> {
        if !self.powered {
            return Err(MonsoonError::PoweredOff);
        }
        self.vout_enabled = true;
        Ok(())
    }

    /// Disable the main output channel.
    pub fn disable_vout(&mut self) {
        self.vout_enabled = false;
    }

    /// Whether Vout is live.
    pub fn vout_enabled(&self) -> bool {
        self.vout_enabled
    }

    /// Lifetime sample count (diagnostics).
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Sample `load` at the native 5 kHz for `duration_s` seconds starting
    /// at `start`. Returns the full trace plus streaming aggregates.
    ///
    /// An over-current trips protection mid-run and aborts with an error,
    /// like the real instrument.
    pub fn sample_run(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
    ) -> Result<SampleRun, MonsoonError> {
        self.sample_run_at_rate(load, start, duration_s, MONSOON_RATE_HZ)
    }

    /// As [`Self::sample_run`] but at a caller-chosen rate, up to the
    /// native 5 kHz. The run keeps every sample; callers that only need
    /// the distribution take [`Self::sample_counts_at_rate`].
    ///
    /// The run goes through the segment-batched sampling loop (see
    /// [`Self::sample_window`]): the physics is evaluated once per
    /// constant segment of the load, with output bit-identical to the
    /// per-sample oracle [`Self::sample_run_reference_at_rate`].
    pub fn sample_run_at_rate(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
    ) -> Result<SampleRun, MonsoonError> {
        let mut times = Vec::with_capacity(SAMPLE_CHUNK);
        self.streamed_run(
            load,
            start,
            duration_s,
            rate_hz,
            TimeSeries::with_capacity,
            |series, period_us, values| {
                let first = series.len() as u64;
                times.clear();
                times.extend(
                    (first..first + values.len() as u64)
                        .map(|k| SimTime::from_micros(start.as_micros() + k * period_us)),
                );
                series.extend_from_slices(&times, values);
            },
        )
    }

    /// As [`Self::sample_run_at_rate`], keeping only the readings' exact
    /// distribution instead of the trace: the same samples, the same
    /// aggregates and telemetry, in memory that grows with the number of
    /// distinct readings rather than with the run's length.
    pub fn sample_counts_at_rate(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
    ) -> Result<SampleRun<SampleCounts>, MonsoonError> {
        self.streamed_run(
            load,
            start,
            duration_s,
            rate_hz,
            SampleCounts::with_capacity,
            |counts, _, values| counts.push_slice(values),
        )
    }

    /// One pass of the sampling loop over a whole run at the instrument's
    /// own noise stream: `new` makes the sink for the run's sample count
    /// and `push` feeds it each chunk in order, with the run's period
    /// (µs), alongside the energy accumulator.
    fn streamed_run<S>(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
        new: impl FnOnce(usize) -> S,
        mut push: impl FnMut(&mut S, u64, &[f64]),
    ) -> Result<SampleRun<S>, MonsoonError> {
        self.gated(start, duration_s, rate_hz, |m, n, period_us| {
            let mut samples = new(n as usize);
            let mut energy = EnergyAccumulator::new(rate_hz);
            let volts = m.voltage_v;
            m.sample_window(load, start, period_us, 0..n, None, |values| {
                push(&mut samples, period_us, values);
                energy.push_slice(values, volts);
            })?;
            Ok(m.finish_run(start, n * period_us, samples, energy))
        })
    }

    /// The per-sample oracle: evaluates the load, draws one standard
    /// normal and takes one reading at every sample instant, in a loop of
    /// its own. Production runs never take it; it is kept public so
    /// equivalence tests and benches can pin [`Self::sample_run_at_rate`]
    /// against an independent implementation.
    pub fn sample_run_reference_at_rate(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
    ) -> Result<SampleRun, MonsoonError> {
        self.gated(start, duration_s, rate_hz, |m, n, period_us| {
            let mut samples = TimeSeries::with_capacity(n as usize);
            let mut energy = EnergyAccumulator::new(rate_hz);
            for k in 0..n {
                let t = SimTime::from_micros(start.as_micros() + k * period_us);
                let true_ma = load.current_ma(t, m.voltage_v);
                if true_ma > MAX_CONTINUOUS_MA {
                    m.total_samples += k;
                    m.telemetry.samples.add(k);
                    return Err(m.telemetry.overcurrent(t, true_ma));
                }
                let ma = m.calibration.reading(true_ma, m.rng.standard_normal());
                samples.push(t, ma);
                energy.push(ma, m.voltage_v);
                m.telemetry.sample_ua.record((ma * 1000.0).round() as u64);
            }
            m.total_samples += n;
            m.telemetry.samples.add(n);
            Ok(m.finish_run(start, n * period_us, samples, energy))
        })
    }

    /// Power/vout gating, argument checks and the meter's field faults,
    /// shared by every sampling path; then `body` runs the sampling
    /// proper with the run's sample count and period (µs). A voltage-sag
    /// fault scales the bus voltage for the body and the programmed value
    /// is restored on every exit path.
    fn gated<R>(
        &mut self,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
        body: impl FnOnce(&mut Self, u64, u64) -> Result<R, MonsoonError>,
    ) -> Result<R, MonsoonError> {
        if !self.powered {
            return Err(MonsoonError::PoweredOff);
        }
        if !self.vout_enabled {
            return Err(MonsoonError::OutputDisabled);
        }
        assert!(duration_s > 0.0, "sampling duration must be positive");
        assert!(
            rate_hz > 0.0 && rate_hz <= MONSOON_RATE_HZ,
            "rate 0..=5000 Hz"
        );
        // Field faults scheduled against the meter: a mains brownout
        // drops power mid-arm; a forced protection trip aborts the run;
        // a sagged battery-bypass contact lowers the bus voltage the
        // whole run measures at.
        if self
            .faults
            .check(&self.fault_site, FaultKind::MeterBrownout, start)
        {
            self.set_powered(false);
            return Err(MonsoonError::PoweredOff);
        }
        if self
            .faults
            .check(&self.fault_site, FaultKind::OverCurrent, start)
        {
            self.telemetry.overcurrent_trips.inc();
            self.telemetry
                .registry
                .event("power.overcurrent", format!("forced trip at {start}"));
            return Err(MonsoonError::OverCurrent {
                at: start,
                current_ma: MAX_CONTINUOUS_MA,
            });
        }
        let nominal_v = self.voltage_v;
        if self
            .faults
            .check(&self.fault_site, FaultKind::VoltageSag, start)
        {
            self.voltage_v = (nominal_v * 0.92).max(VOLTAGE_RANGE.0);
        }
        let n = (duration_s * rate_hz).round() as u64;
        let period_us = (1e6 / rate_hz).round() as u64;
        let result = body(self, n, period_us);
        self.voltage_v = nominal_v;
        result
    }

    /// Close a run that sampled `span_us` from `start`: count it and
    /// advance the shared virtual clock to its end.
    fn finish_run<S>(
        &mut self,
        start: SimTime,
        span_us: u64,
        samples: S,
        energy: EnergyAccumulator,
    ) -> SampleRun<S> {
        self.telemetry.runs.inc();
        self.telemetry.run_us.record(span_us);
        self.telemetry
            .registry
            .clock()
            .advance_to(start.as_micros() + span_us);
        SampleRun {
            samples,
            energy,
            voltage_v: self.voltage_v,
        }
    }

    /// Crash-resumable sampling: the run is split into
    /// `stream.interval()`-sample segments, each sealed (values + CRC +
    /// cumulative [`EnergyAccumulator`] snapshot) into `stream` as it
    /// completes. `stream` lives on the simulated durable disk, so a
    /// crash mid-run loses at most the unsealed segment in flight.
    ///
    /// Calling again with the same arguments and the surviving stream
    /// **resumes** at the last checkpoint boundary: the sealed prefix is
    /// verified first (CRC, contiguity, cumulative bit-consistency —
    /// a bad splice returns [`MonsoonError::Checkpoint`] instead of a
    /// silently wrong total) and only the missing segments are sampled.
    /// Per-segment noise streams are derived from the run rng by
    /// `(start, segment)` label, so a resumed run reproduces exactly the
    /// samples the uninterrupted run would have produced — aggregates
    /// are bit-identical. This derivation makes the checkpointed path's
    /// noise sequence deliberately different from [`Self::sample_run`]'s
    /// (which draws one rng stream across the whole run); the two paths
    /// are separate modes, not bit-compatible with each other.
    pub fn sample_run_checkpointed(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
        stream: &mut CheckpointStream,
    ) -> Result<SampleRun, MonsoonError> {
        // A sag that held during the original attempt but not the resume
        // shows up as a voltage plan mismatch — detected, not silently
        // spliced.
        self.gated(start, duration_s, rate_hz, |m, n, period_us| {
            // Verify the salvaged prefix BEFORE integrating any of it.
            stream.verify().map_err(MonsoonError::Checkpoint)?;
            stream
                .configure(rate_hz, m.voltage_v, n)
                .map_err(MonsoonError::Checkpoint)?;
            let salvaged = stream.sealed_samples();
            let interval = stream.interval();
            let mut cumulative = stream.final_energy();
            // Bound on the first seal, so a run that seals nothing leaves
            // the registry without the counter, as it always has.
            let mut sealed: Option<Counter> = None;
            let mut values = Vec::with_capacity(interval.min(n) as usize);
            for i in stream.next_segment()..n.div_ceil(interval) {
                // Noise derived per (run start, segment): pure of how much
                // of the parent stream any earlier attempt consumed.
                let mut seg_rng = m.rng.derive(&format!("ckpt/{}/{i}", start.as_micros()));
                let first = i * interval;
                values.clear();
                // A trip returns here, leaving the in-flight segment
                // unsealed; the samples drawn before it stay counted.
                m.sample_window(
                    load,
                    start,
                    period_us,
                    first..(first + interval).min(n),
                    Some(&mut seg_rng),
                    |chunk| values.extend_from_slice(chunk),
                )?;
                cumulative.push_slice(&values, m.voltage_v);
                stream.seal(&values, &cumulative);
                sealed
                    .get_or_insert_with(|| {
                        m.telemetry.registry.counter("durable.checkpoints_sealed")
                    })
                    .inc();
            }
            // The run's trace is the sealed stream, salvaged prefix included.
            let all = stream.concat_values();
            let times: Vec<SimTime> = (0..n)
                .map(|k| SimTime::from_micros(start.as_micros() + k * period_us))
                .collect();
            let mut samples = TimeSeries::with_capacity(n as usize);
            samples.extend_from_slices(&times, &all);
            if salvaged > 0 {
                m.telemetry
                    .registry
                    .counter("durable.samples_salvaged")
                    .add(salvaged);
                m.telemetry.registry.event(
                    "durable.resume",
                    format!("salvaged {salvaged} of {n} samples from sealed checkpoints"),
                );
            }
            Ok(m.finish_run(start, n * period_us, samples, stream.final_energy()))
        })
    }

    /// The one sampling loop behind every production run: samples the
    /// `window` of instants `start + k·period_us` of `load`, handing the
    /// readings to `sink` in time order, in chunks of up to
    /// [`SAMPLE_CHUNK`].
    ///
    /// The loop walks the load's constant segments
    /// ([`CurrentSource::segments`]), fetched [`SEGMENT_SPAN`] instants at
    /// a time. Each segment is checked against the
    /// over-current limit once, at its first sample instant — the current
    /// is constant across it, so that is exactly when a per-sample meter
    /// trips — and its readings are produced in bulk: one reading for a
    /// noise-free calibration, otherwise one standard normal per sample
    /// from `rng` (the instrument's own stream when `None`), in time
    /// order. Segments containing no sample instant are skipped. A load
    /// without step structure is walked as one segment per sample
    /// instant, as is whatever a short segmentation leaves uncovered.
    ///
    /// Every sample handed to `sink` is counted in `power.samples`,
    /// `power.sample_ua` and [`Self::total_samples`], including the
    /// samples drawn before a trip.
    fn sample_window(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        period_us: u64,
        window: Range<u64>,
        rng: Option<&mut SimRng>,
        mut sink: impl FnMut(&[f64]),
    ) -> Result<(), MonsoonError> {
        let (cal, volts) = (self.calibration, self.voltage_v);
        let at = move |k: u64| SimTime::from_micros(start.as_micros() + k * period_us);
        // Sample k lives at start + k·period; those strictly before an
        // exclusive end are k < ceil(span / period).
        let window_end = window.end;
        let samples_before = move |end: SimTime| {
            let span = end.as_micros().saturating_sub(start.as_micros());
            span.div_ceil(period_us).min(window_end)
        };
        // The load's segments, asked for one span of instants at a time
        // so a long run never holds all of them at once; whatever a span's
        // segmentation leaves uncovered is chained on lazily, one segment
        // per sample instant.
        let segments = (window.start..window.end)
            .step_by(SEGMENT_SPAN as usize)
            .flat_map(move |lo| {
                let hi = (lo + SEGMENT_SPAN).min(window_end);
                let segmented = load.segments(at(lo), at(hi), volts);
                let covered = match &segmented {
                    Some(segs) => segs.last().map_or(lo, |s| samples_before(s.end)),
                    None => lo,
                };
                debug_assert!(
                    segmented.is_none() || covered >= hi,
                    "CurrentSource::segments did not cover the sampling window \
                     ({covered} of {hi} samples)"
                );
                let per_sample = (covered..hi).map(move |k| Segment {
                    start: at(k),
                    end: at(k + 1),
                    current_ma: load.current_ma(at(k), volts),
                });
                segmented.into_iter().flatten().chain(per_sample)
            });

        let rng = rng.unwrap_or(&mut self.rng);
        let telemetry = &self.telemetry;
        let total_samples = &mut self.total_samples;
        let mut ua = Vec::with_capacity(SAMPLE_CHUNK);
        let mut flush = |values: &mut Vec<f64>| {
            if values.is_empty() {
                return;
            }
            sink(values);
            ua.clear();
            ua.extend(values.iter().map(|&ma| (ma * 1000.0).round() as u64));
            telemetry.sample_ua.record_slice(&ua);
            *total_samples += values.len() as u64;
            telemetry.samples.add(values.len() as u64);
            values.clear();
        };

        let mut values = Vec::with_capacity(SAMPLE_CHUNK);
        let mut noise = Vec::with_capacity(SAMPLE_CHUNK);
        let mut done = window.start;
        for seg in segments {
            let seg_end = samples_before(seg.end);
            if seg_end <= done {
                continue; // no sample instant falls inside this segment
            }
            if seg.current_ma > MAX_CONTINUOUS_MA {
                flush(&mut values);
                return Err(telemetry.overcurrent(at(done), seg.current_ma));
            }
            while done < seg_end {
                let len = (SAMPLE_CHUNK - values.len()).min((seg_end - done) as usize);
                if cal.noise_ma == 0.0 {
                    // Noise-free: every sample of the segment reads the same.
                    let reading = cal.reading(seg.current_ma, 0.0);
                    values.resize(values.len() + len, reading);
                } else {
                    noise.resize(len, 0.0);
                    rng.fill_standard_normal(&mut noise);
                    values.extend(noise.iter().map(|&z| cal.reading(seg.current_ma, z)));
                }
                done += len as u64;
                if values.len() == SAMPLE_CHUNK {
                    flush(&mut values);
                }
            }
        }
        flush(&mut values);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ConstantLoad, OpenCircuit, TraceLoad};
    use batterylab_stats::Summary;

    fn powered_monsoon(seed: u64) -> Monsoon {
        let mut m = Monsoon::new(SimRng::new(seed).derive("monsoon"));
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        m
    }

    #[test]
    fn requires_power_and_vout() {
        let mut m = Monsoon::new(SimRng::new(1).derive("monsoon"));
        assert_eq!(m.set_voltage(4.0), Err(MonsoonError::PoweredOff));
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        let err = m.sample_run(&OpenCircuit, SimTime::ZERO, 0.01).unwrap_err();
        assert_eq!(err, MonsoonError::OutputDisabled);
        m.enable_vout().unwrap();
        assert!(m.sample_run(&OpenCircuit, SimTime::ZERO, 0.01).is_ok());
    }

    #[test]
    fn disabled_vout_refuses_to_sample() {
        let mut m = powered_monsoon(1);
        m.enable_vout().unwrap();
        m.disable_vout();
        assert!(!m.vout_enabled());
        let err = m.sample_run(&OpenCircuit, SimTime::ZERO, 0.01).unwrap_err();
        assert_eq!(err, MonsoonError::OutputDisabled);
    }

    #[test]
    fn voltage_range_enforced() {
        let mut m = Monsoon::new(SimRng::new(1).derive("monsoon"));
        m.set_powered(true);
        assert!(matches!(
            m.set_voltage(0.5),
            Err(MonsoonError::VoltageOutOfRange(_))
        ));
        assert!(matches!(
            m.set_voltage(14.0),
            Err(MonsoonError::VoltageOutOfRange(_))
        ));
        assert!(m.set_voltage(0.8).is_ok());
        assert!(m.set_voltage(13.5).is_ok());
    }

    #[test]
    fn five_khz_sample_count() {
        let mut m = powered_monsoon(2);
        let run = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 1.0)
            .unwrap();
        assert_eq!(run.samples.len(), 5000);
        assert_eq!(run.energy.samples(), 5000);
    }

    #[test]
    fn reading_accuracy_within_spec() {
        let mut m = powered_monsoon(3);
        let run = m
            .sample_run(&ConstantLoad::new(160.0, 4.0), SimTime::ZERO, 2.0)
            .unwrap();
        let s = Summary::of(run.samples.values());
        // Gain 1.0005 + offset 0.03 on 160 mA → ~160.11; noise averages out.
        assert!((s.mean - 160.0).abs() < 0.5, "mean {}", s.mean);
        assert!(s.std_dev < 0.5, "noise floor too high: {}", s.std_dev);
    }

    #[test]
    fn energy_integration_matches_mean() {
        let mut m = powered_monsoon(4);
        let run = m
            .sample_run(&ConstantLoad::new(300.0, 4.0), SimTime::ZERO, 1.0)
            .unwrap();
        // 300 mA for 1 s = 300/3600 mAh.
        assert!((run.energy.mah() - 300.0 / 3600.0).abs() < 0.001);
    }

    #[test]
    fn over_current_trips() {
        let mut m = powered_monsoon(5);
        let err = m
            .sample_run(&ConstantLoad::new(7000.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap_err();
        assert!(matches!(err, MonsoonError::OverCurrent { .. }));
    }

    #[test]
    fn power_cycle_drops_vout() {
        let mut m = powered_monsoon(6);
        assert!(m.vout_enabled());
        m.set_powered(false);
        assert!(!m.vout_enabled());
        assert_eq!(
            m.sample_run(&OpenCircuit, SimTime::ZERO, 0.01).unwrap_err(),
            MonsoonError::PoweredOff
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run1 = powered_monsoon(7)
            .sample_run(&ConstantLoad::new(50.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap();
        let run2 = powered_monsoon(7)
            .sample_run(&ConstantLoad::new(50.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap();
        assert_eq!(run1.samples.values(), run2.samples.values());
    }

    #[test]
    fn decimated_rate_bounds_memory() {
        let mut m = powered_monsoon(8);
        let run = m
            .sample_run_at_rate(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 10.0, 50.0)
            .unwrap();
        assert_eq!(run.samples.len(), 500);
    }

    #[test]
    fn readings_quantised_to_lsb() {
        let mut m = powered_monsoon(9);
        let run = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 0.01)
            .unwrap();
        for &v in run.samples.values() {
            let steps = v / 0.02;
            assert!((steps - steps.round()).abs() < 1e-6, "not quantised: {v}");
        }
    }

    #[test]
    fn a_reading_that_quantises_to_negative_zero_reads_positive_zero() {
        // 0.03 + 0.25·(-0.14) = -0.005 mA quantises to -0.0 at a 0.02 mA
        // LSB; the clamp must give +0.0 in every build profile.
        let reading = Calibration::default().reading(0.0, -0.14);
        assert_eq!(reading.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn telemetry_counts_samples_and_trips() {
        let registry = Registry::new();
        let mut m = Monsoon::new(SimRng::new(11).derive("monsoon")).with_telemetry(&registry);
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        m.sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap();
        let _ = m.sample_run(&ConstantLoad::new(7000.0, 4.0), SimTime::ZERO, 0.1);
        let report = registry.snapshot();
        assert_eq!(report.counter("power.samples"), 500);
        assert_eq!(report.counter("power.sample_runs"), 1);
        assert_eq!(report.counter("power.overcurrent_trips"), 1);
        let h = report.histogram("power.sample_ua").unwrap();
        assert_eq!(h.count, 500);
        assert!(
            h.mean() > 90_000.0 && h.mean() < 110_000.0,
            "mean {}",
            h.mean()
        );
        // The run advanced the shared virtual clock to its end.
        assert_eq!(report.at_micros, 100_000);
        assert!(report.events.iter().any(|e| e.label == "power.overcurrent"));
    }

    #[test]
    fn mid_chunk_trip_counts_samples_before_the_trip() {
        // A load that is healthy for 60 ms then trips: the chunked loop
        // must account exactly the samples drawn before the over-current,
        // matching the old per-sample accounting.
        struct RampTrip;
        impl crate::source::CurrentSource for RampTrip {
            fn current_ma(&self, t: SimTime, _supply_v: f64) -> f64 {
                if t.as_micros() >= 60_000 {
                    7000.0
                } else {
                    100.0
                }
            }
        }
        let registry = Registry::new();
        let mut m = Monsoon::new(SimRng::new(12).derive("monsoon")).with_telemetry(&registry);
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        let err = m.sample_run(&RampTrip, SimTime::ZERO, 0.1).unwrap_err();
        assert!(matches!(err, MonsoonError::OverCurrent { .. }));
        // 5 kHz → 200 µs period → samples at 0, 200, ..., 59 800 µs pass:
        // 300 samples before the trip at t = 60 000 µs.
        assert_eq!(registry.snapshot().counter("power.samples"), 300);
        assert_eq!(m.total_samples(), 300);
        assert_eq!(registry.snapshot().counter("power.overcurrent_trips"), 1);
    }

    #[test]
    fn chunked_run_spans_multiple_chunks() {
        // 2 s at 5 kHz = 10 000 samples ≫ one chunk; the trace must come
        // out whole, ordered and fully counted.
        let mut m = powered_monsoon(13);
        let run = m
            .sample_run(&ConstantLoad::new(120.0, 4.0), SimTime::ZERO, 2.0)
            .unwrap();
        assert_eq!(run.samples.len(), 10_000);
        assert!(run.samples.times().windows(2).all(|w| w[1] > w[0]));
        assert_eq!(m.total_samples(), 10_000);
    }

    #[test]
    fn injected_meter_faults_fire_once_then_clear() {
        use batterylab_faults::{FaultInjector, FaultPlan};
        let registry = Registry::new();
        let mut m = powered_monsoon(21);
        m.set_telemetry(&registry);
        let plan = FaultPlan::new()
            .next_n("power.meter", FaultKind::MeterBrownout, 1)
            .next_n("power.meter", FaultKind::OverCurrent, 1);
        let injector = FaultInjector::new(&plan, 3);
        injector.set_telemetry(&registry);
        m.set_faults(&injector, "power.meter");
        let load = ConstantLoad::new(100.0, 4.0);
        // First run: brownout drops mains mid-arm.
        assert_eq!(
            m.sample_run(&load, SimTime::ZERO, 0.01).unwrap_err(),
            MonsoonError::PoweredOff
        );
        assert!(!m.is_powered());
        // Re-power: the forced protection trip fires next.
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        assert!(matches!(
            m.sample_run(&load, SimTime::ZERO, 0.01).unwrap_err(),
            MonsoonError::OverCurrent { .. }
        ));
        // Plan exhausted: the third run completes.
        assert!(m.sample_run(&load, SimTime::ZERO, 0.01).is_ok());
        let report = registry.snapshot();
        assert_eq!(report.counter("faults.injected"), 2);
        assert_eq!(report.counter("power.overcurrent_trips"), 1);
    }

    #[test]
    fn voltage_sag_scales_the_run_and_restores() {
        use batterylab_faults::{FaultInjector, FaultPlan};
        let mut m = powered_monsoon(22);
        let plan = FaultPlan::new().window(
            "power.meter",
            FaultKind::VoltageSag,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        m.set_faults(&FaultInjector::new(&plan, 4), "power.meter");
        let sagged = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 0.01)
            .unwrap();
        assert!((sagged.voltage_v - 4.0 * 0.92).abs() < 1e-9);
        // Outside the window the programmed voltage is back.
        let healthy = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::from_secs(2), 0.01)
            .unwrap();
        assert_eq!(healthy.voltage_v, 4.0);
        assert_eq!(m.voltage(), 4.0);
    }

    #[test]
    fn checkpointed_resume_is_bit_identical() {
        let load = ConstantLoad::new(150.0, 4.0);
        // Uninterrupted checkpointed run.
        let mut full_stream = CheckpointStream::new(100);
        let full = powered_monsoon(31)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut full_stream)
            .unwrap();
        // Interrupted run: crash after 4 sealed segments (400 samples),
        // modelled by keeping only the sealed prefix.
        let mut partial = CheckpointStream::new(100);
        let _ = powered_monsoon(31)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut partial)
            .unwrap();
        partial.segments.truncate(4);
        let registry = Registry::new();
        let mut resumed_meter = powered_monsoon(31);
        resumed_meter.set_telemetry(&registry);
        resumed_meter.set_powered(true);
        resumed_meter.set_voltage(4.0).unwrap();
        resumed_meter.enable_vout().unwrap();
        let resumed = resumed_meter
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut partial)
            .unwrap();
        // Bit-identical trace and aggregates.
        assert_eq!(full.samples.values(), resumed.samples.values());
        assert_eq!(full.energy.mah().to_bits(), resumed.energy.mah().to_bits());
        assert_eq!(full.energy.mwh().to_bits(), resumed.energy.mwh().to_bits());
        assert_eq!(full.energy.samples(), resumed.energy.samples());
        // The resume only sampled the missing 600 samples.
        let report = registry.snapshot();
        assert_eq!(report.counter("power.samples"), 600);
        assert_eq!(report.counter("durable.samples_salvaged"), 400);
        assert_eq!(report.counter("durable.checkpoints_sealed"), 6);
    }

    #[test]
    fn checkpointed_trip_counts_every_drawn_sample_and_leaves_the_segment_unsealed() {
        // Healthy until 432.5 ms (off the 1 ms grid), inside the fifth
        // 100-sample checkpoint segment, then over the 6 A limit.
        let mut trace = batterylab_sim::StepSignal::new(150.0);
        trace.set(SimTime::from_micros(432_500), 6500.0);
        let load = TraceLoad::new(trace, 4.0);
        let registry = Registry::new();
        let mut m = powered_monsoon(34);
        m.set_telemetry(&registry);
        let mut stream = CheckpointStream::new(100);
        let err = m
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut stream)
            .unwrap_err();
        assert_eq!(
            err,
            MonsoonError::OverCurrent {
                at: SimTime::from_micros(433_000),
                current_ma: 6500.0,
            }
        );
        // Segments 0..4 sealed; the 33 samples drawn in segment 4 before
        // the trip are counted everywhere, but the segment is not sealed.
        assert_eq!(stream.segments.len(), 4);
        let report = registry.snapshot();
        assert_eq!(report.counter("durable.checkpoints_sealed"), 4);
        assert_eq!(report.counter("power.samples"), 433);
        assert_eq!(report.histogram("power.sample_ua").unwrap().count, 433);
        assert_eq!(m.total_samples(), 433);
        assert_eq!(report.counter("power.overcurrent_trips"), 1);
    }

    #[test]
    fn checkpointed_stepped_load_matches_a_per_sample_oracle() {
        // Noisy stepped load: boundaries off the 1 ms sample grid, some
        // inside checkpoint segments and one straddling a segment edge.
        let start = SimTime::from_micros(1_234_500);
        let mut trace = batterylab_sim::StepSignal::new(120.0);
        for (t_us, ma) in [
            (1_300_250, 480.5),
            (1_362_499, 15.0),
            (1_362_501, 910.0),
            (1_618_700, 0.0),
            (1_900_001, 233.3),
        ] {
            trace.set(SimTime::from_micros(t_us), ma);
        }
        let load = TraceLoad::new(trace, 4.0);
        let (rate, interval, n) = (1000.0, 128u64, 1000u64);
        let mut stream = CheckpointStream::new(interval);
        let run = powered_monsoon(35)
            .sample_run_checkpointed(&load, start, 1.0, rate, &mut stream)
            .unwrap();

        let cal = Calibration::default();
        let root = SimRng::new(35).derive("monsoon");
        let mut expected = TimeSeries::new();
        let mut energy = EnergyAccumulator::new(rate);
        for i in 0..n.div_ceil(interval) {
            let mut rng = root.derive(&format!("ckpt/{}/{i}", start.as_micros()));
            for k in i * interval..((i + 1) * interval).min(n) {
                let t = SimTime::from_micros(start.as_micros() + k * 1000);
                let ma = cal.reading(load.current_ma(t, 4.0), rng.standard_normal());
                expected.push(t, ma);
                energy.push(ma, 4.0);
            }
        }
        assert_eq!(stream.segments.len(), 8);
        assert_eq!(run.samples.times(), expected.times());
        for (a, b) in run.samples.values().iter().zip(expected.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sample mismatch: {a} vs {b}");
        }
        assert_eq!(run.samples.len(), expected.len());
        assert_eq!(run.energy.samples(), energy.samples());
        assert_eq!(run.energy.mah().to_bits(), energy.mah().to_bits());
        assert_eq!(run.energy.mwh().to_bits(), energy.mwh().to_bits());
        assert_eq!(run.energy.max_ma().to_bits(), energy.max_ma().to_bits());
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_not_integrated() {
        let load = ConstantLoad::new(150.0, 4.0);
        let mut stream = CheckpointStream::new(100);
        let _ = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut stream)
            .unwrap();
        stream.segments.truncate(4);
        // Bit-flip one salvaged sample: CRC catches it.
        stream.segments[2].samples[7] += 0.0001;
        let err = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut stream)
            .unwrap_err();
        match err {
            MonsoonError::Checkpoint(report) => {
                assert_eq!(report.kind, batterylab_durable::GapKind::Corrupt);
                assert_eq!(report.segment, 2);
            }
            other => panic!("expected checkpoint rejection, got {other:?}"),
        }
        // A dropped middle segment is a gap, also rejected.
        let mut gappy = CheckpointStream::new(100);
        let _ = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut gappy)
            .unwrap();
        gappy.segments.remove(1);
        let err = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut gappy)
            .unwrap_err();
        assert!(matches!(
            err,
            MonsoonError::Checkpoint(GapReport {
                kind: batterylab_durable::GapKind::Gap,
                ..
            })
        ));
    }

    #[test]
    fn checkpointed_plan_mismatch_is_rejected() {
        let load = ConstantLoad::new(150.0, 4.0);
        let mut stream = CheckpointStream::new(50);
        let _ = powered_monsoon(33)
            .sample_run_checkpointed(&load, SimTime::ZERO, 0.5, 1000.0, &mut stream)
            .unwrap();
        stream.segments.truncate(2);
        // Resuming a 0.5 s capture as a 0.3 s one must not splice.
        let err = powered_monsoon(33)
            .sample_run_checkpointed(&load, SimTime::ZERO, 0.3, 1000.0, &mut stream)
            .unwrap_err();
        assert!(matches!(
            err,
            MonsoonError::Checkpoint(GapReport {
                kind: batterylab_durable::GapKind::PlanMismatch,
                ..
            })
        ));
    }

    #[test]
    fn open_circuit_reads_near_zero() {
        let mut m = powered_monsoon(10);
        let run = m.sample_run(&OpenCircuit, SimTime::ZERO, 0.5).unwrap();
        let s = Summary::of(run.samples.values());
        assert!(s.mean < 0.5, "open circuit should read ~0, got {}", s.mean);
    }
}
