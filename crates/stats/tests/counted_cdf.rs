//! A `Cdf` counted by `SampleCounts` answers every query bit for bit as
//! `Cdf::from_samples` over the same readings, however the stream was
//! chunked, and both match the sorted-vector definitions: type-7
//! quantiles and the mean summed over the sorted samples.
//!
//! Inputs are grid-valued, `k · lsb`, as the Monsoon's quantised readings
//! are.

use batterylab_stats::{Cdf, SampleCounts};
use proptest::prelude::*;

/// ADC steps, mA; 0.02 is the Monsoon's.
const LSBS: [f64; 4] = [0.02, 0.1, 0.25, 1.0];
/// Readings `SampleCounts` buffers before a fold; inputs are drawn on
/// both sides of it.
const FOLD: usize = 64 * 1024;

fn on_grid(ks: impl IntoIterator<Item = u64>, lsb: f64) -> Vec<f64> {
    ks.into_iter().map(|k| k as f64 * lsb).collect()
}

/// `len` grid indices from `seed`, clustered like a noisy reading: a
/// slow walk over `spread` levels plus a little jitter.
fn walk(seed: u64, len: usize, spread: u64) -> Vec<u64> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut level = spread / 2;
    (0..len)
        .map(|_| {
            if next() % 512 == 0 {
                level = next() % spread;
            }
            (level + next() % 25).saturating_sub(12)
        })
        .collect()
}

/// Count `values` through `SampleCounts`, pushing them in blocks whose
/// sizes cycle through `chunks` (zero-length blocks included; all-zero
/// sizes push one reading at a time).
fn counted(values: &[f64], chunks: &[usize]) -> Cdf {
    let chunks = if chunks.iter().all(|&c| c == 0) {
        &[0, 1][..]
    } else {
        chunks
    };
    let mut counts = SampleCounts::default();
    let mut rest = values;
    for &size in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (block, later) = rest.split_at(size.min(rest.len()));
        counts.push_slice(block);
        rest = later;
    }
    assert_eq!(counts.len(), values.len());
    counts.cdf()
}

/// Type-7 quantile over a sorted vector.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

macro_rules! same_bits {
    ($what:expr, $a:expr, $b:expr) => {{
        let (a, b): (f64, f64) = ($a, $b);
        prop_assert!(a.to_bits() == b.to_bits(), "{}: {a:?} vs {b:?}", $what);
    }};
}

/// Every query of the counted CDF, the direct CDF and the sorted vector
/// agrees bit for bit.
fn check(values: &[f64], chunks: &[usize]) -> Result<(), String> {
    let counted = counted(values, chunks);
    let direct = Cdf::from_samples(values);
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

    prop_assert_eq!(counted.len(), values.len());
    prop_assert_eq!(direct.len(), values.len());
    let runs: Vec<(u64, u64)> = direct.counts().map(|(v, c)| (v.to_bits(), c)).collect();
    let counted_runs: Vec<(u64, u64)> = counted.counts().map(|(v, c)| (v.to_bits(), c)).collect();
    prop_assert_eq!(&counted_runs, &runs);
    prop_assert_eq!(runs.iter().map(|r| r.1).sum::<u64>(), values.len() as u64);

    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let mut probes: Vec<f64> = direct.counts().map(|(v, _)| v).collect();
    probes.extend(probes.clone().windows(2).map(|w| (w[0] + w[1]) / 2.0));
    probes.extend([-1.0, sorted[sorted.len() - 1] + 1.0]);
    for cdf in [&counted, &direct] {
        same_bits!("min", cdf.min(), sorted[0]);
        same_bits!("max", cdf.max(), sorted[sorted.len() - 1]);
        same_bits!("mean", cdf.mean(), mean);
        same_bits!("median", cdf.median(), sorted_quantile(&sorted, 0.5));
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            same_bits!(
                format!("quantile({q})"),
                cdf.quantile(q),
                sorted_quantile(&sorted, q)
            );
        }
        for &x in &probes {
            let at_or_below = sorted.partition_point(|&s| s <= x) as f64 / sorted.len() as f64;
            same_bits!(
                format!("P(X <= {x})"),
                cdf.fraction_at_or_below(x),
                at_or_below
            );
        }
    }
    let (a, b) = (counted.curve(101), direct.curve(101));
    for (i, (p, q)) in a.iter().zip(&b).enumerate() {
        same_bits!(format!("curve[{i}].x"), p.0, q.0);
        same_bits!(format!("curve[{i}].p"), p.1, q.1);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Short runs with heavy ties, pushed in arbitrary chunkings; none of
    /// them reaches a fold, so the counted CDF comes from the buffer.
    #[test]
    fn short_runs_with_ties_match(
        ks in proptest::collection::vec(0u64..40, 1..400),
        lsb in 0usize..4,
        chunks in proptest::collection::vec(0usize..150, 1..12),
    ) {
        check(&on_grid(ks, LSBS[lsb]), &chunks)?;
    }

    /// One reading, anywhere on the grid.
    #[test]
    fn a_single_sample_matches(k in 0u64..1_000_000, lsb in 0usize..4) {
        check(&on_grid([k], LSBS[lsb]), &[1])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An open circuit: every reading is +0.0, on either side of a fold.
    #[test]
    fn all_zero_runs_match(
        len in 1usize..3 * FOLD,
        chunks in proptest::collection::vec(1usize..5000, 1..6),
    ) {
        check(&vec![0.0; len], &chunks)?;
    }

    /// Streams longer than the fold buffer, over a few to a few thousand
    /// distinct levels, pushed in arbitrary chunkings: the folded runs
    /// and the unfolded tail merge exactly.
    #[test]
    fn runs_longer_than_the_fold_buffer_match(
        seed in any::<u64>(),
        len in FOLD + 1..3 * FOLD + 7,
        spread in 1u64..6000,
        lsb in 0usize..4,
        chunks in proptest::collection::vec(0usize..9000, 1..8),
    ) {
        check(&on_grid(walk(seed, len, spread), LSBS[lsb]), &chunks)?;
    }
}

/// A fold boundary that splits a run of equal readings: the run's count
/// spans the buffer and the runs.
#[test]
fn a_run_straddling_a_fold_is_counted_once() {
    let mut values = vec![0.5; FOLD - 3];
    values.extend([0.25; 10]);
    values.extend([0.75; 5]);
    check(&values, &[FOLD - 1, 7, 1]).unwrap();
    let cdf = counted(&values, &[FOLD - 1, 7, 1]);
    assert_eq!(
        cdf.counts().collect::<Vec<_>>(),
        [(0.25, 10), (0.5, FOLD as u64 - 3), (0.75, 5)]
    );
}
