//! Session memory is flat in the session's length: a measured session's
//! report keeps the distribution of its readings, whose size follows the
//! distinct readings, not the samples. Exact counts, no timing.
//!
//! The binary counts every heap byte through its own allocator, so the
//! check covers whatever `stop_monitor` holds, not only the counted
//! distribution. It has one test so no other test allocates alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use batterylab::controller::MeasurementReport;
use batterylab::platform::Platform;
use batterylab::sim::SimDuration;

/// The system allocator, keeping live and peak heap bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, under the same contract the caller upheld for this one; the
// counters only read sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is as the caller passed it (non-zero size).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc`/`realloc` above, that is from
        // `System`, with this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with `layout`, and the caller
        // guarantees `new_size` is valid for it.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one 5 kHz session of `seconds` of video costs in heap.
struct Session {
    report: MeasurementReport,
    /// Peak heap above the pre-`stop_monitor` level while it sampled.
    peak_bytes: usize,
    /// Heap still held above that level once the report is returned.
    held_bytes: usize,
}

fn session(seconds: u64) -> Session {
    let mut platform = Platform::paper_testbed(2019);
    let serial = platform.j7_serial().to_string();
    let vp = platform.node1();
    vp.power_monitor().unwrap();
    vp.set_voltage(4.0).unwrap();
    vp.batt_switch(&serial).unwrap();
    vp.start_monitor(&serial).unwrap();
    let device = vp.device_handle(&serial).unwrap();
    device.with_sim(|s| {
        s.set_screen(true);
        s.play_video(SimDuration::from_secs(seconds));
    });
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let report = vp.stop_monitor().unwrap();
    Session {
        peak_bytes: PEAK.load(Relaxed) - before,
        held_bytes: LIVE.load(Relaxed).saturating_sub(before),
        report,
    }
}

#[test]
fn session_memory_is_flat_in_length() {
    let short = session(60);
    let long = session(600);
    assert_eq!(short.report.samples.len(), 300_000);
    assert_eq!(long.report.samples.len(), 3_000_000);

    // The retained distribution: a few thousand distinct readings.
    let distinct = |s: &Session| s.report.cdf().counts().count();
    let (a, b) = (distinct(&short), distinct(&long));
    assert!(a < 10_000 && b < 10_000, "distinct readings {a} / {b}");
    assert!(
        (b as f64) < 1.5 * a as f64,
        "distinct readings grew {a} -> {b} for 10x the samples"
    );

    // The heap behind them: well under the 8 B per sample a stored
    // trace would need, and flat in the session's length.
    for s in [&short, &long] {
        let per_sample = s.peak_bytes as f64 / s.report.samples.len() as f64;
        assert!(
            per_sample < 8.0,
            "{} samples peaked at {} B ({per_sample:.2} B/sample)",
            s.report.samples.len(),
            s.peak_bytes
        );
    }
    assert!(
        (long.peak_bytes as f64) < 1.1 * short.peak_bytes as f64,
        "peak heap grew {} -> {} B for 10x the samples",
        short.peak_bytes,
        long.peak_bytes
    );
    assert!(
        (long.held_bytes as f64) < 1.1 * short.held_bytes as f64,
        "held heap grew {} -> {} B for 10x the samples",
        short.held_bytes,
        long.held_bytes
    );
}
