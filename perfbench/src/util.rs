//! Small shared helpers: host-time statistics, the simulated-output
//! digest, and process memory readings.

use std::time::Instant;

/// Run `f` and return its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over everything fed in: a digest of simulated (virtual-time)
/// results only, so two runs at one seed must agree bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Length-terminate so ("ab","c") and ("a","bc") differ.
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Feed a string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Feed an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feed a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Hex form for printing.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Cap glibc's malloc arenas at `n`, the pool's thread count. Uncapped,
/// a pool thread spawned while its predecessor's arena is still being
/// released gets a fresh arena, and whether that race happens decides
/// which of several levels a run's peak RSS lands on. With one arena per
/// pool thread the peak repeats. Call before any thread starts.
pub fn cap_arenas(n: usize) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_ARENA_MAX: c_int = -8;
        let n = c_int::try_from(n.max(1)).unwrap_or(c_int::MAX);
        // SAFETY: `mallopt` takes two integers and changes allocator
        // tuning only; no other thread exists yet to race with it.
        unsafe {
            mallopt(M_ARENA_MAX, n);
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let _ = n;
}

/// Hand freed heap memory back to the OS, then reset this process's
/// `VmHWM` to its current RSS, so the next [`peak_rss_mb`] reading
/// covers what runs after the reset rather than what earlier rounds
/// left in the allocator. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes an integer and only releases free
        // pages of the allocator this process already uses.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
