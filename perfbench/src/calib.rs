//! Host-speed normalisation.
//!
//! The hosts this benchmark runs on are shared: the same code runs up
//! to a third slower for seconds or minutes at a time. Every measured
//! window is therefore followed by a fixed reference kernel, and the
//! window's wall time is scaled by how long the kernel took just then.
//! The kernel uses only the standard library, so no change to the
//! workspace can change it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::trace::Tracer;

/// The reference kernel's wall time on an unloaded 2.0 GHz Xeon vCPU.
/// Normalised times read as "ms on that host"; only ratios between
/// commits measured on one host are meaningful.
pub const REFERENCE_NOMINAL_MS: f64 = 1.7;

/// Reference kernel time spent after a window, as a share of the
/// window's own wall time (at least one kernel run).
const REFERENCE_SHARE: f64 = 0.02;

/// One run of the reference kernel: floating-point work like pixel
/// rendering, and small allocations in an ordered map like executor
/// queues and timers. Returns its wall time in ms.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = (i & 1023) as f64 - 512.0;
        acc += 120.0 * (-(x * x) / 6e4).exp() + (state & 63) as f64;
        if i % 8 == 0 {
            map.insert(state >> 50, vec![i as u8; (i & 31) as usize]);
        }
    }
    black_box((acc, map));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The reference kernel run on `threads` threads at once; the slowest
/// thread's time, in ms. A sharded run waits for its slowest shard.
fn reference_on(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_ms();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(reference_ms)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference kernel does not panic"))
            .fold(0.0, f64::max)
    })
}

/// Nominal over current reference time: multiply a wall time measured
/// just before by this to normalise it.
pub fn speed_factor() -> f64 {
    let mut t = [reference_ms(), reference_ms(), reference_ms()];
    t.sort_by(f64::total_cmp);
    REFERENCE_NOMINAL_MS / t[1]
}

/// Times windows of work, raw and normalised to the reference kernel.
pub struct Meter<'a> {
    tracer: Option<&'a mut Tracer>,
    /// Threads the measured work runs on, and the reference with it.
    threads: usize,
    /// Wall ms of all windows.
    pub raw_ms: f64,
    /// Sum over windows of wall ms × nominal / reference ms just after.
    pub norm_ms: f64,
}

impl<'a> Meter<'a> {
    pub fn new(tracer: Option<&'a mut Tracer>, threads: usize) -> Meter<'a> {
        Meter {
            tracer,
            threads,
            raw_ms: 0.0,
            norm_ms: 0.0,
        }
    }

    /// Runs `f` as one window (a span named `name` when tracing), then
    /// the reference kernel: once, or more often, the median taken, so
    /// it costs about [`REFERENCE_SHARE`] of the window.
    pub fn window<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let span = self.tracer.as_deref_mut().map(|t| t.begin(name));
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), span) {
            t.end(id);
        }
        let mut refs = vec![reference_on(self.threads)];
        while refs.iter().sum::<f64>() < ms * REFERENCE_SHARE {
            refs.push(reference_on(self.threads));
        }
        refs.sort_by(f64::total_cmp);
        self.raw_ms += ms;
        self.norm_ms += ms * REFERENCE_NOMINAL_MS / refs[refs.len() / 2];
        out
    }
}
