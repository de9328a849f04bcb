//! The benchmark's only wall-clock reads. Everything the gateway itself
//! computes runs on simulated time; the benchmark times that work on the
//! real clock.

use std::time::Duration;
use std::time::Instant; // lint:allow(wallclock) reason=the benchmark measures real elapsed time by design

/// A point on the monotonic wall clock.
pub type Stamp = Instant;

/// Read the wall clock.
#[inline(always)]
pub fn now() -> Stamp {
    Instant::now() // lint:allow(wallclock) reason=the single wall-clock read every benchmark timing goes through
}

/// Nanoseconds from `a` to `b` (0 if `b` is earlier).
#[inline(always)]
pub fn ns_between(a: Stamp, b: Stamp) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// `a` plus `ns` nanoseconds.
#[inline(always)]
pub fn add_ns(a: Stamp, ns: u64) -> Stamp {
    a + Duration::from_nanos(ns)
}

/// Busy-wait until `due`; returns the first reading at or after it.
#[inline(always)]
pub fn spin_until(due: Stamp) -> Stamp {
    loop {
        let t = now();
        if t >= due {
            return t;
        }
        std::hint::spin_loop();
    }
}

/// Cost of one clock read in nanoseconds: the best of several runs of
/// back-to-back reads.
pub fn read_cost_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut best = f64::MAX;
    for _ in 0..7 {
        let t0 = now();
        let mut last = t0;
        for _ in 0..READS {
            last = std::hint::black_box(now());
        }
        best = best.min(ns_between(t0, last) as f64 / READS as f64);
    }
    best
}

/// Words in the reference kernel's random-read table (4 MiB).
const REFERENCE_WORDS: usize = 1 << 19;
/// Keys in the reference kernel's ordered map.
const REFERENCE_KEYS: u64 = 16_384;
/// Steps per reference run.
const REFERENCE_STEPS: u64 = 1000;
/// Time of one reference run at reference speed, in nanoseconds. A timing
/// divided by [`Reference::factor`] is "at reference speed".
pub const REFERENCE_NS: f64 = 250_000.0;

/// A fixed kernel timed next to every measured epoch. It is owned by the
/// benchmark and uses only the standard library, so no change to the
/// program can change it. Its steps are the kinds of work the request path
/// does: random reads over a table larger than the caches, ordered-map
/// lookups, inserts and removes, and small string allocations. (A kernel
/// that also did add-rotate-xor rounds tracked the workloads worse.)
///
/// The host this benchmark was written on changes speed by tens of percent
/// from one second to the next, and the program's throughput moves with
/// it. Dividing each epoch's time by the kernel's slowness at that moment
/// removes most of that drift from the reported figures.
pub struct Reference {
    table: Vec<u64>,
    map: std::collections::BTreeMap<u64, u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Reference {
    /// Build the kernel's table and map.
    pub fn new() -> Reference {
        Reference {
            table: (0..REFERENCE_WORDS as u64)
                .map(|k| k.wrapping_mul(GOLDEN))
                .collect(),
            map: (0..REFERENCE_KEYS)
                .map(|k| (k.wrapping_mul(GOLDEN), k))
                .collect(),
        }
    }

    fn kernel(&mut self) -> u64 {
        let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = 0u64;
        for k in 0..REFERENCE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(self.table[(x as usize) % REFERENCE_WORDS]);
            acc = acc.wrapping_add(
                self.map
                    .get(&((x % REFERENCE_KEYS).wrapping_mul(GOLDEN)))
                    .copied()
                    .unwrap_or(0),
            );
            if k % 4 == 0 {
                let key = x | 1;
                self.map.insert(key, k);
                self.map.remove(&key);
                acc = acc.wrapping_add(format!("{x:x}-{k}").len() as u64);
            }
        }
        acc
    }

    /// Current slowness of the host: the better of two kernel runs over
    /// [`REFERENCE_NS`] (above 1 = slower than reference speed).
    pub fn factor(&mut self) -> f64 {
        let mut best = u64::MAX;
        for _ in 0..2 {
            let t0 = now();
            std::hint::black_box(self.kernel());
            best = best.min(ns_between(t0, now()));
        }
        best as f64 / REFERENCE_NS
    }
}
