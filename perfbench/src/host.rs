//! Host-side measurement: process CPU time, peak resident memory, and the
//! summary statistics the report uses.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s of
/// which the first is the peak resident set size in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, and `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    usage
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    (u.utime.sec + u.stime.sec) as f64 + (u.utime.usec + u.stime.usec) as f64 * 1e-6
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// The host-speed reference: a fixed kernel of the same kind of work as
/// the simulator's cache models — a 16-way LRU tag store of 16 MiB probed
/// at pseudo-random lines — in code no change to the simulator touches.
/// Timing it between spans of simulation measures how fast the (shared,
/// noisy) host runs at that moment.
struct Reference {
    tags: Vec<u64>,
}

/// Median time of one reference pass on the host the baseline was recorded
/// on (a 2-vCPU Xeon VM at 2.0 GHz). It only sets the scale: normalized
/// times read as CPU seconds at the speed that host had.
const REFERENCE_S: f64 = 0.0058;

const WAYS: usize = 16;

/// Times spans of work in CPU seconds, raw and normalized to the reference
/// host speed: the reference kernel runs after every span, and a span's
/// normalized time is its CPU time times `REFERENCE_S` over the mean of the
/// kernel's times just before and just after it.
pub struct SpeedClock {
    reference: Reference,
    last: f64,
}

/// A span's CPU seconds: as measured, and normalized to the reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub raw: f64,
    pub normalized: f64,
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, other: Self) {
        self.raw += other.raw;
        self.normalized += other.normalized;
    }
}

impl SpeedClock {
    pub fn new() -> Self {
        let mut reference = Reference { tags: vec![u64::MAX; 1 << 21] };
        // Every pass probes the same lines; the first one installs them.
        reference.seconds();
        let last = reference.seconds();
        Self { reference, last }
    }

    /// Runs `work` and returns its result with the span it took.
    pub fn span<T>(&mut self, work: impl FnOnce() -> T) -> (T, Span) {
        let start = cpu_seconds();
        let value = work();
        let raw = cpu_seconds() - start;
        let after = self.reference.seconds();
        let normalized = raw * REFERENCE_S * 2.0 / (self.last + after);
        self.last = after;
        (value, Span { raw, normalized })
    }
}

impl Reference {
    /// CPU seconds of one pass of the reference kernel.
    fn seconds(&mut self) -> f64 {
        let sets = self.tags.len() / WAYS;
        let start = cpu_seconds();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut hits = 0u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % (1 << 22);
            let set = line as usize % sets;
            let row = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            match row.iter().position(|&t| t == line) {
                Some(way) => {
                    hits += 1;
                    row[..=way].rotate_right(1);
                }
                None => {
                    row.rotate_right(1);
                    row[0] = line;
                }
            }
        }
        std::hint::black_box(hits);
        cpu_seconds() - start
    }
}

/// Median and quartiles of a sample, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method); a single
/// value is its own median and quartiles.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Self { q1: v[0], median: v[0], q3: v[0], n };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self { q1: cut(1), median: cut(2), q3: cut(3), n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        let s = Summary::of(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - start < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0 && peak_rss_mib() > 0.0);
    }
}
