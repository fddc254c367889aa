//! Small helpers: seed mixing, order statistics over samples, peak RSS, the
//! host-speed reference and the JSON result line.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64 finaliser: turns the command-line seed plus a per-use tag
/// into a well-mixed 64-bit seed, so neighbouring `--seed` values give
/// unrelated inputs.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nanoseconds elapsed since `start`, as a float.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The speed, in operations per second, that [`HostSpeed`] calls nominal
/// (1.0): about what its kernel reaches on the development host at its
/// fastest.
pub const NOMINAL_REFERENCE_OPS_PER_S: f64 = 6.0e6;
/// Operations in one pass of the reference kernel (about 2 ms).
const REFERENCE_OPS: u32 = 12_000;
/// Words in the reference kernel's buffer (2 MB, larger than a core's
/// private caches).
const REFERENCE_WORDS: usize = 1 << 18;

/// The host's current speed, measured by a fixed kernel of the benchmark's
/// own: exponential draws, a binary heap of timestamps and random reads and
/// writes over a 2 MB buffer, the kinds of work a discrete-event run does.
///
/// On a shared host the program's speed drifts with the neighbours' load,
/// by up to a factor of two in phases lasting from a fraction of a second
/// to minutes, while the CPU time it gets stays equal to wall time. The
/// kernel's speed drifts with it, so a timed span divided by the kernel's
/// speed over the nominal one estimates the span on the nominal host. The
/// kernel calls nothing of the program, so a change to the program moves
/// the scaled figures as it moves the raw ones.
pub struct HostSpeed {
    buf: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            buf: (0..REFERENCE_WORDS as u64).collect(),
            heap: BinaryHeap::with_capacity(4096),
        }
    }

    /// Runs one pass of the kernel; returns its speed over the nominal.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let n = self.buf.len();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut clock = 0.0f64;
        self.heap.clear();
        for i in 0..REFERENCE_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            clock -= (1.0 - u).ln();
            self.heap.push(Reverse(((clock * 1e6) as u64 + (x & 1023), i)));
            if self.heap.len() > 2048 {
                if let Some(Reverse((t, _))) = self.heap.pop() {
                    let j = (t ^ x) as usize % n;
                    self.buf[j] = self.buf[j].wrapping_add(t);
                }
            }
            clock += (self.buf[(x >> 7) as usize % n] & 7) as f64 * 1e-9;
        }
        black_box(clock);
        f64::from(REFERENCE_OPS) / start.elapsed().as_secs_f64() / NOMINAL_REFERENCE_OPS_PER_S
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Accumulates metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.0.push(Metric { name, value, unit });
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit needed to read it back.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_neighbours_and_tags() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
