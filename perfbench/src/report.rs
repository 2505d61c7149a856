//! Statistics, the seeded generator, process memory and the result line.

use std::fmt::Write;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny deterministic generator, so one `--seed` always
/// yields the same inputs and request stream.
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of
    /// one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Kernel time, in ms, that defines reference time: a timed interval is
/// reported as its wall-clock times this over the kernel time measured at
/// its two ends. The kernel takes about this long on the 2-vCPU container
/// the benchmark was built on, while that container runs at its fast speed.
const REF_KERNEL_MS: f64 = 5.0;
/// Kernel runs per gauge sample; a sample is their median.
const KERNEL_RUNS: usize = 3;

/// A machine-speed gauge.
///
/// On a shared container, memory-heavy code runs up to about 1.4× slower
/// for seconds to minutes at a time, while a pure arithmetic loop keeps
/// its speed: other tenants load the caches and memory the CPU shares.
/// Medians within one run cannot remove a slow stretch that covers most
/// of the run, so each timed interval is scaled by the speed of a fixed
/// kernel timed at its ends. The kernel does the same kind of work as the
/// program — it builds a random gate graph with `Vec` adjacency lists and
/// a name map, sorts it topologically and propagates arrival times — but
/// is the benchmark's own code, so a change to the program moves scaled
/// times exactly as it moves wall-clock.
///
/// Over four minutes of back-to-back `table1` passes, 30 s windows gave
/// medians over a range of 39 % in wall-clock and 11 % scaled.
pub struct Gauge {
    /// The kernel time (ms) at the end of the last interval.
    last: f64,
    /// Every kernel sample so far, ms.
    pub kernel_ms: Vec<f64>,
}

/// The kernel: a fixed random DAG of 20 000 gates, each but the first
/// with two fan-ins, built as adjacency lists with a name map, then sorted
/// topologically with arrival times propagated. Returns its time in ms.
fn kernel() -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    const N: usize = 20_000;
    let t0 = Instant::now();
    let mut rng = Rng::new(1, 4);
    let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); N];
    let mut fanin = vec![0u32; N];
    for v in 1..N {
        for _ in 0..2 {
            fanout[rng.below(v)].push(v as u32);
            fanin[v] += 1;
        }
    }
    let mut names: HashMap<String, u32, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(N, Default::default());
    for v in 0..N {
        names.insert(format!("n{v}"), v as u32);
    }
    let mut ready: Vec<u32> = (0..N as u32).filter(|&v| fanin[v as usize] == 0).collect();
    let mut arrival = vec![0u32; N];
    while let Some(u) = ready.pop() {
        for &w in &fanout[u as usize] {
            let w = w as usize;
            arrival[w] = arrival[w].max(arrival[u as usize] + 10);
            fanin[w] -= 1;
            if fanin[w] == 0 {
                ready.push(w as u32);
            }
        }
    }
    std::hint::black_box((names.get("n777"), &arrival));
    ms(t0.elapsed())
}

impl Gauge {
    /// A gauge whose first interval starts now.
    pub fn new() -> Gauge {
        let mut gauge = Gauge {
            last: 0.0,
            kernel_ms: Vec::new(),
        };
        gauge.last = gauge.sample();
        gauge
    }

    /// Times the kernel now: the median of [`KERNEL_RUNS`] runs, ms.
    fn sample(&mut self) -> f64 {
        let runs: Vec<f64> = (0..KERNEL_RUNS).map(|_| kernel()).collect();
        let t = median(&runs);
        self.kernel_ms.push(t);
        t
    }

    /// Closes the interval since the last call (or since [`Gauge::new`])
    /// and returns its factor: a wall-clock time taken inside the interval
    /// times this is reference time.
    pub fn factor(&mut self) -> f64 {
        let now = self.sample();
        let factor = REF_KERNEL_MS / ((self.last + now) / 2.0);
        self.last = now;
        factor
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// Nearest-rank (ceiling) percentile of `values`, `q` in `[0, 1]`; `0.0`
/// for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`: the mean of the middle two for an even count;
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 {
        return percentile(values, 0.5);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match n {
        0 => 0.0,
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or `0.0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`), `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in print order.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// These metrics with every time (unit `ms` or `us`) multiplied by a
    /// [`Gauge`] factor.
    pub fn scale_times(mut self, factor: f64) -> Metrics {
        for (_, value, unit) in &mut self.0 {
            if matches!(*unit, "ms" | "us") {
                *value *= factor;
            }
        }
        self
    }
}

/// What one run did: the operations it checked, the ones that failed, and
/// its metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations with a wrong answer, an error reply or a transport
    /// failure.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn gauge_factor_is_reference_over_kernel_time() {
        let mut gauge = Gauge::new();
        let factor = gauge.factor();
        let [start, end] = gauge.kernel_ms[..] else {
            panic!("one sample at each end of the interval");
        };
        assert!(start > 0.0 && end > 0.0);
        assert_eq!(factor, REF_KERNEL_MS / ((start + end) / 2.0));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn result_line_shape() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.25, "s");
        let line = result_line(&Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
