//! Small self-contained helpers: a seeded RNG, order statistics, a
//! JSON writer and process probes. The benchmark has no dependencies
//! beyond the engine crates, so these stay here.

use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so every
/// input is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1A4_F87B)
    }

    /// A derived generator for one named purpose, independent of how
    /// much any other stream consumed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample summarised as the benchmark reports it: the
/// median and a tail percentile that has at least ten samples beyond
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tail {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    /// The percentile actually reported as the tail: 99 when the
    /// sample supports it, else the highest one that does.
    pub tail_pct: f64,
}

impl Tail {
    pub fn of(values: &[f64]) -> Tail {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Tail::default();
        }
        // Nearest rank r (1-based) of percentile p is ceil(p·n / 100);
        // at least ten samples must lie above the tail's rank.
        let rank = |pct: usize| ((pct * n).div_ceil(100)).clamp(1, n);
        let tail_pct = (50..=99)
            .rev()
            .find(|&pct| n - rank(pct) >= 10)
            .unwrap_or(50);
        Tail {
            samples: n,
            p50: v[rank(50) - 1],
            p99: v[rank(tail_pct) - 1],
            tail_pct: tail_pct as f64,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Shrinks this thread's timer slack to 1 ns, so a generator that
/// sleeps until a request is due wakes within microseconds instead of
/// the default 50 µs slack.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK only reads its integer argument and
    // changes a per-thread scheduling attribute.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A flat JSON object writer (the result line and the trace file are
/// the only JSON the benchmark emits).
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    pub fn new() -> Self {
        JsonObject::default()
    }

    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push(format!("{}:{}", quote(key), value));
        self
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, number(value))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, quote(value))
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// A finite number with all its digits; non-finite values (which JSON
/// cannot carry) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.p99, 990.0);
        assert_eq!(t.p50, 500.0);
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Tail::of(&small);
        assert_eq!(t.tail_pct, 95.0);
        assert_eq!(t.p99, 190.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
