//! Shared pieces of the workloads: the seeded generator, sample summaries,
//! metric records and the process facts reported with every result.

use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable and identical on every host, so a seed names
/// the same inputs everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5d10_c0de_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Exact sample set; quantiles interpolate linearly between order
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_micros(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// `q` in `[0, 1]`; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }
}

/// One reported number with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics in report order; `set` replaces an earlier value of the same
/// name so a workload can fill in defaults first.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        let m = Metric {
            name: name.clone(),
            value,
            unit,
            samples,
        };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = m,
            None => self.0.push(m),
        }
    }

    /// `<name>.p50` and `<name>.p90` of a sample set.
    pub fn p50_p90(&mut self, name: &str, s: &Samples, unit: &'static str) {
        self.set(format!("{name}.p50"), s.p50(), unit, s.len());
        self.set(format!("{name}.p90"), s.p90(), unit, s.len());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What a workload hands back: its operation counts, end-to-end metrics
/// (untraced runs) or per-layer metrics (traced runs), and human notes.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Failure descriptions, capped, printed to stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Run the set-up `f` `reps` times and return the median wall time of the
/// runs and the value the last run produced; earlier values go to
/// `teardown`, untimed.
pub fn median_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, T) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps {
        if let Some(v) = last.take() {
            teardown(v);
        }
        let t = Instant::now();
        let v = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (times.p50(), last.expect("at least one set-up"))
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a over bytes: fingerprints replies and source files.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Sum of every series of the Prometheus metric `name` in a text
/// exposition (labels ignored); 0 when absent.
pub fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let rest = match rest.as_bytes().first() {
                Some(b'{') => &rest[rest.find('}')? + 1..],
                Some(b' ') => rest,
                _ => return None,
            };
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .sum()
}

/// One finished operation: when it finished (seconds since its phase
/// started), its latency, and how much work it did (1 for a request; the
/// accesses of a replay).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub at: f64,
    pub us: f64,
    pub work: f64,
}

impl Event {
    pub fn new(phase_start: Instant, began: Instant, ended: Instant, work: f64) -> Self {
        Event {
            at: ended.saturating_duration_since(phase_start).as_secs_f64(),
            us: (ended - began).as_secs_f64() * 1e6,
            work,
        }
    }
}

/// Work rate, p50 and p90 latency of a phase, each the median over equal
/// time windows (at most 10, at least ~100 operations each), so a stall
/// on a shared host moves a few windows rather than the result.
pub struct Windowed {
    pub rate: f64,
    pub p50: f64,
    pub p90: f64,
    pub n: usize,
}

pub fn windowed(events: &[Event], secs: f64) -> Windowed {
    let w = (events.len() / 100).clamp(1, 10);
    let width = secs / w as f64;
    let mut work = vec![0.0; w];
    let mut lat = vec![Samples::default(); w];
    for e in events {
        let k = ((e.at / width) as usize).min(w - 1);
        work[k] += e.work;
        lat[k].push(e.us);
    }
    let median = |f: &dyn Fn(usize) -> f64| {
        let mut s = Samples::default();
        (0..w).for_each(|k| s.push(f(k)));
        s.p50()
    };
    Windowed {
        rate: median(&|k| work[k] / width),
        p50: median(&|k| lat[k].p50()),
        p90: median(&|k| lat[k].p90()),
        n: events.len(),
    }
}

/// Set the three end-to-end metrics of one stream (`primary` or
/// `secondary`).
pub fn set_stream(m: &mut Metrics, stream: &str, events: &[Event], secs: f64) -> Windowed {
    let w = windowed(events, secs);
    m.set(format!("{stream}_per_s"), w.rate, "1/s", w.n);
    m.set(format!("{stream}_p50_us"), w.p50, "us", w.n);
    m.set(format!("{stream}_p90_us"), w.p90, "us", w.n);
    w
}
