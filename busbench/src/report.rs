//! What every workload shares: timing samples and their interval
//! medians, output checks, the seeded output corruption, peak memory and
//! the one-line JSON result.

use std::time::{Duration, Instant};

use buscode_core::rng::Rng64;

/// The timed window is split into one-second intervals, and at least
/// this many. Throughput and latency percentiles are taken per interval
/// and the median across intervals is reported, so one preempted stretch
/// moves them little.
const MIN_INTERVALS: usize = 10;

/// An interval's own percentiles count only when it holds at least this
/// many requests; when no interval does, they pool every request.
const MIN_INTERVAL_REQUESTS: usize = 1000;

/// Largest latencies kept for the tail percentile: ten beyond it, and it.
const TAIL: usize = 11;

/// Completed work and raw request latencies of one timed window, binned
/// by the interval they completed in. An interval's latencies are reduced
/// to its percentiles when the next interval starts, so memory stays
/// bounded by one interval's requests. Work completing after the window
/// closed is left out.
pub struct Recorder {
    start: Instant,
    window: Duration,
    words: Vec<u64>,
    /// The interval `open` holds the latencies of.
    current: usize,
    /// Raw latencies in nanoseconds of the current interval.
    open: Vec<u32>,
    /// `(p50, p99)` in nanoseconds of every closed interval with enough
    /// requests.
    quantiles: Vec<(f64, f64)>,
    /// Raw latencies of closed intervals with too few requests.
    sparse: Vec<u32>,
    /// The `TAIL` largest latencies of the window, ascending.
    top: Vec<u32>,
    samples: usize,
}

impl Recorder {
    pub fn new(start: Instant, window: Duration) -> Self {
        let intervals = (window.as_secs() as usize).max(MIN_INTERVALS);
        Recorder {
            start,
            window,
            words: vec![0; intervals],
            current: 0,
            open: Vec::new(),
            quantiles: Vec::new(),
            sparse: Vec::new(),
            top: Vec::with_capacity(TAIL + 1),
            samples: 0,
        }
    }

    fn slot(&self, at: Instant) -> Option<usize> {
        let offset = at.saturating_duration_since(self.start).as_nanos();
        let span = self.window.as_nanos().max(1);
        (offset < span).then(|| (offset * self.words.len() as u128 / span) as usize)
    }

    /// A request of `words` words sent at `sent` has just completed.
    pub fn request(&mut self, sent: Instant, words: usize) {
        let done = Instant::now();
        self.record(done, done - sent, words);
    }

    /// A request of `words` words completed at `done` after `latency`.
    pub fn record(&mut self, done: Instant, latency: Duration, words: usize) {
        let Some(slot) = self.slot(done) else {
            return;
        };
        self.words[slot] += words as u64;
        if slot > self.current {
            self.close_interval();
            self.current = slot;
        }
        let ns = latency.as_nanos().min(u128::from(u32::MAX)) as u32;
        self.open.push(ns);
        self.samples += 1;
        if self.top.len() < TAIL || ns > self.top[0] {
            let at = self.top.partition_point(|&t| t < ns);
            self.top.insert(at, ns);
            if self.top.len() > TAIL {
                self.top.remove(0);
            }
        }
    }

    fn close_interval(&mut self) {
        if self.open.len() >= MIN_INTERVAL_REQUESTS {
            self.open.sort_unstable();
            self.quantiles
                .push((quantile(&self.open, 0.50), quantile(&self.open, 0.99)));
            self.open.clear();
        } else {
            self.sparse.append(&mut self.open);
        }
    }

    /// Folds in the recorder of another load thread over the same window.
    /// Its intervals count as intervals of their own.
    pub fn absorb(&mut self, mut other: Recorder) {
        other.close_interval();
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine += theirs;
        }
        self.quantiles.extend(other.quantiles);
        self.sparse.extend(other.sparse);
        self.top.extend(other.top);
        self.top.sort_unstable();
        let excess = self.top.len().saturating_sub(TAIL);
        self.top.drain(..excess);
        self.samples += other.samples;
    }
}

/// The end-to-end timing figures of one window.
pub struct Timing {
    pub words_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Requests completed inside the window.
    pub samples: usize,
    /// The highest percentile with at least ten samples beyond it, and
    /// its value in microseconds.
    pub tail: (f64, f64),
}

/// Reduces a recorder to its timing figures: the median over intervals
/// of the words per second and of the request percentiles.
pub fn summarize(mut rec: Recorder) -> Result<Timing, String> {
    rec.close_interval();
    if rec.samples == 0 {
        return Err("no request completed inside the timed window".to_string());
    }
    let interval_s = rec.window.as_secs_f64() / rec.words.len() as f64;
    let mut rates: Vec<f64> = rec.words.iter().map(|&w| w as f64 / interval_s).collect();
    let words_per_s = median(&mut rates);
    let (p50_ns, p99_ns) = if rec.quantiles.is_empty() {
        rec.sparse.sort_unstable();
        (quantile(&rec.sparse, 0.50), quantile(&rec.sparse, 0.99))
    } else {
        let mut p50: Vec<f64> = rec.quantiles.iter().map(|q| q.0).collect();
        let mut p99: Vec<f64> = rec.quantiles.iter().map(|q| q.1).collect();
        (median(&mut p50), median(&mut p99))
    };
    // Ten samples beyond the percentile, rounded down to 0.001 %.
    let n = rec.samples as f64;
    let tail_pct = (((100.0 * (1.0 - 10.0 / n)) * 1000.0).floor() / 1000.0).max(0.0);
    let tail_ns = rec.top.first().copied().map_or(0.0, f64::from);
    Ok(Timing {
        words_per_s,
        p50_us: p50_ns / 1e3,
        p99_us: p99_ns / 1e3,
        samples: rec.samples,
        tail: (tail_pct, tail_ns / 1e3),
    })
}

/// Nearest-rank quantile of an ascending slice, in the slice's unit.
fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Set-ups per run. Their median is `setup_s`. With this many, spread
/// over about half a second, a slow stretch of the host of a few tenths
/// of a second moves the median little.
const SETUPS: usize = 61;

/// Runs `setup` [`SETUPS`] times and keeps the last result; returns it
/// with the median set-up time in seconds. Each earlier result is handed
/// to `discard` before the next set-up starts, outside the timed region.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            discard(old)?;
        }
        let started = Instant::now();
        kept = Some(setup()?);
        secs.push(started.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or("set-up never ran")?;
    Ok((kept, median(&mut secs)))
}

/// The tally of output checks: words checked, words that failed, and
/// the first few reasons.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    dropped: u64,
}

impl Check {
    /// `words` offered words ended wrong; `why` says how.
    pub fn fail(&mut self, words: u64, why: String) {
        self.failed += words.max(1);
        if self.problems.len() < 8 {
            self.problems.push(why);
        } else {
            self.dropped += 1;
        }
    }

    /// Counts the words of `got` that differ from `want`, including
    /// missing and extra words, and fails them.
    pub fn compare(&mut self, got: &[u64], want: impl IntoIterator<Item = u64>, what: &str) {
        let mut expected = 0;
        let mut wrong = 0;
        for (i, w) in want.into_iter().enumerate() {
            expected += 1;
            wrong += usize::from(got.get(i) != Some(&w));
        }
        wrong += got.len().saturating_sub(expected);
        if wrong > 0 {
            self.fail(
                wrong as u64,
                format!("{what}: {wrong} of {expected} words wrong"),
            );
        }
    }

    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.dropped += other.dropped;
        for why in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(why);
            } else {
                self.dropped += 1;
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn report_problems(&self) {
        for why in &self.problems {
            eprintln!("busbench: check failed: {why}");
        }
        if self.dropped > 0 {
            eprintln!("busbench: ... and {} more failed checks", self.dropped);
        }
    }
}

/// The deliberate, seeded output corruption behind `--corrupt`: flips
/// the low bit of one output word in roughly one output batch in
/// [`Tamper::ONE_IN`], so the checks can be seen to catch it.
pub struct Tamper {
    rng: Option<Rng64>,
}

impl Tamper {
    const ONE_IN: u64 = 64;

    pub fn new(enabled: bool, seed: u64) -> Self {
        Tamper {
            rng: enabled.then(|| Rng64::seed_from_u64(seed)),
        }
    }

    pub fn apply(&mut self, out: &mut [u64]) {
        if let Some(rng) = &mut self.rng {
            if !out.is_empty() && rng.gen_range(0..Self::ONE_IN) == 0 {
                let at = rng.gen_range(0..out.len() as u64) as usize;
                out[at] ^= 1;
            }
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One named figure of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end result every workload reports, measured with the
/// per-layer replays switched off.
pub fn end_to_end(setup_s: f64, timing: &Timing, check: Check) -> Result<Outcome, String> {
    let notes = vec![format!(
        "{} request samples; highest percentile with ten beyond it: p{} = {:.3} us; failed_fraction {}",
        timing.samples,
        timing.tail.0,
        timing.tail.1,
        check.failed_fraction()
    )];
    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("words_per_s", timing.words_per_s, "words/s"),
            Metric::new("request_p50_us", timing.p50_us, "us"),
            Metric::new("request_p99_us", timing.p99_us, "us"),
            Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ],
        check,
        notes,
    })
}

/// What one run reports.
pub struct Outcome {
    pub check: Check,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn render_json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            metrics.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.check.passed(),
            self.check.attempted.max(1),
            self.check.failed,
            metrics.join(",")
        ))
    }
}
