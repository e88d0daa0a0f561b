//! Op bookkeeping, round driving, percentiles and per-layer accumulators.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What [`reference_kernel`] takes on the nominal host (ms). Every
/// reported time is scaled to this host speed: see [`HostSpeed`].
const REF_NOMINAL_MS: f64 = 0.75;

/// Op time (ms) after which the reference runs again, at the next op
/// boundary and at the end of every round. Shorter intervals follow the
/// host more closely; running the reference cools the caches of the op
/// after it, which matters for sub-ms ops.
const REF_INTERVAL_MS: f64 = 100.0;

/// Every op a pass attempted: timings of the timed ones, oracle
/// verdicts of all of them (warm-up included).
///
/// A round issues the same ops in the same order every time, so the
/// i-th op of every round is one "slot": the same input, the same work.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Tracks host speed once ops are timed (after the warm-up round).
    speed: Option<HostSpeed>,
    /// Host times (ms) of the ops since the last reference run.
    interval_ms: Vec<f64>,
    /// (host, adjusted) times (ms) of the current round's ops, in issue
    /// order.
    round_ms: Vec<(f64, f64)>,
    /// Host-speed-adjusted times (ms) of each slot, one per round.
    slots: Vec<Vec<f64>>,
    /// Domain work of each slot (simulated µs, flows, or states).
    slot_work: Vec<f64>,
    /// The host-speed factor of each timed round: adjusted over host
    /// op time.
    factors: Vec<f64>,
    /// The unadjusted op time of each timed round (ms).
    raw_rounds_ms: Vec<f64>,
    /// Ops attempted, timed or not.
    pub attempted: u64,
    /// Ops whose call errored or whose output failed its oracle.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Recorder {
    /// Records one op: its host time, the domain work it did, and its
    /// oracle verdict.
    pub fn op(&mut self, took: Duration, work: f64, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
        if self.speed.is_some() {
            if self.round_ms.len() + self.interval_ms.len() == self.slots.len() {
                self.slots.push(Vec::new());
                self.slot_work.push(work);
            }
            self.interval_ms.push(took.as_secs_f64() * 1e3);
            if self.interval_ms.iter().sum::<f64>() >= REF_INTERVAL_MS {
                self.close_interval();
            }
        }
    }

    /// Scales the ops since the last reference run by the host speed
    /// over that interval.
    fn close_interval(&mut self) {
        let Some(speed) = self.speed.as_mut() else {
            return;
        };
        if self.interval_ms.is_empty() {
            return;
        }
        let factor = speed.factor();
        self.round_ms
            .extend(self.interval_ms.drain(..).map(|t| (t, t * factor)));
    }

    /// Files the finished round's adjusted op times under their slots.
    fn close_round(&mut self) {
        self.close_interval();
        for (slot, &(_, adjusted)) in self.slots.iter_mut().zip(&self.round_ms) {
            slot.push(adjusted);
        }
        let raw: f64 = self.round_ms.iter().map(|t| t.0).sum();
        let adjusted: f64 = self.round_ms.iter().map(|t| t.1).sum();
        self.raw_rounds_ms.push(raw);
        self.factors.push(adjusted / raw);
        self.round_ms.clear();
    }

    /// Whether ops are being timed (false during the warm-up round).
    pub fn is_timed(&self) -> bool {
        self.speed.is_some()
    }

    /// Whole timed rounds completed.
    pub fn rounds(&self) -> usize {
        self.factors.len()
    }

    /// The host-speed factor of each timed round.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// The median unadjusted op time of a round (ms).
    pub fn raw_round_ms(&self) -> f64 {
        median(&self.raw_rounds_ms)
    }

    /// Every timed op's adjusted time (ms).
    pub fn op_ms(&self) -> Vec<f64> {
        self.slots.iter().flatten().copied().collect()
    }

    /// A typical round's adjusted op time (s): the sum over slots of
    /// each slot's median. A slot's median ignores the rounds a noisy
    /// neighbour slowed down, where a plain sum would not.
    fn round_s(&self) -> f64 {
        self.slots.iter().map(|t| median(t)).sum::<f64>() / 1e3
    }

    /// Ops completed per adjusted second of a typical round.
    pub fn ops_per_s(&self) -> f64 {
        self.slots.len() as f64 / self.round_s()
    }

    /// Domain work per adjusted second of a typical round.
    pub fn work_per_s(&self) -> f64 {
        self.slot_work.iter().sum::<f64>() / self.round_s()
    }

    /// The median adjusted op time (ms).
    pub fn p50(&self) -> f64 {
        median(&self.op_ms())
    }

    /// The highest percentile with ten ops beyond it (the 11th slowest
    /// op), as (percentile, adjusted value in ms), once every op is
    /// capped at its slot's upper quartile. Ops of ~20 ms that a host
    /// burst hit would otherwise set the tail; capped, the tail shows
    /// which inputs are slow, including any slowdown that recurs in
    /// most rounds.
    pub fn tail(&self) -> (f64, f64) {
        let capped: Vec<f64> = self
            .slots
            .iter()
            .flat_map(|times| {
                let cap = percentile(times, 75.0);
                times.iter().map(move |t| t.min(cap))
            })
            .collect();
        let n = capped.len();
        let p = 100.0 * n.saturating_sub(11) as f64 / n.saturating_sub(1).max(1) as f64;
        (p, percentile(&capped, p))
    }
}

/// Runs one untimed warm-up round, then whole timed rounds until
/// `seconds` of wall time have passed (at least one). The single caller
/// issues each op only after the previous one returned: a closed loop
/// with one client.
pub fn drive(seconds: f64, mut round: impl FnMut(&mut Recorder)) -> Recorder {
    let mut rec = Recorder::default();
    round(&mut rec);
    rec.speed = Some(HostSpeed::new());
    let start = Instant::now();
    while rec.rounds() == 0 || start.elapsed().as_secs_f64() < seconds {
        round(&mut rec);
        rec.close_round();
    }
    rec
}

/// Host-speed tracking. On a shared host the speed of one process is
/// not steady: on a 2-vCPU VM it drifted by 10–30% within seconds and,
/// at times, by up to 2x between runs. A fixed, standard-library-only
/// [`reference_kernel`] runs before and after each measured interval;
/// the interval's time is scaled by the nominal reference time over
/// the mean of the two, i.e.
/// reported as it would read on a host where the kernel takes
/// [`REF_NOMINAL_MS`]. The kernel is none of the program's code, so a
/// change to the program moves the adjusted times as it moves the raw
/// ones.
#[derive(Debug)]
pub struct HostSpeed {
    last_ms: f64,
}

impl HostSpeed {
    /// Runs the reference once to open the first interval.
    pub fn new() -> HostSpeed {
        HostSpeed {
            last_ms: reference_ms(),
        }
    }

    /// Closes the interval since the last call: runs the reference and
    /// returns the interval's scale factor.
    pub fn factor(&mut self) -> f64 {
        let now = reference_ms();
        let factor = REF_NOMINAL_MS * 2.0 / (self.last_ms + now);
        self.last_ms = now;
        factor
    }
}

/// The median of three timed runs of [`reference_kernel`] (ms).
fn reference_ms() -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let (out, took) = timed(reference_kernel);
            black_box(out);
            took.as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// The same small mix of sorting, small allocations and hashing every
/// time. Of the kernels tried (scattered reads over a 32 MB buffer, a
/// floating-point integrator, this mix) it followed the host's drift
/// best on all three workloads.
pub fn reference_kernel() -> u64 {
    let mut x = black_box(0x1234_5678_9abc_def1u64);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut sorted: Vec<u64> = (0..12_000).map(|_| next()).collect();
    sorted.sort_unstable();
    let small: Vec<Vec<u64>> = (0..2_000).map(|k| vec![k; (k % 7 + 1) as usize]).collect();
    let mut map = HashMap::new();
    for k in 0..6_000u64 {
        *map.entry(next() % 3_000).or_insert(0) += k;
    }
    sorted[sorted.len() / 2] ^ small.len() as u64 ^ map.len() as u64
}

/// Times `f`, returning its result and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// [`timed`], with a panic in `f` caught and returned as an error so it
/// counts as one failed op instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> (Result<T, String>, Duration) {
    let (out, took) = timed(|| panic::catch_unwind(AssertUnwindSafe(f)));
    let out = out.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("panicked: {msg}")
    });
    (out, took)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Per-layer sums of one traced pass: busy times (ms) and work counts,
/// keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Adds `value` to the sum named `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Adds every sum of `other` to this one, scaling times (names
    /// ending in `_ms`) by `factor`.
    pub fn merge_scaled(&mut self, other: &Layers, factor: f64) {
        for (name, value) in &other.0 {
            let scale = if name.ends_with("_ms") { factor } else { 1.0 };
            self.add(name, value * scale);
        }
    }

    /// Adds a duration, in ms, to the sum named `name`.
    pub fn add_ms(&mut self, name: &str, took: Duration) {
        self.add(name, took.as_secs_f64() * 1e3);
    }

    /// The sum named `name` (0 when nothing was added).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The peak resident set of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_keeps_ten_ops_beyond() {
        let mut rec = Recorder {
            speed: Some(HostSpeed {
                last_ms: REF_NOMINAL_MS,
            }),
            ..Recorder::default()
        };
        for i in 1..=300 {
            rec.op(Duration::from_millis(i), 1.0, Ok(()));
        }
        rec.close_round();
        let (_, tail) = rec.tail();
        let mut ops = rec.op_ms();
        ops.sort_by(f64::total_cmp);
        assert_eq!(ops.len(), 300);
        assert_eq!(tail, ops[300 - 11]);
    }
}
