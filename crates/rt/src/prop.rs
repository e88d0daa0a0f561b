//! A minimal, deterministic property-testing harness replacing
//! `proptest` for this workspace.
//!
//! Design: a property is a closure over a [`Gen`], which hands out
//! values drawn from a seeded [`Rng`]. Every primitive draw
//! is recorded as a *choice* (one `u64` per draw); a failing case is
//! shrunk by mutating the recorded choice sequence (zeroing, halving,
//! decrementing, truncating) and replaying the property — the
//! "internal shrinking" approach of Hypothesis. Because range mapping
//! sends choice 0 to the range minimum, shrinking drives every drawn
//! value toward its simplest form without any per-type shrinker code.
//!
//! Reproducibility:
//! - Case seeds derive deterministically from the property name, so a
//!   plain `cargo test` replays the identical corpus on every platform.
//! - `A4A_PROP_CASES=N` overrides the case count (like
//!   `PROPTEST_CASES`).
//! - On failure the harness panics with a `A4A_PROP_SEED=0x…` line;
//!   setting that variable reruns exactly the failing case (then
//!   shrinks it again), regardless of the case count.
//!
//! ```
//! a4a_rt::prop::check("doc_example", |g| {
//!     let xs = g.vec(1..20, |g| g.u64(0..100));
//!     let mut sorted = xs.clone();
//!     sorted.sort_unstable();
//!     a4a_rt::prop_assert_eq!(sorted.len(), xs.len());
//!     Ok(())
//! });
//! ```

use crate::rng::{splitmix64, Rng};

/// Why a single case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropError {
    /// The property's assertion failed (message explains how).
    Fail(String),
    /// The generated inputs don't satisfy the property's precondition;
    /// the case is retried with fresh inputs and not counted.
    Discard,
}

/// Alias kept so helper functions can use the familiar `proptest` name
/// in their signatures (`Result<(), TestCaseError>`).
pub type TestCaseError = PropError;

/// Result type of a property body.
pub type PropResult = Result<(), PropError>;

/// Asserts a condition inside a property body, returning
/// [`PropError::Fail`] (with optional formatted context) instead of
/// panicking, so the harness can shrink the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::PropError::Fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::PropError::Fail(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Equality assertion for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::prop::PropError::Fail(format!(
                "{} == {} failed: {:?} vs {:?} at {}:{}",
                stringify!($a),
                stringify!($b),
                a,
                b,
                file!(),
                line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::prop::PropError::Fail(format!(
                "{} == {} failed: {:?} vs {:?} ({}) at {}:{}",
                stringify!($a),
                stringify!($b),
                a,
                b,
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    }};
}

/// Inequality assertion for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err($crate::prop::PropError::Fail(format!(
                "{} != {} failed: both {:?} at {}:{}",
                stringify!($a),
                stringify!($b),
                a,
                file!(),
                line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err($crate::prop::PropError::Fail(format!(
                "{} != {} failed: both {:?} ({}) at {}:{}",
                stringify!($a),
                stringify!($b),
                a,
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    }};
}

/// Discards the current case (precondition unmet); the harness retries
/// with fresh inputs without counting the case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::PropError::Discard);
        }
    };
}

/// How the harness runs a property.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required (default 256; env
    /// `A4A_PROP_CASES` overrides).
    pub cases: u32,
    /// Cap on replays spent shrinking a failure.
    pub shrink_budget: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            shrink_budget: 2048,
        }
    }
}

impl Config {
    /// A config asking for `cases` passing cases (env still overrides).
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }

    fn effective_cases(&self) -> u32 {
        match std::env::var("A4A_PROP_CASES") {
            Ok(v) => v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("A4A_PROP_CASES={v:?} is not a number")),
            Err(_) => self.cases,
        }
    }
}

enum Source {
    /// Fresh generation: draw from the RNG, record every choice.
    Random(Rng),
    /// Replay of a recorded (possibly mutated) choice sequence; reads
    /// past the end yield 0, i.e. every range's minimum.
    Replay(usize),
}

/// The value source handed to a property body: draws primitives,
/// collections, and choices from a deterministic stream.
pub struct Gen {
    source: Source,
    choices: Vec<u64>,
}

impl Gen {
    fn random(seed: u64) -> Gen {
        Gen {
            source: Source::Random(Rng::from_seed(seed)),
            choices: Vec::new(),
        }
    }

    fn replay(choices: Vec<u64>) -> Gen {
        Gen {
            source: Source::Replay(0),
            choices,
        }
    }

    /// One raw choice in `[0, u64::MAX]`. Everything funnels through
    /// here so shrinking sees a flat `u64` sequence.
    fn draw(&mut self) -> u64 {
        match &mut self.source {
            Source::Random(rng) => {
                let x = rng.next_u64();
                self.choices.push(x);
                x
            }
            Source::Replay(i) => {
                let x = self.choices.get(*i).copied().unwrap_or(0);
                *i += 1;
                x
            }
        }
    }

    /// Uniform `u64` in the half-open range (choice 0 maps to `lo`).
    pub fn u64(&mut self, r: std::ops::Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        let span = r.end - r.start;
        r.start + ((u128::from(self.draw()) * u128::from(span)) >> 64) as u64
    }

    /// Uniform `usize` in the half-open range.
    pub fn usize(&mut self, r: std::ops::Range<usize>) -> usize {
        self.u64(r.start as u64..r.end as u64) as usize
    }

    /// Uniform `i64` in the half-open range.
    pub fn i64(&mut self, r: std::ops::Range<i64>) -> i64 {
        let span = r.end.wrapping_sub(r.start) as u64;
        let off = ((u128::from(self.draw()) * u128::from(span)) >> 64) as u64;
        r.start.wrapping_add(off as i64)
    }

    /// Uniform `f64` in `[lo, hi)` (choice 0 maps to `lo`).
    pub fn f64(&mut self, r: std::ops::Range<f64>) -> f64 {
        assert!(r.start < r.end, "empty range");
        let unit = (self.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        r.start + unit * (r.end - r.start)
    }

    /// A boolean (choice 0 maps to `false`).
    pub fn bool(&mut self) -> bool {
        self.draw() & 1 == 1
    }

    /// Any `u64` whatsoever (the raw choice).
    pub fn any_u64(&mut self) -> u64 {
        self.draw()
    }

    /// A vector with length drawn from `len`, elements from `f`.
    pub fn vec<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// An index in `[0, n)` for dispatching between alternatives (the
    /// replacement for `prop_oneof!`).
    pub fn choice(&mut self, n: usize) -> usize {
        assert!(n > 0, "choice over nothing");
        self.usize(0..n)
    }

    /// A reference to a uniformly-picked element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.choice(items.len())]
    }

    /// Fisher–Yates shuffle (in place) — the replacement for
    /// `prop_shuffle`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize(0..i + 1);
            items.swap(i, j);
        }
    }

    /// A string of length drawn from `len` over the given alphabet.
    pub fn string_of(&mut self, alphabet: &str, len: std::ops::Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = self.usize(len);
        (0..n).map(|_| *self.pick(&chars)).collect()
    }

    /// A string of printable characters (ASCII plus a sprinkling of
    /// multi-byte code points) — the replacement for the `\PC{..}`
    /// regex strategy used to fuzz parsers.
    pub fn printable_string(&mut self, len: std::ops::Range<usize>) -> String {
        let n = self.usize(len);
        (0..n)
            .map(|_| match self.choice(8) {
                // Bias toward ASCII so structured parsers see realistic
                // input, but keep genuine multi-byte coverage.
                0 => char::from_u32(0xA1 + self.u64(0..0x100) as u32).unwrap_or('¡'),
                1 => *self.pick(&['é', 'λ', '→', '±', '∀', '中', '🦀', '\u{2028}']),
                _ => char::from(0x20 + self.u64(0..0x5F) as u8),
            })
            .collect()
    }
}

/// Parses an `A4A_PROP_SEED` value: a hex `u64`, `0x` prefix optional,
/// surrounding whitespace allowed. The error names the bad value.
///
/// Every reader of the variable goes through this one parser: the
/// harness here, the ablation batches' root seed and the fault tier.
pub fn parse_seed(value: &str) -> Result<u64, String> {
    let hex = value.trim();
    let hex = hex.strip_prefix("0x").unwrap_or(hex);
    u64::from_str_radix(hex, 16).map_err(|_| format!("A4A_PROP_SEED={value:?} is not a hex u64"))
}

/// Runs `prop` under the default [`Config`]. Panics (with a reproducing
/// seed) if any case fails after shrinking.
pub fn check(name: &str, prop: impl Fn(&mut Gen) -> PropResult) {
    check_with(&Config::default(), name, prop);
}

/// Runs `prop` under an explicit config.
pub fn check_with(config: &Config, name: &str, prop: impl Fn(&mut Gen) -> PropResult) {
    // The corpus is a pure function of the property name: stable across
    // runs, platforms, and unrelated edits to other tests.
    let mut h = 0xA4A0_5EED_0000_0001u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    let base = h;

    if let Ok(v) = std::env::var("A4A_PROP_SEED") {
        let seed = parse_seed(&v).unwrap_or_else(|e| panic!("{e}"));
        run_one(config, name, seed, 0, &prop);
        return;
    }

    let cases = config.effective_cases();
    let mut passed = 0u32;
    let mut discarded = 0u32;
    let mut stream = base;
    while passed < cases {
        let seed = splitmix64(&mut stream);
        match run_case(seed, &prop) {
            Ok(()) => passed += 1,
            Err(PropError::Discard) => {
                discarded += 1;
                assert!(
                    discarded < cases.saturating_mul(16).max(1024),
                    "property {name:?}: too many discarded cases \
                     ({discarded} discards for {passed} passes) — \
                     loosen the generator instead of prop_assume!"
                );
            }
            Err(PropError::Fail(_)) => {
                run_one(config, name, seed, passed, &prop);
                unreachable!("run_one panics on failure");
            }
        }
    }
}

fn run_case(seed: u64, prop: &impl Fn(&mut Gen) -> PropResult) -> PropResult {
    let mut g = Gen::random(seed);
    prop(&mut g)
}

/// Reruns one seed; on failure, shrinks and panics with the report.
fn run_one(
    config: &Config,
    name: &str,
    seed: u64,
    case_index: u32,
    prop: &impl Fn(&mut Gen) -> PropResult,
) {
    let mut g = Gen::random(seed);
    match prop(&mut g) {
        Ok(()) | Err(PropError::Discard) => (),
        Err(PropError::Fail(first_msg)) => {
            let (choices, msg, replays) = shrink(config, g.choices, first_msg, prop);
            panic!(
                "property {name:?} failed (case {case_index}): {msg}\n\
                 shrunk to {n} choices after {replays} replays\n\
                 reproduce with: A4A_PROP_SEED={seed:#018x} \
                 (env var, then rerun this test)",
                n = choices.len(),
            );
        }
    }
}

/// Hypothesis-style choice-sequence shrinking: try simpler sequences
/// (shorter, then element-wise smaller) and keep any that still fail.
fn shrink(
    config: &Config,
    mut choices: Vec<u64>,
    mut msg: String,
    prop: &impl Fn(&mut Gen) -> PropResult,
) -> (Vec<u64>, String, u32) {
    let mut replays = 0u32;
    let try_candidate = |cand: Vec<u64>, replays: &mut u32| -> Option<(Vec<u64>, String)> {
        if *replays >= config.shrink_budget {
            return None;
        }
        *replays += 1;
        let mut g = Gen::replay(cand);
        match prop(&mut g) {
            Err(PropError::Fail(m)) => Some((g.choices, m)),
            _ => None,
        }
    };

    let mut progress = true;
    while progress && replays < config.shrink_budget {
        progress = false;

        // Pass 1: drop trailing halves / quarters of the sequence.
        let mut cut = choices.len() / 2;
        while cut > 0 && replays < config.shrink_budget {
            // An accepted candidate shortens `choices` under `cut`.
            cut = cut.min(choices.len());
            let cand: Vec<u64> = choices[..choices.len() - cut].to_vec();
            if let Some((c, m)) = try_candidate(cand, &mut replays) {
                choices = c;
                msg = m;
                progress = true;
            } else {
                cut /= 2;
            }
        }

        // Pass 2: zero each nonzero choice (range minimum).
        for i in 0..choices.len() {
            if choices[i] == 0 || replays >= config.shrink_budget {
                continue;
            }
            let mut cand = choices.clone();
            cand[i] = 0;
            if let Some((c, m)) = try_candidate(cand, &mut replays) {
                choices = c;
                msg = m;
                progress = true;
            }
        }

        // Pass 3: halve each remaining nonzero choice.
        for i in 0..choices.len() {
            if replays >= config.shrink_budget {
                break;
            }
            while choices[i] > 0 {
                let mut cand = choices.clone();
                cand[i] /= 2;
                if let Some((c, m)) = try_candidate(cand, &mut replays) {
                    choices = c;
                    msg = m;
                    progress = true;
                } else {
                    break;
                }
            }
        }
    }
    (choices, msg, replays)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_reads_hex_and_rejects_the_rest() {
        assert_eq!(parse_seed("0xc0ffee"), Ok(0xc0ffee));
        assert_eq!(parse_seed(" c0ffee "), Ok(0xc0ffee));
        assert_eq!(
            parse_seed("zz"),
            Err("A4A_PROP_SEED=\"zz\" is not a hex u64".to_string())
        );
        assert!(parse_seed("").is_err());
    }

    #[test]
    fn passing_property_passes() {
        check("sort_is_idempotent", |g| {
            let mut xs = g.vec(0..50, |g| g.u64(0..1000));
            xs.sort_unstable();
            let once = xs.clone();
            xs.sort_unstable();
            crate::prop_assert_eq!(once, xs);
            Ok(())
        });
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let err = std::panic::catch_unwind(|| {
            check("has_no_big_element", |g| {
                let xs = g.vec(0..50, |g| g.u64(0..1000));
                crate::prop_assert!(xs.iter().all(|&x| x < 900), "found {:?}", xs);
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("A4A_PROP_SEED="), "{msg}");
        assert!(msg.contains("has_no_big_element"), "{msg}");
    }

    #[test]
    fn shrinking_minimises_a_counterexample() {
        // The minimal failing input for "sum < 100" with elements in
        // 0..10 needs at least 11 elements; shrinking should get the
        // choice count at least below the worst case of 50 draws.
        let err = std::panic::catch_unwind(|| {
            check("sum_is_small", |g| {
                let xs = g.vec(0..50, |g| g.u64(0..10));
                crate::prop_assert!(xs.iter().sum::<u64>() < 100);
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        let n: usize = msg
            .split("shrunk to ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("parse choice count");
        assert!(n <= 30, "shrinking made no progress: {msg}");
    }

    #[test]
    fn shrinking_a_property_that_always_fails_reports_it() {
        // Every candidate fails, so pass 1 accepts the first half, then
        // the empty sequence, with `cut` still at a quarter of the
        // original length: the next cut must not reach below zero.
        let err = std::panic::catch_unwind(|| {
            check("always_fails", |g| {
                let xs = g.vec(8..16, |g| g.u64(0..10));
                crate::prop_assert!(xs.len() > 100);
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("shrunk to 0 choices"), "{msg}");
    }

    #[test]
    fn discard_retries_without_counting() {
        let hits = std::cell::Cell::new(0u32);
        check_with(&Config::with_cases(16), "assume_filters", |g| {
            let x = g.u64(0..10);
            crate::prop_assume!(x % 2 == 0);
            hits.set(hits.get() + 1);
            crate::prop_assert!(x % 2 == 0);
            Ok(())
        });
        assert!(hits.get() >= 16, "only {} counted cases", hits.get());
    }

    #[test]
    fn corpus_is_deterministic() {
        let collect = || {
            let out = std::cell::RefCell::new(Vec::new());
            check_with(&Config::with_cases(8), "corpus_probe", |g| {
                out.borrow_mut()
                    .push((g.u64(0..1_000_000), g.bool(), g.f64(0.0..1.0).to_bits()));
                Ok(())
            });
            out.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        check("shuffle_permutes", |g| {
            let mut xs: Vec<usize> = (0..10).collect();
            g.shuffle(&mut xs);
            let mut back = xs.clone();
            back.sort_unstable();
            crate::prop_assert_eq!(back, (0..10).collect::<Vec<_>>());
            Ok(())
        });
    }

    #[test]
    fn string_generators_respect_alphabet_and_length() {
        check("strings_well_formed", |g| {
            let s = g.string_of("abc", 1..7);
            crate::prop_assert!((1..7).contains(&s.chars().count()));
            crate::prop_assert!(s.chars().all(|c| "abc".contains(c)));
            let p = g.printable_string(0..40);
            crate::prop_assert!(p.chars().count() < 40);
            Ok(())
        });
    }
}
