//! A one-shot wall-clock timer for the experiment binaries.
//!
//! [`time_once`] runs a task once and prints its wall time as one JSON
//! line on stdout:
//!
//! ```text
//! {"name":"fig7a/sweep","median_ns":412337,"min_ns":412337,"max_ns":412337,"mean_ns":412337,"samples":1}
//! ```
//!
//! All four statistics equal the one sample; they stay in the line so
//! consumers of the `{"name":…,"median_ns":…}` shape keep parsing it.
//! Tracked performance numbers and work counters live in `perfbench/`.

use std::time::Instant;

/// Times one call of `f`, prints the JSON line, and returns the result
/// of `f` — the per-task wall-time hook the sweep binaries use (no
/// warmup: the task *is* the workload, e.g. a full Figure 7 sweep).
pub fn time_once<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    println!("{}", json_line(name, t0.elapsed().as_nanos()));
    out
}

/// One single-sample timing as a JSON object on a single line.
fn json_line(name: &str, ns: u128) -> String {
    format!(
        "{{\"name\":{name:?},\"median_ns\":{ns},\"min_ns\":{ns},\"max_ns\":{ns},\"mean_ns\":{ns},\"samples\":1}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_well_formed() {
        assert_eq!(
            json_line("group/case", 7),
            r#"{"name":"group/case","median_ns":7,"min_ns":7,"max_ns":7,"mean_ns":7,"samples":1}"#
        );
    }
}
