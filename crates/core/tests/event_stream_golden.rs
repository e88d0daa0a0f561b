//! Differential golden for the digital event stream.
//!
//! The track-interning refactor (`Waveform.events` storing `TrackId`
//! instead of heap `String`s) is a pure representation change: the
//! rendered event stream must stay byte-identical to the String-era
//! output. This test pins `events_csv()` for a short Figure-6-style
//! run against a golden captured *before* the interning change, so any
//! drift in track naming, event ordering, or CSV formatting fails
//! loudly.
//!
//! Regenerate (only for an intentional behaviour change) with:
//!
//! ```sh
//! A4A_BLESS=1 cargo test -q -p a4a --test event_stream_golden
//! ```

use a4a::scenario::{self, ControllerKind};

const GOLDEN: &str = include_str!("golden/fig6_async_events_1500ns.csv");
const T_END: f64 = 1.5e-6;

fn short_fig6_events_csv() -> String {
    let ctrl = scenario::controller(ControllerKind::Async, 4);
    let mut tb = scenario::fig6().try_build(ctrl).expect("fig6 config valid");
    tb.try_run_until(T_END)
        .expect("short fig6 run must not diverge");
    tb.waveform().events_csv()
}

#[test]
fn event_stream_matches_string_era_rendering() {
    let got = short_fig6_events_csv();
    if std::env::var_os("A4A_BLESS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fig6_async_events_1500ns.csv"
        );
        std::fs::write(path, &got).expect("write golden");
        eprintln!("blessed {path}");
        return;
    }
    assert!(
        got.lines().count() > 50,
        "suspiciously few events ({}) in the 1.5 us window",
        got.lines().count()
    );
    if got != GOLDEN {
        for (idx, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "event stream diverges from the String-era golden at \
                 line {} (got vs golden)",
                idx + 1
            );
        }
        panic!(
            "event stream length changed: {} lines, golden has {}",
            got.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
