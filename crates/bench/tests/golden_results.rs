//! Golden-result regression suite: regenerates Table I and the Figure
//! 7a/7b/7c sweeps in-process and compares every cell against the
//! checked-in expected values (which mirror `results/*.csv`).
//!
//! The whole pipeline is deterministic, so the tolerances below are
//! tight — they only absorb formatting-level noise, not model drift. A
//! mismatch fails the test *and* prints a ready-to-paste replacement
//! for the expected-value block, so an intentional recalibration is a
//! copy-paste plus a `results/` regeneration away.

use a4a::scenario::{self, ControllerKind};
use a4a_analog::metrics;
use a4a_bench::experiments::{fig7a, fig7b, fig7c, ripple_loss_uw, sweep_cell, table1, SweepPoint};

/// Per-column absolute tolerances for Table I reaction times (ns),
/// columns HL/UV/OV/OC/ZC. The sync rows are closed-form; ASYNC is a
/// measured stimulus-response but still bit-deterministic.
const TOL_TABLE1: [f64; 5] = [0.005, 0.005, 0.005, 0.005, 0.005];

/// Per-column tolerances for the Figure 7a/7b peak currents (mA),
/// columns 100MHz/333MHz/666MHz/1GHz/ASYNC.
const TOL_PEAK_MA: [f64; 5] = [0.05, 0.05, 0.05, 0.05, 0.05];

/// Per-column tolerances for the Figure 7c ripple losses (µW). Losses
/// integrate i²R over the whole run, so the scale is larger.
const TOL_LOSS_UW: [f64; 5] = [1.0, 1.0, 1.0, 1.0, 1.0];

/// Table I, `results/table1.csv`: reaction time in ns per condition.
const EXPECTED_TABLE1: &[(&str, [f64; 5])] = &[
    ("100MHz", [25.000, 25.000, 25.000, 25.000, 25.000]),
    ("333MHz", [7.508, 7.508, 7.508, 7.508, 7.508]),
    ("666MHz", [3.754, 3.754, 3.754, 3.754, 3.754]),
    ("1GHz", [2.500, 2.500, 2.500, 2.500, 2.500]),
    ("ASYNC", [1.870, 1.020, 1.180, 0.750, 0.310]),
];

/// Figure 7a, `results/fig7a.csv`: peak inductor current (mA) over the
/// 1–10 µH coil grid at a 6 Ω load.
const EXPECTED_7A: &[(f64, [f64; 5])] = &[
    (1.0000, [391.8359, 339.4416, 324.4683, 314.2996, 307.9005]),
    (1.8000, [273.1133, 265.1313, 261.5682, 255.5265, 253.7166]),
    (2.2500, [254.9148, 251.4870, 248.3994, 243.9897, 242.3379]),
    (3.1000, [237.1193, 235.8671, 234.1802, 230.7614, 229.4483]),
    (4.7000, [227.9720, 222.5301, 221.4926, 219.9790, 218.2983]),
    (5.7000, [221.4015, 217.9170, 216.9021, 215.8278, 214.6716]),
    (6.8000, [214.9959, 214.2874, 213.4178, 212.6984, 211.6859]),
    (8.2000, [216.7976, 211.1736, 210.6611, 209.1963, 209.1425]),
    (10.0000, [212.4830, 208.5042, 207.9358, 207.2272, 206.8717]),
];

/// Figure 7b, `results/fig7b.csv`: peak inductor current (mA) over the
/// 3–15 Ω load grid at 4.7 µH.
const EXPECTED_7B: &[(f64, [f64; 5])] = &[
    (3.0000, [228.0970, 222.5685, 221.5694, 220.0656, 218.4936]),
    (6.0000, [227.9720, 222.5301, 221.4926, 219.9790, 218.2983]),
    (9.0000, [227.9291, 222.2424, 221.3022, 218.9711, 218.4320]),
    (12.0000, [227.9074, 222.7858, 221.1866, 219.9369, 218.4394]),
    (15.0000, [227.8944, 222.7005, 221.1166, 219.8798, 218.3727]),
];

/// Figure 7c, `results/fig7c.csv`: inductor ripple losses (µW) over the
/// 1–10 µH coil grid at a 6 Ω load.
const EXPECTED_7C: &[(f64, [f64; 5])] = &[
    (
        1.0000,
        [5810.9631, 2637.9082, 2341.8101, 2787.9151, 3179.2942],
    ),
    (
        1.8000,
        [4859.7153, 4352.7393, 4483.1489, 4857.6605, 5673.6938],
    ),
    (
        2.2500,
        [6431.1556, 5920.4046, 5827.5068, 5743.6533, 6451.6292],
    ),
    (
        3.1000,
        [6928.9085, 7215.6527, 6322.9600, 6474.5336, 7699.4127],
    ),
    (
        4.7000,
        [12708.2347, 7928.0357, 8692.7234, 6768.6384, 8048.8010],
    ),
    (
        5.7000,
        [13541.1912, 9366.4170, 9506.0213, 10540.4197, 10069.2387],
    ),
    (
        6.8000,
        [18256.2831, 13551.4650, 10100.4652, 9580.4287, 8992.9263],
    ),
    (
        8.2000,
        [14947.4287, 12410.1204, 10422.5199, 10628.7161, 10381.7674],
    ),
    (
        10.0000,
        [19100.0970, 13858.7115, 9796.5859, 11121.3396, 9441.3798],
    ),
];

const SERIES: [&str; 5] = ["100MHz", "333MHz", "666MHz", "1GHz", "ASYNC"];

/// Renders a sweep as a ready-to-paste replacement for one of the
/// `EXPECTED_*` blocks above.
fn paste_block(name: &str, points: &[SweepPoint]) -> String {
    let mut s = format!("const {name}: &[(f64, [f64; 5])] = &[\n");
    for p in points {
        let ys: Vec<String> = p.y.iter().map(|v| format!("{v:.4}")).collect();
        s.push_str(&format!("    ({:.4}, [{}]),\n", p.x, ys.join(", ")));
    }
    s.push_str("];");
    s
}

/// Compares a regenerated sweep against its golden block; on any
/// out-of-tolerance cell, prints every offending cell plus the paste
/// block and panics.
fn check_sweep(
    name: &str,
    points: &[SweepPoint],
    expected: &[(f64, [f64; 5])],
    tol: &[f64; 5],
    unit: &str,
) {
    let mut errors = Vec::new();
    if points.len() != expected.len() {
        errors.push(format!(
            "{name}: row count {} != expected {}",
            points.len(),
            expected.len()
        ));
    }
    for (p, (x, ys)) in points.iter().zip(expected) {
        if (p.x - x).abs() > 1e-9 {
            errors.push(format!("{name}: grid point {} != expected {x}", p.x));
            continue;
        }
        for (col, ((got, want), t)) in p.y.iter().zip(ys).zip(tol).enumerate() {
            if !got.is_finite() {
                errors.push(format!("{name} x={x} {}: non-finite {got}", SERIES[col]));
            } else if (got - want).abs() > *t {
                errors.push(format!(
                    "{name} x={x} {}: got {got:.4} want {want:.4} (±{t}) {unit}",
                    SERIES[col]
                ));
            }
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("MISMATCH {e}");
        }
        eprintln!(
            "\nIf this change is intentional, replace the expected block with:\n\n{}\n\n\
             ...and regenerate results/ with `cargo run --release --bin {}`.",
            paste_block(name, points),
            name.trim_start_matches("EXPECTED_")
                .to_lowercase()
                .replace("7", "fig7")
        );
        panic!("{name}: {} golden cell(s) out of tolerance", errors.len());
    }
}

#[test]
fn table1_matches_golden() {
    let rows = table1();
    assert_eq!(rows.len(), EXPECTED_TABLE1.len(), "Table I row count");
    let mut errors = Vec::new();
    for (row, (label, ys)) in rows.iter().zip(EXPECTED_TABLE1) {
        assert_eq!(&row.label, label, "Table I row order");
        for (col, ((got, want), t)) in row.ns.iter().zip(ys).zip(&TOL_TABLE1).enumerate() {
            if !got.is_finite() || (got - want).abs() > *t {
                errors.push(format!(
                    "table1 {label} {}: got {got:.3} want {want:.3} (±{t}) ns",
                    ["HL", "UV", "OV", "OC", "ZC"][col]
                ));
            }
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("MISMATCH {e}");
        }
        let mut s = String::from("const EXPECTED_TABLE1: &[(&str, [f64; 5])] = &[\n");
        for row in &rows {
            let ys: Vec<String> = row.ns.iter().map(|v| format!("{v:.3}")).collect();
            s.push_str(&format!("    (\"{}\", [{}]),\n", row.label, ys.join(", ")));
        }
        s.push_str("];");
        eprintln!(
            "\nIf this change is intentional, replace the expected block with:\n\n{s}\n\n\
             ...and regenerate results/ with `cargo run --release --bin table1`."
        );
        panic!("table1: {} golden cell(s) out of tolerance", errors.len());
    }
}

#[test]
fn fig7a_matches_golden() {
    check_sweep("EXPECTED_7A", &fig7a(), EXPECTED_7A, &TOL_PEAK_MA, "mA");
}

#[test]
fn fig7b_matches_golden() {
    check_sweep("EXPECTED_7B", &fig7b(), EXPECTED_7B, &TOL_PEAK_MA, "mA");
}

#[test]
fn fig7c_matches_golden() {
    check_sweep("EXPECTED_7C", &fig7c(), EXPECTED_7C, &TOL_LOSS_UW, "µW");
}

/// The paper's headline claim, pinned as an invariant rather than a raw
/// number: the ASYNC controller's peak current is at or below every
/// synchronous series at every grid point of Fig. 7a/7b.
#[test]
fn async_dominates_sync_peaks() {
    for (fig, points) in [("fig7a", fig7a()), ("fig7b", fig7b())] {
        for p in &points {
            let async_peak = p.y[4];
            for (i, &sync_peak) in p.y[..4].iter().enumerate() {
                assert!(
                    async_peak <= sync_peak + 1.0,
                    "{fig} x={}: ASYNC {async_peak:.2} mA exceeds {} {sync_peak:.2} mA",
                    p.x,
                    SERIES[i]
                );
            }
        }
    }
}

/// A train of load steps that keep the load where it is: each splits
/// the co-simulation's windows and changes no physics.
const NO_OP_STEP_PERIOD: f64 = 0.37e-9;

/// Every Figure 7 cell, rerun with a load step to its own load every
/// 0.37 ns, matches its plain run within the golden tolerances: where
/// windows end must not move the results.
#[test]
fn window_splits_do_not_move_fig7_cells() {
    // (coil µH, load Ω): the 7a/7c coil grid at 6 Ω, and the 7b load
    // grid at 4.7 µH.
    let mut cells: Vec<(f64, f64)> = scenario::coil_grid()
        .into_iter()
        .map(|l| (l, 6.0))
        .collect();
    cells.extend(scenario::load_grid().into_iter().map(|r| (4.7, r)));
    let metrics_of =
        |w: &a4a_analog::Waveform, l: f64| (metrics::peak_current(w) * 1e3, ripple_loss_uw(w, l));
    let mut errors = Vec::new();
    for (l, r) in cells {
        for kind in ControllerKind::paper_series() {
            let (peak, loss) = metrics_of(&sweep_cell(scenario::sweep_coil(l, r), kind), l);
            let mut builder = scenario::sweep_coil(l, r);
            let steps = (8e-6 / NO_OP_STEP_PERIOD) as usize;
            for k in 1..=steps {
                builder = builder.load_step(k as f64 * NO_OP_STEP_PERIOD, r);
            }
            let (split_peak, split_loss) = metrics_of(&sweep_cell(builder, kind), l);
            let label = kind.label();
            if (peak - split_peak).abs() > TOL_PEAK_MA[0] {
                errors.push(format!(
                    "{l} uH {r} Ohm {label}: peak {peak:.4} vs split {split_peak:.4} mA"
                ));
            }
            if r == 6.0 && (loss - split_loss).abs() > TOL_LOSS_UW[0] {
                errors.push(format!(
                    "{l} uH {label}: loss {loss:.4} vs split {split_loss:.4} uW"
                ));
            }
        }
    }
    assert!(
        errors.is_empty(),
        "window splits moved cells:\n{}",
        errors.join("\n")
    );
}
