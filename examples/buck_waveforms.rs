//! Reproduces the Figure 6 waveform comparison interactively: runs the
//! 10 µs startup / normal-load / high-load scenario under the 333 MHz
//! synchronous controller and the asynchronous token ring, prints the
//! headline metrics, and renders a coarse ASCII strip chart of the
//! output voltage so the ripple difference is visible without plotting.
//!
//! Run with `cargo run --release --example buck_waveforms`.

use a4a::scenario::{self, ControllerKind};
use a4a_analog::{metrics, Waveform};

fn strip_chart(w: &Waveform, rows: u32) -> String {
    // Downsample the voltage into 100 columns between 0 and 4 V.
    const COLS: usize = 100;
    let mut grid = vec![vec![' '; COLS]; rows as usize];
    if w.is_empty() {
        return String::new();
    }
    let t_end = *w.t.last().expect("nonempty");
    for (idx, &t) in w.t.iter().enumerate() {
        let col = ((t / t_end) * (COLS as f64 - 1.0)) as usize;
        let v = w.v[idx].clamp(0.0, 4.0);
        let row = ((1.0 - v / 4.0) * (rows as f64 - 1.0)) as usize;
        grid[row][col] = '*';
    }
    let mut out = String::new();
    for (r, line) in grid.iter().enumerate() {
        let v_axis = 4.0 * (1.0 - r as f64 / (rows as f64 - 1.0));
        out.push_str(&format!("{v_axis:4.1}V |"));
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str("      +");
    out.push_str(&"-".repeat(100));
    out.push_str("\n       0us");
    out.push_str(&" ".repeat(88));
    out.push_str(&format!("{:.0}us\n", t_end * 1e6));
    out
}

fn main() -> Result<(), a4a_sim::SimError> {
    for kind in [ControllerKind::Sync(333.0), ControllerKind::Async] {
        let ctrl = scenario::controller(kind, 4);
        let mut tb = scenario::fig6().try_build(ctrl)?;
        tb.try_run_until(scenario::FIG6_T_END)?;
        let shorts = tb.short_circuits();
        let w = tb.into_waveform();
        let (a, b) = scenario::FIG6_NORMAL_WINDOW;
        let normal = w.window(a, b);
        println!(
            "== {} ==\n ripple {:.3} V | peak current {:.3} A | mean {:.3} V | shorts {}\n",
            kind.label(),
            metrics::voltage_ripple(&normal),
            metrics::peak_current(&w),
            metrics::mean_voltage(&normal),
            shorts
        );
        println!("{}", strip_chart(&w, 12));
    }
    println!("paper: 0.43 V vs 0.36 V ripple, 0.24 A vs 0.21 A peak (Fig. 6)");
    Ok(())
}
