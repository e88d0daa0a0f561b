//! Regenerates Figure 7c: inductor (ripple) losses for 1–10 µH coils at
//! a 6 Ω load — the trend that makes the smaller coil the asynchronous
//! controller affords a power-efficiency win.

use a4a::scenario::{self, ControllerKind};
use a4a_bench::experiments::fig7c;
use a4a_bench::report;

fn main() {
    let labels: Vec<String> = ControllerKind::paper_series()
        .iter()
        .map(ControllerKind::label)
        .collect();
    let points = a4a_rt::bench::time_once("fig7c/sweep", fig7c);
    println!("Figure 7c: inductor ripple losses (uW) for 1-10uH coils at 6 Ohm load\n");
    println!("{}", report::sweep_table("L (uH)", &labels, &points));
    println!(
        "paper reference: losses grow with inductance, so the smaller coil\n\
         enabled by the faster controller reduces inductor losses"
    );

    // The end-to-end efficiency consequence: each controller runs on the
    // smallest coil its peak-current behaviour qualifies (Fig. 7a at the
    // 320 mA budget), and the faster controller's smaller coil wins.
    println!("\nend-to-end efficiency at each controller's qualifying coil:");
    for (kind, l) in [
        (ControllerKind::Sync(100.0), 1.8),
        (ControllerKind::Sync(333.0), 1.8),
        (ControllerKind::Async, 1.0),
    ] {
        let ctrl = scenario::controller(kind, 4);
        let mut tb = scenario::sweep_coil(l, 6.0)
            .try_build(ctrl)
            .expect("sweep point must configure a valid testbench");
        tb.try_run_until(8e-6)
            .expect("sweep co-simulation must not diverge");
        println!(
            "  {:>7} @ {:.1} uH: efficiency {:.2}%",
            kind.label(),
            l,
            tb.buck().efficiency() * 100.0
        );
    }

    let csv = report::sweep_csv("l_uh", &labels, &points);
    let path = report::write_artifact("fig7c.csv", &csv).expect("write results");
    println!("\nwrote {}", path.display());
}
