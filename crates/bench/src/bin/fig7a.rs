//! Regenerates Figure 7a: inductor peak current for 1–10 µH coils at a
//! 6 Ω load, one series per controller.

use a4a::scenario::ControllerKind;
use a4a_bench::experiments::fig7a;
use a4a_bench::report;

fn main() {
    let labels: Vec<String> = ControllerKind::paper_series()
        .iter()
        .map(ControllerKind::label)
        .collect();
    let points = a4a_rt::bench::time_once("fig7a/sweep", fig7a);
    println!("Figure 7a: inductor peak current (mA) for 1-10uH coils at 6 Ohm load\n");
    println!("{}", report::sweep_table("L (uH)", &labels, &points));

    // The paper's trade-off: the coil each controller needs to keep the
    // peak under a budget. The paper uses 300 mA with its wider spread;
    // our calibrated spread is narrower, so the discriminating budget
    // sits at ~320 mA (the faster the controller, the smaller the coil).
    for budget in [300.0, 320.0] {
        println!("smallest coil keeping peak <= {budget:.0} mA per controller:");
        for (i, label) in labels.iter().enumerate() {
            let smallest = points
                .iter()
                .find(|p| p.y[i] <= budget)
                .map(|p| format!("{:.2} uH", p.x))
                .unwrap_or_else(|| "none in range".to_string());
            println!("  {label:>7}: {smallest}");
        }
    }
    println!("paper reference: ASYNC 1.8uH vs 10/6.8/3.1 uH at 100/333/666 MHz (300 mA budget)");

    let csv = report::sweep_csv("l_uh", &labels, &points);
    let path = report::write_artifact("fig7a.csv", &csv).expect("write results");
    println!("\nwrote {}", path.display());
}
