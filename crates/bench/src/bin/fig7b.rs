//! Regenerates Figure 7b: inductor peak current for 3–15 Ω loads with
//! 4.7 µH coils, one series per controller.

use a4a::scenario::ControllerKind;
use a4a_bench::experiments::fig7b;
use a4a_bench::report;

fn main() {
    let labels: Vec<String> = ControllerKind::paper_series()
        .iter()
        .map(ControllerKind::label)
        .collect();
    let points = a4a_rt::bench::time_once("fig7b/sweep", fig7b);
    println!("Figure 7b: inductor peak current (mA) for 3-15 Ohm loads at 4.7uH\n");
    println!("{}", report::sweep_table("R (Ohm)", &labels, &points));
    println!(
        "paper reference: the ordering persists over the load range covering\n\
         typical mobile-microprocessor computational loads"
    );

    let csv = report::sweep_csv("r_ohm", &labels, &points);
    let path = report::write_artifact("fig7b.csv", &csv).expect("write results");
    println!("\nwrote {}", path.display());
}
