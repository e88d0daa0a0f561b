//! Regenerates Figure 6: 10 µs simulation waveforms (startup → normal
//! load → high load → normal load) for the synchronous and asynchronous
//! controllers, with the paper's headline metrics (voltage ripple and
//! peak coil current over the normal-load window).

use a4a::scenario;
use a4a_bench::experiments::fig6_all;
use a4a_bench::report;

fn main() {
    let runs = fig6_all();

    let header: Vec<String> = [
        "Controller",
        "Ripple (V)",
        "Peak I (A)",
        "Efficiency",
        "OV events",
        "Shorts",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.ripple),
                format!("{:.3}", r.peak),
                format!("{:.1}%", r.efficiency * 100.0),
                r.ov_events.to_string(),
                r.short_circuits.to_string(),
            ]
        })
        .collect();
    println!(
        "Figure 6: waveform metrics over the normal-load window {:?} us\n",
        (
            scenario::FIG6_NORMAL_WINDOW.0 * 1e6,
            scenario::FIG6_NORMAL_WINDOW.1 * 1e6
        )
    );
    println!("{}", report::table(&header, &body));
    println!("paper reference (333MHz vs ASYNC): ripple 0.43 V vs 0.36 V, peak 0.24 A vs 0.21 A");

    // Waveform CSVs for the two series the paper plots.
    for r in &runs {
        if r.label == "333MHz" || r.label == "ASYNC" {
            let tag = r.label.to_lowercase();
            let p1 = report::write_artifact(&format!("fig6_{tag}_analog.csv"), &r.waveform.csv())
                .expect("write");
            let p2 =
                report::write_artifact(&format!("fig6_{tag}_events.csv"), &r.waveform.events_csv())
                    .expect("write");
            println!("wrote {} and {}", p1.display(), p2.display());
        }
    }
}
