//! Regenerates Table I: reaction time of the controllers per condition.
//!
//! Synchronous rows are the paper's constant 2.5-clock-period latency;
//! the ASYNC row is measured on the behavioural token-ring controller by
//! stimulus-response. A gate-level cross-check synthesises the basic
//! buck controller STG and measures its `uv+ → gp+` path with the
//! event-driven gate simulator.

use a4a_bench::experiments::{table1, table1_improvement};
use a4a_bench::report;
use a4a_netlist::sim::GateSim;
use a4a_sim::Time;
use a4a_synth::{synthesize, SynthOptions, SynthStyle};

fn main() {
    let rows = table1();
    let header: Vec<String> = [
        "Controller",
        "HL (ns)",
        "UV (ns)",
        "OV (ns)",
        "OC (ns)",
        "ZC (ns)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.label.clone()];
            row.extend(r.ns.iter().map(|v| format!("{v:.2}")));
            row
        })
        .collect();
    let imp = table1_improvement(&rows);
    let mut imp_row = vec!["Improv. over 333MHz".to_string()];
    imp_row.extend(imp.iter().map(|f| format!("{f:.0}x")));
    body.push(imp_row);

    let rendered = report::table(&header, &body);
    println!("Table I: comparison of the reaction time\n");
    println!("{rendered}");

    // Gate-level cross-check on the synthesised basic buck controller.
    println!("Gate-level cross-check (synthesised basic_buck, 90nm-class library):");
    let stg = a4a_ctrl::stgs::basic_buck_stg();
    let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::GeneralizedC)).expect("synthesis");
    let netlist = synth.netlist();
    let mut sim = GateSim::new(netlist);
    // Drive the initial state: uv=1, everything else 0; outputs settle.
    let names = ["uv", "oc", "zc", "gp_ack", "gn_ack"];
    for n in names {
        let net = netlist.net_by_name(n).expect("input");
        sim.set_input(net, n == "uv");
    }
    let gp = netlist.net_by_name("gp").expect("gp");
    let gn = netlist.net_by_name("gn").expect("gn");
    sim.init_net(gp, false);
    sim.init_net(gn, false);
    sim.settle(Time::from_us(1.0));
    // The initial state excites gp+ (UV already detected): replay the
    // cycle up to the wait-for-UV state, then measure uv+ -> gp+.
    let set = |sim: &mut GateSim, netlist: &a4a_netlist::Netlist, name: &str, v: bool| {
        let net = netlist.net_by_name(name).expect("net");
        sim.set_input(net, v);
        sim.settle(Time::from_us(1.0));
    };
    set(&mut sim, netlist, "gp_ack", true);
    set(&mut sim, netlist, "uv", false);
    set(&mut sim, netlist, "oc", true);
    set(&mut sim, netlist, "gp_ack", false);
    set(&mut sim, netlist, "gn_ack", true);
    set(&mut sim, netlist, "oc", false);
    set(&mut sim, netlist, "zc", true);
    set(&mut sim, netlist, "gn_ack", false);
    set(&mut sim, netlist, "zc", false);
    // Both transistors off, waiting for UV: measure the reaction.
    let uv = netlist.net_by_name("uv").expect("uv");
    let reaction = sim.measure_reaction(uv, true, &[gp], Time::from_us(1.0));
    match reaction {
        Some((_, dt)) => println!(
            "  basic_buck uv+ -> gp+ = {:.3} ns ({} gates, {} literals); \
             the full phase controller adds the WAITX2/MODE/CHARGE modules \
             calibrated in AsyncTiming",
            dt.as_ns(),
            netlist.gate_count(),
            netlist.literal_count()
        ),
        None => println!("  basic_buck did not react (unexpected)"),
    }

    let mut csv = String::from("controller,hl_ns,uv_ns,ov_ns,oc_ns,zc_ns\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
            r.label, r.ns[0], r.ns[1], r.ns[2], r.ns[3], r.ns[4]
        ));
    }
    let path = report::write_artifact("table1.csv", &csv).expect("write results");
    println!("\nwrote {}", path.display());
}
