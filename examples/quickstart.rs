//! Quickstart: the A4A flow end to end on the basic buck controller.
//!
//! 1. Take the Figure 2b specification (a Signal Transition Graph).
//! 2. Run the automated flow: sanity checks → speed-independent
//!    synthesis → gate-level conformance/hazard verification.
//! 3. Check the buck-specific safety property (no PMOS/NMOS short).
//! 4. Drop the behavioural controller into the mixed-signal testbench
//!    and watch it regulate a single-phase buck.
//!
//! Run with `cargo run --release --example quickstart`.

use a4a::{A4aFlow, TestbenchBuilder};
use a4a_analog::BuckParams;
use a4a_ctrl::{stgs, AsyncController, AsyncTiming};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1-2. Specification and flow.
    let stg = stgs::basic_buck_stg();
    println!("specification: {stg}");
    let result = A4aFlow::new(stg.clone()).run()?;
    println!("sanity checks:\n{}", result.sanity.summary());
    println!("equations:\n{}", result.equations);
    println!(
        "SI verification: {} joint states, {} violations",
        result.si.states,
        result.si.violations.len()
    );

    // 3. The paper's safety property.
    let sg = stg.state_graph(100_000)?;
    let gp = stg.signal_by_name("gp").expect("gp");
    let gn = stg.signal_by_name("gn").expect("gn");
    let shorts = stg.check_mutual_exclusion(&sg, gp, gn);
    println!("short-circuit states: {} (must be 0)", shorts.len());

    // 4. Mixed-signal run: a single-phase buck under the basic
    //    controller, which is the asynchronous ring with one stage.
    let ctrl = AsyncController::new(1, AsyncTiming::default());
    let mut tb = TestbenchBuilder::new()
        .params(BuckParams::default().with_phases(1).with_load(24.0))
        .try_build(ctrl)?;
    tb.try_run_until(10e-6)?;
    println!(
        "single-phase buck after 10us: v = {:.3} V (target 3.3), i = {:.3} A, shorts = {}",
        tb.buck().output_voltage(),
        tb.buck().coil_current(0),
        tb.short_circuits()
    );
    Ok(())
}
