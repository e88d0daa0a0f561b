//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. early acknowledgement in MODE_CTRL (token decoupled from charging)
//!    vs serialised token hand-off;
//! 2. PEXT first-cycle extension on vs off (startup undershoot);
//! 3. complex-gate vs generalized-C implementations of every module
//!    (area/verification cost);
//! 4. A2A front-end pulse filtering vs naive direct sampling
//!    (filtered-glitch counts on chattering comparator inputs);
//! 5. synchroniser metastability tail sensitivity.

use a4a::scenario;
use a4a_a2a::Wait;
use a4a_analog::metrics;
use a4a_bench::ablation::{
    batch_stats, root_seed, sync_metastability_batch, wait_metastability_batch,
};
use a4a_bench::report;
use a4a_ctrl::{AsyncController, AsyncTiming};
use a4a_sim::Time;
use a4a_synth::{synthesize, SynthOptions, SynthStyle};

fn main() {
    let root = root_seed().unwrap_or_else(|e| {
        eprintln!("ablation: {e}");
        std::process::exit(1);
    });
    a4a_rt::bench::time_once("ablation/all", || {
        ablate_token_decoupling();
        ablate_pext();
        ablate_synth_style();
        ablate_a2a_filtering();
        ablate_metastability(root);
        ablate_sync_metastability(root);
    });
}

/// 1. Token decoupling: the early acknowledge lets the token move after
///    its dwell even though charging continues. Serialising it (token
///    dwell ≥ a full charge cycle, modelled by a long activation period)
///    slows help recruitment under load.
fn ablate_token_decoupling() {
    println!("== Ablation 1: token decoupling (early ack) ==");
    // Recruiting help is what the dwell gates. Use a *moderate* load
    // step (UV but no HL, so the all-phase HL draft cannot mask the
    // token) and measure the undershoot.
    let run = |activation_ns: f64| -> f64 {
        let mut timing = AsyncTiming::default();
        timing.policy.activation_period = Time::from_ns(activation_ns);
        let ctrl = AsyncController::new(4, timing);
        let mut tb = scenario::sweep_load(9.0)
            .load_step(5e-6, 4.4)
            .try_build(ctrl)
            .expect("load-step scenario must configure a valid testbench");
        tb.try_run_until(8e-6)
            .expect("load-step co-simulation must not diverge");
        let w = tb.into_waveform().window(5e-6, 7e-6);
        w.v.iter().fold(f64::INFINITY, |a, &b| a.min(b))
    };
    let fast = run(250.0);
    // A serialised hand-off corresponds to the token dwelling for a full
    // charging cycle (~1 us).
    let slow = run(1000.0);
    println!(
        "  decoupled (250ns dwell): high-load undershoot to {fast:.3}V\n  \
         serialised (1us dwell):  high-load undershoot to {slow:.3}V\n"
    );
}

/// 2. PEXT on/off: the first-cycle extension trades peak current for a
///    faster first recovery.
fn ablate_pext() {
    println!("== Ablation 2: PEXT first-cycle extension ==");
    let run = |pext_ns: f64| -> (f64, f64) {
        let mut timing = AsyncTiming::default();
        timing.policy.pext = Time::from_ns(pext_ns);
        let ctrl = AsyncController::new(4, timing);
        let mut tb = scenario::sweep_coil(1.0, 6.0)
            .try_build(ctrl)
            .expect("sweep point must configure a valid testbench");
        tb.try_run_until(4e-6)
            .expect("sweep co-simulation must not diverge");
        let w = tb.into_waveform();
        // Time for the output to first reach the regulation target.
        let t_reg =
            w.t.iter()
                .zip(&w.v)
                .find(|(_, &v)| v >= 3.29)
                .map(|(&t, _)| t * 1e6)
                .unwrap_or(f64::NAN);
        (metrics::peak_current(&w) * 1e3, t_reg)
    };
    for pext in [0.0, 40.0, 150.0] {
        let (peak, t_reg) = run(pext);
        println!("  PEXT={pext:>5.0}ns: startup peak={peak:.0}mA first-regulation at {t_reg:.2}us");
    }
    println!();
}

/// 3. Complex-gate vs gC synthesis over every controller module.
fn ablate_synth_style() {
    println!("== Ablation 3: complex-gate vs generalized-C synthesis ==");
    let header: Vec<String> = [
        "module",
        "cg literals",
        "gC literals",
        "cg gates",
        "gC gates",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    for (name, stg) in specs {
        let cg = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate));
        let gc = synthesize(&stg, &SynthOptions::new(SynthStyle::GeneralizedC));
        match (cg, gc) {
            (Ok(cg), Ok(gc)) => rows.push(vec![
                name.to_string(),
                cg.literal_count().to_string(),
                gc.literal_count().to_string(),
                cg.netlist().gate_count().to_string(),
                gc.netlist().gate_count().to_string(),
            ]),
            (a, b) => rows.push(vec![
                name.to_string(),
                a.map(|_| "ok".into()).unwrap_or_else(|e| format!("{e}")),
                b.map(|_| "ok".into()).unwrap_or_else(|e| format!("{e}")),
                "-".to_string(),
                "-".to_string(),
            ]),
        }
    }
    println!("{}", report::table(&header, &rows));
}

/// 4. A2A pulse filtering: a chattering comparator output produces
///    glitch pulses shorter than the latch window; the WAIT element
///    filters and counts them instead of passing hazards to the
///    controller.
fn ablate_a2a_filtering() {
    println!("== Ablation 4: A2A non-persistent input filtering ==");
    let mut wait = Wait::new(Time::from_ns(1.0));
    wait.set_req(Time::ZERO, true);
    let mut acks = 0u32;
    // 100 chatter pulses of 0.4 ns followed by one real assertion.
    for k in 0..100u64 {
        let t0 = Time::from_ns(10.0 + 3.0 * k as f64);
        if wait.set_sig(t0, true).is_some() {
            acks += 1;
        }
        if wait.set_sig(t0 + Time::from_ps(400.0), false).is_some() {
            acks += 1;
        }
    }
    let t_real = Time::from_ns(400.0);
    wait.set_sig(t_real, true);
    let ev = wait.poll(Time::from_ns(402.0));
    if ev.map(|e| e.value).unwrap_or(false) {
        acks += 1;
    }
    println!(
        "  chatter pulses filtered: {} / 100; spurious acks: {}; \
         real assertion latched: {}\n",
        wait.filtered_pulses(),
        acks.saturating_sub(1),
        ev.is_some()
    );
}

/// 6. Synchroniser metastability: the synchronous controller's UV
///    reaction with marginal captures resolving the wrong way (footnote 1
///    of the paper: "the latency may increase by another clock period").
///    Each scenario's RNG seed is a SplitMix64 split of the `root` seed
///    (`A4A_PROP_SEED` overrides it), so the output is a function of
///    that seed alone.
fn ablate_sync_metastability(root: u64) {
    println!("== Ablation 6: synchroniser metastability (333 MHz) ==");
    for (p, label) in [(0.0, "disabled"), (0.2, "p=0.2"), (0.8, "p=0.8")] {
        let latencies = sync_metastability_batch(p, root, 40);
        let (mean, worst) = batch_stats(&latencies);
        println!("  {label:>9}: mean UV latency {mean:.2}ns, worst {worst:.2}ns");
    }
    println!();
}

/// 5. Metastability tail: independent WAIT elements with an enabled
///    resolution-time model show the latency distribution a marginal
///    input produces (fully contained in the element). One fresh,
///    seed-split element per scenario — see ablation 6 for the batch
///    determinism contract.
fn ablate_metastability(root: u64) {
    println!("== Ablation 5: metastability resolution tail ==");
    for (p, tau_ns) in [(0.0, 0.0), (0.3, 2.0), (0.9, 5.0)] {
        let tau = Time::from_ns(if tau_ns == 0.0 { 1.0 } else { tau_ns });
        let latencies = wait_metastability_batch(p, tau, root, 200);
        let (mean, worst) = batch_stats(&latencies);
        println!(
            "  p={p:.1} tau={tau_ns:.0}ns: mean latch latency {mean:.3}ns, worst {worst:.3}ns"
        );
    }
    println!();
}
