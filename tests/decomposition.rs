//! Technology mapping across crates: every synthesised controller module
//! decomposes into 2-input cells without changing its Boolean behaviour,
//! and the speed-independence cost of decomposition is observable as
//! gate-level glitches (exactly why the A4A flow synthesises to atomic
//! complex gates / gC first and leaves mapping to timing-validated
//! back-ends).

use a4a_netlist::sim::GateSim;
use a4a_netlist::{combinational_expr, decompose, GateKind, GateLib};
use a4a_sim::Time;
use a4a_stg::SignalKind;
use a4a_synth::{synthesize, SynthOptions, SynthStyle};

fn all_specs() -> Vec<(&'static str, a4a_stg::Stg)> {
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    specs
}

#[test]
fn every_module_maps_to_two_input_cells() {
    let lib = GateLib::tsmc90();
    for (name, stg) in all_specs() {
        for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
            let synth = synthesize(&stg, &SynthOptions::new(style))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mapped = decompose(synth.netlist(), &lib).unwrap_or_else(|e| panic!("{name}: {e}"));
            for g in mapped.gate_ids() {
                let gate = mapped.gate(g);
                assert!(
                    gate.pins.len() <= 2,
                    "{name} {style:?}: fanin {} after mapping",
                    gate.pins.len()
                );
            }
            // Area never shrinks, and every original net survives.
            assert!(mapped.gate_count() >= synth.netlist().gate_count());
            for net in synth.netlist().net_ids() {
                let nm = &synth.netlist().net(net).name;
                assert!(mapped.net_by_name(nm).is_some(), "{name}: lost net {nm}");
            }
        }
    }
}

#[test]
fn complex_gate_functions_survive_mapping() {
    let lib = GateLib::tsmc90();
    for (name, stg) in all_specs() {
        let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mapped = decompose(synth.netlist(), &lib).unwrap();
        let nvars = stg.signal_count();
        assert!(nvars <= 16, "{name} too wide for exhaustive check");
        for s in stg.signal_ids() {
            if stg.signal(s).kind == SignalKind::Input {
                continue;
            }
            let net_name = &stg.signal(s).name;
            let orig_net = synth.netlist().net_by_name(net_name).unwrap();
            let mapped_net = mapped.net_by_name(net_name).unwrap();
            let orig_fn = combinational_expr(synth.netlist(), orig_net);
            let mapped_fn = combinational_expr(&mapped, mapped_net);
            // The mapped cone is over the same nets (ids preserved for
            // originals; intermediates only appear inside), so direct
            // evaluation agrees. Variables index nets; enumerate over
            // the original net count.
            let width = synth.netlist().net_count();
            assert!(width <= 20, "{name}: too many nets to enumerate");
            for m in 0..(1u64 << width) {
                assert_eq!(
                    orig_fn.eval(m),
                    mapped_fn.eval(m),
                    "{name}.{net_name} differs at {m:#b}"
                );
            }
        }
    }
}

#[test]
fn mapping_exposes_hazards_the_atomic_netlist_does_not_have() {
    // The basic buck's gp function is a 2-cube SOP; a classic static-1
    // hazard appears between its product terms once it is split into
    // discrete AND/OR gates. Drive an input sequence that crosses cubes
    // and compare glitch counts.
    let lib = GateLib::tsmc90();
    let stg = a4a_ctrl::stgs::basic_buck_stg();
    let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap();
    let atomic = synth.netlist().clone();
    let mapped = decompose(&atomic, &lib).unwrap();

    let glitches = |netlist: &a4a_netlist::Netlist| -> usize {
        let mut sim = GateSim::new(netlist);
        for n in ["uv", "oc", "zc", "gp_ack", "gn_ack"] {
            sim.set_input(netlist.net_by_name(n).unwrap(), false);
        }
        sim.init_net(netlist.net_by_name("gp").unwrap(), false);
        sim.init_net(netlist.net_by_name("gn").unwrap(), false);
        for net in netlist.net_ids() {
            if netlist.net(net).name.starts_with("_m") {
                sim.init_net(net, false);
            }
        }
        sim.settle(Time::from_us(1.0));
        // Wiggle inputs pairwise in quick succession to cross cube
        // boundaries.
        let names = ["uv", "oc", "zc", "gp_ack", "gn_ack"];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                let na = netlist.net_by_name(a).unwrap();
                let nb = netlist.net_by_name(b).unwrap();
                for &(va, vb) in &[(true, false), (true, true), (false, true), (false, false)] {
                    sim.set_input(na, va);
                    sim.set_input(nb, vb);
                    sim.settle(Time::from_us(1.0));
                }
            }
        }
        sim.glitches().len()
    };

    let atomic_glitches = glitches(&atomic);
    let mapped_glitches = glitches(&mapped);
    assert!(
        mapped_glitches >= atomic_glitches,
        "mapping cannot reduce hazard exposure: {atomic_glitches} vs {mapped_glitches}"
    );
}

#[test]
fn mapped_verilog_uses_only_simple_cells() {
    let lib = GateLib::tsmc90();
    let stg = a4a_a2a::spec::waitx_stg();
    let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::GeneralizedC)).unwrap();
    let mapped = decompose(synth.netlist(), &lib).unwrap();
    // Each combinational gate has at most two pins -> the emitted
    // Verilog contains only 1- and 2-operand assigns.
    for g in mapped.gate_ids() {
        if let GateKind::Complex(e) = &mapped.gate(g).kind {
            assert!(e.support().len() <= 2);
        }
    }
    let v = a4a_netlist::verilog::emit(&mapped);
    assert!(v.contains("module waitx_mapped"));
}
