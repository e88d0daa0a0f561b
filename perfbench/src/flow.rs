//! The `flow` workload: `A4aFlow::run` from `.g` text, every spec in
//! both synthesis styles.
//!
//! The traced round times the parse and the flow call, then repeats the
//! flow's stages as shadow calls into the same public functions (sanity
//! state graph and check, `synthesize`, `extract_next_state` and
//! `boolmin::minimize` on the sets `synthesize` builds, `verify_si`,
//! Verilog emission, rendering). Shadow calls are not part of the op
//! time; they attribute it.

use std::time::{Duration, Instant};

use a4a::boolmin::{espresso, minimize, Cover, Minimize};
use a4a::netlist::verilog;
use a4a::stg::{StateGraph, Stg};
use a4a::synth::{
    extract_next_state, synthesize, verify_si, Region, SignalFunction, SynthOptions, SynthStyle,
};
use a4a::{A4aFlow, FlowResult};

use crate::inputs::{FlowExpect, FlowSpec};
use crate::measure::{guarded, timed, Layers, Metric, Recorder};

/// The state budget `A4aFlow` explores with.
const MAX_STATES: usize = 1_000_000;

/// Above this many signals synthesis switches from exact QM to the
/// espresso heuristic.
const QM_MAX_VARS: usize = 18;

const STYLES: [SynthStyle; 2] = [SynthStyle::ComplexGate, SynthStyle::GeneralizedC];

/// One round: every spec in both styles through `A4aFlow::run`.
/// Returns the summed literal count of the round's netlists.
pub fn round(specs: &[FlowSpec], rec: &mut Recorder) -> u64 {
    let mut literals = 0;
    for spec in specs {
        for style in STYLES {
            let (out, took) = guarded(|| run(spec, style));
            let verdict = out.and_then(|r| r).and_then(|(flow, result)| {
                let lits = check(spec, style, flow.stg(), &result)?;
                literals += u64::from(lits);
                Ok(())
            });
            rec.op(took, 1.0, verdict);
        }
    }
    literals
}

/// The op: parse the text, run the flow.
fn run(spec: &FlowSpec, style: SynthStyle) -> Result<(A4aFlow, FlowResult), String> {
    let stg = Stg::parse_g(&spec.g).map_err(|e| format!("{}: parse: {e}", spec.name))?;
    let flow = A4aFlow::new(stg).with_style(style);
    let result = flow
        .run()
        .map_err(|e| format!("{} {style:?}: {e}", spec.name))?;
    Ok((flow, result))
}

/// The round again with per-stage timing and shadow calls.
pub fn traced_round(specs: &[FlowSpec], rec: &mut Recorder, layers: &mut Layers) {
    for spec in specs {
        for style in STYLES {
            let start = Instant::now();
            let mut run_took = Duration::ZERO;
            let (parsed, parse_took) = guarded(|| Stg::parse_g(&spec.g));
            let out = parsed
                .and_then(|p| p.map_err(|e| format!("{}: parse: {e}", spec.name)))
                .and_then(|stg| {
                    let flow = A4aFlow::new(stg).with_style(style);
                    let (result, took) = guarded(|| flow.run());
                    run_took = took;
                    let result = result?.map_err(|e| format!("{} {style:?}: {e}", spec.name))?;
                    Ok((flow, result))
                });
            let op = start.elapsed();
            layers.add_ms("flow.op_ms", op);
            layers.add_ms("flow.parse_ms", parse_took);
            layers.add_ms("flow.run_ms", run_took);
            let verdict = out.and_then(|(flow, result)| {
                let lits = check(spec, style, flow.stg(), &result)?;
                layers.add("flow.circuit_literals", f64::from(lits));
                layers.add("si.joint_states", result.si.states as f64);
                layers.add(
                    "netlist.gates",
                    result.synthesis.netlist().gate_count() as f64,
                );
                shadow(spec, style, flow.stg(), &result, layers)
            });
            rec.op(op, 1.0, verdict);
        }
    }
}

/// Repeats the flow's stages one by one, timing each, and checks that
/// the shadow minimisation reproduces the synthesised covers.
fn shadow(
    spec: &FlowSpec,
    style: SynthStyle,
    stg: &Stg,
    result: &FlowResult,
    layers: &mut Layers,
) -> Result<(), String> {
    let fail = |what: &str| format!("{} {style:?}: shadow {what}", spec.name);
    let (sg, took) = timed(|| {
        let sg = stg.state_graph(MAX_STATES);
        if let Ok(sg) = &sg {
            stg.verify(sg);
        }
        sg
    });
    layers.add_ms("flow.sanity_ms", took);
    let sg = sg.map_err(|e| fail(&e.to_string()))?;

    let (synth, took) = timed(|| synthesize(stg, &SynthOptions::new(style)));
    layers.add_ms("synth.synthesize_ms", took);
    let synth = synth.map_err(|e| fail(&e.to_string()))?;

    for im in result.synthesis.impls() {
        let lits = shadow_minimize(stg, &sg, im.signal, style, layers)
            .ok_or_else(|| fail(&format!("{}: extraction or minimisation failed", im.name)))?;
        if lits != im.function.literal_count() {
            return Err(fail(&format!(
                "{}: {lits} literals vs {} synthesised",
                im.name,
                im.function.literal_count()
            )));
        }
    }

    let (si, took) = timed(|| verify_si(stg, synth.netlist(), MAX_STATES));
    layers.add_ms("synth.verify_si_ms", took);
    si.map_err(|e| fail(&e.to_string()))?;

    let (_, took) = timed(|| verilog::emit(synth.netlist()));
    layers.add_ms("netlist.emit_ms", took);

    let (_, took) = timed(|| (stg.to_g(), synth.equations(stg)));
    layers.add_ms("flow.render_ms", took);
    Ok(())
}

/// Extracts one signal's next-state function and minimises the sets
/// `synthesize` builds for `style`; returns the cover's literal count.
fn shadow_minimize(
    stg: &Stg,
    sg: &StateGraph,
    signal: a4a::stg::SignalId,
    style: SynthStyle,
    layers: &mut Layers,
) -> Option<u32> {
    let (ns, took) = timed(|| extract_next_state(stg, sg, signal));
    layers.add_ms("synth.extract_ms", took);
    let ns = ns?;
    let nvars = stg.signal_count();
    let problems: Vec<(Vec<u64>, Vec<u64>)> = match style {
        SynthStyle::ComplexGate => vec![(ns.on_set(), ns.off_set())],
        SynthStyle::GeneralizedC => {
            let rise = ns.region_codes(Region::ExcitedRise);
            let fall = ns.region_codes(Region::ExcitedFall);
            let s0 = ns.region_codes(Region::Stable0);
            let s1 = ns.region_codes(Region::Stable1);
            let set_off = s0.iter().chain(&fall).copied().collect();
            let reset_off = s1.iter().chain(&rise).copied().collect();
            vec![(rise, set_off), (fall, reset_off)]
        }
    };
    let mut literals = 0;
    for (on, off) in &problems {
        let (cover, took) = timed(|| -> Option<Cover> {
            if nvars <= QM_MAX_VARS {
                minimize(&Minimize::new(nvars).on(on).off(off)).ok()
            } else {
                espresso(nvars, on, off).ok()
            }
        });
        layers.add_ms("boolmin.minimize_ms", took);
        let cover = cover?;
        let space = 2f64.powi(nvars as i32);
        let care = (on.len() + off.len()) as f64;
        layers.add("boolmin.calls", 1.0);
        layers.add("boolmin.vars", nvars as f64);
        layers.add("boolmin.care_minterms", care);
        layers.add("boolmin.dc_minterms", space - care);
        layers.add("boolmin.cubes", cover.cube_count() as f64);
        literals += cover.literal_count();
    }
    Some(literals)
}

/// The oracle: a clean sanity check and clean SI verification; for a
/// pipeline, every output is a buffer of its predecessor, which makes
/// the literal count #outputs (complex gate) or 2·#outputs (gC).
/// Returns the netlist's literal count.
fn check(spec: &FlowSpec, style: SynthStyle, stg: &Stg, r: &FlowResult) -> Result<u32, String> {
    let fail = |what: String| Err(format!("{} {style:?}: {what}", spec.name));
    if !r.sanity.is_clean() {
        return fail(format!("sanity check not clean: {}", r.sanity.summary()));
    }
    if !r.si.is_clean() {
        return fail(format!(
            "SI verification found {} violations",
            r.si.violations.len()
        ));
    }
    let literals = r.synthesis.literal_count();
    let FlowExpect::Pipeline { buffers } = &spec.expect else {
        return Ok(literals);
    };
    let index = |name: &str| stg.signals().iter().position(|s| s.name == name);
    let per_output = match style {
        SynthStyle::ComplexGate => 1,
        SynthStyle::GeneralizedC => 2,
    };
    if r.synthesis.impls().len() != buffers.len() || literals != per_output * buffers.len() as u32 {
        return fail(format!(
            "{} implemented signals / {literals} literals, want {} / {}",
            r.synthesis.impls().len(),
            buffers.len(),
            per_output * buffers.len() as u32
        ));
    }
    for (output, pred) in buffers {
        let Some(im) = r.synthesis.impls().iter().find(|im| &im.name == output) else {
            return fail(format!("output {output} not implemented"));
        };
        let Some(p) = index(pred) else {
            return fail(format!("signal {pred} missing"));
        };
        let is_literal = |c: &Cover, positive: bool| {
            c.cube_count() == 1 && c.cubes()[0].literals().eq([(p, positive)])
        };
        let buffered = match &im.function {
            SignalFunction::Complex(c) => is_literal(c, true),
            SignalFunction::Gc { set, reset } => is_literal(set, true) && is_literal(reset, false),
        };
        if !buffered {
            return fail(format!("{output} is not a buffer of {pred}"));
        }
    }
    Ok(literals)
}

/// The per-layer metrics of a traced pass of `rounds` rounds, per round.
pub fn layer_metrics(layers: &Layers, rounds: f64) -> Vec<Metric> {
    let per_round = |name: &str| layers.get(name) / rounds;
    let attributed: f64 = [
        "flow.parse_ms",
        "flow.sanity_ms",
        "synth.synthesize_ms",
        "synth.verify_si_ms",
        "netlist.emit_ms",
        "flow.render_ms",
    ]
    .iter()
    .map(|n| per_round(n))
    .sum();
    let calls = layers.get("boolmin.calls");
    let care = layers.get("boolmin.care_minterms");
    let mut out = Vec::new();
    for name in [
        "flow.op_ms",
        "flow.parse_ms",
        "flow.run_ms",
        "flow.sanity_ms",
        "synth.synthesize_ms",
    ] {
        out.push(Metric::new(name, per_round(name), "ms/round"));
    }
    out.push(Metric::new(
        "synth.self_ms",
        per_round("synth.synthesize_ms")
            - per_round("synth.extract_ms")
            - per_round("boolmin.minimize_ms"),
        "ms/round",
    ));
    for name in ["synth.extract_ms", "boolmin.minimize_ms"] {
        out.push(Metric::new(name, per_round(name), "ms/round"));
    }
    out.push(Metric::new(
        "boolmin.calls",
        per_round("boolmin.calls"),
        "count/round",
    ));
    out.push(Metric::new(
        "boolmin.vars",
        layers.get("boolmin.vars") / calls,
        "vars/call",
    ));
    out.push(Metric::new(
        "boolmin.dc_minterms",
        per_round("boolmin.dc_minterms"),
        "count/round",
    ));
    out.push(Metric::new(
        "boolmin.care_ratio",
        care / (care + layers.get("boolmin.dc_minterms")),
        "ratio",
    ));
    out.push(Metric::new(
        "boolmin.cubes",
        per_round("boolmin.cubes"),
        "count/round",
    ));
    out.push(Metric::new(
        "synth.verify_si_ms",
        per_round("synth.verify_si_ms"),
        "ms/round",
    ));
    out.push(Metric::new(
        "si.joint_states",
        per_round("si.joint_states"),
        "count/round",
    ));
    out.push(Metric::new(
        "netlist.emit_ms",
        per_round("netlist.emit_ms"),
        "ms/round",
    ));
    out.push(Metric::new(
        "netlist.gates",
        per_round("netlist.gates"),
        "count/round",
    ));
    out.push(Metric::new(
        "flow.render_ms",
        per_round("flow.render_ms"),
        "ms/round",
    ));
    out.push(Metric::new(
        "flow.unattributed_ms",
        per_round("flow.op_ms") - attributed,
        "ms/round",
    ));
    out.push(Metric::new(
        "flow.circuit_literals",
        per_round("flow.circuit_literals"),
        "count/round",
    ));
    out
}
