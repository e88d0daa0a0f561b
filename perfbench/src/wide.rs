//! The `verify_wide` workload: the `a4a verify` path (parse, state
//! graph, sanity check) on compositions of 10 000–20 736 states.

use std::time::Instant;

use a4a::stg::Stg;

use crate::inputs::WideSpec;
use crate::measure::{guarded, Layers, Metric, Recorder};

/// The state budget the `a4a verify` command explores with.
const MAX_STATES: usize = 1_000_000;

/// What one verification produced: states, edges, clean verdict.
type Outcome = (usize, usize, bool);

/// One round: every composition through parse → state graph → verify.
pub fn round(specs: &[WideSpec], rec: &mut Recorder) {
    for spec in specs {
        let (out, took) = guarded(|| -> Result<Outcome, String> {
            let stg = Stg::parse_g(&spec.g).map_err(|e| e.to_string())?;
            let sg = stg.state_graph(MAX_STATES).map_err(|e| e.to_string())?;
            let clean = stg.verify(&sg).is_clean();
            Ok((sg.state_count(), sg.edge_count(), clean))
        });
        rec.op(
            took,
            spec.states as f64,
            out.and_then(|o| o).and_then(|o| check(spec, o)),
        );
    }
}

/// The round again with each stage timed.
pub fn traced_round(specs: &[WideSpec], rec: &mut Recorder, layers: &mut Layers) {
    for spec in specs {
        let start = Instant::now();
        let (out, _) = guarded(|| -> Result<Outcome, String> {
            let t = Instant::now();
            let stg = Stg::parse_g(&spec.g).map_err(|e| e.to_string());
            layers.add_ms("stg.parse_ms", t.elapsed());
            let stg = stg?;
            let t = Instant::now();
            let sg = stg.state_graph(MAX_STATES).map_err(|e| e.to_string());
            layers.add_ms("stg.state_graph_ms", t.elapsed());
            let sg = sg?;
            let t = Instant::now();
            let clean = stg.verify(&sg).is_clean();
            layers.add_ms("stg.verify_ms", t.elapsed());
            Ok((sg.state_count(), sg.edge_count(), clean))
        });
        let took = start.elapsed();
        layers.add_ms("verify.op_ms", took);
        let verdict = out.and_then(|o| o).and_then(|o| check(spec, o));
        if verdict.is_ok() {
            layers.add("sg.states", spec.states as f64);
            layers.add("sg.edges", (spec.states * spec.rings) as f64);
        }
        rec.op(took, spec.states as f64, verdict);
    }
}

/// The oracle: exactly the product of the ring lengths in states, one
/// edge per ring per state, and a clean verdict.
fn check(spec: &WideSpec, (states, edges, clean): Outcome) -> Result<(), String> {
    let want_edges = spec.states * spec.rings;
    if states != spec.states || edges != want_edges || !clean {
        return Err(format!(
            "{}: {states} states / {edges} edges / clean {clean}, want {} / {want_edges} / clean",
            spec.name, spec.states
        ));
    }
    Ok(())
}

/// The per-layer metrics of a traced pass of `ops` ops, per op;
/// `compose_ms` is the set-up's composition time per spec.
pub fn layer_metrics(layers: &Layers, ops: f64, compose_ms: f64) -> Vec<Metric> {
    let per_op = |name: &str| layers.get(name) / ops;
    let stages = ["stg.parse_ms", "stg.state_graph_ms", "stg.verify_ms"];
    let attributed: f64 = stages.iter().map(|n| per_op(n)).sum();
    let mut out = vec![Metric::new("verify.op_ms", per_op("verify.op_ms"), "ms/op")];
    for name in stages {
        out.push(Metric::new(name, per_op(name), "ms/op"));
    }
    out.push(Metric::new(
        "verify.unattributed_ms",
        per_op("verify.op_ms") - attributed,
        "ms/op",
    ));
    out.push(Metric::new("sg.states", per_op("sg.states"), "count/op"));
    out.push(Metric::new("sg.edges", per_op("sg.edges"), "count/op"));
    out.push(Metric::new(
        "stategraph.ns_per_state",
        layers.get("stg.state_graph_ms") * 1e6 / layers.get("sg.states"),
        "ns/state",
    ));
    out.push(Metric::new("stg.compose_ms", compose_ms, "ms/spec"));
    out
}
