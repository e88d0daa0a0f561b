//! Tracked wall-time benchmarks for the formal-side hot path — the
//! STG → state-graph → Quine–McCluskey → speed-independence pipeline
//! that backs every verification claim in the repo (DESIGN.md §2's
//! exact-reachability substitution).
//!
//! Six metrics, median-of-N via [`a4a_rt::bench::Bencher`]:
//!
//! * `synth/state_graph_token_ring_x1000` — 1000 state-graph builds of
//!   the composed token ring (the widest shipped net, 20 places);
//! * `synth/state_graph_mode_ctrl_x1000` — 1000 builds of the largest
//!   shipped module STG by state count (`mode_ctrl`, 22 states);
//! * `synth/reach_mode_ctrl_x1000` — 1000 raw Petri-net reachability
//!   explorations of the same net;
//! * `synth/state_graph_composed_pipelines` — one build of a 3-way
//!   composed handshake-pipeline product (the widest state space the
//!   repo constructs, thousands of states — where the row kernel and
//!   the id-interner dominate);
//! * `synth/minimize_qm10` — a representative 10-variable
//!   Quine–McCluskey minimisation with a seeded ON/OFF/DC partition;
//! * `synth/verify_si_celem` — conformance + hazard verification of the
//!   synthesised C-element against its specification.
//!
//! Results go to stdout as JSON lines and to `BENCH_synth.json` at the
//! repo root (override with `A4A_BENCH_OUT`), the tracked single-thread
//! baseline subsequent PRs regress against. `A4A_BENCH_SAMPLES` trims
//! the sample count for quick CI smoke runs.

use std::fs;
use std::path::{Path, PathBuf};

use a4a_boolmin::Minimize;
use a4a_rt::bench::Bencher;
use a4a_rt::Rng;
use a4a_stg::prop_support;
use a4a_synth::{synthesize, verify_si, SynthOptions, SynthStyle};

const CELEM: &str = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
";

fn main() {
    let bencher = Bencher::new();
    let mut results = Vec::new();

    let ring = a4a_ctrl::stgs::token_ring_stg();
    results.push(bencher.bench("synth/state_graph_token_ring_x1000", || {
        let mut states = 0usize;
        for _ in 0..1000 {
            let sg = ring.state_graph(500_000).expect("token ring is consistent");
            states += sg.state_count();
        }
        states
    }));

    let mode = a4a_ctrl::stgs::mode_ctrl_stg();
    results.push(bencher.bench("synth/state_graph_mode_ctrl_x1000", || {
        let mut states = 0usize;
        for _ in 0..1000 {
            let sg = mode.state_graph(500_000).expect("mode_ctrl is consistent");
            states += sg.state_count();
        }
        states
    }));

    results.push(bencher.bench("synth/reach_mode_ctrl_x1000", || {
        let mut states = 0usize;
        for _ in 0..1000 {
            let g = mode.net().explore(500_000).expect("mode_ctrl net is bounded");
            states += g.state_count();
        }
        states
    }));

    // A wide product state space: three independent 6-stage handshake
    // pipelines composed into one STG. Exercises the row kernel and the
    // interner at thousands of states.
    let a = prop_support::pipeline_stg_with_prefix(6, 0b101010, "a");
    let b = prop_support::pipeline_stg_with_prefix(6, 0b010101, "b");
    let c = prop_support::pipeline_stg_with_prefix(6, 0b110011, "c");
    let wide = a
        .compose(&b)
        .and_then(|ab| ab.compose(&c))
        .expect("prefixed pipelines compose");
    results.push(bencher.bench("synth/state_graph_composed_pipelines", || {
        let sg = wide.state_graph(500_000).expect("composed pipelines are consistent");
        sg.state_count()
    }));

    // Representative QM instance: a seeded ON/OFF/DC partition of the
    // 10-variable minterm space (~1/8 ON, ~5/8 OFF, rest don't-care).
    let mut rng = Rng::from_seed(0x5e_ed_a4_a5);
    let mut on = Vec::new();
    let mut off = Vec::new();
    for m in 0..(1u64 << 10) {
        match rng.next_u64() % 8 {
            0 => on.push(m),
            1..=5 => off.push(m),
            _ => {}
        }
    }
    results.push(bencher.bench("synth/minimize_qm10", || {
        let cover = a4a_boolmin::minimize(&Minimize::new(10).on(&on).off(&off))
            .expect("no contradiction by construction");
        cover.cube_count()
    }));

    let stg = a4a_stg::Stg::parse_g(CELEM).expect("C-element spec parses");
    let synth =
        synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).expect("C-element synthesises");
    results.push(bencher.bench("synth/verify_si_celem", || {
        let report = verify_si(&stg, synth.netlist(), 100_000).expect("verification completes");
        assert!(report.is_clean());
        report.states
    }));

    let path = std::env::var_os("A4A_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_synth.json"));
    let mut out = String::new();
    for r in &results {
        out.push_str(&r.json_line());
        out.push('\n');
    }
    fs::write(&path, &out).expect("write BENCH_synth.json");
    eprintln!("wrote {}", path.display());
}
