//! The benchmark's set-up: every input, generated from the seed, plus
//! the reference values the oracles compare against.
//!
//! The program under test only ever receives the `.g` text rendered
//! here; the expectations beside each text (state counts, which signal
//! each output buffers) are derived from how the input was built, not
//! from the code under test.

use std::path::Path;
use std::time::Duration;

use a4a::scenario::ControllerKind;
use a4a::stg::prop_support::pipeline_stg_with_prefix;
use a4a::stg::Stg;
use a4a_rt::Rng;

use crate::measure::timed;

/// Pipeline lengths of the flow workload's generated specs; two specs
/// per length. Each has `n / 2` outputs, so the minimisation work per
/// round does not depend on the seed.
const FLOW_PIPELINE_SIGNALS: [usize; 8] = [6, 6, 7, 7, 8, 8, 9, 9];

/// Pipeline lengths of each verify_wide composition. Every composition
/// has (2n₁)(2n₂)… states, all inside 10 000–20 736, so the ops stay in
/// one narrow size band; the list mixes 3- and 4-way compositions and
/// 20–39 signals.
const WIDE_SHAPES: [&[usize]; 8] = [
    &[5, 5, 5, 5],
    &[11, 11, 11],
    &[4, 5, 6, 8],
    &[12, 12, 12],
    &[6, 6, 6, 6],
    &[13, 13, 13],
    &[3, 4, 6, 10],
    &[8, 13, 16],
];

/// Signal-name prefixes of the pipelines inside one composition.
const WIDE_PREFIXES: [&str; 4] = ["a", "b", "c", "d"];

/// Absolute tolerances of the Fig. 7 goldens, as in the repository's
/// golden-result suite: peak currents (mA) and ripple losses (µW).
pub const TOL_PEAK_MA: f64 = 0.05;
/// See [`TOL_PEAK_MA`].
pub const TOL_LOSS_UW: f64 = 1.0;

/// The paper's Table I ASYNC row (ns): HL, UV, OV, OC, ZC.
pub const PAPER_ASYNC_NS: [f64; 5] = [1.87, 1.02, 1.18, 0.75, 0.31];
/// Allowed distance from [`PAPER_ASYNC_NS`] (ns).
pub const TOL_ASYNC_NS: f64 = 0.05;

/// Which Fig. 7 sweep a golden row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Peak current over coil values.
    A,
    /// Peak current over loads.
    B,
    /// Ripple losses over coil values.
    C,
}

impl Sweep {
    /// The committed CSV holding the sweep's golden rows.
    pub fn file(self) -> &'static str {
        match self {
            Sweep::A => "fig7a.csv",
            Sweep::B => "fig7b.csv",
            Sweep::C => "fig7c.csv",
        }
    }

    /// Absolute tolerance per cell.
    pub fn tol(self) -> f64 {
        match self {
            Sweep::A | Sweep::B => TOL_PEAK_MA,
            Sweep::C => TOL_LOSS_UW,
        }
    }
}

/// One golden Fig. 7 row: the grid point and the five series values.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The sweep.
    pub sweep: Sweep,
    /// Grid point (µH or Ω).
    pub x: f64,
    /// Expected values ordered as [`ControllerKind::paper_series`].
    pub y: [f64; 5],
}

/// One repro op.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproOp {
    /// `experiments::table1()`.
    Table1,
    /// `experiments::fig6_run(kind)`.
    Fig6(ControllerKind),
    /// One golden Fig. 7 row through `fig7{a,b,c}_on`.
    Fig7(SweepRow),
}

/// What a flow spec's output must look like.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowExpect {
    /// A shipped module or A2A spec: the flow must succeed with a clean
    /// sanity check and clean SI verification.
    Shipped,
    /// A handshake pipeline: every output is a buffer of the named
    /// predecessor signal.
    Pipeline {
        /// (output, predecessor) signal names.
        buffers: Vec<(String, String)>,
    },
}

/// One flow input: a spec as `.g` text.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Spec name for failure messages.
    pub name: String,
    /// The `.g` text handed to the program.
    pub g: String,
    /// The oracle's expectation.
    pub expect: FlowExpect,
}

/// One verify_wide input: a composition of pipelines as `.g` text.
#[derive(Debug, Clone, PartialEq)]
pub struct WideSpec {
    /// Spec name for failure messages.
    pub name: String,
    /// The `.g` text handed to the program.
    pub g: String,
    /// Pipelines composed (each contributes one enabled event per state).
    pub rings: usize,
    /// Exact reachable state count: the product of the ring lengths.
    pub states: usize,
}

/// Every input of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The repro round, in the seed's order.
    pub repro: Vec<ReproOp>,
    /// The flow specs (each runs in both synthesis styles).
    pub flow: Vec<FlowSpec>,
    /// The verify_wide compositions, in the seed's order.
    pub wide: Vec<WideSpec>,
    /// Host time spent in `Stg::compose` while building `wide` (ms per
    /// composition).
    pub compose_ms: f64,
}

impl Inputs {
    /// Generates every input from `seed`, reading the Fig. 7 goldens
    /// from `results` and rendering every spec to `.g` text.
    pub fn generate(seed: u64, results: &Path) -> Result<Inputs, String> {
        let mut rng = Rng::from_seed(seed);
        let mut repro_rng = rng.fork();
        let mut flow_rng = rng.fork();
        let mut wide_rng = rng.fork();

        let mut repro = vec![ReproOp::Table1];
        repro.extend(
            ControllerKind::paper_series()
                .into_iter()
                .map(ReproOp::Fig6),
        );
        for sweep in [Sweep::A, Sweep::B, Sweep::C] {
            repro.extend(load_golden(results, sweep)?.into_iter().map(ReproOp::Fig7));
        }
        // Fig. 6 ASYNC is checked against the 333 MHz run of the same
        // round, so the Fig. 6 ops keep series order among the shuffled
        // slots.
        shuffle(&mut repro_rng, &mut repro);
        let mut series = ControllerKind::paper_series().into_iter();
        for op in &mut repro {
            if let ReproOp::Fig6(kind) = op {
                *kind = series.next().expect("one Fig. 6 op per series");
            }
        }

        let mut flow: Vec<FlowSpec> = a4a::ctrl::stgs::all_module_stgs()
            .into_iter()
            .chain(a4a::a2a::spec::all_specs())
            .map(|(name, stg)| FlowSpec {
                name: name.to_string(),
                g: stg.to_g(),
                expect: FlowExpect::Shipped,
            })
            .collect();
        for (i, &n) in FLOW_PIPELINE_SIGNALS.iter().enumerate() {
            let outputs = choose_outputs(&mut flow_rng, n, n / 2);
            let mask = outputs.iter().fold(0u64, |m, &o| m | 1 << o);
            let buffers = outputs
                .iter()
                .map(|&o| (format!("s{o}"), format!("s{}", o - 1)))
                .collect();
            flow.push(FlowSpec {
                name: format!("pipeline{i}_n{n}_mask{mask:#x}"),
                g: pipeline_stg_with_prefix(n, mask, "s").to_g(),
                expect: FlowExpect::Pipeline { buffers },
            });
        }

        let mut wide = Vec::new();
        let mut compose = Duration::ZERO;
        for shape in WIDE_SHAPES {
            let mut ns = shape.to_vec();
            shuffle(&mut wide_rng, &mut ns);
            let parts: Vec<Stg> = ns
                .iter()
                .zip(WIDE_PREFIXES)
                .map(|(&n, prefix)| {
                    let count = 1 + wide_rng.usize_below(n - 1);
                    let outputs = choose_outputs(&mut wide_rng, n, count);
                    let mask = outputs.iter().fold(0u64, |m, &o| m | 1 << o);
                    pipeline_stg_with_prefix(n, mask, prefix)
                })
                .collect();
            let (stg, took) = timed(|| {
                parts[1..]
                    .iter()
                    .try_fold(parts[0].clone(), |acc, p| acc.compose(p))
            });
            compose += took;
            let stg = stg.map_err(|e| format!("composing {ns:?}: {e}"))?;
            wide.push(WideSpec {
                name: format!("compose{ns:?}"),
                g: stg.to_g(),
                rings: ns.len(),
                states: ns.iter().map(|n| 2 * n).product(),
            });
        }
        shuffle(&mut wide_rng, &mut wide);
        let compose_ms = compose.as_secs_f64() * 1e3 / wide.len() as f64;

        Ok(Inputs {
            repro,
            flow,
            wide,
            compose_ms,
        })
    }

    /// Whether two generations produced the same inputs (the timing of
    /// composition aside).
    pub fn same_as(&self, other: &Inputs) -> bool {
        self.repro == other.repro && self.flow == other.flow && self.wide == other.wide
    }
}

/// `count` distinct output positions out of 1..n (signal 0 stays the
/// environment's input), sorted.
fn choose_outputs(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let mut positions: Vec<usize> = (1..n).collect();
    shuffle(rng, &mut positions);
    positions.truncate(count);
    positions.sort_unstable();
    positions
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.usize_below(i + 1));
    }
}

/// Reads one committed Fig. 7 CSV: a header, then `x,100MHz,…,ASYNC`.
fn load_golden(results: &Path, sweep: Sweep) -> Result<Vec<SweepRow>, String> {
    let path = results.join(sweep.file());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let cells: Result<Vec<f64>, _> =
                line.split(',').map(|c| c.trim().parse::<f64>()).collect();
            match cells {
                Ok(c) if c.len() == 6 => Ok(SweepRow {
                    sweep,
                    x: c[0],
                    y: [c[1], c[2], c[3], c[4], c[5]],
                }),
                _ => Err(format!("{}: malformed row {line:?}", path.display())),
            }
        })
        .collect()
}
