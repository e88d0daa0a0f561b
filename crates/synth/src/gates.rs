//! Cover minimisation and netlist assembly.

use a4a_boolmin::{espresso, minimize, Cover, Expr, Minimize, MinimizeError};
use a4a_netlist::{GateKind, GateLib, NetId, Netlist, NetlistBuilder};
use a4a_stg::{SignalId, SignalKind, Stg};

use crate::extract::{extract_next_state, Region};
use crate::SynthError;

/// Implementation style for synthesised signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthStyle {
    /// One atomic complex gate per signal computing the full next-state
    /// function (Petrify's complex-gate mode).
    ComplexGate,
    /// A generalized C-element per signal with minimised set and reset
    /// covers (the gC mode preferred for standard-cell mapping).
    GeneralizedC,
}

/// Options for [`synthesize`].
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Implementation style.
    pub style: SynthStyle,
    /// Timing library used for gate delays.
    pub lib: GateLib,
    /// State-graph exploration budget.
    pub max_states: usize,
}

impl SynthOptions {
    /// Default options with the given style.
    pub fn new(style: SynthStyle) -> Self {
        SynthOptions {
            style,
            lib: GateLib::tsmc90(),
            max_states: 1_000_000,
        }
    }
}

/// The synthesised function of one signal.
#[derive(Debug, Clone)]
pub enum SignalFunction {
    /// A single cover: `signal = cover(code)`.
    Complex(Cover),
    /// Set/reset covers around a state-holding element:
    /// `signal' = set | (signal & !reset)`.
    Gc {
        /// The set cover.
        set: Cover,
        /// The reset cover.
        reset: Cover,
    },
}

impl SignalFunction {
    /// Total literal count (area proxy).
    pub fn literal_count(&self) -> u32 {
        match self {
            SignalFunction::Complex(c) => c.literal_count(),
            SignalFunction::Gc { set, reset } => set.literal_count() + reset.literal_count(),
        }
    }
}

/// The implementation chosen for one signal.
#[derive(Debug, Clone)]
pub struct SignalImpl {
    /// The implemented signal.
    pub signal: SignalId,
    /// The signal's name (copied for reporting convenience).
    pub name: String,
    /// The synthesised function.
    pub function: SignalFunction,
}

/// Result of [`synthesize`]: the netlist plus per-signal functions.
#[derive(Debug, Clone)]
pub struct Synthesis {
    netlist: Netlist,
    impls: Vec<SignalImpl>,
}

impl Synthesis {
    /// The synthesised gate-level circuit. Net names equal signal names.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Per-signal implementations.
    pub fn impls(&self) -> &[SignalImpl] {
        &self.impls
    }

    /// Total literal count (area proxy).
    pub fn literal_count(&self) -> u32 {
        self.impls.iter().map(|i| i.function.literal_count()).sum()
    }

    /// Renders a human-readable equation report.
    pub fn equations(&self, stg: &Stg) -> String {
        let names: Vec<String> = stg.signals().iter().map(|s| s.name.clone()).collect();
        let mut out = String::new();
        for im in &self.impls {
            match &im.function {
                SignalFunction::Complex(c) => {
                    out.push_str(&format!("{} = {}\n", im.name, c.format_with(&names)));
                }
                SignalFunction::Gc { set, reset } => {
                    out.push_str(&format!(
                        "{} : set = {} ; reset = {}\n",
                        im.name,
                        set.format_with(&names),
                        reset.format_with(&names)
                    ));
                }
            }
        }
        out
    }
}

/// Minimises ON/OFF minterm lists: exact Quine–McCluskey while the
/// variable count permits full enumeration, espresso-style heuristic
/// beyond that (wide composed controllers).
fn minimize_sets(nvars: usize, on: &[u64], off: &[u64]) -> Result<Cover, MinimizeError> {
    if nvars <= 18 {
        minimize(&Minimize::new(nvars).on(on).off(off))
    } else {
        espresso(nvars, on, off)
    }
}

/// Synthesises a speed-independent circuit from an STG.
///
/// # Errors
///
/// * [`SynthError::Stg`] — inconsistent spec or state limit;
/// * [`SynthError::NotPersistent`] — enabled outputs can be disabled;
/// * [`SynthError::Csc`] — complete state coding fails;
/// * [`SynthError::Minimize`] / [`SynthError::Netlist`] — downstream
///   failures (too many signals, structural errors).
pub fn synthesize(stg: &Stg, opts: &SynthOptions) -> Result<Synthesis, SynthError> {
    let sg = stg.state_graph(opts.max_states)?;
    let report = stg.verify(&sg);
    if !report.persistence.is_empty() {
        return Err(SynthError::NotPersistent(report.persistence.clone()));
    }
    if report.csc_count > 0 {
        let csc = report.csc_conflicts().into_iter().cloned().collect();
        return Err(SynthError::Csc(csc));
    }

    let nvars = stg.signal_count();
    let mut impls = Vec::new();
    for signal in stg.signal_ids() {
        if !stg.signal(signal).kind.is_implemented() {
            continue;
        }
        let ns = extract_next_state(stg, &sg, signal).ok_or_else(|| {
            SynthError::Csc(Vec::new()) // unreachable: CSC checked above
        })?;
        let function = match opts.style {
            SynthStyle::ComplexGate => {
                let on = ns.on_set();
                let off = ns.off_set();
                let cover = minimize_sets(nvars, &on, &off)?;
                if let Some((code, _)) = cover.check(&on, &off) {
                    return Err(SynthError::CoverMismatch {
                        signal: stg.signal(signal).name.clone(),
                        code,
                    });
                }
                SignalFunction::Complex(cover)
            }
            SynthStyle::GeneralizedC => {
                let er_rise = ns.region_codes(Region::ExcitedRise);
                let er_fall = ns.region_codes(Region::ExcitedFall);
                let stable0 = ns.region_codes(Region::Stable0);
                let stable1 = ns.region_codes(Region::Stable1);
                // Set: 1 on ER(s+), 0 wherever the output must be/stay 0.
                let set_off: Vec<u64> = stable0.iter().chain(er_fall.iter()).copied().collect();
                let set = minimize_sets(nvars, &er_rise, &set_off)?;
                // Reset: 1 on ER(s-), 0 wherever the output must be/stay 1.
                let reset_off: Vec<u64> = stable1.iter().chain(er_rise.iter()).copied().collect();
                let reset = minimize_sets(nvars, &er_fall, &reset_off)?;
                SignalFunction::Gc { set, reset }
            }
        };
        impls.push(SignalImpl {
            signal,
            name: stg.signal(signal).name.clone(),
            function,
        });
    }

    let netlist = assemble(stg, &impls, opts)?;
    Ok(Synthesis { netlist, impls })
}

fn assemble(stg: &Stg, impls: &[SignalImpl], opts: &SynthOptions) -> Result<Netlist, SynthError> {
    let mut b = NetlistBuilder::new(stg.name());
    let mut nets: Vec<NetId> = Vec::with_capacity(stg.signal_count());
    for s in stg.signal_ids() {
        let sig = stg.signal(s);
        let net = if sig.kind == SignalKind::Input {
            b.input(sig.name.clone())
        } else {
            b.net(sig.name.clone())
        };
        nets.push(net);
    }
    for im in impls {
        let (kind, support) = match &im.function {
            SignalFunction::Complex(cover) => {
                let expr = Expr::from_cover(cover);
                (GateKind::Complex(expr.clone()), expr.support())
            }
            SignalFunction::Gc { set, reset } => {
                let set_e = Expr::from_cover(set);
                let reset_e = Expr::from_cover(reset);
                let mut support = set_e.support();
                support.extend(reset_e.support());
                support.sort_unstable();
                support.dedup();
                (
                    GateKind::GeneralizedC {
                        set: set_e,
                        reset: reset_e,
                    },
                    support,
                )
            }
        };
        // Remap global signal indices to local pin positions.
        let pin_of = |global: usize| -> usize {
            support
                .iter()
                .position(|&g| g == global)
                .expect("support member")
        };
        let kind = match kind {
            GateKind::Complex(e) => GateKind::Complex(e.map_vars(&pin_of)),
            GateKind::GeneralizedC { set, reset } => GateKind::GeneralizedC {
                set: set.map_vars(&pin_of),
                reset: reset.map_vars(&pin_of),
            },
            other => other,
        };
        let pins: Vec<NetId> = support.iter().map(|&g| nets[g]).collect();
        b.gate(nets[im.signal.index()], &pins, kind, &opts.lib);
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4a_stg::Stg;

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

    #[test]
    fn c_element_complex_gate_is_majority() {
        let stg = Stg::parse_g(CELEM).unwrap();
        let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap();
        assert_eq!(synth.netlist().gate_count(), 1);
        // Complex-gate next-state of a C-element is the majority function
        // c' = ab + c(a+b): 6 literals.
        assert_eq!(synth.literal_count(), 6);
        let eqs = synth.equations(&stg);
        assert!(eqs.contains("c ="), "{eqs}");
    }

    #[test]
    fn c_element_gc_style() {
        let stg = Stg::parse_g(CELEM).unwrap();
        let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::GeneralizedC)).unwrap();
        assert_eq!(synth.netlist().gate_count(), 1);
        let im = &synth.impls()[0];
        match &im.function {
            SignalFunction::Gc { set, reset } => {
                // set = a b ; reset = a' b'
                assert_eq!(set.literal_count(), 2);
                assert_eq!(reset.literal_count(), 2);
            }
            other => panic!("expected gC, got {other:?}"),
        }
    }

    #[test]
    fn handshake_ack_is_buffer() {
        let stg = Stg::parse_g(
            "\
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
",
        )
        .unwrap();
        let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap();
        // ack = req: a single-literal cover.
        assert_eq!(synth.literal_count(), 1);
    }

    #[test]
    fn csc_conflict_rejected() {
        let stg = Stg::parse_g(
            "\
.model bad
.inputs a
.outputs b
.graph
a+ a-
a- b+
b+ b-
b- a+
.marking { <b-,a+> }
.end
",
        )
        .unwrap();
        let err = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap_err();
        assert!(matches!(err, SynthError::Csc(c) if !c.is_empty()));
    }

    #[test]
    fn non_persistent_rejected_unless_allowed() {
        // Output o+ in choice with input a+.
        let stg = Stg::parse_g(
            "\
.model np
.inputs a
.outputs o
.graph
p0 a+ o+
a+ p1
o+ p1
p1 a- o-
a- p2
o- p2
p2 a+
.marking { p0 }
.end
",
        );
        // This hand-written net is odd; build a cleaner one with the
        // builder instead.
        drop(stg);
        let mut bld = a4a_stg::StgBuilder::new("np");
        let a = bld.input("a", false);
        let o = bld.output("o", false);
        let ap = bld.rise(a);
        let op = bld.rise(o);
        let p = bld.place_with_tokens("p", 1);
        bld.arc_pt(p, ap);
        bld.arc_pt(p, op);
        let stg = bld.build();
        let err = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap_err();
        assert!(matches!(err, SynthError::NotPersistent(_)));
    }

    #[test]
    fn netlist_nets_named_after_signals() {
        let stg = Stg::parse_g(CELEM).unwrap();
        let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap();
        let n = synth.netlist();
        assert!(n.net_by_name("a").is_some());
        assert!(n.net_by_name("c").is_some());
        assert_eq!(n.inputs().len(), 2);
    }
}
