use std::error::Error;
use std::fmt;

use a4a_netlist::verilog;
use a4a_sim::SimError;
use a4a_stg::{Stg, VerifyReport};
use a4a_synth::{synthesize, verify_si, SiReport, SynthError, SynthOptions, SynthStyle, Synthesis};

/// Errors raised by [`A4aFlow::run`] and by drivers that chain the flow
/// with the mixed-signal testbench.
#[derive(Debug, Clone)]
pub enum FlowError {
    /// The specification failed a sanity check (deadlock, persistence,
    /// CSC) or could not be explored.
    Specification {
        /// The failed stage's report, rendered.
        report: String,
    },
    /// Synthesis or SI verification failed.
    Synthesis(SynthError),
    /// The co-simulation stage failed (invalid testbench configuration,
    /// diverging analog integration, scheduler misuse). Lets `?` carry a
    /// [`SimError`] from [`crate::TestbenchBuilder::try_build`] /
    /// [`crate::Testbench::try_run_until`] through a flow-typed driver.
    Simulation(SimError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Specification { report } => {
                write!(f, "specification failed sanity checks:\n{report}")
            }
            FlowError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            FlowError::Simulation(e) => write!(f, "co-simulation failed: {e}"),
        }
    }
}

impl Error for FlowError {}

impl From<SynthError> for FlowError {
    fn from(e: SynthError) -> Self {
        FlowError::Synthesis(e)
    }
}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        FlowError::Simulation(e)
    }
}

/// All artefacts produced by one run of the A4A flow.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The sanity-check report (consistency is implied by existence).
    pub sanity: VerifyReport,
    /// The synthesised implementation.
    pub synthesis: Synthesis,
    /// The gate-level conformance / hazard report.
    pub si: SiReport,
    /// The specification in `.g` interchange format.
    pub g_format: String,
    /// The implementation as structural Verilog.
    pub verilog: String,
    /// Human-readable signal equations.
    pub equations: String,
}

/// The automated A4A design flow of Figure 3: formal specification in,
/// verified speed-independent netlist out.
///
/// # Examples
///
/// See the crate-level example; the `a4a_flow` workspace example runs
/// the flow over every controller module.
#[derive(Debug, Clone)]
pub struct A4aFlow {
    stg: Stg,
    options: SynthOptions,
}

impl A4aFlow {
    /// Creates a flow over a specification with complex-gate synthesis.
    pub fn new(stg: Stg) -> Self {
        A4aFlow {
            stg,
            options: SynthOptions::new(SynthStyle::ComplexGate),
        }
    }

    /// Selects the implementation style.
    pub fn with_style(mut self, style: SynthStyle) -> Self {
        self.options.style = style;
        self
    }

    /// Replaces the synthesis options wholesale. Their `max_states` is
    /// the state budget of every stage: the sanity check, synthesis and
    /// SI verification.
    pub fn with_options(mut self, options: SynthOptions) -> Self {
        self.options = options;
        self
    }

    /// The specification.
    pub fn stg(&self) -> &Stg {
        &self.stg
    }

    /// Runs specification → sanity check → synthesis → SI verification.
    ///
    /// # Errors
    ///
    /// * [`FlowError::Specification`] when the STG is inconsistent,
    ///   deadlocking, non-persistent, or has CSC conflicts;
    /// * [`FlowError::Synthesis`] when minimisation, netlist assembly,
    ///   or the joint verification fail.
    pub fn run(&self) -> Result<FlowResult, FlowError> {
        let sg = self.stg.state_graph(self.options.max_states).map_err(|e| {
            FlowError::Specification {
                report: e.to_string(),
            }
        })?;
        let sanity = self.stg.verify(&sg);
        if !sanity.is_clean() {
            return Err(FlowError::Specification {
                report: sanity.summary(),
            });
        }
        let synthesis = synthesize(&self.stg, &self.options)?;
        let si = verify_si(&self.stg, synthesis.netlist(), self.options.max_states)?;
        let verilog = verilog::emit(synthesis.netlist());
        let g_format = self.stg.to_g();
        let equations = synthesis.equations(&self.stg);
        Ok(FlowResult {
            sanity,
            synthesis,
            si,
            g_format,
            verilog,
            equations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_runs_on_handshake() {
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
        let result = A4aFlow::new(stg).run().unwrap();
        assert!(result.sanity.is_clean());
        assert!(result.si.is_clean());
        assert!(result.verilog.contains("assign ack = req;"));
        assert!(result.g_format.contains(".model hs"));
        assert!(result.equations.contains("ack ="));
    }

    #[test]
    fn flow_rejects_csc_conflict() {
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
        let err = A4aFlow::new(stg).run().unwrap_err();
        assert!(matches!(err, FlowError::Specification { .. }), "{err}");
    }

    /// The state budget of `with_options` bounds the sanity check too,
    /// so a spec over budget fails there rather than in synthesis.
    #[test]
    fn options_state_budget_bounds_every_stage() {
        let mut options = SynthOptions::new(SynthStyle::ComplexGate);
        options.max_states = 2;
        let err = A4aFlow::new(a4a_ctrl::stgs::basic_buck_stg())
            .with_options(options)
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::Specification { .. }), "{err}");
    }

    #[test]
    fn sim_errors_convert_into_flow_errors() {
        // A driver that runs flow → testbench can use `?` throughout.
        fn driver() -> Result<f64, FlowError> {
            let stg = a4a_a2a::spec::wait_stg();
            let _ = A4aFlow::new(stg).run()?;
            let ctrl = a4a_ctrl::AsyncController::new(4, a4a_ctrl::AsyncTiming::default());
            let mut tb = crate::TestbenchBuilder::new().try_build(ctrl)?;
            tb.try_run_until(1e-6)?;
            Ok(tb.buck().output_voltage())
        }
        assert!(driver().unwrap() > 0.0);

        let e: FlowError = SimError::StaleKey.into();
        assert!(matches!(e, FlowError::Simulation(SimError::StaleKey)));
        assert!(e.to_string().contains("co-simulation failed"));
    }

    #[test]
    fn both_styles_verify() {
        let stg = a4a_a2a::spec::wait_stg();
        for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
            let result = A4aFlow::new(stg.clone()).with_style(style).run().unwrap();
            assert!(result.si.is_clean(), "{style:?}");
        }
    }
}
