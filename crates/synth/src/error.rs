use std::error::Error;
use std::fmt;

use a4a_boolmin::MinimizeError;
use a4a_netlist::NetlistError;
use a4a_stg::{CscConflict, PersistenceViolation, StgError, MAX_CODING_CONFLICTS};

/// Errors raised by the synthesiser and the SI verifier.
#[derive(Debug, Clone)]
pub enum SynthError {
    /// The specification could not be explored (inconsistent or too
    /// large).
    Stg(StgError),
    /// The specification is not output-persistent, so no
    /// speed-independent implementation exists.
    NotPersistent(Vec<PersistenceViolation>),
    /// Complete state coding is violated: states with equal binary codes
    /// require different output behaviour. Resolve by adding internal
    /// signals. Holds the conflicts the sanity report lists: the first
    /// [`MAX_CODING_CONFLICTS`].
    Csc(Vec<CscConflict>),
    /// Two-level minimisation failed.
    Minimize(MinimizeError),
    /// The generated netlist was structurally invalid (internal error).
    Netlist(NetlistError),
    /// A signal's next-state function disagreed with its minimised cover
    /// (internal consistency check).
    CoverMismatch {
        /// The offending signal name.
        signal: String,
        /// The reachable code where cover and next-state disagree.
        code: u64,
    },
    /// A netlist net has no counterpart signal in the specification (the
    /// SI verifier requires the one-net-per-signal form produced by
    /// [`crate::synthesize`]).
    SignalMapping {
        /// The unmatched net's name.
        net: String,
    },
    /// Joint state-space exploration exceeded its budget.
    StateLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Stg(e) => write!(f, "specification error: {e}"),
            SynthError::NotPersistent(v) => {
                write!(
                    f,
                    "specification is not output-persistent ({} violations)",
                    v.len()
                )
            }
            SynthError::Csc(c) => write!(
                f,
                "complete state coding violated ({}{} conflicts); add internal signals",
                if c.len() >= MAX_CODING_CONFLICTS {
                    "at least "
                } else {
                    ""
                },
                c.len()
            ),
            SynthError::Minimize(e) => write!(f, "minimisation failed: {e}"),
            SynthError::Netlist(e) => write!(f, "netlist assembly failed: {e}"),
            SynthError::CoverMismatch { signal, code } => write!(
                f,
                "internal error: cover for {signal} disagrees with next-state at code {code:#b}"
            ),
            SynthError::SignalMapping { net } => {
                write!(
                    f,
                    "net {net:?} has no counterpart signal in the specification"
                )
            }
            SynthError::StateLimit { limit } => {
                write!(f, "joint state space exceeds limit of {limit} states")
            }
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::Stg(e) => Some(e),
            SynthError::Minimize(e) => Some(e),
            SynthError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StgError> for SynthError {
    fn from(e: StgError) -> Self {
        SynthError::Stg(e)
    }
}

impl From<MinimizeError> for SynthError {
    fn from(e: MinimizeError) -> Self {
        SynthError::Minimize(e)
    }
}

impl From<NetlistError> for SynthError {
    fn from(e: NetlistError) -> Self {
        SynthError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SynthError::Csc(vec![]);
        assert!(e.to_string().contains("state coding"));
        let e = SynthError::CoverMismatch {
            signal: "gp".into(),
            code: 0b101,
        };
        assert!(e.to_string().contains("gp"));
        let e: SynthError = StgError::StateLimit { limit: 3 }.into();
        assert!(e.to_string().contains("specification error"));
    }
}
