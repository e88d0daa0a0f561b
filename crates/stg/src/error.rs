use std::error::Error;
use std::fmt;

use a4a_petri::ExploreError;

/// Errors raised while building, parsing, or exploring an STG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// The specification is inconsistent: an edge fires against the
    /// current value of its signal (e.g. `s+` while `s` is already 1).
    Inconsistent {
        /// The offending signal name.
        signal: String,
        /// The offending transition name.
        transition: String,
        /// A firing sequence (transition names) leading to the violation.
        trace: Vec<String>,
    },
    /// State-space exploration exceeded its budget.
    StateLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The caller asked for more states than the 32-bit state id space
    /// can number; ids would silently wrap past 2^32.
    LimitOverflow {
        /// The limit that was requested.
        limit: usize,
    },
    /// A reachable firing overflowed a place's token counter.
    TokenOverflow {
        /// Name of the overflowing place.
        place: String,
        /// Name of the firing transition.
        transition: String,
    },
    /// A `.g` file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Two STGs could not be composed.
    Compose {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Inconsistent {
                signal,
                transition,
                trace,
            } => write!(
                f,
                "inconsistent STG: {transition} fires while {signal} already holds its target value (trace: {})",
                trace.join(", ")
            ),
            StgError::StateLimit { limit } => {
                write!(f, "state graph exceeds limit of {limit} states")
            }
            StgError::LimitOverflow { limit } => write!(
                f,
                "state limit {limit} exceeds the 2^32-1 ids a state id can number"
            ),
            StgError::TokenOverflow { place, transition } => write!(
                f,
                "firing {transition} overflows the token counter of place {place}"
            ),
            StgError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            StgError::Compose { message } => write!(f, "composition error: {message}"),
        }
    }
}

impl Error for StgError {}

impl From<ExploreError> for StgError {
    fn from(e: ExploreError) -> StgError {
        match e {
            ExploreError::StateLimit { limit } => StgError::StateLimit { limit },
            ExploreError::LimitOverflow { limit } => StgError::LimitOverflow { limit },
            ExploreError::TokenOverflow { place, transition } => {
                StgError::TokenOverflow { place, transition }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StgError::Inconsistent {
            signal: "uv".into(),
            transition: "uv+".into(),
            trace: vec!["uv+".into(), "uv+".into()],
        };
        assert!(e.to_string().contains("inconsistent"));
        assert!(e.to_string().contains("uv+, uv+"));
        assert!(StgError::StateLimit { limit: 5 }.to_string().contains('5'));
        let p = StgError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(p.to_string().contains("line 3"));
        let c = StgError::Compose {
            message: "clash".into(),
        };
        assert!(c.to_string().contains("clash"));
    }
}
