use std::error::Error;
use std::fmt;

use a4a_sim::Time;

/// Violation of the 4-phase handshake protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// When the violating event happened.
    pub time: Time,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "handshake protocol violated at {}: {}",
            self.time, self.message
        )
    }
}

impl Error for ProtocolError {}

/// Runtime checker for 4-phase request/acknowledge handshakes.
///
/// Feed it every observed edge of one `req`/`ack` pair; it enforces the
/// cyclic order `req+ ack+ req- ack-` and monotone timestamps. Used by
/// the controller tests to assert that A2A elements and sub-module
/// interfaces stay protocol-clean during mixed-signal runs.
///
/// # Examples
///
/// ```
/// use a4a_a2a::HandshakeMonitor;
/// use a4a_sim::Time;
///
/// let mut m = HandshakeMonitor::new("ctrl.zc");
/// m.req(Time::from_ns(1.0), true)?;
/// m.ack(Time::from_ns(2.0), true)?;
/// m.req(Time::from_ns(3.0), false)?;
/// m.ack(Time::from_ns(4.0), false)?;
/// assert_eq!(m.cycles(), 1);
/// # Ok::<(), a4a_a2a::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HandshakeMonitor {
    name: String,
    req: bool,
    ack: bool,
    cycles: u64,
    last_t: Time,
}

impl HandshakeMonitor {
    /// Creates a monitor for a named channel (the name appears in
    /// violation messages).
    pub fn new(name: impl Into<String>) -> Self {
        HandshakeMonitor {
            name: name.into(),
            req: false,
            ack: false,
            cycles: 0,
            last_t: Time::ZERO,
        }
    }

    /// Completed handshake cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current request level.
    pub fn req_level(&self) -> bool {
        self.req
    }

    /// Current acknowledge level.
    pub fn ack_level(&self) -> bool {
        self.ack
    }

    fn check_time(&mut self, t: Time) -> Result<(), ProtocolError> {
        if t < self.last_t {
            return Err(ProtocolError {
                time: t,
                message: format!("{}: time went backwards", self.name),
            });
        }
        self.last_t = t;
        Ok(())
    }

    /// Observes a request edge.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the edge violates the 4-phase
    /// order (e.g. `req-` before `ack+`, or a repeated level).
    pub fn req(&mut self, t: Time, value: bool) -> Result<(), ProtocolError> {
        self.check_time(t)?;
        if self.req == value {
            return Err(ProtocolError {
                time: t,
                message: format!("{}: req repeated level {value}", self.name),
            });
        }
        let legal = if value {
            !self.req && !self.ack
        } else {
            self.req && self.ack
        };
        if !legal {
            return Err(ProtocolError {
                time: t,
                message: format!(
                    "{}: req{} out of order (req={}, ack={})",
                    self.name,
                    if value { "+" } else { "-" },
                    self.req,
                    self.ack
                ),
            });
        }
        self.req = value;
        Ok(())
    }

    /// Observes an acknowledge edge.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the edge violates the 4-phase
    /// order (e.g. `ack+` without a pending `req+`).
    pub fn ack(&mut self, t: Time, value: bool) -> Result<(), ProtocolError> {
        self.check_time(t)?;
        if self.ack == value {
            return Err(ProtocolError {
                time: t,
                message: format!("{}: ack repeated level {value}", self.name),
            });
        }
        // ack may only follow req to the same level.
        if value != self.req {
            return Err(ProtocolError {
                time: t,
                message: format!(
                    "{}: ack{} out of order (req={}, ack={})",
                    self.name,
                    if value { "+" } else { "-" },
                    self.req,
                    self.ack
                ),
            });
        }
        self.ack = value;
        if !value {
            self.cycles += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn clean_cycles_count() {
        let mut m = HandshakeMonitor::new("ch");
        for k in 0..3 {
            let base = k as f64 * 10.0;
            m.req(t(base + 1.0), true).unwrap();
            m.ack(t(base + 2.0), true).unwrap();
            m.req(t(base + 3.0), false).unwrap();
            m.ack(t(base + 4.0), false).unwrap();
        }
        assert_eq!(m.cycles(), 3);
    }

    #[test]
    fn early_req_release_rejected() {
        let mut m = HandshakeMonitor::new("ch");
        m.req(t(1.0), true).unwrap();
        let err = m.req(t(2.0), false).unwrap_err();
        assert!(err.to_string().contains("out of order"));
    }

    #[test]
    fn spurious_ack_rejected() {
        let mut m = HandshakeMonitor::new("ch");
        let err = m.ack(t(1.0), true).unwrap_err();
        assert!(err.to_string().contains("out of order"));
    }

    #[test]
    fn repeated_level_rejected() {
        let mut m = HandshakeMonitor::new("ch");
        m.req(t(1.0), true).unwrap();
        let err = m.req(t(2.0), true).unwrap_err();
        assert!(err.to_string().contains("repeated"));
    }

    #[test]
    fn backwards_time_rejected() {
        let mut m = HandshakeMonitor::new("ch");
        m.req(t(5.0), true).unwrap();
        let err = m.ack(t(1.0), true).unwrap_err();
        assert!(err.to_string().contains("backwards"));
    }

    #[test]
    fn levels_exposed() {
        let mut m = HandshakeMonitor::new("ch");
        m.req(t(1.0), true).unwrap();
        assert!(m.req_level());
        assert!(!m.ack_level());
    }
}
