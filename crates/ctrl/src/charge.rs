//! CHARGE_CTRL: the charging cycle of one phase, shared by both
//! controllers.
//!
//! A cycle turns the PMOS on, off on OC, the NMOS on after the PMOS ack
//! has fallen (break before make), and off on ZC or on a new charge
//! demand. [`Charge`] holds where a phase is in that cycle and the
//! PMIN/NMIN/PEXT deadlines; the controllers decide *when* each
//! transition fires — the synchronous one on a clock edge, the
//! asynchronous one on an event plus its module delays.

use a4a_sim::Time;

use crate::{Command, PolicyTiming};

/// Charging state of one phase (the CHARGE_CTRL + delay-controller
/// portion of Figure 5c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PState {
    /// Both transistors off.
    Idle,
    /// `gp` commanded on, waiting for `gp_ack` rise.
    TurnPmosOn,
    /// PMOS conducting; waiting for OC (and the minimum on-time).
    PmosOn,
    /// `gp` commanded off, waiting for `gp_ack` fall (break before
    /// make).
    TurnPmosOff,
    /// `gn` commanded on, waiting for `gn_ack` rise.
    TurnNmosOn,
    /// NMOS conducting; waiting for ZC or for the next charge demand.
    NmosOn,
    /// `gn` commanded off, waiting for `gn_ack` fall.
    TurnNmosOff {
        /// Start a new PMOS cycle after the ack (late/no-ZC scenario),
        /// or finish to idle (early-ZC / OV-resolved scenario).
        recharge: bool,
    },
}

/// The charging machine of one phase.
#[derive(Debug, Clone)]
pub(crate) struct Charge {
    pub(crate) state: PState,
    /// Earliest time `gp` may be commanded off.
    pub(crate) pmos_min_until: Time,
    /// Earliest time `gn` may be commanded off.
    pub(crate) nmos_min_until: Time,
    /// Next cycle is the first after a UV detection: extend PMIN by
    /// PEXT (the WAIT01 + EXT_DELAY_CTRL path).
    pub(crate) first_cycle: bool,
}

impl Charge {
    pub(crate) fn new() -> Charge {
        Charge {
            state: PState::Idle,
            pmos_min_until: Time::ZERO,
            nmos_min_until: Time::ZERO,
            first_cycle: true,
        }
    }

    /// Moves into the state the gate command starts and returns the
    /// command. A `gn-` keeps a recharge that was already decided.
    pub(crate) fn gate(&mut self, phase: usize, pmos: bool, value: bool) -> Command {
        self.state = match (pmos, value) {
            (true, true) => {
                debug_assert!(
                    !matches!(self.state, PState::TurnNmosOn | PState::NmosOn),
                    "break-before-make violated"
                );
                PState::TurnPmosOn
            }
            (true, false) => PState::TurnPmosOff,
            (false, true) => {
                debug_assert!(
                    !matches!(self.state, PState::TurnPmosOn | PState::PmosOn),
                    "break-before-make violated"
                );
                PState::TurnNmosOn
            }
            (false, false) => match self.state {
                PState::TurnNmosOff { recharge } => PState::TurnNmosOff { recharge },
                _ => PState::TurnNmosOff { recharge: false },
            },
        };
        Command::Gate { phase, pmos, value }
    }

    /// The PMOS ack has risen at `t`: PMIN starts, plus PEXT on the first
    /// cycle after a UV detection.
    pub(crate) fn pmos_conducts(&mut self, t: Time, policy: &PolicyTiming) {
        let ext = if std::mem::take(&mut self.first_cycle) {
            policy.pext
        } else {
            Time::ZERO
        };
        self.state = PState::PmosOn;
        self.pmos_min_until = t + policy.pmin + ext;
    }

    /// The NMOS ack has risen at `t`: NMIN starts.
    pub(crate) fn nmos_conducts(&mut self, t: Time, policy: &PolicyTiming) {
        self.state = PState::NmosOn;
        self.nmos_min_until = t + policy.nmin;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn pext_extends_only_the_first_cycle_after_uv() {
        let policy = PolicyTiming::default();
        let mut c = Charge::new();
        c.first_cycle = true;
        c.pmos_conducts(ns(10.0), &policy);
        assert_eq!(c.state, PState::PmosOn);
        assert_eq!(c.pmos_min_until, ns(10.0) + policy.pmin + policy.pext);
        assert!(!c.first_cycle);
        c.pmos_conducts(ns(300.0), &policy);
        assert_eq!(c.pmos_min_until, ns(300.0) + policy.pmin);
    }

    #[test]
    fn gn_off_keeps_a_decided_recharge() {
        let mut c = Charge::new();
        c.state = PState::TurnNmosOff { recharge: true };
        let cmd = c.gate(2, false, false);
        assert_eq!(
            cmd,
            Command::Gate {
                phase: 2,
                pmos: false,
                value: false
            }
        );
        assert_eq!(c.state, PState::TurnNmosOff { recharge: true });
        c.state = PState::NmosOn;
        c.gate(2, false, false);
        assert_eq!(c.state, PState::TurnNmosOff { recharge: false });
    }
}
