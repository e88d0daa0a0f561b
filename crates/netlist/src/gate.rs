use a4a_boolmin::Expr;
use a4a_sim::Time;

/// Pin-to-output propagation delays of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delay {
    /// Delay of an output rising transition.
    pub rise: Time,
    /// Delay of an output falling transition.
    pub fall: Time,
}

impl Delay {
    /// A symmetric delay.
    pub fn symmetric(d: Time) -> Delay {
        Delay { rise: d, fall: d }
    }

    /// The delay applying to a transition towards `target` (rise when
    /// `target` is `true`).
    pub fn towards(&self, target: bool) -> Time {
        if target {
            self.rise
        } else {
            self.fall
        }
    }
}

/// Functional kind of a gate.
///
/// Every gate drives exactly one output net. State-holding kinds
/// (generalized C, mutex half) consult the output's previous value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateKind {
    /// Pure combinational gate: `out = expr(pins)` where expression
    /// variable `i` refers to pin `i`.
    Complex(Expr),
    /// Generalized (asymmetric) C-element: `out' = set(pins) | (out &
    /// !reset(pins))`. The plain Muller C-element is the special case
    /// `set = AND(pins)`, `reset = AND(!pins)`.
    GeneralizedC {
        /// Set function over the pins.
        set: Expr,
        /// Reset function over the pins.
        reset: Expr,
    },
    /// One half of a mutual-exclusion element: pin 0 is this side's
    /// request, pin 1 the *other* side's grant. The half asserts its
    /// grant when requested and the other grant is low:
    /// `out' = req & !other_grant`. Two cross-coupled halves form the
    /// classic NAND-latch MUTEX with metastability filter.
    MutexHalf,
}

impl GateKind {
    /// Number of pins the kind requires, if fixed.
    pub fn pin_count(&self) -> Option<usize> {
        match self {
            GateKind::MutexHalf => Some(2),
            _ => None,
        }
    }

    /// Evaluates the gate's next output value.
    ///
    /// `pins` holds the current pin values (index = expression variable)
    /// and `current` the present output value (ignored by combinational
    /// gates).
    pub fn eval(&self, pins: &[bool], current: bool) -> bool {
        let assignment = pins
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &v)| acc | (u64::from(v)) << i);
        match self {
            GateKind::Complex(expr) => expr.eval(assignment),
            GateKind::GeneralizedC { set, reset } => {
                set.eval(assignment) || (current && !reset.eval(assignment))
            }
            GateKind::MutexHalf => pins[0] && !pins[1],
        }
    }

    /// A short name for reports and Verilog comments.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            GateKind::Complex(_) => "cplx",
            GateKind::GeneralizedC { .. } => "gc",
            GateKind::MutexHalf => "mutex_half",
        }
    }
}

/// A timing library in the style of a 90 nm standard-cell kit.
///
/// Delays are derived from gate complexity: a base intrinsic delay plus a
/// per-literal term, with state-holding elements slightly slower. The
/// default values are calibrated so the asynchronous buck controller's
/// input→gate-drive paths land in the sub-nanosecond to ~2 ns range the
/// paper reports for TSMC 90 nm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateLib {
    /// Intrinsic delay of the simplest gate.
    pub base: Time,
    /// Additional delay per literal of the gate function.
    pub per_literal: Time,
    /// Extra intrinsic delay of state-holding gates (C-elements).
    pub latch_penalty: Time,
    /// Extra delay of the mutex (arbitration) element.
    pub mutex_penalty: Time,
}

impl GateLib {
    /// The default 90 nm-class library.
    pub fn tsmc90() -> GateLib {
        GateLib {
            base: Time::from_ps(35.0),
            per_literal: Time::from_ps(12.0),
            latch_penalty: Time::from_ps(25.0),
            mutex_penalty: Time::from_ps(45.0),
        }
    }

    /// The delay assigned to a gate of the given kind.
    pub fn delay_for(&self, kind: &GateKind) -> Delay {
        let literals = match kind {
            GateKind::Complex(e) => e.literal_count(),
            GateKind::GeneralizedC { set, reset } => set.literal_count() + reset.literal_count(),
            GateKind::MutexHalf => 2,
        };
        let mut d = self.base + self.per_literal * u64::from(literals.max(1));
        match kind {
            GateKind::GeneralizedC { .. } => d += self.latch_penalty,
            GateKind::MutexHalf => d += self.mutex_penalty,
            GateKind::Complex(_) => {}
        }
        // Falling edges are marginally faster in CMOS (NMOS strength).
        Delay {
            rise: d,
            fall: d - d / 8,
        }
    }
}

impl Default for GateLib {
    fn default() -> Self {
        GateLib::tsmc90()
    }
}

/// Builds the set/reset pair of a plain Muller C-element over `n` pins.
pub(crate) fn muller_c_functions(n: usize) -> (Expr, Expr) {
    let set = Expr::and((0..n).map(Expr::var).collect());
    let reset = Expr::and((0..n).map(|i| Expr::not(Expr::var(i))).collect());
    (set, reset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_gate_eval() {
        let kind = GateKind::Complex(Expr::and(vec![Expr::var(0), Expr::not(Expr::var(1))]));
        assert!(kind.eval(&[true, false], false));
        assert!(!kind.eval(&[true, true], true));
    }

    #[test]
    fn muller_c_semantics() {
        let (set, reset) = muller_c_functions(2);
        let c = GateKind::GeneralizedC { set, reset };
        assert!(c.eval(&[true, true], false), "all 1 sets");
        assert!(!c.eval(&[false, false], true), "all 0 resets");
        assert!(c.eval(&[true, false], true), "holds 1");
        assert!(!c.eval(&[true, false], false), "holds 0");
    }

    #[test]
    fn generalized_c_asymmetric() {
        // set = a, reset = b
        let c = GateKind::GeneralizedC {
            set: Expr::var(0),
            reset: Expr::var(1),
        };
        assert!(c.eval(&[true, false], false));
        assert!(!c.eval(&[false, true], true));
        // set wins over reset in this latch form
        assert!(c.eval(&[true, true], false));
    }

    #[test]
    fn mutex_half_semantics() {
        let m = GateKind::MutexHalf;
        assert!(m.eval(&[true, false], false), "req with other grant low");
        assert!(!m.eval(&[true, true], true), "other grant blocks");
        assert!(!m.eval(&[false, false], true), "release on req low");
        assert_eq!(m.pin_count(), Some(2));
    }

    #[test]
    fn library_delays_scale_with_literals() {
        let lib = GateLib::tsmc90();
        let inv = GateKind::Complex(Expr::not(Expr::var(0)));
        let and4 = GateKind::Complex(Expr::and((0..4).map(Expr::var).collect()));
        let d_inv = lib.delay_for(&inv);
        let d_and4 = lib.delay_for(&and4);
        assert!(d_and4.rise > d_inv.rise);
        assert!(d_inv.fall < d_inv.rise, "falls are faster");
    }

    #[test]
    fn latch_and_mutex_penalties() {
        let lib = GateLib::tsmc90();
        let (set, reset) = muller_c_functions(2);
        let c = lib.delay_for(&GateKind::GeneralizedC { set, reset });
        let m = lib.delay_for(&GateKind::MutexHalf);
        let inv = lib.delay_for(&GateKind::Complex(Expr::not(Expr::var(0))));
        assert!(c.rise > inv.rise);
        assert!(m.rise > inv.rise);
    }

    #[test]
    fn delay_towards() {
        let d = Delay {
            rise: Time::from_ps(100.0),
            fall: Time::from_ps(80.0),
        };
        assert_eq!(d.towards(true), Time::from_ps(100.0));
        assert_eq!(d.towards(false), Time::from_ps(80.0));
        let s = Delay::symmetric(Time::from_ps(50.0));
        assert_eq!(s.rise, s.fall);
    }
}
