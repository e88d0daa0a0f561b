use std::fmt;

use a4a_sim::SimError;

use crate::{CoilModel, Waveform};

/// Conduction state of one phase's power stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchState {
    /// High-side PMOS conducting: the coil charges from `V_in`.
    PmosOn,
    /// Low-side NMOS conducting: the coil free-wheels to ground.
    NmosOn,
    /// Both transistors off: body diodes conduct until the coil current
    /// reaches zero (discontinuous conduction).
    #[default]
    Off,
}

/// Electrical parameters of the multiphase buck power stage.
///
/// Defaults put the converter in the paper's operating regime: a 5 V
/// input, 3.3 V target, four phases with 4.7 µH coils, and a load around
/// half an ampere.
#[derive(Debug, Clone, PartialEq)]
pub struct BuckParams {
    /// Input supply voltage (V).
    pub vin: f64,
    /// Number of phases.
    pub phases: usize,
    /// Per-phase coil model.
    pub coil: CoilModel,
    /// Output capacitance (F).
    pub cap: f64,
    /// Load resistance (Ω); can be stepped at run time with
    /// [`Buck::try_set_load`].
    pub rload: f64,
    /// PMOS on-resistance (Ω).
    pub rdson_p: f64,
    /// NMOS on-resistance (Ω).
    pub rdson_n: f64,
    /// Body-diode forward drop (V).
    pub vdiode: f64,
}

impl Default for BuckParams {
    fn default() -> Self {
        BuckParams {
            vin: 5.0,
            phases: 4,
            coil: CoilModel::coilcraft(4.7),
            cap: 330e-9,
            rload: 6.0,
            rdson_p: 0.15,
            rdson_n: 0.12,
            vdiode: 0.6,
        }
    }
}

impl BuckParams {
    /// Replaces the coil model (used by the Figure 7 inductance sweeps).
    pub fn with_coil(mut self, coil: CoilModel) -> Self {
        self.coil = coil;
        self
    }

    /// Replaces the nominal load resistance.
    pub fn with_load(mut self, rload: f64) -> Self {
        self.rload = rload;
        self
    }

    /// Replaces the phase count.
    pub fn with_phases(mut self, phases: usize) -> Self {
        self.phases = phases;
        self
    }

    /// The largest `‖A‖` over the switch configurations, in 1/s: the
    /// fastest rate at which the state can move, in the norm the plans
    /// use (see [`Buck::try_plan`]). It is reached with every phase
    /// conducting through one kind of transistor. A few 10⁶ s⁻¹ at
    /// the defaults.
    pub fn stiffest_rate(&self) -> f64 {
        let mut plan = Plan::new(self);
        let currents = vec![0.0; self.phases];
        [SwitchState::PmosOn, SwitchState::NmosOn]
            .into_iter()
            .map(|switch| {
                plan.load(&vec![switch; self.phases], &currents, 0.0);
                plan.norm
            })
            .fold(0.0, f64::max)
    }

    /// Rejects a power stage whose [`BuckParams::stiffest_rate`] is NaN
    /// or above 10¹² s⁻¹ as [`SimError::InvalidParameter`]. A plan costs
    /// one series per `1/‖A‖`, so this bound keeps every plan at least
    /// 1 ps long and a 2 ns window within 2 000 plans; the paper's cells
    /// stay below 5·10⁶ s⁻¹. [`Buck::try_new`] and [`Buck::try_set_load`]
    /// apply it.
    pub fn check_rate(&self) -> Result<(), SimError> {
        let rate = self.stiffest_rate();
        if rate.is_nan() || rate > MAX_RATE {
            return Err(SimError::InvalidParameter {
                what: "power-stage rate |A| (1/s)",
                value: rate,
            });
        }
        Ok(())
    }
}

/// A plan spans at most `THETA/‖A‖`, where one Taylor series still
/// reaches: a window that needs more takes more plans.
const THETA: f64 = 1.0;
/// A plan reaches past the window it was asked for, toward the caller's
/// horizon, as far as `‖A‖·span` stays within this bound: the next
/// windows then reuse its series.
const REUSE_Z: f64 = 0.25;
/// The largest `‖A‖` (1/s) a power stage may have (see
/// [`BuckParams::check_rate`]).
const MAX_RATE: f64 = 1e12;
/// Highest series order. `1/19! < 2^-53`, so a span within [`THETA`]
/// needs at most 18 terms.
const MAX_ORDER: usize = 20;
/// Iteration cap of the root finder that locates in-window events.
const ROOT_ITERS: usize = 100;
/// Grid points [`Buck::sample_plan`] evaluates per Horner pass.
const LANES: usize = 4;
/// State components [`Buck::sample_plan`] evaluates side by side.
const GROUP: usize = 8;

/// `1/k` for the series recursion and the polynomial integrals.
const INV: [f64; MAX_ORDER + 2] = {
    let mut t = [0.0; MAX_ORDER + 2];
    let mut k = 1;
    while k < t.len() {
        t[k] = 1.0 / k as f64;
        k += 1;
    }
    t
};

/// The series order a span with `‖A‖·h = z` needs. After `m` terms the
/// rest is at most about `z^m/(m+1)!` times the first-order term; it
/// must stay below f64 rounding of the state, and `ratio` is the
/// state's size over the first-order term's.
fn order(z: f64, ratio: f64) -> usize {
    let target = f64::EPSILON / 4.0 * ratio.max(1.0);
    let mut bound = 1.0;
    for m in 1..MAX_ORDER {
        bound *= z * INV[m + 1];
        if bound <= target {
            return m;
        }
    }
    MAX_ORDER
}

/// Piecewise-linear model of the analog buck, propagated exactly.
///
/// The state is `x = (i_0, …, i_{N-1}, v)`: the coil currents by
/// phase, then the output capacitor voltage. While the switch states and
/// diode modes stay fixed the buck is linear, `x' = A·x + b`, and its
/// trajectory is a Taylor series in `A·h` whose order is set by a bound
/// on `‖A‖·h`, so every state on it is exact to f64 rounding. One series
/// spans at most `1/‖A‖`; a longer stretch takes one plan after another.
/// A body diode that stops conducting ends the trajectory at the exact
/// current zero (discontinuous conduction).
///
/// [`Buck::try_step`] advances by a fixed time. The mixed-signal testbench
/// instead plans the trajectory ([`Buck::try_plan`]), looks for
/// comparator crossings on it
/// ([`SensorBank::first_crossing`](crate::SensorBank::first_crossing)),
/// and advances to the next event ([`Buck::try_advance_to`]); one plan
/// serves every window until the switches or the load change, or it
/// runs out.
///
/// A stage with `‖A‖` above 10¹² s⁻¹ is rejected
/// ([`BuckParams::check_rate`]): the work per simulated second grows
/// with `‖A‖`.
#[derive(Debug, Clone)]
pub struct Buck {
    params: BuckParams,
    switches: Vec<SwitchState>,
    current: Vec<f64>,
    voltage: f64,
    time: f64,
    /// Cumulative energy drawn from the input supply (J).
    energy_in: f64,
    /// Cumulative energy delivered to the load (J).
    energy_out: f64,
    /// The planned trajectory; its buffers are reused, so steady state
    /// never allocates.
    plan: Plan,
}

/// One phase's row of `x' = A·x + b`: `i' = diag·i + couple·v + drive`.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    diag: f64,
    couple: f64,
    drive: f64,
    /// Whether the current is drawn from the input supply.
    supply: bool,
}

/// One planned trajectory: the linear system `x' = A·x + b` of the
/// switch and diode states at its origin, and its series.
///
/// `A` is an arrowhead matrix: each current row holds its diagonal and
/// its coupling to `v`; the `v` row sums the currents. A phase whose
/// diode has stopped conducting has an all-zero row and stays at zero.
#[derive(Debug, Clone, Default)]
struct Plan {
    /// Counts the plans built, so callers can tell a new trajectory.
    id: u64,
    /// Start time (s).
    origin: f64,
    /// Length the series was built for (s), and its inverse.
    span: f64,
    inv_span: f64,
    /// End of validity (s): `origin + span`, or the first diode zero.
    /// Below the buck's time, there is no plan.
    reach: f64,
    /// Phases whose diode current reaches zero at `reach`.
    zeros: Vec<usize>,
    /// Whether the plan ends short of the window it was built for, at
    /// one series' reach or at a diode zero: it is then reused to its
    /// end.
    short: bool,
    /// The rows of a phase whose PMOS, NMOS, NMOS body diode or PMOS
    /// body diode conducts; fixed by the parameters.
    modes: [Row; 4],
    /// This plan's rows, by phase.
    diag: Vec<f64>,
    couple: Vec<f64>,
    drive: Vec<f64>,
    supply: Vec<bool>,
    /// `1/C` and `1/(R·C)`, fixed by the parameters.
    inv_c: f64,
    inv_rc: f64,
    /// `sqrt(L/C)`, fixed by the parameters.
    z0: f64,
    /// `z0·sqrt(active phases)`. Currents weighted by it are volts, which
    /// balances the norms below: `‖x‖ = max(weight·|i_k|, |v|)`.
    weight: f64,
    /// `‖A‖` of this plan in that norm.
    norm: f64,
    /// Series order of `terms`.
    order: usize,
    /// Taylor terms scaled to the span, term-major: term `k` of component
    /// `j` is `terms[k·(N+1) + j]`, and `x_j(origin + s·span) = Σ_k
    /// term_k·s^k`. Term 0 is the state at the origin.
    terms: Vec<f64>,
    /// Coefficients in `s` of the integrals from the origin of the
    /// supply current and of `v²`, over the span.
    supply_int: Vec<f64>,
    v2_int: Vec<f64>,
    /// The state and its slope at `reach`.
    end: Vec<f64>,
    end_slope: Vec<f64>,
    /// Scratch for the state an advance reaches.
    state: Vec<f64>,
}

/// A crossing search on a plan, cut off before its root finding:
/// component `j`, the level and direction, and the bracket's ends as
/// `(τ, x, x')` after the plan's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bracket {
    j: usize,
    level: f64,
    rising: bool,
    lo: (f64, f64, f64),
    hi: (f64, f64, f64),
}

/// Where a crossing search stands before root finding.
enum Piece {
    /// Settled: the crossing's time after the origin, or none.
    Done(Option<f64>),
    /// Only root finding on the bracket is left.
    Root(Bracket),
}

/// A comparator's crossing search on the planned trajectory (see
/// [`Buck::search`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Search {
    /// The crossing's time; `INFINITY` when there is none on the plan.
    At(f64),
    /// The crossing is not before `bound`; [`Buck::resolve`] finds it
    /// on `bracket`, exactly as an eager search would. `floor` is the
    /// buck's time at the search: a crossing is never before it.
    Later {
        bound: f64,
        floor: f64,
        bracket: Bracket,
    },
}

impl Plan {
    /// The parameter-fixed parts of a plan.
    fn new(p: &BuckParams) -> Plan {
        let inv_l = 1.0 / p.coil.inductance;
        // Series resistance, switch-node voltage, and whether the current
        // flows through the input supply.
        let row = |r: f64, node: f64, supply: bool| Row {
            diag: -r * inv_l,
            couple: -inv_l,
            drive: node * inv_l,
            supply,
        };
        let inv_c = 1.0 / p.cap;
        Plan {
            reach: f64::NEG_INFINITY,
            modes: [
                row(p.rdson_p + p.coil.dcr, p.vin, true),
                row(p.rdson_n + p.coil.dcr, 0.0, false),
                // The NMOS body diode conducts from ground.
                row(p.coil.dcr, -p.vdiode, false),
                // The PMOS body diode returns current to the supply.
                row(p.coil.dcr, p.vin + p.vdiode, true),
            ],
            inv_c,
            inv_rc: inv_c / p.rload,
            z0: (p.coil.inductance * inv_c).sqrt(),
            ..Plan::default()
        }
    }

    fn phases(&self) -> usize {
        self.diag.len()
    }

    /// Sets up `A`, `b` and the start state from the switch states and
    /// the state.
    fn load(&mut self, switches: &[SwitchState], currents: &[f64], voltage: f64) {
        let phases = currents.len();
        let n = phases + 1;
        self.diag.resize(phases, 0.0);
        self.couple.resize(phases, 0.0);
        self.drive.resize(phases, 0.0);
        self.supply.resize(phases, false);
        let mut active = 0.0;
        for (k, (&switch, &i)) in switches.iter().zip(currents).enumerate() {
            let r = match switch {
                SwitchState::PmosOn => self.modes[0],
                SwitchState::NmosOn => self.modes[1],
                SwitchState::Off if i > 0.0 => self.modes[2],
                SwitchState::Off if i < 0.0 => self.modes[3],
                // Discontinuous conduction: no diode conducts.
                SwitchState::Off => Row::default(),
            };
            if r.couple != 0.0 {
                active += 1.0;
            }
            self.diag[k] = r.diag;
            self.couple[k] = r.couple;
            self.drive[k] = r.drive;
            self.supply[k] = r.supply;
        }
        // With the currents weighted by `z0·sqrt(active)`, the coupling
        // of `v` to the currents and back have equal weight.
        self.weight = self.z0 * f64::sqrt(f64::max(active, 1.0));
        let rows = (0..phases)
            .map(|k| self.diag[k].abs() + self.couple[k].abs() * self.weight)
            .fold(0.0, f64::max);
        self.norm = rows.max(active * self.inv_c / self.weight + self.inv_rc);
        self.terms.resize(n * (MAX_ORDER + 1), 0.0);
        self.terms[..phases].copy_from_slice(currents);
        self.terms[phases] = voltage;
    }

    /// Component `j` of `x' = A·x + b` at the state `(currents, v)`.
    fn slope(&self, j: usize, currents: &[f64], v: f64) -> f64 {
        match currents.get(j) {
            Some(&i) => self.diag[j] * i + self.couple[j] * v + self.drive[j],
            None => currents.iter().sum::<f64>() * self.inv_c - v * self.inv_rc,
        }
    }

    /// `out = A·y + c·b`.
    fn apply(&self, y: &[f64], c: f64, out: &mut [f64]) {
        let phases = self.phases();
        let v = y[phases];
        let mut total = 0.0;
        for k in 0..phases {
            out[k] = self.diag[k] * y[k] + self.couple[k] * v + c * self.drive[k];
            total += y[k];
        }
        out[phases] = total * self.inv_c - v * self.inv_rc;
    }

    /// `max(weight·|i_k|, |v|)`.
    fn size(&self, y: &[f64]) -> f64 {
        let phases = self.phases();
        let i = y[..phases].iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        (self.weight * i).max(y[phases].abs())
    }

    /// Builds the series over the span from term 0 of [`Plan::terms`]:
    /// term `k` is `span/k` times `A` applied to term `k - 1`, plus
    /// `span·b` for `k = 1`. Then the integral polynomials, and `end` and
    /// `end_slope` at the span's end.
    fn build(&mut self) {
        let n = self.phases() + 1;
        let h = self.span;
        let mut terms = std::mem::take(&mut self.terms);
        self.term(&mut terms, 1, h, 1.0);
        self.order = order(
            self.norm * h,
            self.size(&terms[..n]) / self.size(&terms[n..2 * n]),
        );
        for (k, inv) in INV.iter().enumerate().take(self.order + 1).skip(2) {
            self.term(&mut terms, k, h * inv, 0.0);
        }
        self.terms = terms;
        self.integrals();
        self.end_at(1.0);
    }

    /// Term `k` from term `k - 1`: `f·(A·term + c·b)`.
    fn term(&self, terms: &mut [f64], k: usize, f: f64, c: f64) {
        let n = self.phases() + 1;
        let (done, rest) = terms.split_at_mut(k * n);
        let next = &mut rest[..n];
        self.apply(&done[(k - 1) * n..], c, next);
        for y in next {
            *y *= f;
        }
    }

    /// The polynomials in `s` of the integrals from the origin of the
    /// supply current and of `v²`.
    fn integrals(&mut self) {
        let n = self.phases() + 1;
        let w = self.order + 1;
        let mut supply = std::mem::take(&mut self.supply_int);
        let mut v2 = std::mem::take(&mut self.v2_int);
        supply.clear();
        supply.resize(w + 1, 0.0);
        v2.clear();
        v2.resize(w + 1, 0.0);
        let mut v = [0.0; MAX_ORDER + 1];
        for (k, term) in self.terms[..w * n].chunks_exact(n).enumerate() {
            let drawn: f64 = term
                .iter()
                .zip(&self.supply)
                .filter(|(_, &s)| s)
                .map(|(t, _)| t)
                .sum();
            supply[k + 1] = drawn * INV[k + 1];
            v[k] = term[n - 1];
        }
        // The square of `v`'s series, kept to the series' order: its
        // higher terms lie below the series' own truncation error.
        for d in 0..w {
            let r: f64 = (0..=d).map(|a| v[a] * v[d - a]).sum();
            v2[d + 1] = r * INV[d + 1];
        }
        self.supply_int = supply;
        self.v2_int = v2;
    }

    /// The state at `s` spans into `out`: Horner's rule over the terms,
    /// all components at once.
    fn state_at(&self, s: f64, out: &mut Vec<f64>) {
        let n = self.phases() + 1;
        let m = self.order;
        out.clear();
        out.extend_from_slice(&self.terms[m * n..(m + 1) * n]);
        for term in self.terms[..m * n].chunks_exact(n).rev() {
            for (x, t) in out.iter_mut().zip(term) {
                *x = *x * s + t;
            }
        }
    }

    /// Sets `end` and `end_slope` to the state and slope at `s` spans.
    fn end_at(&mut self, s: f64) {
        let n = self.phases() + 1;
        let mut end = std::mem::take(&mut self.end);
        end.clear();
        if s == 1.0 {
            end.extend_from_slice(&self.terms[..n]);
            for term in self.terms[n..(self.order + 1) * n].chunks_exact(n) {
                for (e, t) in end.iter_mut().zip(term) {
                    *e += t;
                }
            }
        } else {
            self.state_at(s, &mut end);
        }
        let mut slope = std::mem::take(&mut self.end_slope);
        slope.resize(n, 0.0);
        self.apply(&end, 1.0, &mut slope);
        self.end = end;
        self.end_slope = slope;
    }

    /// Component `j` of `x`, `x'` and `x''` at `τ` after the origin.
    fn eval(&self, j: usize, tau: f64) -> [f64; 3] {
        let s = tau * self.inv_span;
        let n = self.phases() + 1;
        let (mut x, mut d, mut dd) = (0.0, 0.0, 0.0);
        for k in (0..=self.order).rev() {
            let t = self.terms[k * n + j];
            dd = dd * s + d;
            d = d * s + x;
            x = x * s + t;
        }
        [
            x,
            d * self.inv_span,
            2.0 * dd * self.inv_span * self.inv_span,
        ]
    }

    /// First `τ` from the origin to the plan's end at which component
    /// `j` is at or beyond `level` (above it when `rising`, else below),
    /// given the state `(currents, v)` at the origin.
    ///
    /// A plan spans `‖A‖·h ≤ THETA`, over which a component turns by at
    /// most about a radian, so it has at most one extremum. A crossing
    /// that returns before the plan's end is caught too: the component's
    /// slope is itself affine in the state, so a slope that changes sign
    /// marks an extremum, which is checked against the level.
    fn crossing(&self, j: usize, level: f64, rising: bool, state: (&[f64], f64)) -> Option<f64> {
        match self.bracket(j, level, rising, 0.0, state) {
            Piece::Done(at) => at,
            Piece::Root(bracket) => self.root_in(&bracket),
        }
    }

    /// The part of [`Plan::crossing`] that needs no root finding, from
    /// `lo` after the origin, given the state there.
    fn bracket(
        &self,
        j: usize,
        level: f64,
        rising: bool,
        lo: f64,
        (currents, v): (&[f64], f64),
    ) -> Piece {
        let x_lo = currents.get(j).copied().unwrap_or(v);
        let d_lo = self.slope(j, currents, v);
        let (hi, x_hi, d_hi) = (self.reach - self.origin, self.end[j], self.end_slope[j]);
        let s = if rising { 1.0 } else { -1.0 };
        if s * (x_lo - level) >= 0.0 {
            return Piece::Done(Some(lo));
        }
        if hi.is_nan() || hi <= lo {
            return Piece::Done(None);
        }
        // Short of the level at both ends: only an extremum between can
        // reach it.
        if s * (x_hi - level) < 0.0 && !(s * d_hi < 0.0 && s * d_lo > 0.0) {
            return Piece::Done(None);
        }
        Piece::Root(Bracket {
            j,
            level,
            rising,
            lo: (lo, x_lo, d_lo),
            hi: (hi, x_hi, d_hi),
        })
    }

    /// The rest of [`Plan::crossing`]: the root finding on a bracket.
    fn root_in(&self, b: &Bracket) -> Option<f64> {
        let s = if b.rising { 1.0 } else { -1.0 };
        let ((lo, x_lo, d_lo), (hi, x_hi, d_hi)) = (b.lo, b.hi);
        let (j, level) = (b.j, b.level);
        let g_lo = s * (x_lo - level);
        let mut g_hi = s * (x_hi - level);
        let mut top = hi;
        if g_hi < 0.0 {
            top = root(lo, -s * d_lo, hi, -s * d_hi, |tau| {
                let [_, d, dd] = self.eval(j, tau);
                (-s * d, -s * dd)
            });
            g_hi = s * (self.eval(j, top)[0] - level);
            if g_hi < 0.0 {
                return None;
            }
        }
        Some(root(lo, g_lo, top, g_hi, |tau| {
            let [x, d, _] = self.eval(j, tau);
            (s * (x - level), s * d)
        }))
    }

    /// A time after the origin before which [`Plan::root_in`] cannot
    /// return on the bracket `b`. From the bracket's start the component
    /// follows its value and slope there plus at most `curv·h²/2`, where
    /// the series bounds the curvature over the whole span by
    /// `curv = Σ k·(k−1)·|term_k| / span²`; the bound is where that
    /// reaches the level. The gap to the level is first cut
    /// by the rounding of the series and of the root finder's steps, and
    /// the result by twice the root finder's tolerance.
    fn earliest(&self, b: &Bracket) -> f64 {
        let n = self.phases() + 1;
        let lo = b.lo.0;
        let s = lo * self.inv_span;
        let (mut x, mut d, mut size, mut curv) = (0.0, 0.0, b.level.abs(), 0.0);
        for (k, term) in self.terms[..(self.order + 1) * n]
            .chunks_exact(n)
            .enumerate()
            .rev()
        {
            let t = term[b.j];
            d = d * s + x;
            x = x * s + t;
            size += t.abs();
            curv += (k * k.saturating_sub(1)) as f64 * t.abs();
        }
        let sign = if b.rising { 1.0 } else { -1.0 };
        let slope = sign * d * self.inv_span;
        let curv = curv * self.inv_span * self.inv_span;
        let span = b.hi.0;
        let tol = 4.0 * f64::EPSILON * span.abs();
        let gap =
            sign * (b.level - x) - 2048.0 * f64::EPSILON * size - tol * (slope.abs() + curv * span);
        if gap.is_nan() || gap <= 0.0 {
            return lo;
        }
        let root = (slope * slope + 2.0 * curv * gap).sqrt();
        let h = if slope > 0.0 {
            2.0 * gap / (slope + root)
        } else if curv > 0.0 {
            (root - slope) / curv
        } else {
            f64::INFINITY
        };
        (lo + h * (1.0 - 64.0 * f64::EPSILON) - 2.0 * tol).max(lo)
    }
}

/// `p(s)`, for polynomial coefficients `p` (lowest power first).
fn horner(p: &[f64], s: f64) -> f64 {
    p.iter().rev().fold(0.0, |acc, &c| acc * s + c)
}

/// The root of `f` in `[lo, hi]`, given `f(lo) = flo < 0 ≤ f(hi) = fhi`;
/// `f` returns its value and derivative. Newton's method from the
/// secant point, while its steps stay inside the bracket and at least
/// halve; bisection otherwise. It stops once a step or the bracket is
/// within rounding of the root's time.
fn root(mut lo: f64, flo: f64, mut hi: f64, fhi: f64, f: impl Fn(f64) -> (f64, f64)) -> f64 {
    let tol = 4.0 * f64::EPSILON * hi.abs().max(lo.abs());
    let mut x = lo - flo * (hi - lo) / (fhi - flo);
    if !(x > lo && x < hi) {
        x = 0.5 * (lo + hi);
    }
    let mut last_step = f64::INFINITY;
    for _ in 0..ROOT_ITERS {
        let (fx, dfx) = f(x);
        if fx == 0.0 {
            return x;
        }
        if fx > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        let newton = x - fx / dfx;
        let next = if newton > lo && newton < hi && (newton - x).abs() < 0.5 * last_step {
            newton
        } else {
            0.5 * (lo + hi)
        };
        let step = (next - x).abs();
        if step <= tol || hi - lo <= tol {
            return next;
        }
        last_step = step;
        x = next;
    }
    hi
}

impl Buck {
    /// Creates a buck at rest: zero coil currents, zero output voltage,
    /// all switches off.
    ///
    /// # Errors
    ///
    /// A non-physical parameter set — zero phases, or any NaN,
    /// infinite, or wrong-sign component value — is reported as
    /// [`SimError::InvalidParameter`] naming the offending field. Note
    /// that NaN fails every comparison, so an `assert!(x > 0.0)`-style
    /// check catches it too; the explicit finiteness checks here
    /// additionally reject infinities and cover the fields
    /// (on-resistances, diode drop, coil resistances) that may be zero.
    /// A stage too stiff to propagate ([`BuckParams::check_rate`]) is
    /// [`SimError::InvalidParameter`] too.
    pub fn try_new(params: BuckParams) -> Result<Self, SimError> {
        if params.phases == 0 {
            return Err(SimError::InvalidParameter {
                what: "phase count",
                value: 0.0,
            });
        }
        let positive = [
            ("vin (V)", params.vin),
            ("cap (F)", params.cap),
            ("rload (Ohm)", params.rload),
            ("coil inductance (H)", params.coil.inductance),
        ];
        for (what, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidParameter { what, value });
            }
        }
        let non_negative = [
            ("rdson_p (Ohm)", params.rdson_p),
            ("rdson_n (Ohm)", params.rdson_n),
            ("vdiode (V)", params.vdiode),
            ("coil dcr (Ohm)", params.coil.dcr),
            ("coil esr_hf (Ohm)", params.coil.esr_hf),
        ];
        for (what, value) in non_negative {
            if !(value.is_finite() && value >= 0.0) {
                return Err(SimError::InvalidParameter { what, value });
            }
        }
        params.check_rate()?;
        Ok(Buck {
            switches: vec![SwitchState::Off; params.phases],
            current: vec![0.0; params.phases],
            voltage: 0.0,
            plan: Plan::new(&params),
            params,
            time: 0.0,
            energy_in: 0.0,
            energy_out: 0.0,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &BuckParams {
        &self.params
    }

    /// Simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Output (load) voltage in volts.
    pub fn output_voltage(&self) -> f64 {
        self.voltage
    }

    /// Coil current of `phase` in amperes.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn coil_current(&self, phase: usize) -> f64 {
        self.current[phase]
    }

    /// All coil currents, indexed by phase.
    pub fn currents(&self) -> &[f64] {
        &self.current
    }

    /// Sum of all coil currents.
    pub fn total_coil_current(&self) -> f64 {
        self.current.iter().sum()
    }

    /// Cumulative energy drawn from the input supply since t = 0 (J).
    /// Includes body-diode return current (counted negative).
    pub fn energy_in(&self) -> f64 {
        self.energy_in + self.params.vin * self.unsettled().0
    }

    /// Cumulative energy delivered to the load since t = 0 (J).
    pub fn energy_out(&self) -> f64 {
        self.energy_out + self.unsettled().1 / self.params.rload
    }

    /// Power-conversion efficiency so far: `E_out / E_in`, `NaN` until
    /// energy has flowed. Note the output capacitor still stores some
    /// input energy, so measure over windows long enough to amortise it.
    pub fn efficiency(&self) -> f64 {
        self.energy_out() / self.energy_in()
    }

    /// The integrals of the supply current and of `v²` along the present
    /// plan from its origin to now.
    fn unsettled(&self) -> (f64, f64) {
        let plan = &self.plan;
        if !(self.time > plan.origin && self.time <= plan.reach) {
            return (0.0, 0.0);
        }
        let s = (self.time - plan.origin) * plan.inv_span;
        let int = |c: &[f64]| horner(c, s) * plan.span;
        (int(&plan.supply_int), int(&plan.v2_int))
    }

    /// Books the energy moved along the present plan so far and drops
    /// the plan.
    fn settle(&mut self) {
        let (supply, v2) = self.unsettled();
        self.energy_in += self.params.vin * supply;
        self.energy_out += v2 / self.params.rload;
        self.plan.reach = f64::NEG_INFINITY;
    }

    /// The switch state of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn switch(&self, phase: usize) -> SwitchState {
        self.switches[phase]
    }

    /// Drives the power transistors of `phase`.
    ///
    /// # Errors
    ///
    /// A simultaneous-on command — the short-circuit condition the
    /// controllers are formally verified to exclude — is reported as
    /// [`SimError::ShortCircuit`] and an out-of-range phase as
    /// [`SimError::PhaseOutOfRange`]; the switch state is unchanged on
    /// error.
    pub fn try_set_switch(
        &mut self,
        phase: usize,
        pmos_on: bool,
        nmos_on: bool,
    ) -> Result<(), SimError> {
        if phase >= self.params.phases {
            return Err(SimError::PhaseOutOfRange {
                phase,
                phases: self.params.phases,
            });
        }
        self.switches[phase] = match (pmos_on, nmos_on) {
            (true, false) => SwitchState::PmosOn,
            (false, true) => SwitchState::NmosOn,
            (false, false) => SwitchState::Off,
            (true, true) => {
                return Err(SimError::ShortCircuit {
                    phase,
                    at_secs: self.time,
                })
            }
        };
        self.settle();
        Ok(())
    }

    /// Steps the load resistance (the high-load events of Figure 6).
    ///
    /// # Errors
    ///
    /// NaN, infinite, and non-positive resistances, and a load that
    /// makes the stage too stiff ([`BuckParams::check_rate`]), are
    /// reported as [`SimError::InvalidParameter`]; the load is unchanged
    /// on error.
    pub fn try_set_load(&mut self, rload: f64) -> Result<(), SimError> {
        if !(rload.is_finite() && rload > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "rload (Ohm)",
                value: rload,
            });
        }
        // `‖A‖` grows only as the load falls.
        if rload < self.params.rload {
            self.params.clone().with_load(rload).check_rate()?;
        }
        self.settle();
        self.params.rload = rload;
        self.plan.inv_rc = self.plan.inv_c / rload;
        Ok(())
    }

    /// Advances the model by `dt` seconds.
    ///
    /// # Errors
    ///
    /// A NaN, infinite, or non-positive `dt` is reported as
    /// [`SimError::InvalidParameter`] without touching the state; a
    /// state that is not finite in f64 is reported as
    /// [`SimError::NonFinite`], after which the model must be discarded.
    /// The work grows with `‖A‖·dt`: one plan per `1/‖A‖` at most.
    pub fn try_step(&mut self, dt: f64) -> Result<(), SimError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "step dt (s)",
                value: dt,
            });
        }
        // A plan ends after `THETA/‖A‖`, or where a diode current reaches
        // zero, and that phase then stays at zero for the rest of the
        // step: at most `‖A‖·dt/THETA + phases + 2` plans (the first may
        // be left over).
        let end = self.time + dt;
        while self.time < end {
            let reach = self.try_plan(end, end)?;
            self.try_advance_to(reach.min(end))?;
        }
        Ok(())
    }

    /// Makes sure the trajectory is planned from the present time on,
    /// and returns the time up to which the plan holds. A plan holds
    /// until the switches or the load change, a diode current reaches
    /// zero, or its span ends. A new plan spans to `window_end` and on
    /// toward `horizon` as far as one series reaches cheaply, but never
    /// past `THETA/‖A‖` after the present time, where one series still
    /// reaches: a window that needs more takes more plans. A plan that
    /// ends short of its window, there or at a diode zero, serves every
    /// later window up to its end.
    ///
    /// A `window_end` that is not after the present time (or NaN) is
    /// [`SimError::InvalidParameter`]; a present time so large that
    /// `THETA/‖A‖` added to it rounds back to it is
    /// [`SimError::InvalidTime`].
    pub fn try_plan(&mut self, window_end: f64, horizon: f64) -> Result<f64, SimError> {
        if window_end.is_nan() || window_end <= self.time {
            return Err(SimError::InvalidParameter {
                what: "window end (s)",
                value: window_end,
            });
        }
        // Reuse the plan for a window it covers, or up to its end when it
        // ended short; otherwise replan from here, so a window never ends
        // at a mere plan boundary.
        let plan = &self.plan;
        if self.time < plan.reach && (window_end <= plan.reach || plan.short) {
            return Ok(plan.reach);
        }
        self.settle();
        let plan = &mut self.plan;
        plan.load(&self.switches, &self.current, self.voltage);
        let reach = window_end.max((self.time + REUSE_Z / plan.norm).min(horizon));
        // One series reaches `THETA/‖A‖`. `‖A‖` is 0 only where nothing
        // conducts and `1/(R·C)` underflows; the floor keeps that plan
        // finite too.
        let z = plan.norm * (reach - self.time);
        let capped = z.is_nan() || z > THETA;
        let reach = if capped {
            self.time + THETA / plan.norm.max(f64::MIN_POSITIVE)
        } else {
            reach
        };
        if !(reach > self.time && reach.is_finite()) {
            return Err(SimError::InvalidTime {
                value: self.time,
                unit: "s",
            });
        }
        plan.id += 1;
        plan.origin = self.time;
        plan.reach = reach;
        plan.span = reach - plan.origin;
        plan.inv_span = 1.0 / plan.span;
        plan.build();
        // Diode currents reaching zero end the plan.
        plan.zeros.clear();
        for (k, (&switch, &i)) in self.switches.iter().zip(&self.current).enumerate() {
            if switch != SwitchState::Off || i == 0.0 {
                continue;
            }
            let state = (self.current.as_slice(), self.voltage);
            if let Some(at) = plan.crossing(k, 0.0, i < 0.0, state) {
                let at = plan.origin + at;
                if at < plan.reach {
                    plan.reach = at;
                    plan.zeros.clear();
                    plan.end_at((at - plan.origin) * plan.inv_span);
                }
                plan.zeros.push(k);
            }
        }
        plan.short = capped || !plan.zeros.is_empty();
        Ok(plan.reach)
    }

    /// Identifies the planned trajectory: it changes with every new plan.
    pub(crate) fn plan_id(&self) -> u64 {
        self.plan.id
    }

    /// The first time from now to the plan's end (see
    /// [`Buck::try_plan`]) at which state component `index` — phase
    /// `k`'s current for `k < phases`, the output voltage for
    /// `index == phases` — is at or beyond `level`: at or above it when
    /// `rising`, at or below it otherwise. The present time when it is
    /// beyond already; `INFINITY` when it is not beyond anywhere on the
    /// plan.
    ///
    /// The search stops short of root finding: a crossing that needs a
    /// root comes back as [`Search::Later`], with
    /// a bound from the series on how early it can be.
    /// [`Buck::resolve`] finishes it, on the same plan, with the time
    /// the whole search gives.
    pub(crate) fn search(&self, index: usize, level: f64, rising: bool) -> Search {
        let plan = &self.plan;
        let x = self.current.get(index).copied().unwrap_or(self.voltage);
        if self.time >= plan.reach {
            let beyond = if rising { x >= level } else { x <= level };
            return Search::At(if beyond { self.time } else { f64::INFINITY });
        }
        let from = self.time - plan.origin;
        let state = (self.current.as_slice(), self.voltage);
        match plan.bracket(index, level, rising, from, state) {
            Piece::Done(at) => {
                Search::At(at.map_or(f64::INFINITY, |tau| (plan.origin + tau).max(self.time)))
            }
            Piece::Root(bracket) => Search::Later {
                bound: plan.origin + plan.earliest(&bracket),
                floor: self.time,
                bracket,
            },
        }
    }

    /// The crossing a [`Buck::search`] of the present plan stands for;
    /// `INFINITY` for none.
    pub(crate) fn resolve(&self, search: Search) -> f64 {
        match search {
            Search::At(at) => at,
            Search::Later { floor, bracket, .. } => {
                let plan = &self.plan;
                plan.root_in(&bracket)
                    .map_or(f64::INFINITY, |tau| (plan.origin + tau).max(floor))
            }
        }
    }

    /// Appends to `record` the planned state at the points `idx·period`
    /// of a uniform grid, from `*idx` on, that lie before `before` and
    /// before the plan's end, and moves `*idx` past them. The points must
    /// lie after the present time. Each value is bit-identical to the
    /// state [`Buck::try_advance_to`] reaches at that point: the series
    /// is evaluated by the same Horner loop, on four points per pass,
    /// with the same multiply and add in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `record` has a different phase count.
    pub fn sample_plan(&self, idx: &mut u64, period: f64, before: f64, record: &mut Waveform) {
        assert_eq!(record.phases(), self.current.len(), "phase count mismatch");
        let plan = &self.plan;
        let end = before.min(plan.reach);
        let start = record.t.len();
        while (*idx as f64 * period) < end {
            record.t.push(*idx as f64 * period);
            *idx += 1;
        }
        let times = &record.t[start..];
        let n = self.current.len() + 1;
        let m = plan.order;
        let phases = n - 1;
        for batch in times.chunks(LANES) {
            // Lanes past a short batch's end evaluate at 0 and are dropped.
            let mut s = [0.0; LANES];
            for (s, &t) in s.iter_mut().zip(batch) {
                *s = (t - plan.origin) * plan.inv_span;
            }
            // Up to `GROUP` components at a time, term by term, so their
            // Horner chains run side by side.
            for first in (0..n).step_by(GROUP) {
                let width = GROUP.min(n - first);
                let mut x = [[0.0; LANES]; GROUP];
                for (x, &t) in x.iter_mut().zip(&plan.terms[m * n + first..][..width]) {
                    *x = [t; LANES];
                }
                for k in (0..m).rev() {
                    let term = &plan.terms[k * n + first..][..width];
                    for (j, x) in x.iter_mut().enumerate() {
                        if j < width {
                            let t = term[j];
                            for (x, s) in x.iter_mut().zip(&s) {
                                *x = *x * s + t;
                            }
                        }
                    }
                }
                for (j, x) in (first..).zip(&x[..width]) {
                    let column = if j < phases {
                        &mut record.i[j]
                    } else {
                        &mut record.v
                    };
                    column.extend_from_slice(&x[..batch.len()]);
                }
            }
        }
    }

    /// Moves the state along the plan to time `t`. At the plan's end, a
    /// diode current that reaches zero there is set to exactly zero.
    ///
    /// A `t` before the present time or past the plan's end is
    /// [`SimError::InvalidParameter`] and changes nothing; a non-finite
    /// result is [`SimError::NonFinite`].
    pub fn try_advance_to(&mut self, t: f64) -> Result<(), SimError> {
        let plan = &mut self.plan;
        if t == self.time && t < plan.reach {
            return Ok(());
        }
        if !(t >= self.time && t <= plan.reach) {
            return Err(SimError::InvalidParameter {
                what: "advance to (s)",
                value: t,
            });
        }
        // The energy moved on the way is booked when the plan is dropped
        // (see `Buck::settle`). At `t == time` (a diode current reaching
        // zero within rounding of now) only the clamp below remains.
        if t > self.time {
            let phases = self.current.len();
            let mut state = std::mem::take(&mut plan.state);
            if t == plan.reach {
                state.clone_from(&plan.end);
            } else {
                plan.state_at((t - plan.origin) * plan.inv_span, &mut state);
            }
            self.current.copy_from_slice(&state[..phases]);
            self.voltage = state[phases];
            plan.state = state;
            self.time = t;
        }
        if t == self.plan.reach {
            self.settle();
            for &k in &self.plan.zeros {
                self.current[k] = 0.0;
            }
        }
        if !self.voltage.is_finite() || self.current.iter().any(|i| !i.is_finite()) {
            return Err(SimError::NonFinite {
                what: "buck state",
                at_secs: self.time,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Buck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buck t={:.3}us v={:.3}V i={:?}",
            self.time * 1e6,
            self.voltage,
            self.current
        )
    }
}

#[cfg(test)]
impl Buck {
    /// Moves the buck to `voltage` and `currents` at the present time, as
    /// a test fixture.
    pub(crate) fn set_state(&mut self, voltage: f64, currents: &[f64]) {
        self.settle();
        self.voltage = voltage;
        self.current.copy_from_slice(currents);
    }

    /// [`Buck::search`] finished at once; `None` for no crossing.
    fn crossing(&self, index: usize, level: f64, rising: bool) -> Option<f64> {
        let at = self.resolve(self.search(index, level, rising));
        at.is_finite().then_some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buck() -> Buck {
        Buck::try_new(BuckParams::default()).unwrap()
    }

    #[test]
    fn rest_state_is_quiescent() {
        let mut b = buck();
        for _ in 0..100 {
            b.try_step(1e-9).unwrap();
        }
        assert_eq!(b.output_voltage(), 0.0);
        assert_eq!(b.total_coil_current(), 0.0);
    }

    #[test]
    fn pmos_charges_coil_and_cap() {
        let mut b = buck();
        b.try_set_switch(0, true, false).unwrap();
        for _ in 0..2000 {
            b.try_step(1e-9).unwrap();
        }
        assert!(b.coil_current(0) > 0.05, "i={}", b.coil_current(0));
        assert!(b.output_voltage() > 0.1);
        assert!(b.output_voltage() < b.params().vin);
    }

    #[test]
    fn nmos_discharges_coil() {
        let mut b = buck();
        b.try_set_switch(0, true, false).unwrap();
        for _ in 0..2000 {
            b.try_step(1e-9).unwrap();
        }
        let peak = b.coil_current(0);
        b.try_set_switch(0, false, true).unwrap();
        for _ in 0..2000 {
            b.try_step(1e-9).unwrap();
        }
        assert!(b.coil_current(0) < peak);
    }

    #[test]
    fn dcm_clamps_current_at_zero() {
        let mut b = buck();
        b.try_set_switch(0, true, false).unwrap();
        for _ in 0..1000 {
            b.try_step(1e-9).unwrap();
        }
        b.try_set_switch(0, false, false).unwrap();
        // Body diode free-wheels the current down; it must stop at zero,
        // not ring negative.
        for _ in 0..20000 {
            b.try_step(1e-9).unwrap();
            assert!(b.coil_current(0) >= 0.0, "current reversed in DCM");
        }
        assert_eq!(b.coil_current(0), 0.0);
    }

    #[test]
    fn negative_current_possible_with_nmos_on() {
        let mut b = buck();
        // Pre-charge the cap, then hold NMOS on: current goes negative
        // (the OV-mode energy sink of the paper).
        b.try_set_switch(0, true, false).unwrap();
        for _ in 0..5000 {
            b.try_step(1e-9).unwrap();
        }
        b.try_set_switch(0, false, true).unwrap();
        let mut min_i = f64::INFINITY;
        for _ in 0..5000 {
            b.try_step(1e-9).unwrap();
            min_i = min_i.min(b.coil_current(0));
        }
        assert!(min_i < 0.0, "current never reversed: min {min_i}");
    }

    #[test]
    fn load_step_changes_discharge_rate() {
        let mut b = buck();
        b.try_set_switch(0, true, false).unwrap();
        for _ in 0..5000 {
            b.try_step(1e-9).unwrap();
        }
        b.try_set_switch(0, false, false).unwrap();
        let v0 = b.output_voltage();
        let mut b_heavy = b.clone();
        b_heavy.try_set_load(2.0).unwrap();
        for _ in 0..1000 {
            b.try_step(1e-9).unwrap();
            b_heavy.try_step(1e-9).unwrap();
        }
        assert!(v0 - b_heavy.output_voltage() > v0 - b.output_voltage());
    }

    #[test]
    fn step_size_does_not_change_the_trajectory() {
        // Propagation is exact, so 2 µs in 1 ns or in 0.1 ns steps end
        // at the same state up to rounding.
        let run = |dt: f64| -> (f64, f64) {
            let mut b = buck();
            b.try_set_switch(0, true, false).unwrap();
            let steps = (2e-6 / dt).round() as usize;
            for _ in 0..steps {
                b.try_step(dt).unwrap();
            }
            (b.output_voltage(), b.coil_current(0))
        };
        let (v1, i1) = run(1e-9);
        let (v2, i2) = run(1e-10);
        assert!((v1 - v2).abs() < 1e-11 * v1.abs(), "v: {v1} vs {v2}");
        assert!((i1 - i2).abs() < 1e-11 * i1.abs(), "i: {i1} vs {i2}");
    }

    #[test]
    fn plan_samples_are_the_states_advanced_to() {
        // Grid samples read off a plan are bit for bit the states an
        // advance to each grid point reaches: for every batch length from
        // 1 to 9 (full batches of four and every remainder) on one plan,
        // and on a 5 µs window that takes one plan after another.
        let mut cases: Vec<(f64, f64, usize)> = (1..=9).map(|len| (2e-9, 100e-9, len)).collect();
        cases.push((1e-6, 5e-6, 4));
        for (period, span, len) in cases {
            let mut b = buck();
            b.try_set_switch(0, true, false).unwrap();
            b.try_set_switch(1, false, true).unwrap();
            let mut w = Waveform::new(4);
            let mut idx = 1;
            let before = (len as f64 + 0.5) * period;
            let mut plans = 0;
            while b.time() < before {
                let reach = b.try_plan(span, span).expect("valid window");
                plans += 1;
                let checked = w.len();
                b.sample_plan(&mut idx, period, before, &mut w);
                let mut probe = b.clone();
                for k in checked..w.len() {
                    let t = w.t[k];
                    probe.try_advance_to(t).expect("on the plan");
                    let v = probe.output_voltage();
                    assert_eq!(v.to_bits(), w.v[k].to_bits(), "v at {t:e}");
                    for (phase, column) in w.i.iter().enumerate() {
                        let i = probe.coil_current(phase);
                        assert_eq!(i.to_bits(), column[k].to_bits(), "i{phase} at {t:e}");
                    }
                }
                b.try_advance_to(reach.min(before)).expect("on the plan");
            }
            assert_eq!(plans > 1, period > 2e-9, "{plans} plans");
            assert_eq!(w.len(), len, "samples before {before:e}");
            assert_eq!(idx, len as u64 + 1);
            for (k, &t) in w.t.iter().enumerate() {
                assert_eq!(t, (k + 1) as f64 * period);
            }
        }
    }

    #[test]
    fn deferred_crossings_are_not_before_their_bound() {
        // A search that is down to root finding comes back with a bound
        // on how early its crossing can be; the crossing it resolves to
        // is never before it, and equals the whole search's. Levels sweep
        // each component's range over the plan, from several points on
        // it.
        let mut deferred = 0;
        for (v0, i0, pmos) in [(0.0, 0.0, true), (5.5, 0.3, false), (3.3, -0.5, true)] {
            let mut b = buck();
            b.set_state(v0, &[i0, 0.0, 0.1, -0.1]);
            b.try_set_switch(0, pmos, !pmos).unwrap();
            b.try_set_switch(1, !pmos, pmos).unwrap();
            b.try_set_switch(2, true, false).unwrap();
            b.try_set_switch(3, false, true).unwrap();
            let span = 0.2 / 3e6;
            b.try_plan(span, span).unwrap();
            for step in 0..8 {
                let now = span * step as f64 / 8.0;
                b.try_advance_to(now).unwrap();
                for index in 0..5 {
                    let x = |b: &Buck| b.currents().get(index).copied().unwrap_or(b.voltage);
                    let (mut lo, mut hi) = (x(&b), x(&b));
                    for k in 1..=32 {
                        let mut probe = b.clone();
                        probe
                            .try_advance_to(now + (span - now) * k as f64 / 32.0)
                            .unwrap();
                        (lo, hi) = (lo.min(x(&probe)), hi.max(x(&probe)));
                    }
                    for k in 0..=40 {
                        let level = lo + (hi - lo) * k as f64 / 40.0;
                        for rising in [false, true] {
                            let search = b.search(index, level, rising);
                            let Search::Later { bound, .. } = search else {
                                continue;
                            };
                            deferred += 1;
                            let at = b.resolve(search);
                            assert!(at >= bound, "x{index} to {level}: {at:e} < {bound:e}");
                            assert_eq!(
                                Some(at).filter(|t| t.is_finite()),
                                b.crossing(index, level, rising)
                            );
                        }
                    }
                }
            }
        }
        assert!(deferred > 100, "{deferred} deferred searches");
    }

    #[test]
    fn long_plans_find_the_crossings_short_windows_find() {
        // The output filter rings with a period of about ten `1/‖A‖`. A
        // walk over 40/‖A‖ through the longest plans `try_plan` allows
        // (`THETA/‖A‖` each) must find the first crossing that a walk
        // through windows of 0.05/‖A‖ finds, for levels across the
        // ringing's range: some are crossed only near a peak or trough,
        // out and back within a few `1/‖A‖`.
        for (v0, i0, pmos) in [(0.0, 0.0, true), (5.5, 0.0, false), (3.3, -0.5, true)] {
            let mut b = Buck::try_new(BuckParams::default().with_phases(1)).unwrap();
            b.set_state(v0, &[i0]);
            b.try_set_switch(0, pmos, !pmos).unwrap();
            b.try_plan(1e-12, 1e-12).unwrap();
            let unit = 1.0 / b.plan.norm;
            let span = 40.0 * unit;
            // The first crossing on a walk through windows of `window`.
            let first = |index: usize, level: f64, rising: bool, window: f64| -> Option<f64> {
                let mut walk = b.clone();
                while walk.time() < span {
                    let end = (walk.time() + window).min(span);
                    let reach = walk.try_plan(end, end).unwrap();
                    assert!(reach - walk.time() <= THETA * unit * (1.0 + 1e-9));
                    if let Some(at) = walk.crossing(index, level, rising) {
                        return Some(at);
                    }
                    walk.try_advance_to(reach).unwrap();
                }
                None
            };
            for index in 0..2 {
                let mut probe = b.clone();
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for _ in 0..400 {
                    probe.try_step(span / 400.0).unwrap();
                    let x = [probe.coil_current(0), probe.output_voltage()][index];
                    (lo, hi) = (lo.min(x), hi.max(x));
                }
                for k in 0..=60 {
                    let level = lo + (hi - lo) * k as f64 / 60.0;
                    for rising in [false, true] {
                        let found = first(index, level, rising, span);
                        let want = first(index, level, rising, 0.05 * unit);
                        let agree = match (found, want) {
                            (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * span,
                            (None, None) => true,
                            _ => false,
                        };
                        assert!(
                            agree,
                            "start ({v0}, {i0}), x{index} {} {level}: {found:?} vs {want:?}",
                            if rising { "up to" } else { "down to" }
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multiphase_currents_superpose() {
        let mut b = buck();
        for k in 0..4 {
            b.try_set_switch(k, true, false).unwrap();
        }
        for _ in 0..1000 {
            b.try_step(1e-9).unwrap();
        }
        let total = b.total_coil_current();
        assert!((total - 4.0 * b.coil_current(0)).abs() < 1e-9);
    }

    #[test]
    fn zero_phases_rejected() {
        assert!(matches!(
            Buck::try_new(BuckParams::default().with_phases(0)),
            Err(SimError::InvalidParameter {
                what: "phase count",
                ..
            })
        ));
    }

    #[test]
    fn try_new_rejects_non_physical_params() {
        for bad in [f64::NAN, 0.0, -5.0, f64::INFINITY, f64::NEG_INFINITY] {
            let p = BuckParams {
                vin: bad,
                ..BuckParams::default()
            };
            assert!(
                matches!(
                    Buck::try_new(p),
                    Err(SimError::InvalidParameter {
                        what: "vin (V)",
                        ..
                    })
                ),
                "vin = {bad} accepted"
            );
        }
        let p = BuckParams {
            rdson_p: f64::NAN,
            ..BuckParams::default()
        };
        assert!(matches!(
            Buck::try_new(p),
            Err(SimError::InvalidParameter {
                what: "rdson_p (Ohm)",
                ..
            })
        ));
        let mut p = BuckParams::default();
        p.coil.dcr = -0.1;
        assert!(Buck::try_new(p).is_err());
        assert!(Buck::try_new(BuckParams::default()).is_ok());
    }

    #[test]
    fn try_step_rejects_bad_dt_without_mutating() {
        let mut b = buck();
        b.try_set_switch(0, true, false).unwrap();
        b.try_step(1e-9).unwrap();
        let v = b.output_voltage();
        let t = b.time();
        for bad in [f64::NAN, 0.0, -1e-9, f64::INFINITY] {
            assert!(matches!(
                b.try_step(bad),
                Err(SimError::InvalidParameter {
                    what: "step dt (s)",
                    ..
                })
            ));
        }
        assert_eq!(b.output_voltage(), v, "failed step must not mutate");
        assert_eq!(b.time(), t);
    }

    #[test]
    fn long_step_settles_at_the_dc_operating_point() {
        // 80 µs is ~20 decay times of the output filter's ringing, and
        // ~100 plans of `THETA/‖A‖`: one step of it lands on the DC point
        // v = Vin·R/(R + r), i = v/R. (70 µs is still 2·10⁻⁹ away.)
        let mut b = Buck::try_new(BuckParams::default().with_phases(1)).unwrap();
        b.try_set_switch(0, true, false).unwrap();
        b.try_step(80e-6).unwrap();
        let p = b.params().clone();
        let v = p.vin * p.rload / (p.rload + p.rdson_p + p.coil.dcr);
        assert!((b.output_voltage() - v).abs() < 1e-9, "{b}");
        assert!((b.coil_current(0) - v / p.rload).abs() < 1e-9, "{b}");
    }

    #[test]
    fn try_new_rejects_an_unrepresentable_propagator() {
        // 1/C overflows f64, so the stage's rate is infinite: it is
        // rejected before any step could carry inf/NaN.
        let built = Buck::try_new(BuckParams {
            cap: 1e-320,
            ..BuckParams::default()
        });
        assert!(matches!(
            built,
            Err(SimError::InvalidParameter {
                what: "power-stage rate |A| (1/s)",
                ..
            })
        ));
    }

    #[test]
    fn plans_span_at_most_one_series() {
        // A plan asked for 8 µs stops where one series still reaches.
        let mut b = buck();
        let reach = b.try_plan(8e-6, 8e-6).unwrap();
        assert!(reach <= THETA / b.plan.norm, "{reach:e}");
        // Just under the rate bound (`L` and `C` scaled alike scale `‖A‖`
        // inversely), a 1 ns step builds about `‖A‖·1 ns` = 1 000 plans,
        // one per `THETA/‖A‖`.
        let mut p = BuckParams::default();
        let scale = p.stiffest_rate() / (0.999 * MAX_RATE);
        p.cap *= scale;
        p.coil.inductance *= scale;
        assert!(p.check_rate().is_ok() && p.stiffest_rate() > 0.99 * MAX_RATE);
        let mut b = Buck::try_new(p).unwrap();
        for k in 0..4 {
            b.try_set_switch(k, true, false).unwrap();
        }
        let first = b.plan_id();
        b.try_step(1e-9).unwrap();
        let plans = b.plan_id() - first;
        assert!((900..=1_010).contains(&plans), "{plans} plans");
    }

    #[test]
    fn try_plan_reports_a_time_too_coarse_for_one_series() {
        // At 1e20 s, f64 time moves in steps of 16 384 s: a plan of
        // `THETA/‖A‖` cannot advance it, and a step reports that instead
        // of looping for ever.
        let mut b = buck();
        b.time = 1e20;
        assert!(matches!(
            b.try_plan(2e20, 2e20),
            Err(SimError::InvalidTime { value, .. }) if value == 1e20
        ));
        assert!(matches!(b.try_step(1e5), Err(SimError::InvalidTime { .. })));
        assert_eq!(b.time(), 1e20);
    }

    #[test]
    fn try_set_switch_reports_short_and_range() {
        let mut b = buck();
        assert!(matches!(
            b.try_set_switch(0, true, true),
            Err(SimError::ShortCircuit { phase: 0, .. })
        ));
        assert_eq!(b.switch(0), SwitchState::Off, "state unchanged on error");
        assert!(matches!(
            b.try_set_switch(99, true, false),
            Err(SimError::PhaseOutOfRange {
                phase: 99,
                phases: 4
            })
        ));
        assert!(b.try_set_switch(1, false, true).is_ok());
        assert_eq!(b.switch(1), SwitchState::NmosOn);
    }

    #[test]
    fn try_set_load_rejects_nan_and_negative() {
        let mut b = buck();
        for bad in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
            assert!(b.try_set_load(bad).is_err(), "{bad} accepted");
        }
        assert_eq!(b.params().rload, 6.0, "load unchanged after rejects");
        assert!(b.try_set_load(3.6).is_ok());
        assert_eq!(b.params().rload, 3.6);
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;

    #[test]
    fn energy_flows_and_efficiency_bounded() {
        let mut b = Buck::try_new(BuckParams::default().with_phases(1)).unwrap();
        // A few manual switching cycles.
        for _ in 0..20 {
            b.try_set_switch(0, true, false).unwrap();
            for _ in 0..200 {
                b.try_step(1e-9).unwrap();
            }
            b.try_set_switch(0, false, true).unwrap();
            for _ in 0..200 {
                b.try_step(1e-9).unwrap();
            }
        }
        assert!(b.energy_in() > 0.0);
        assert!(b.energy_out() > 0.0);
        let eff = b.efficiency();
        assert!(eff > 0.0 && eff < 1.0, "efficiency {eff}");
    }

    #[test]
    fn idle_buck_moves_no_energy() {
        let mut b = Buck::try_new(BuckParams::default()).unwrap();
        for _ in 0..1000 {
            b.try_step(1e-9).unwrap();
        }
        assert_eq!(b.energy_in(), 0.0);
        assert_eq!(b.energy_out(), 0.0);
    }

    #[test]
    fn dcm_zero_crossing_never_kicks_upward() {
        // The window ends at the diode current's zero and the current
        // stays there: no step may flip to the opposite body diode and
        // kick the current back up.
        for pre in (100..400).step_by(7) {
            let mut b = Buck::try_new(
                BuckParams::default()
                    .with_phases(1)
                    .with_coil(crate::CoilModel::coilcraft(1.0)),
            )
            .unwrap();
            b.try_set_switch(0, true, false).unwrap();
            for _ in 0..pre {
                b.try_step(1e-9).unwrap();
            }
            b.try_set_switch(0, false, false).unwrap();
            let mut prev = b.coil_current(0);
            for _ in 0..20_000 {
                b.try_step(1e-9).unwrap();
                let i = b.coil_current(0);
                assert!(
                    !(i > prev + 1e-12 && prev < 1e-3),
                    "upward kick near zero: {prev:.3e} -> {i:.3e} (pre={pre})"
                );
                prev = i;
                if i == 0.0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn conservation_energy_in_bounds_stored_plus_out() {
        // E_in >= E_out + E_stored (losses are non-negative).
        let mut b = Buck::try_new(BuckParams::default().with_phases(1)).unwrap();
        b.try_set_switch(0, true, false).unwrap();
        for _ in 0..5000 {
            b.try_step(1e-9).unwrap();
        }
        let p = b.params().clone();
        let stored = 0.5 * p.cap * b.output_voltage().powi(2)
            + 0.5 * p.coil.inductance * b.coil_current(0).powi(2);
        assert!(
            b.energy_in() + 1e-12 >= b.energy_out() + stored,
            "E_in {} < E_out {} + stored {}",
            b.energy_in(),
            b.energy_out(),
            stored
        );
    }
}
