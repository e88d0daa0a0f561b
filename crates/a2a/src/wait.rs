//! The WAIT element family: latching interfaces from level- and
//! edge-sensitive non-persistent inputs to 4-phase handshakes.

use a4a_sim::Time;

use crate::meta::{MetaParams, MetaState};

/// An acknowledge-output change produced by an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckEvent {
    /// When the output changed.
    pub time: Time,
    /// The new output value.
    pub value: bool,
}

/// Shared machinery of the level-sensitive WAIT variants.
#[derive(Debug, Clone)]
struct WaitCore {
    /// The input level being waited for.
    target: bool,
    /// Whether the element supports cancellation (RWAIT variants).
    cancellable: bool,
    delay: Time,
    sig: bool,
    req: bool,
    ack: bool,
    latched: bool,
    cancelled: bool,
    pending: Option<(Time, bool)>,
    meta: MetaState,
    filtered: u64,
    last_t: Time,
}

impl WaitCore {
    fn new(target: bool, cancellable: bool, delay: Time, meta: MetaParams) -> WaitCore {
        WaitCore {
            target,
            cancellable,
            delay,
            sig: false,
            req: false,
            ack: false,
            latched: false,
            cancelled: false,
            pending: None,
            meta: meta.into_state(),
            filtered: 0,
            last_t: Time::ZERO,
        }
    }

    fn advance_clock(&mut self, t: Time) -> Option<AckEvent> {
        assert!(
            t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.last_t = t;
        self.flush(t)
    }

    /// Applies a due pending transition.
    fn flush(&mut self, t: Time) -> Option<AckEvent> {
        if let Some((at, value)) = self.pending {
            if at <= t {
                self.pending = None;
                self.ack = value;
                return Some(AckEvent { time: at, value });
            }
        }
        None
    }

    fn set_sig(&mut self, t: Time, v: bool) -> Option<AckEvent> {
        let ev = self.advance_clock(t);
        self.sig = v;
        if v != self.target {
            // Input retracted: if the latch decision is still pending,
            // the pulse is filtered.
            if let Some((_, true)) = self.pending {
                self.pending = None;
                self.latched = false;
                self.filtered += 1;
            }
        }
        self.update(t);
        ev
    }

    fn set_req(&mut self, t: Time, v: bool) -> Option<AckEvent> {
        let ev = self.advance_clock(t);
        self.req = v;
        if !v {
            // Handshake release: drop the ack (if high or pending) and
            // clear latch/cancel state.
            self.latched = false;
            self.cancelled = false;
            if self.ack || matches!(self.pending, Some((_, true))) {
                self.pending = Some((t + self.delay, false));
            }
        }
        self.update(t);
        ev
    }

    fn set_cancel(&mut self, t: Time, v: bool) -> Option<AckEvent> {
        assert!(self.cancellable, "this element has no cancel input");
        let ev = self.advance_clock(t);
        if v && self.req && !self.ack && !matches!(self.pending, Some((_, true))) {
            self.cancelled = true;
        }
        ev
    }

    fn update(&mut self, t: Time) {
        if self.req
            && !self.ack
            && !self.latched
            && !self.cancelled
            && self.pending.is_none()
            && self.sig == self.target
        {
            self.latched = true;
            let extra = self.meta.resolution_delay();
            self.pending = Some((t + self.delay + extra, true));
        }
    }

    fn poll(&mut self, t: Time) -> Option<AckEvent> {
        let ev = self.advance_clock(t);
        if ev.is_some() {
            // A released ack may immediately re-arm on a still-active sig.
            self.update(t);
        }
        ev
    }

    fn next_deadline(&self) -> Option<Time> {
        self.pending.map(|(at, _)| at)
    }
}

macro_rules! level_wait {
    ($(#[$doc:meta])* $name:ident, target = $target:expr, cancellable = $canc:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            core: WaitCore,
        }

        impl $name {
            /// Creates the element with the given decision delay and no
            /// metastability.
            pub fn new(delay: Time) -> Self {
                Self::with_meta(delay, MetaParams::disabled())
            }

            /// Creates the element with a metastability model.
            pub fn with_meta(delay: Time, meta: MetaParams) -> Self {
                $name {
                    core: WaitCore::new($target, $canc, delay, meta),
                }
            }

            /// Drives the non-persistent analog input.
            pub fn set_sig(&mut self, t: Time, v: bool) -> Option<AckEvent> {
                self.core.set_sig(t, v)
            }

            /// Drives the handshake request.
            pub fn set_req(&mut self, t: Time, v: bool) -> Option<AckEvent> {
                self.core.set_req(t, v)
            }

            /// The handshake acknowledge output.
            pub fn ack(&self) -> bool {
                self.core.ack
            }

            /// Applies a due output transition, if any.
            pub fn poll(&mut self, t: Time) -> Option<AckEvent> {
                self.core.poll(t)
            }

            /// The time of the next scheduled output change.
            pub fn next_deadline(&self) -> Option<Time> {
                self.core.next_deadline()
            }

            /// Number of input pulses filtered while deciding.
            pub fn filtered_pulses(&self) -> u64 {
                self.core.filtered
            }
        }
    };
}

level_wait!(
    /// WAIT: waits for the non-persistent input to become **high**, then
    /// latches it until the handshake is released (§III).
    ///
    /// Protocol: the controller raises `req`; once the input is high the
    /// element raises `ack` (the latch decision takes `delay`, plus a
    /// metastability tail for marginal pulses); lowering `req` releases
    /// `ack`. Input pulses shorter than the decision window are filtered
    /// and counted — the metastability is contained inside the element.
    Wait, target = true, cancellable = false
);

level_wait!(
    /// WAIT0: the symmetric element waiting for the input to become
    /// **low**.
    Wait0, target = false, cancellable = false
);

level_wait!(
    /// RWAIT: [`Wait`] with a persistent cancel input — used when the
    /// input is no longer expected to change (e.g. the ZC wait cancelled
    /// by a timeout) and the handshake must be released.
    RWait, target = true, cancellable = true
);

level_wait!(
    /// RWAIT0: [`Wait0`] with a persistent cancel input.
    RWait0, target = false, cancellable = true
);

impl RWait {
    /// Persistently cancels the wait: once cancelled, the element will
    /// not acknowledge until the request is released and re-issued. A
    /// latch decision already in flight still completes (the cancel
    /// arrived too late to win the race).
    pub fn cancel(&mut self, t: Time) -> Option<AckEvent> {
        self.core.set_cancel(t, true)
    }
}

impl RWait0 {
    /// Persistently cancels the wait (see [`RWait::cancel`]).
    pub fn cancel(&mut self, t: Time) -> Option<AckEvent> {
        self.core.set_cancel(t, true)
    }
}

/// WAIT2: a combination of [`Wait`] and [`Wait0`] — waits for the input
/// high in the request phase and for the input low in the release
/// phase, so one full handshake observes one full input cycle.
#[derive(Debug, Clone)]
pub struct Wait2 {
    high: WaitCore,
}

impl Wait2 {
    /// Creates the element with the given decision delay and no
    /// metastability.
    pub fn new(delay: Time) -> Self {
        Self::with_meta(delay, MetaParams::disabled())
    }

    /// Creates the element with a metastability model.
    pub fn with_meta(delay: Time, meta: MetaParams) -> Self {
        Wait2 {
            high: WaitCore::new(true, false, delay, meta),
        }
    }

    /// Drives the non-persistent analog input.
    pub fn set_sig(&mut self, t: Time, v: bool) -> Option<AckEvent> {
        let ev = self.high.set_sig(t, v);
        self.maybe_release(t).or(ev)
    }

    /// Drives the handshake request.
    pub fn set_req(&mut self, t: Time, v: bool) -> Option<AckEvent> {
        let ev = self.high.advance_clock(t);
        self.high.req = v;
        if v {
            self.high.update(t);
        } else {
            self.high.latched = false;
        }
        self.maybe_release(t).or(ev)
    }

    fn maybe_release(&mut self, t: Time) -> Option<AckEvent> {
        // Release phase: req low AND sig back low.
        if !self.high.req
            && !self.high.sig
            && (self.high.ack || matches!(self.high.pending, Some((_, true))))
            && !matches!(self.high.pending, Some((_, false)))
        {
            self.high.pending = Some((t + self.high.delay, false));
        }
        None
    }

    /// The handshake acknowledge output.
    pub fn ack(&self) -> bool {
        self.high.ack
    }

    /// Applies a due output transition, if any.
    pub fn poll(&mut self, t: Time) -> Option<AckEvent> {
        self.high.poll(t)
    }

    /// The time of the next scheduled output change.
    pub fn next_deadline(&self) -> Option<Time> {
        self.high.next_deadline()
    }
}

/// Which phase an edge-sensitive wait is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgePhase {
    Idle,
    NeedFirst,
    NeedSecond,
    Done,
}

/// Shared machinery of WAIT01 / WAIT10.
#[derive(Debug, Clone)]
struct EdgeCore {
    /// Value of the first observed level (the edge starts here).
    first_level: bool,
    delay: Time,
    sig: bool,
    req: bool,
    ack: bool,
    phase: EdgePhase,
    pending: Option<(Time, bool)>,
    meta: MetaState,
    last_t: Time,
}

impl EdgeCore {
    fn new(first_level: bool, delay: Time, meta: MetaParams) -> EdgeCore {
        EdgeCore {
            first_level,
            delay,
            sig: false,
            req: false,
            ack: false,
            phase: EdgePhase::Idle,
            pending: None,
            meta: meta.into_state(),
            last_t: Time::ZERO,
        }
    }

    fn flush(&mut self, t: Time) -> Option<AckEvent> {
        assert!(t >= self.last_t, "time went backwards");
        self.last_t = t;
        if let Some((at, value)) = self.pending {
            if at <= t {
                self.pending = None;
                self.ack = value;
                return Some(AckEvent { time: at, value });
            }
        }
        None
    }

    fn arm(&mut self, t: Time) {
        self.phase = if self.sig == self.first_level {
            EdgePhase::NeedSecond
        } else {
            EdgePhase::NeedFirst
        };
        self.step_phase(t);
    }

    fn step_phase(&mut self, t: Time) {
        match self.phase {
            EdgePhase::NeedFirst if self.sig == self.first_level => {
                self.phase = EdgePhase::NeedSecond;
            }
            EdgePhase::NeedSecond if self.sig != self.first_level => {
                self.phase = EdgePhase::Done;
                let extra = self.meta.resolution_delay();
                self.pending = Some((t + self.delay + extra, true));
            }
            _ => {}
        }
    }

    fn set_sig(&mut self, t: Time, v: bool) -> Option<AckEvent> {
        let ev = self.flush(t);
        self.sig = v;
        if self.req && self.phase != EdgePhase::Done {
            self.step_phase(t);
        }
        ev
    }

    fn set_req(&mut self, t: Time, v: bool) -> Option<AckEvent> {
        let ev = self.flush(t);
        self.req = v;
        if v {
            self.arm(t);
        } else {
            self.phase = EdgePhase::Idle;
            if self.ack || matches!(self.pending, Some((_, true))) {
                self.pending = Some((t + self.delay, false));
            }
        }
        ev
    }
}

macro_rules! edge_wait {
    ($(#[$doc:meta])* $name:ident, first = $first:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            core: EdgeCore,
        }

        impl $name {
            /// Creates the element with the given decision delay and no
            /// metastability.
            pub fn new(delay: Time) -> Self {
                Self::with_meta(delay, MetaParams::disabled())
            }

            /// Creates the element with a metastability model.
            pub fn with_meta(delay: Time, meta: MetaParams) -> Self {
                $name {
                    core: EdgeCore::new($first, delay, meta),
                }
            }

            /// Drives the non-persistent analog input.
            pub fn set_sig(&mut self, t: Time, v: bool) -> Option<AckEvent> {
                self.core.set_sig(t, v)
            }

            /// Drives the handshake request.
            pub fn set_req(&mut self, t: Time, v: bool) -> Option<AckEvent> {
                self.core.set_req(t, v)
            }

            /// The handshake acknowledge output.
            pub fn ack(&self) -> bool {
                self.core.ack
            }

            /// Applies a due output transition, if any.
            pub fn poll(&mut self, t: Time) -> Option<AckEvent> {
                self.core.flush(t)
            }

            /// The time of the next scheduled output change.
            pub fn next_deadline(&self) -> Option<Time> {
                self.core.pending.map(|(at, _)| at)
            }
        }
    };
}

edge_wait!(
    /// WAIT01: waits for a **rising edge** of the input. Subtly
    /// different from [`Wait`]: a signal that is already high must first
    /// go low before a new rising edge counts (§III).
    Wait01, first = false
);

edge_wait!(
    /// WAIT10: waits for a **falling edge** of the input.
    Wait10, first = true
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn wait_basic_handshake() {
        let mut w = Wait::new(ns(0.1));
        assert_eq!(w.set_req(ns(1.0), true), None);
        assert!(!w.ack());
        w.set_sig(ns(2.0), true);
        assert_eq!(w.next_deadline(), Some(ns(2.1)));
        let ev = w.poll(ns(2.1)).unwrap();
        assert_eq!(
            ev,
            AckEvent {
                time: ns(2.1),
                value: true
            }
        );
        assert!(w.ack());
        // Input retracts after latching: contained, ack stays.
        w.set_sig(ns(3.0), false);
        assert!(w.ack());
        // Release.
        w.set_req(ns(4.0), false);
        let ev = w.poll(ns(4.1)).unwrap();
        assert!(!ev.value);
        assert!(!w.ack());
    }

    #[test]
    fn wait_sig_before_req() {
        let mut w = Wait::new(ns(0.1));
        w.set_sig(ns(1.0), true);
        assert_eq!(w.next_deadline(), None, "not armed yet");
        w.set_req(ns(2.0), true);
        assert_eq!(w.next_deadline(), Some(ns(2.1)));
    }

    #[test]
    fn wait_filters_short_pulse() {
        let mut w = Wait::new(ns(1.0));
        w.set_req(ns(0.0), true);
        w.set_sig(ns(1.0), true);
        w.set_sig(ns(1.5), false); // retracted before the 2.0 decision
        assert_eq!(w.next_deadline(), None);
        assert_eq!(w.filtered_pulses(), 1);
        assert!(!w.ack());
        // A proper pulse still gets through afterwards.
        w.set_sig(ns(3.0), true);
        assert!(w.poll(ns(4.0)).is_some());
    }

    #[test]
    fn wait0_waits_for_low() {
        let mut w = Wait0::new(ns(0.1));
        w.set_sig(ns(0.5), true);
        w.set_req(ns(1.0), true);
        assert_eq!(w.next_deadline(), None, "sig is high");
        w.set_sig(ns(2.0), false);
        let ev = w.poll(ns(2.2)).unwrap();
        assert!(ev.value);
    }

    #[test]
    fn rwait_cancel_blocks_latch() {
        let mut w = RWait::new(ns(0.1));
        w.set_req(ns(1.0), true);
        w.cancel(ns(2.0));
        w.set_sig(ns(3.0), true);
        assert_eq!(w.next_deadline(), None, "cancelled");
        assert!(!w.ack());
        // Release and re-arm: works again.
        w.set_req(ns(4.0), false);
        w.set_req(ns(5.0), true);
        assert!(w.poll(ns(5.2)).is_some(), "sig still high, latches now");
    }

    #[test]
    fn rwait_cancel_too_late_races() {
        let mut w = RWait::new(ns(1.0));
        w.set_req(ns(0.0), true);
        w.set_sig(ns(1.0), true); // decision due at 2.0
        w.cancel(ns(1.5)); // too late: latch in flight
        assert!(w.poll(ns(2.0)).is_some());
        assert!(w.ack());
    }

    #[test]
    fn wait2_full_cycle() {
        let mut w = Wait2::new(ns(0.1));
        w.set_req(ns(1.0), true);
        w.set_sig(ns(2.0), true);
        assert!(w.poll(ns(2.1)).unwrap().value);
        // Releasing the request alone does not drop ack: waits for low.
        w.set_req(ns(3.0), false);
        assert_eq!(w.next_deadline(), None);
        assert!(w.ack());
        w.set_sig(ns(4.0), false);
        let ev = w.poll(ns(4.1)).unwrap();
        assert!(!ev.value);
    }

    #[test]
    fn wait01_needs_a_real_edge() {
        let mut w = Wait01::new(ns(0.1));
        // Signal already high when armed: no ack until low then high.
        w.set_sig(ns(0.5), true);
        w.set_req(ns(1.0), true);
        assert_eq!(w.next_deadline(), None);
        w.set_sig(ns(2.0), false);
        assert_eq!(w.next_deadline(), None);
        w.set_sig(ns(3.0), true);
        assert!(w.poll(ns(3.1)).unwrap().value);
    }

    #[test]
    fn wait01_low_at_arm_needs_only_rise() {
        let mut w = Wait01::new(ns(0.1));
        w.set_req(ns(1.0), true);
        w.set_sig(ns(2.0), true);
        assert!(w.poll(ns(2.1)).unwrap().value);
    }

    #[test]
    fn wait10_waits_for_fall() {
        let mut w = Wait10::new(ns(0.1));
        w.set_req(ns(1.0), true);
        w.set_sig(ns(2.0), true);
        assert_eq!(w.next_deadline(), None, "rise is not a fall");
        w.set_sig(ns(3.0), false);
        assert!(w.poll(ns(3.1)).unwrap().value);
    }

    #[test]
    fn re_arm_immediately_after_release() {
        let mut w = Wait::new(ns(0.1));
        w.set_req(ns(1.0), true);
        w.set_sig(ns(1.5), true);
        w.poll(ns(1.6));
        w.set_req(ns(2.0), false);
        w.poll(ns(2.1));
        // Sig still high; re-request latches straight away.
        w.set_req(ns(3.0), true);
        let ev = w.poll(ns(3.1)).unwrap();
        assert!(ev.value);
    }

    #[test]
    fn rwait0_cancel_blocks_low_latch() {
        let mut w = RWait0::new(ns(0.1));
        w.set_sig(ns(0.5), true); // condition currently high
        w.set_req(ns(1.0), true);
        w.cancel(ns(2.0));
        w.set_sig(ns(3.0), false); // goes low after the cancel
        assert_eq!(w.next_deadline(), None, "cancelled");
        w.set_req(ns(4.0), false);
        w.set_req(ns(5.0), true);
        assert!(w.poll(ns(5.2)).is_some(), "re-armed, sig is low");
    }

    #[test]
    fn wait10_ignores_low_level_without_edge() {
        // Signal already low when armed: WAIT10 needs high-then-low.
        let mut w = Wait10::new(ns(0.1));
        w.set_req(ns(1.0), true);
        assert_eq!(w.next_deadline(), None, "no falling edge yet");
        w.set_sig(ns(2.0), true);
        w.set_sig(ns(3.0), false);
        assert!(w.poll(ns(3.2)).unwrap().value);
    }

    #[test]
    fn metastability_extends_decision() {
        let meta = MetaParams::with_seed(1.0, Time::from_ns(5.0), 11);
        let mut w = Wait::with_meta(ns(0.1), meta);
        w.set_req(ns(1.0), true);
        w.set_sig(ns(2.0), true);
        let deadline = w.next_deadline().unwrap();
        assert!(deadline > ns(2.1), "tail added: {deadline}");
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn non_monotone_time_rejected() {
        let mut w = Wait::new(ns(0.1));
        w.set_req(ns(2.0), true);
        w.set_sig(ns(1.0), true);
    }
}
