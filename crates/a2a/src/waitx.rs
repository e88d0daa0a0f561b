//! WAITX / WAITX2: arbitration between two non-persistent inputs.

use a4a_sim::Time;

use crate::meta::{MetaParams, MetaState};

/// A grant-output change produced by an arbitrating element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantEvent {
    /// When the output changed.
    pub time: Time,
    /// Which grant rail changed (0 or 1).
    pub channel: usize,
    /// The new output value.
    pub value: bool,
}

/// Common machinery of WAITX and WAITX2.
#[derive(Debug, Clone)]
struct XCore {
    /// WAITX2 holds its grant until the winning input goes low.
    hold_until_low: bool,
    delay: Time,
    sigs: [bool; 2],
    req: bool,
    grants: [bool; 2],
    winner: Option<usize>,
    pending: Option<(Time, usize, bool)>,
    meta: MetaState,
    filtered: u64,
    contentions: u64,
    last_t: Time,
}

impl XCore {
    fn new(hold_until_low: bool, delay: Time, meta: MetaParams) -> XCore {
        XCore {
            hold_until_low,
            delay,
            sigs: [false; 2],
            req: false,
            grants: [false; 2],
            winner: None,
            pending: None,
            meta: meta.into_state(),
            filtered: 0,
            contentions: 0,
            last_t: Time::ZERO,
        }
    }

    fn flush(&mut self, t: Time) -> Option<GrantEvent> {
        assert!(
            t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.last_t = t;
        if let Some((at, channel, value)) = self.pending {
            if at <= t {
                self.pending = None;
                self.grants[channel] = value;
                return Some(GrantEvent {
                    time: at,
                    channel,
                    value,
                });
            }
        }
        None
    }

    fn try_grant(&mut self, t: Time) {
        if !self.req || self.winner.is_some() || self.pending.is_some() {
            return;
        }
        let candidate = match (self.sigs[0], self.sigs[1]) {
            (true, true) => {
                // Simultaneous contention: the internal mutex resolves it;
                // possibly through a metastability tail. Channel 0 wins
                // ties deterministically (the tail models the cost).
                self.contentions += 1;
                Some(0)
            }
            (true, false) => Some(0),
            (false, true) => Some(1),
            (false, false) => None,
        };
        if let Some(ch) = candidate {
            let extra = if self.sigs[0] && self.sigs[1] {
                self.meta.resolution_delay()
            } else {
                Time::ZERO
            };
            self.winner = Some(ch);
            self.pending = Some((t + self.delay + extra, ch, true));
        }
    }

    fn set_sig(&mut self, t: Time, channel: usize, v: bool) -> Option<GrantEvent> {
        assert!(channel < 2, "channel must be 0 or 1");
        let ev = self.flush(t);
        self.sigs[channel] = v;
        if !v {
            // Retraction: a pending grant for this channel is filtered.
            if let Some((_, ch, true)) = self.pending {
                if ch == channel {
                    self.pending = None;
                    self.winner = None;
                    self.filtered += 1;
                }
            }
            // WAITX2 release phase: winner's input went low.
            if self.hold_until_low {
                self.maybe_release(t);
            }
        }
        self.try_grant(t);
        ev
    }

    fn set_req(&mut self, t: Time, v: bool) -> Option<GrantEvent> {
        let ev = self.flush(t);
        self.req = v;
        if v {
            self.try_grant(t);
        } else if self.hold_until_low {
            self.maybe_release(t);
        } else {
            self.release(t);
        }
        ev
    }

    fn maybe_release(&mut self, t: Time) {
        if let Some(w) = self.winner {
            if !self.req && !self.sigs[w] {
                self.release(t);
            }
        }
    }

    fn release(&mut self, t: Time) {
        if let Some(w) = self.winner {
            if self.grants[w] || matches!(self.pending, Some((_, _, true))) {
                self.pending = Some((t + self.delay, w, false));
            }
            self.winner = None;
        }
    }

    fn poll(&mut self, t: Time) -> Option<GrantEvent> {
        let ev = self.flush(t);
        if ev.is_some() {
            self.try_grant(t);
        }
        ev
    }
}

macro_rules! waitx_element {
    ($(#[$doc:meta])* $name:ident, hold = $hold:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            core: XCore,
        }

        impl $name {
            /// Creates the element with the given decision delay and no
            /// metastability.
            pub fn new(delay: Time) -> Self {
                Self::with_meta(delay, MetaParams::disabled())
            }

            /// Creates the element with a metastability model for
            /// contended arbitrations.
            pub fn with_meta(delay: Time, meta: MetaParams) -> Self {
                $name {
                    core: XCore::new($hold, delay, meta),
                }
            }

            /// Drives one of the two non-persistent inputs.
            ///
            /// # Panics
            ///
            /// Panics if `channel` is not 0 or 1, or time goes backwards.
            pub fn set_sig(&mut self, t: Time, channel: usize, v: bool) -> Option<GrantEvent> {
                self.core.set_sig(t, channel, v)
            }

            /// Drives the handshake request.
            pub fn set_req(&mut self, t: Time, v: bool) -> Option<GrantEvent> {
                self.core.set_req(t, v)
            }

            /// The dual-rail grant outputs.
            pub fn grant(&self, channel: usize) -> bool {
                self.core.grants[channel]
            }

            /// The winning channel, if a grant is active or in flight.
            pub fn winner(&self) -> Option<usize> {
                self.core.winner
            }

            /// Applies a due output transition, if any.
            pub fn poll(&mut self, t: Time) -> Option<GrantEvent> {
                self.core.poll(t)
            }

            /// The time of the next scheduled output change.
            pub fn next_deadline(&self) -> Option<Time> {
                self.core.pending.map(|(at, _, _)| at)
            }

            /// Number of input pulses filtered while deciding.
            pub fn filtered_pulses(&self) -> u64 {
                self.core.filtered
            }

            /// Number of contended (simultaneous) arbitrations.
            pub fn contentions(&self) -> u64 {
                self.core.contentions
            }
        }
    };
}

waitx_element!(
    /// WAITX: arbitrates which of two non-persistent inputs goes high
    /// first, isolating the controller both from input metastability and
    /// from the arbitration decision itself; the result is a clean
    /// dual-rail grant (§III). Used by the phase controller to
    /// distinguish UV from OV mode entry.
    WaitX, hold = false
);

waitx_element!(
    /// WAITX2: behaves as [`WaitX`] in the rising phase and as
    /// [`crate::Wait0`] in the falling phase — the grant is not released
    /// until the winning input goes low again.
    WaitX2, hold = true
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn first_input_wins() {
        let mut x = WaitX::new(ns(0.1));
        x.set_req(ns(1.0), true);
        x.set_sig(ns(2.0), 1, true);
        let ev = x.poll(ns(2.1)).unwrap();
        assert_eq!((ev.channel, ev.value), (1, true));
        assert!(x.grant(1));
        assert!(!x.grant(0));
        // The loser arriving later changes nothing.
        x.set_sig(ns(3.0), 0, true);
        assert_eq!(x.next_deadline(), None);
        assert!(!x.grant(0));
    }

    #[test]
    fn contention_resolved_to_exactly_one() {
        let mut x = WaitX::new(ns(0.1));
        x.set_sig(ns(0.5), 0, true);
        x.set_sig(ns(0.6), 1, true);
        x.set_req(ns(1.0), true);
        assert_eq!(x.contentions(), 1);
        let ev = x.poll(ns(5.0)).unwrap();
        assert!(ev.value);
        assert_eq!([x.grant(0), x.grant(1)].iter().filter(|g| **g).count(), 1);
    }

    #[test]
    fn release_on_req_low() {
        let mut x = WaitX::new(ns(0.1));
        x.set_req(ns(1.0), true);
        x.set_sig(ns(2.0), 0, true);
        x.poll(ns(2.1));
        x.set_req(ns(3.0), false);
        let ev = x.poll(ns(3.1)).unwrap();
        assert_eq!((ev.channel, ev.value), (0, false));
        assert_eq!(x.winner(), None);
    }

    #[test]
    fn retracted_pulse_lets_other_win() {
        let mut x = WaitX::new(ns(1.0));
        x.set_req(ns(0.0), true);
        x.set_sig(ns(1.0), 0, true); // decision due at 2.0
        x.set_sig(ns(1.5), 0, false); // retracted
        assert_eq!(x.filtered_pulses(), 1);
        x.set_sig(ns(2.0), 1, true);
        let ev = x.poll(ns(3.0)).unwrap();
        assert_eq!(ev.channel, 1);
    }

    #[test]
    fn waitx2_holds_grant_until_input_low() {
        let mut x = WaitX2::new(ns(0.1));
        x.set_req(ns(1.0), true);
        x.set_sig(ns(2.0), 0, true);
        x.poll(ns(2.1));
        assert!(x.grant(0));
        // Request drops but the input is still high: grant held.
        x.set_req(ns(3.0), false);
        assert_eq!(x.next_deadline(), None);
        assert!(x.grant(0));
        // Input drops: grant releases.
        x.set_sig(ns(4.0), 0, false);
        let ev = x.poll(ns(4.1)).unwrap();
        assert_eq!((ev.channel, ev.value), (0, false));
    }

    #[test]
    fn waitx2_input_low_first_then_req() {
        let mut x = WaitX2::new(ns(0.1));
        x.set_req(ns(1.0), true);
        x.set_sig(ns(2.0), 1, true);
        x.poll(ns(2.1));
        // Input drops first, then the request: releases on the request.
        x.set_sig(ns(3.0), 1, false);
        assert!(x.grant(1), "still requested");
        x.set_req(ns(4.0), false);
        let ev = x.poll(ns(4.1)).unwrap();
        assert!(!ev.value);
    }

    #[test]
    fn winner_reported_while_in_flight() {
        let mut x = WaitX::new(ns(1.0));
        x.set_req(ns(0.0), true);
        assert_eq!(x.winner(), None);
        x.set_sig(ns(1.0), 1, true);
        assert_eq!(x.winner(), Some(1), "winner chosen before the grant fires");
        assert!(!x.grant(1), "grant still in flight");
        x.poll(ns(2.5));
        assert!(x.grant(1));
    }

    #[test]
    fn metastable_contention_takes_longer() {
        let meta = MetaParams::with_seed(1.0, ns(5.0), 3);
        let mut x = WaitX::with_meta(ns(0.1), meta);
        x.set_sig(ns(0.1), 0, true);
        x.set_sig(ns(0.2), 1, true);
        x.set_req(ns(1.0), true);
        let deadline = x.next_deadline().unwrap();
        assert!(deadline > ns(1.1), "contention tail: {deadline}");
    }

    #[test]
    fn grant_after_release_can_rearm() {
        let mut x = WaitX::new(ns(0.1));
        x.set_req(ns(1.0), true);
        x.set_sig(ns(2.0), 0, true);
        x.poll(ns(2.1));
        x.set_req(ns(3.0), false);
        x.poll(ns(3.1));
        x.set_req(ns(4.0), true);
        // sig0 never dropped: wins again immediately.
        let ev = x.poll(ns(4.2)).unwrap();
        assert_eq!((ev.channel, ev.value), (0, true));
    }
}
