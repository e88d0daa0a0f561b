//! Property-based tests: A2A elements keep their protocol promises
//! under arbitrary (monotone-timed) input sequences.

use a4a_a2a::{HandshakeMonitor, RWait, Wait, Wait2, WaitX};
use a4a_rt::prop::{self, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq};
use a4a_sim::Time;

/// A random interleaving of sig/req toggles at increasing times.
#[derive(Debug, Clone, Copy)]
enum Stimulus {
    Sig(bool),
    Req(bool),
    Cancel,
    Poll,
}

fn arb_stimuli(g: &mut Gen, len: usize) -> Vec<(u64, Stimulus)> {
    let steps = g.vec(1..len, |g| {
        let dt = g.u64(1..50);
        let s = match g.choice(4) {
            0 => Stimulus::Sig(g.bool()),
            1 => Stimulus::Req(g.bool()),
            2 => Stimulus::Cancel,
            _ => Stimulus::Poll,
        };
        (dt, s)
    });
    // Convert deltas to absolute, strictly increasing times.
    let mut t = 0u64;
    steps
        .into_iter()
        .map(|(dt, s)| {
            t += dt;
            (t, s)
        })
        .collect()
}

/// WAIT never acknowledges without an active request, and its output
/// sequence is always a legal 4-phase handshake against the request
/// stream it actually saw.
#[test]
fn wait_protocol_compliance() {
    prop::check("wait_protocol_compliance", |g: &mut Gen| -> PropResult {
        let stimuli = arb_stimuli(g, 60);
        let mut w = Wait::new(Time::from_ns(0.5));
        let mut monitor = HandshakeMonitor::new("wait");
        let mut req = false;
        let deliver = |mon: &mut HandshakeMonitor, ev: Option<a4a_a2a::AckEvent>| {
            if let Some(ev) = ev {
                mon.ack(ev.time, ev.value).expect("element acks legally");
            }
        };
        for (t_ns, s) in stimuli {
            let t = Time::from_fs(t_ns * 1_000_000);
            // Flush any due output first.
            if let Some(d) = w.next_deadline() {
                if d <= t {
                    deliver(&mut monitor, w.poll(d));
                }
            }
            match s {
                Stimulus::Sig(v) => {
                    deliver(&mut monitor, w.set_sig(t, v));
                }
                Stimulus::Req(v) => {
                    // Drive req only at protocol-legal instants (the
                    // controller side of a 4-phase handshake).
                    let legal = if v {
                        !monitor.req_level() && !monitor.ack_level()
                    } else {
                        monitor.req_level() && monitor.ack_level()
                    };
                    if v != req && legal {
                        req = v;
                        monitor.req(t, v).expect("gated to be legal");
                        deliver(&mut monitor, w.set_req(t, v));
                    }
                }
                Stimulus::Cancel => {}
                Stimulus::Poll => {
                    deliver(&mut monitor, w.poll(t));
                }
            }
            // Invariant: ack implies the request phase it belongs to.
            if w.ack() {
                prop_assert!(monitor.ack_level());
            }
        }
        Ok(())
    });
}

/// RWAIT after a cancel stays silent until re-armed.
#[test]
fn rwait_cancel_is_persistent() {
    prop::check("rwait_cancel_is_persistent", |g: &mut Gen| -> PropResult {
        let pulses = g.vec(1..20, |g| g.u64(1..20));
        let mut w = RWait::new(Time::from_ns(0.5));
        w.set_req(Time::from_ns(1.0), true);
        w.cancel(Time::from_ns(2.0));
        let mut t = Time::from_ns(3.0);
        for dt in pulses {
            t += Time::from_ns(dt as f64);
            w.set_sig(t, true);
            prop_assert_eq!(w.next_deadline(), None, "cancelled wait must not latch");
            t += Time::from_ns(0.1);
            w.set_sig(t, false);
        }
        prop_assert!(!w.ack());
        Ok(())
    });
}

/// WAITX grants are always mutually exclusive and only under an
/// active request.
#[test]
fn waitx_mutual_exclusion() {
    prop::check("waitx_mutual_exclusion", |g: &mut Gen| -> PropResult {
        let stimuli = arb_stimuli(g, 80);
        let channel_bits = g.any_u64();
        let mut x = WaitX::new(Time::from_ns(0.4));
        let mut req = false;
        for (i, (t_ns, s)) in stimuli.into_iter().enumerate() {
            let t = Time::from_fs(t_ns * 1_000_000);
            if let Some(d) = x.next_deadline() {
                if d <= t {
                    x.poll(d);
                }
            }
            match s {
                Stimulus::Sig(v) => {
                    let ch = ((channel_bits >> (i % 64)) & 1) as usize;
                    x.set_sig(t, ch, v);
                }
                Stimulus::Req(v) => {
                    if v != req {
                        req = v;
                        x.set_req(t, v);
                    }
                }
                _ => {
                    x.poll(t);
                }
            }
            prop_assert!(!(x.grant(0) && x.grant(1)), "both grants high");
            if !req && x.winner().is_none() {
                // Fully released: eventually both grants drop.
                if let Some(d) = x.next_deadline() {
                    x.poll(d);
                }
            }
        }
        Ok(())
    });
}

/// WAIT2 acknowledges at most once per request phase, and the ack
/// only falls after the input has been seen low.
#[test]
fn wait2_full_cycle_discipline() {
    prop::check("wait2_full_cycle_discipline", |g: &mut Gen| -> PropResult {
        let cycles = g.usize(1..10);
        let gap = g.u64(1..10);
        let mut w = Wait2::new(Time::from_ns(0.3));
        let mut t = Time::ZERO;
        let step = |t: &mut Time, d: f64| {
            *t += Time::from_ns(d);
            *t
        };
        for _ in 0..cycles {
            w.set_req(step(&mut t, gap as f64), true);
            prop_assert!(!w.ack());
            w.set_sig(step(&mut t, 1.0), true);
            let ev = w.poll(step(&mut t, 1.0)).expect("latched high");
            prop_assert!(ev.value);
            // Request release alone is not enough.
            w.set_req(step(&mut t, 1.0), false);
            prop_assert_eq!(w.next_deadline(), None);
            prop_assert!(w.ack());
            w.set_sig(step(&mut t, 1.0), false);
            let ev = w.poll(step(&mut t, 1.0)).expect("released low");
            prop_assert!(!ev.value);
        }
        Ok(())
    });
}
