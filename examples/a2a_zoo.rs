//! A guided tour of the A2A interface elements (§III): each element is
//! driven with the same awkward, non-persistent input — a runt pulse, a
//! chattering burst, then a solid assertion — and its handshake
//! behaviour is printed. The point of the zoo: no matter how dirty the
//! analog side is, the asynchronous side only ever sees clean
//! handshakes.
//!
//! Run with `cargo run --release --example a2a_zoo`.

use a4a_a2a::{RWait, Wait, Wait01, Wait2, WaitX};
use a4a_sim::Time;

fn ns(x: f64) -> Time {
    Time::from_ns(x)
}

fn main() {
    println!("== WAIT: latch a high level ==");
    let mut w = Wait::new(ns(0.31));
    w.set_req(ns(0.0), true);
    w.set_sig(ns(1.0), true); // runt pulse...
    w.set_sig(ns(1.1), false); // ...retracted before the latch decides
    w.set_sig(ns(5.0), true); // solid assertion
    let ev = w.poll(ns(6.0)).expect("latched");
    println!("  runt pulses filtered: {}", w.filtered_pulses());
    println!(
        "  ack at {} (input retractions after this are contained)",
        ev.time
    );
    w.set_sig(ns(7.0), false);
    println!("  ack still high after sig dropped: {}", w.ack());

    println!("\n== WAIT2: one handshake = one full input cycle ==");
    let mut w2 = Wait2::new(ns(0.31));
    w2.set_req(ns(0.0), true);
    w2.set_sig(ns(1.0), true);
    println!("  ack+ at {}", w2.poll(ns(2.0)).expect("high seen").time);
    w2.set_req(ns(3.0), false);
    println!(
        "  req released, ack holds until the input falls: {}",
        w2.ack()
    );
    w2.set_sig(ns(4.0), false);
    println!("  ack- at {}", w2.poll(ns(5.0)).expect("low seen").time);

    println!("\n== RWAIT: cancellable wait (the ZC timeout) ==");
    let mut rw = RWait::new(ns(0.31));
    rw.set_req(ns(0.0), true);
    rw.cancel(ns(10.0)); // timeout fired: stop waiting
    rw.set_sig(ns(20.0), true);
    println!(
        "  input rose after the cancel; ack stays {} (released handshake)",
        rw.ack()
    );

    println!("\n== WAIT01: a *rising edge*, not a high level ==");
    let mut w01 = Wait01::new(ns(0.31));
    w01.set_sig(ns(0.0), true); // already high before arming
    w01.set_req(ns(1.0), true);
    println!("  armed while input high; no ack yet: {}", !w01.ack());
    w01.set_sig(ns(2.0), false);
    w01.set_sig(ns(3.0), true); // a genuine edge
    println!(
        "  ack after the real edge at {}",
        w01.poll(ns(4.0)).expect("edge").time
    );

    println!("\n== WAITX: arbitrate two non-persistent inputs ==");
    let mut wx = WaitX::new(ns(0.36));
    wx.set_req(ns(0.0), true);
    wx.set_sig(ns(1.0), 1, true);
    wx.set_sig(ns(1.05), 0, true); // close second
    let g = wx.poll(ns(2.0)).expect("grant");
    println!("  grant to channel {} (the first to arrive)", g.channel);
    println!(
        "  dual-rail: g0={} g1={} — exactly one high",
        wx.grant(0),
        wx.grant(1)
    );
}
