//! Property-based tests for the simulation substrate.

use a4a_rt::prop::{self, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq};
use a4a_sim::{EventKey, Logic, Scheduler, SimError, Time};

/// Events pop in non-decreasing time order regardless of insertion
/// order, with FIFO tie-breaking.
#[test]
fn scheduler_orders_any_sequence() {
    prop::check("scheduler_orders_any_sequence", |g: &mut Gen| -> PropResult {
        let times = g.vec(1..200, |g| g.u64(0..1_000_000));
        let mut sched = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            sched.schedule(Time::from_fs(t), i);
        }
        let mut last_time = Time::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut count = 0;
        while let Some((t, idx)) = sched.pop() {
            prop_assert!(t >= last_time, "time went backwards");
            if t != last_time {
                seen_at_time.clear();
            }
            // FIFO among equal times: indices increase.
            if let Some(&prev) = seen_at_time.last() {
                if times[prev] == times[idx] {
                    prop_assert!(idx > prev, "FIFO violated");
                }
            }
            seen_at_time.push(idx);
            last_time = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
        Ok(())
    });
}

/// Cancelling an arbitrary subset removes exactly those events.
#[test]
fn scheduler_cancellation() {
    prop::check("scheduler_cancellation", |g: &mut Gen| -> PropResult {
        let times = g.vec(1..100, |g| g.u64(0..1000));
        let cancel_mask = g.vec(1..100, |g| g.bool());
        let mut sched = Scheduler::new();
        let keys: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| sched.schedule(Time::from_fs(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let cancel = cancel_mask.get(i).copied().unwrap_or(false);
            if cancel {
                prop_assert!(sched.cancel(*key));
            } else {
                expected.push(i);
            }
        }
        let mut delivered: Vec<usize> = Vec::new();
        while let Some((_, idx)) = sched.pop() {
            delivered.push(idx);
        }
        delivered.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(delivered, expected);
        Ok(())
    });
}

/// The scheduler contract under arbitrary interleavings of schedule,
/// cancel (including deliberately stale keys), and pop, checked against
/// a naive reference model: `len()` is exact, delivery respects
/// (time, insertion) order, cancel returns `true` exactly when the
/// reference still holds the event, and a delivered key can never be
/// cancelled.
#[test]
fn scheduler_model_interleaved_churn() {
    prop::check("scheduler_model_interleaved_churn", |g: &mut Gen| -> PropResult {
        let ops = g.usize(1..120);
        let mut sched: Scheduler<u64> = Scheduler::new();
        // Reference model: (time, seq) of still-pending events, plus the
        // full key history with each key's reference state.
        let mut pending: Vec<(Time, u64)> = Vec::new();
        let mut keys: Vec<(EventKey, u64, bool)> = Vec::new(); // (key, seq, alive)
        let mut next_seq = 0u64;
        let mut last_popped = Time::ZERO;
        for _ in 0..ops {
            match g.choice(4) {
                0 | 1 => {
                    // Schedule at or after `now` (past events are a
                    // separate property below).
                    let t = sched.now().saturating_add(Time::from_fs(g.u64(0..10_000)));
                    let key = sched.schedule(t, next_seq);
                    pending.push((t, next_seq));
                    keys.push((key, next_seq, true));
                    next_seq += 1;
                }
                2 => {
                    if keys.is_empty() {
                        continue;
                    }
                    let pick = g.usize(0..keys.len());
                    let (key, seq, _) = keys[pick];
                    let alive = pending.iter().any(|&(_, s)| s == seq);
                    prop_assert_eq!(
                        sched.cancel(key),
                        alive,
                        "cancel must mirror the reference model"
                    );
                    pending.retain(|&(_, s)| s != seq);
                    keys[pick].2 = false;
                }
                _ => {
                    // The reference's earliest event: min time, then
                    // min seq (insertion order).
                    let expect = pending
                        .iter()
                        .copied()
                        .min_by_key(|&(t, s)| (t, s));
                    prop_assert_eq!(sched.peek_time(), expect.map(|(t, _)| t));
                    let got = sched.pop();
                    prop_assert_eq!(got, expect);
                    if let Some((t, s)) = expect {
                        prop_assert!(t >= last_popped, "time went backwards");
                        last_popped = t;
                        pending.retain(|&(_, q)| q != s);
                    }
                }
            }
            prop_assert_eq!(sched.len(), pending.len(), "len out of sync");
            prop_assert_eq!(sched.is_empty(), pending.is_empty());
        }
        Ok(())
    });
}

/// `peek_time` (mutating, lazy-pruning) and `next_time` (immutable,
/// scanning) agree after any cancellation pattern, and both agree with
/// what `pop` then delivers.
#[test]
fn scheduler_peek_next_pop_agree() {
    prop::check("scheduler_peek_next_pop_agree", |g: &mut Gen| -> PropResult {
        let times = g.vec(1..60, |g| g.u64(0..500));
        let cancel_mask = g.vec(1..60, |g| g.bool());
        let mut sched = Scheduler::new();
        let keys: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| sched.schedule(Time::from_fs(t), i))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                sched.cancel(*key);
            }
        }
        loop {
            let next = sched.next_time();
            let peek = sched.peek_time();
            prop_assert_eq!(next, peek, "next_time and peek_time disagree");
            match sched.pop() {
                Some((t, _)) => prop_assert_eq!(Some(t), next),
                None => {
                    prop_assert_eq!(next, None);
                    break;
                }
            }
        }
        prop_assert_eq!(sched.len(), 0);
        Ok(())
    });
}

/// Once a key's event has been delivered, every cancellation attempt —
/// first or repeated — is rejected, and `len()` stays exact (the
/// pre-fix scheduler underflowed here).
#[test]
fn scheduler_cancel_after_pop_always_rejected() {
    prop::check(
        "scheduler_cancel_after_pop_always_rejected",
        |g: &mut Gen| -> PropResult {
            let times = g.vec(1..40, |g| g.u64(0..100));
            let mut sched = Scheduler::new();
            let keys: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| sched.schedule(Time::from_fs(t), i))
                .collect();
            let deliver = g.usize(0..times.len() + 1);
            let mut delivered: Vec<usize> = Vec::new();
            for _ in 0..deliver {
                if let Some((_, i)) = sched.pop() {
                    delivered.push(i);
                }
            }
            let before = sched.len();
            prop_assert_eq!(before, times.len() - delivered.len());
            for &i in &delivered {
                prop_assert!(!sched.cancel(keys[i]), "delivered key cancelled");
                prop_assert_eq!(sched.try_cancel(keys[i]), Err(SimError::StaleKey));
                // Double cancel of a live key flips exactly once.
            }
            prop_assert_eq!(sched.len(), before, "stale cancels changed len");
            // Remaining events still drain in order.
            let mut last = sched.now();
            while let Some((t, _)) = sched.pop() {
                prop_assert!(t >= last);
                last = t;
            }
            Ok(())
        },
    );
}

/// Time arithmetic round-trips for any femtosecond pair.
#[test]
fn time_add_sub_roundtrip() {
    prop::check("time_add_sub_roundtrip", |g: &mut Gen| -> PropResult {
        let a = g.u64(0..u64::MAX / 4);
        let b = g.u64(0..u64::MAX / 4);
        let ta = Time::from_fs(a);
        let tb = Time::from_fs(b);
        prop_assert_eq!(ta + tb - tb, ta);
        prop_assert_eq!((ta + tb).saturating_sub(ta), tb);
        prop_assert!(ta.saturating_sub(ta + tb) == Time::ZERO);
        Ok(())
    });
}

/// Three-valued logic refines Boolean logic: on known values the
/// operators agree with bool.
#[test]
fn logic_refines_bool() {
    prop::check("logic_refines_bool", |g: &mut Gen| -> PropResult {
        let a = g.bool();
        let b = g.bool();
        let la = Logic::from(a);
        let lb = Logic::from(b);
        prop_assert_eq!(la.and(lb), Logic::from(a && b));
        prop_assert_eq!(la.or(lb), Logic::from(a || b));
        prop_assert_eq!(!la, Logic::from(!a));
        Ok(())
    });
}

/// X is absorbing except against controlling values.
#[test]
fn logic_x_pessimism() {
    prop::check("logic_x_pessimism", |g: &mut Gen| -> PropResult {
        let a = g.bool();
        let la = Logic::from(a);
        prop_assert_eq!(Logic::X.and(la), if a { Logic::X } else { Logic::Zero });
        prop_assert_eq!(Logic::X.or(la), if a { Logic::One } else { Logic::X });
        Ok(())
    });
}
