use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::{SimError, Time};

/// Opaque handle to a scheduled event, used to cancel it.
///
/// Cancellation is how inertial delays are modelled: a pending output change
/// that is revoked before its delay elapses is a filtered glitch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

/// A deterministic discrete-event queue.
///
/// Events are delivered in timestamp order; events with equal timestamps are
/// delivered in the order they were scheduled (FIFO). This makes every
/// simulation built on the scheduler reproducible run-to-run.
///
/// # Examples
///
/// ```
/// use a4a_sim::{Scheduler, Time};
///
/// let mut sched = Scheduler::new();
/// let key = sched.schedule(Time::from_ns(2.0), 'b');
/// sched.schedule(Time::from_ns(2.0), 'c');
/// sched.schedule(Time::from_ns(1.0), 'a');
/// sched.cancel(key);
/// let order: Vec<char> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
    /// Sequence numbers scheduled but neither delivered nor cancelled.
    /// Membership here is what makes [`Scheduler::cancel`] reject stale
    /// keys in O(1), and `pending.len()` is the exact pending count —
    /// the heap may still hold cancelled entries awaiting lazy removal.
    pending: HashSet<u64>,
    /// Cancelled-but-not-yet-popped sequence numbers. Always a subset of
    /// the heap's entries, so it cannot grow unboundedly.
    cancelled: HashSet<u64>,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler positioned at [`Time::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            pending: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }

    /// The timestamp of the most recently popped event (simulation "now").
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` for delivery at absolute time `time`.
    ///
    /// Returns a key that can later be passed to [`Scheduler::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time — an
    /// event in the past indicates a model bug.
    pub fn schedule(&mut self, time: Time, event: E) -> EventKey {
        match self.try_schedule(time, event) {
            Ok(key) => key,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Scheduler::schedule`]: an event in the past is
    /// reported as [`SimError::PastEvent`] and the queue is left
    /// untouched.
    pub fn try_schedule(&mut self, time: Time, event: E) -> Result<EventKey, SimError> {
        if time < self.now {
            return Err(SimError::PastEvent {
                time,
                now: self.now,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.heap.push(Entry { time, seq, event });
        Ok(EventKey(seq))
    }

    /// Schedules `event` at `delay` after the current simulation time.
    /// The sum saturates at [`Time::MAX`], keeping the "never" sentinel
    /// valid; use [`Scheduler::try_schedule_after`] to detect overflow.
    pub fn schedule_after(&mut self, delay: Time, event: E) -> EventKey {
        let time = self.now.saturating_add(delay);
        self.schedule(time, event)
    }

    /// Fallible [`Scheduler::schedule_after`]: reports
    /// [`SimError::TimeOverflow`] when `now + delay` leaves the
    /// representable range instead of saturating.
    pub fn try_schedule_after(&mut self, delay: Time, event: E) -> Result<EventKey, SimError> {
        let time = self.now.checked_add(delay).ok_or(SimError::TimeOverflow {
            op: "schedule_after",
        })?;
        self.try_schedule(time, event)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it was
    /// already delivered or already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if self.pending.remove(&key.0) {
            self.cancelled.insert(key.0);
            true
        } else {
            false
        }
    }

    /// Fallible [`Scheduler::cancel`]: misuse of a key whose event was
    /// already delivered or cancelled is reported as
    /// [`SimError::StaleKey`].
    pub fn try_cancel(&mut self, key: EventKey) -> Result<(), SimError> {
        if self.cancel(key) {
            Ok(())
        } else {
            Err(SimError::StaleKey)
        }
    }

    /// Removes and returns the earliest pending event, advancing `now`.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.pending.remove(&entry.seq);
            self.now = entry.time;
            return Some((entry.time, entry.event));
        }
        None
    }

    /// The timestamp of the earliest pending (non-cancelled) event,
    /// without mutating the queue. Linear scan — intended for the small
    /// queues of behavioural models; prefer [`Scheduler::peek_time`] in
    /// tight loops that can take `&mut self`.
    pub fn next_time(&self) -> Option<Time> {
        self.heap
            .iter()
            .filter(|e| !self.cancelled.contains(&e.seq))
            .map(|e| e.time)
            .min()
    }

    /// The timestamp of the earliest pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(Time::from_ns(3.0), 3);
        s.schedule(Time::from_ns(1.0), 1);
        s.schedule(Time::from_ns(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut s = Scheduler::new();
        let t = Time::from_ns(1.0);
        for i in 0..10 {
            s.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut s = Scheduler::new();
        let k = s.schedule(Time::from_ns(1.0), "dropped");
        s.schedule(Time::from_ns(2.0), "kept");
        assert!(s.cancel(k));
        assert!(!s.cancel(k), "double cancel reports false");
        assert_eq!(s.pop(), Some((Time::from_ns(2.0), "kept")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn now_advances_with_pop() {
        let mut s = Scheduler::new();
        s.schedule(Time::from_ns(4.0), ());
        assert_eq!(s.now(), Time::ZERO);
        s.pop();
        assert_eq!(s.now(), Time::from_ns(4.0));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut s = Scheduler::new();
        s.schedule(Time::from_ns(1.0), "first");
        s.pop();
        s.schedule_after(Time::from_ns(2.0), "second");
        assert_eq!(s.pop(), Some((Time::from_ns(3.0), "second")));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule(Time::from_ns(2.0), ());
        s.pop();
        s.schedule(Time::from_ns(1.0), ());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut s = Scheduler::new();
        let k = s.schedule(Time::from_ns(1.0), 1);
        s.schedule(Time::from_ns(2.0), 2);
        s.cancel(k);
        assert_eq!(s.peek_time(), Some(Time::from_ns(2.0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn next_time_is_immutable_and_skips_cancelled() {
        let mut s = Scheduler::new();
        let k = s.schedule(Time::from_ns(1.0), 1);
        s.schedule(Time::from_ns(2.0), 2);
        s.cancel(k);
        assert_eq!(s.next_time(), Some(Time::from_ns(2.0)));
        assert_eq!(s.len(), 1, "no mutation");
        s.pop();
        assert_eq!(s.next_time(), None);
    }

    #[test]
    fn cancel_after_pop_is_rejected_and_len_cannot_underflow() {
        // Regression: cancelling an already-delivered key used to insert
        // it into the cancelled set anyway, so `len()` — then computed as
        // `heap.len() - cancelled.len()` — underflowed and panicked.
        let mut s = Scheduler::new();
        let k = s.schedule(Time::from_ns(1.0), "delivered");
        assert_eq!(s.pop(), Some((Time::from_ns(1.0), "delivered")));
        assert!(!s.cancel(k), "delivered key must not cancel");
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        // The queue keeps working after the misuse.
        s.schedule(Time::from_ns(2.0), "next");
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((Time::from_ns(2.0), "next")));
    }

    #[test]
    fn try_cancel_reports_stale_keys() {
        let mut s = Scheduler::new();
        let k = s.schedule(Time::from_ns(1.0), ());
        assert_eq!(s.try_cancel(k), Ok(()));
        assert_eq!(s.try_cancel(k), Err(SimError::StaleKey));
        let k2 = s.schedule(Time::from_ns(2.0), ());
        s.pop();
        assert_eq!(s.try_cancel(k2), Err(SimError::StaleKey));
    }

    #[test]
    fn try_schedule_rejects_past_events_without_mutating() {
        let mut s = Scheduler::new();
        s.schedule(Time::from_ns(2.0), 1);
        s.pop();
        let err = s.try_schedule(Time::from_ns(1.0), 2).unwrap_err();
        assert!(matches!(err, SimError::PastEvent { .. }));
        assert!(s.is_empty(), "failed schedule must not enqueue");
        // Present-time events are fine.
        assert!(s.try_schedule(Time::from_ns(2.0), 3).is_ok());
    }

    #[test]
    fn try_schedule_after_reports_overflow() {
        let mut s = Scheduler::new();
        s.schedule(Time::MAX - Time::from_fs(1), ());
        s.pop();
        let err = s.try_schedule_after(Time::from_ns(1.0), ()).unwrap_err();
        assert_eq!(
            err,
            SimError::TimeOverflow {
                op: "schedule_after"
            }
        );
        // The saturating wrapper still lands on the MAX sentinel.
        let k = s.schedule_after(Time::from_ns(1.0), ());
        assert_eq!(s.next_time(), Some(Time::MAX));
        assert!(s.cancel(k));
    }

    #[test]
    fn foreign_keys_are_rejected() {
        let mut a = Scheduler::new();
        a.schedule(Time::from_ns(1.0), ());
        let mut b: Scheduler<()> = Scheduler::new();
        // A key minted by `a` names a sequence number `b` never issued.
        let k = a.schedule(Time::from_ns(2.0), ());
        assert!(!b.cancel(k));
        assert!(b.is_empty());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut s = Scheduler::new();
        let k1 = s.schedule(Time::from_ns(1.0), ());
        s.schedule(Time::from_ns(2.0), ());
        assert_eq!(s.len(), 2);
        s.cancel(k1);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
