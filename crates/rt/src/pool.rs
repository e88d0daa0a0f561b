//! Deterministic, order-preserving parallel map for independent batch
//! work: the Figure 6/7 sweep cells and the ablation scenario batches.
//!
//! A [`Pool`] is only a thread count. [`Pool::par_map`] runs one call on
//! [`std::thread::scope`] threads that claim items from a shared cursor
//! and returns the results in input order, so the output is
//! `items.into_iter().map(f).collect()` for every thread count. With one
//! thread (or fewer than two items) it is exactly that sequential loop
//! on the caller. The formal engines (reachability, state graphs) are
//! sequential by design and never take a pool.

use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};

/// A thread count for [`Pool::par_map`]. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

/// Parses an `A4A_THREADS` value: a thread count, surrounding
/// whitespace allowed, `0` meaning 1. `None` when it is not a count.
fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// The thread count the environment asks for: `A4A_THREADS` when set to
/// a count (minimum 1), otherwise [`std::thread::available_parallelism`].
/// A value that is not a count is reported on stderr and ignored.
pub fn default_threads() -> usize {
    let available = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    let value = match std::env::var_os("A4A_THREADS") {
        Some(value) => value,
        None => return available(),
    };
    let value = value.to_string_lossy();
    parse_threads(&value).unwrap_or_else(|| {
        let n = available();
        eprintln!("warning: ignoring A4A_THREADS={value:?} (not a thread count); using {n}");
        n
    })
}

impl Pool {
    /// A pool that runs `threads` items at a time (at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The process-wide pool, sized by [`default_threads`] on first use,
    /// so `A4A_THREADS` controls every sweep and batch of the binary.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// The thread count this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Order-preserving parallel map: the deterministic replacement for
    /// `items.into_iter().map(f).collect()`. The caller and up to
    /// `threads - 1` scoped threads claim items one at a time, so
    /// irregular per-item loads balance; each result lands in the slot
    /// of its input index.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked on any item, after every thread finished.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let threads = self.threads.min(n);
        if threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        // `f` runs outside the lock, so a panicking item cannot poison it.
        let cursor = Mutex::new(items.into_iter().enumerate());
        let claim = || {
            let mut done = Vec::new();
            loop {
                let next = cursor.lock().expect("par_map cursor poisoned").next();
                let Some((i, item)) = next else { break done };
                done.push((i, f(item)));
            }
        };
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
            let mut parts = vec![claim()];
            for helper in helpers {
                parts.push(helper.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            for (i, r) in parts.into_iter().flatten() {
                out[i] = Some(r);
            }
        });
        out.into_iter()
            .map(|r| r.expect("par_map claims every index once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn parse_threads_accepts_counts_and_rejects_the_rest() {
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("0"), Some(1));
        assert_eq!(parse_threads(" 3 "), Some(3));
    }

    #[test]
    fn par_map_matches_map_small() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let par = pool.par_map(items, |x| x * x + 1);
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_single_thread_is_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        let ids = pool.par_map(vec![0u8; 8], move |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == tid));
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = Pool::new(2);
        let out: Vec<u32> = pool.par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
