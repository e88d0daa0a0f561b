//! A zero-sized stand-in for the removed thread pool.
//!
//! Every Figure 6/7 sweep and ablation batch runs as a plain iterator
//! map on the caller's thread. [`Pool`] stays only because the
//! standalone `perfbench/` package still calls [`Pool::global`],
//! [`Pool::threads`] and the `fig7*_on` sweeps that take a `&Pool`;
//! it goes with that package's next change (ROADMAP, benchmark upkeep).

/// Zero-sized and unused: there is no thread pool. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool;

impl Pool {
    /// The one [`Pool`] value.
    pub fn global() -> &'static Pool {
        &Pool
    }

    /// Always 1: every sweep runs on the caller's thread.
    pub fn threads(&self) -> usize {
        1
    }
}
