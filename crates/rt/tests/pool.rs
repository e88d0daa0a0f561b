//! Property and stress tests for `Pool::par_map` — the substrate the
//! Figure 6/7 sweeps and the ablation batches stand on.
//!
//! The contracts exercised here:
//! * `par_map` equals `Iterator::map` for every pool size and input
//!   length — order preserved, no items lost or duplicated;
//! * a panicking item surfaces at the `par_map` call site and the pool
//!   stays usable afterwards;
//! * nested `par_map` calls on the same pool are correct;
//! * building and using pools many times never hangs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use a4a_rt::prop::check_with;
use a4a_rt::{Config, Pool};

#[test]
fn par_map_equals_map_for_random_inputs() {
    check_with(&Config::with_cases(64), "par_map_equals_map", |g| {
        let threads = g.usize(1..9);
        let len = g.usize(0..257);
        let pool = Pool::new(threads);
        let items: Vec<u64> = (0..len as u64)
            .map(|i| i.wrapping_mul(g.any_u64()))
            .collect();
        let expected: Vec<u64> = items
            .iter()
            .map(|x| x.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        let got = pool.par_map(items, |x| x.wrapping_mul(2654435761).rotate_left(7));
        if got != expected {
            return Err(a4a_rt::PropError::Fail(format!(
                "threads={threads} len={len}: par_map differs from map"
            )));
        }
        Ok(())
    });
}

#[test]
fn par_map_panic_propagates_and_pool_survives() {
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map((0..64u32).collect::<Vec<_>>(), |x| {
                if x == 37 {
                    panic!("boom on {x}");
                }
                x
            })
        }));
        assert!(result.is_err(), "t{threads}: panic must reach the caller");
        // The next map on the same pool still works and is still ordered.
        let ok = pool.par_map((0..64u32).collect::<Vec<_>>(), |x| x + 1);
        assert_eq!(ok, (1..65).collect::<Vec<u32>>(), "t{threads}: reuse");
    }
}

#[test]
fn nested_par_map_is_correct() {
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        let got = pool.par_map((0..16u64).collect::<Vec<_>>(), |i| {
            // Each outer item runs an inner map on the same pool.
            pool.par_map((0..8u64).collect::<Vec<_>>(), |j| i * 100 + j)
                .iter()
                .sum::<u64>()
        });
        let want: Vec<u64> = (0..16u64)
            .map(|i| (0..8u64).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(got, want, "t{threads}");
    }
}

#[test]
fn results_are_identical_across_pool_sizes() {
    // The determinism contract in one line: the same input and closure
    // give byte-identical output on every pool size.
    let items: Vec<u64> = (0..500).collect();
    let baseline = Pool::new(1).par_map(items.clone(), |x| x.wrapping_mul(x) ^ 0xA4A);
    for threads in [2, 3, 8] {
        let got = Pool::new(threads).par_map(items.clone(), |x| x.wrapping_mul(x) ^ 0xA4A);
        assert_eq!(got, baseline, "t{threads}");
    }
}

#[test]
fn building_and_using_many_pools_never_hangs() {
    // Pool set-up and tear-down must never hang (a lost shutdown wakeup
    // is the classic way); the timeout turns a hang into a failure.
    let (done, finished) = mpsc::channel();
    // Not scoped: a hung loop must not block the test thread, which
    // joins only after the loop reported success.
    let stress = std::thread::spawn(move || {
        for round in 0..1_000u64 {
            let pool = Pool::new(4);
            let got = pool.par_map((0..8u64).collect::<Vec<_>>(), |x| x + round);
            assert_eq!(got, (round..round + 8).collect::<Vec<_>>(), "round {round}");
        }
        done.send(()).expect("test thread waits for the result");
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("1 000 pools built and used, without a panic or a hang");
    stress.join().expect("stress loop finished cleanly");
}
