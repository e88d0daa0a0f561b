//! Seeded scenario batches for the ablation studies, parallel-safe by
//! construction.
//!
//! Every batch derives one independent RNG seed per scenario from a
//! single *root seed* via a SplitMix64 split ([`scenario_seeds`]), so a
//! scenario's result is a pure function of (root seed, scenario index) —
//! never of which worker ran it or in what order. Batches run through
//! [`Pool::par_map`], which preserves input order, so the returned
//! vectors are bit-identical for every thread count. The
//! `tests/determinism.rs` suite locks this down across pools of 1/2/8
//! and across processes.

use a4a_a2a::{MetaParams, Wait};
use a4a_ctrl::{Loopback, SyncController, SyncParams};
use a4a_rt::rng::splitmix64;
use a4a_rt::Pool;
use a4a_sim::Time;

/// The default root seed of the ablation batches.
pub const DEFAULT_ROOT_SEED: u64 = 0xA4A_5EED;

/// The root seed for this process: `A4A_PROP_SEED` (hex, `0x` prefix
/// optional — the same variable the property harness prints on
/// failure) when set, otherwise [`DEFAULT_ROOT_SEED`].
pub fn root_seed() -> u64 {
    match std::env::var("A4A_PROP_SEED") {
        Ok(v) => {
            let v = v.trim().trim_start_matches("0x");
            u64::from_str_radix(v, 16)
                .unwrap_or_else(|_| panic!("A4A_PROP_SEED={v:?} is not a hex u64"))
        }
        Err(_) => DEFAULT_ROOT_SEED,
    }
}

/// Splits `root` into `n` independent scenario seeds (SplitMix64
/// stream — the seed-derivation construction the xoshiro authors
/// recommend, and the one [`a4a_rt::Rng::from_seed`] expands).
pub fn scenario_seeds(root: u64, n: usize) -> Vec<u64> {
    let mut state = root;
    (0..n).map(|_| splitmix64(&mut state)).collect()
}

/// Measures the UV reaction latency (ns) of a synchronous controller at
/// `mhz` whose input synchroniser resolves metastable captures with
/// probability `p` and time constant `tau`; one scenario, one seed.
///
/// This is the paper's footnote-1 effect: a marginal capture can cost
/// another clock period.
pub fn sync_uv_latency(mhz: f64, p: f64, tau: Time, seed: u64) -> f64 {
    use a4a_analog::SensorKind;
    let meta = if p == 0.0 {
        MetaParams::disabled()
    } else {
        MetaParams::with_seed(p, tau, seed)
    };
    let params = SyncParams::at_mhz(mhz).with_meta(meta);
    let horizon = params.period() * 60;
    let mut lb = Loopback::new(SyncController::new(1, params));
    // Phase 0 starts armed. Raise UV just after an edge; the loopback
    // delivers every edge up to it first, so the first edge to sample it
    // comes after it.
    let t0 = Time::from_ns(30.2);
    lb.sensor(t0, SensorKind::Uv, true);
    lb.run_until(t0 + horizon);
    lb.gates()
        .into_iter()
        .find(|&(_, _, pmos, value)| pmos && value)
        .map_or(f64::NAN, |(t, ..)| t.as_ns() - t0.as_ns())
}

/// The synchroniser-metastability batch: `n` independent UV-latency
/// scenarios at 333 MHz, seeds split from `root`, run on `pool`.
/// Returns the per-scenario latencies in scenario order.
pub fn sync_metastability_batch(pool: &Pool, p: f64, root: u64, n: usize) -> Vec<f64> {
    let tau = Time::from_ns(1.0);
    pool.par_map(scenario_seeds(root, n), move |seed| {
        sync_uv_latency(333.0, p, tau, seed)
    })
}

/// One WAIT-element latch scenario: a fresh element with resolution
/// parameters (`p`, `tau`) and its own seed latches a marginal input;
/// returns the latch latency in ns.
pub fn wait_latch_latency(p: f64, tau: Time, seed: u64) -> f64 {
    let meta = if p == 0.0 {
        MetaParams::disabled()
    } else {
        MetaParams::with_seed(p, tau, seed)
    };
    let mut wait = Wait::with_meta(Time::from_ns(0.31), meta);
    let t = Time::from_ns(100.0);
    wait.set_req(t, true);
    wait.set_sig(t + Time::from_ns(1.0), true);
    let deadline = wait.next_deadline().expect("latched");
    (deadline - (t + Time::from_ns(1.0))).as_ns()
}

/// The metastability-tail batch: `n` independent WAIT latch scenarios
/// with seeds split from `root`, run on `pool`. Returns per-scenario
/// latch latencies in scenario order.
pub fn wait_metastability_batch(
    pool: &Pool,
    p: f64,
    tau: Time,
    root: u64,
    n: usize,
) -> Vec<f64> {
    pool.par_map(scenario_seeds(root, n), move |seed| {
        wait_latch_latency(p, tau, seed)
    })
}

/// Mean and worst of a latency batch (NaN-free inputs assumed).
pub fn batch_stats(latencies: &[f64]) -> (f64, f64) {
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let worst = latencies.iter().cloned().fold(f64::MIN, f64::max);
    (mean, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_independent_of_count() {
        // Prefixes agree: asking for more scenarios never re-seeds the
        // earlier ones.
        let a = scenario_seeds(1, 8);
        let b = scenario_seeds(1, 16);
        assert_eq!(a[..], b[..8]);
        assert_ne!(scenario_seeds(1, 4), scenario_seeds(2, 4));
    }

    #[test]
    fn disabled_metastability_is_deterministic_nominal() {
        // p=0 scenarios ignore the seed entirely: every latency equals
        // the nominal 2.5-period reaction.
        let pool = Pool::new(1);
        let lat = sync_metastability_batch(&pool, 0.0, 42, 8);
        assert!(lat.iter().all(|&l| (l - lat[0]).abs() < 1e-9), "{lat:?}");
    }

    #[test]
    fn clean_uv_latency_is_sampled_and_synchronised() {
        // UV rises just after an edge: the next edge captures it, the
        // second makes it visible to the FSM, and the command registers
        // half a period later, so the latency lies in (2, 2.5] periods.
        for mhz in [100.0, 333.0, 1000.0] {
            let period = 1e3 / mhz;
            let periods = sync_uv_latency(mhz, 0.0, Time::from_ns(1.0), 0) / period;
            assert!(
                periods > 2.0 && periods <= 2.5,
                "{mhz} MHz: {periods} periods"
            );
        }
    }

    #[test]
    fn batch_is_identical_across_pools() {
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        let a = sync_metastability_batch(&p1, 0.8, 7, 12);
        let b = sync_metastability_batch(&p4, 0.8, 7, 12);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        let a = wait_metastability_batch(&p1, 0.9, Time::from_ns(5.0), 7, 12);
        let b = wait_metastability_batch(&p4, 0.9, Time::from_ns(5.0), 7, 12);
        assert_eq!(bits(&a), bits(&b));
    }
}
