//! Seeded scenario batches for the ablation studies.
//!
//! Every batch derives one independent RNG seed per scenario from a
//! single *root seed* via a SplitMix64 split ([`scenario_seeds`]), so a
//! scenario's result is a pure function of (root seed, scenario index).
//! The `tests/determinism.rs` suite checks that a batch depends on its
//! root seed and on nothing else.

use a4a_a2a::{MetaParams, Wait};
use a4a_ctrl::{Loopback, SyncController, SyncParams};
use a4a_rt::prop::parse_seed;
use a4a_rt::rng::splitmix64;
use a4a_sim::Time;

/// The default root seed of the ablation batches.
pub const DEFAULT_ROOT_SEED: u64 = 0xA4A_5EED;

/// The root seed for this process: `A4A_PROP_SEED` (hex, `0x` prefix
/// optional — the same variable the property harness prints on
/// failure) when set, otherwise [`DEFAULT_ROOT_SEED`].
///
/// # Errors
///
/// Names the value when `A4A_PROP_SEED` is set but not a hex `u64`.
pub fn root_seed() -> Result<u64, String> {
    match std::env::var("A4A_PROP_SEED") {
        Ok(v) => parse_seed(&v),
        Err(_) => Ok(DEFAULT_ROOT_SEED),
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
/// scenarios at 333 MHz, seeds split from `root`.
/// Returns the per-scenario latencies in scenario order.
pub fn sync_metastability_batch(p: f64, root: u64, n: usize) -> Vec<f64> {
    let tau = Time::from_ns(1.0);
    scenario_seeds(root, n)
        .into_iter()
        .map(|seed| sync_uv_latency(333.0, p, tau, seed))
        .collect()
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
/// with seeds split from `root`. Returns per-scenario latch latencies
/// in scenario order.
pub fn wait_metastability_batch(p: f64, tau: Time, root: u64, n: usize) -> Vec<f64> {
    scenario_seeds(root, n)
        .into_iter()
        .map(|seed| wait_latch_latency(p, tau, seed))
        .collect()
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
        let lat = sync_metastability_batch(0.0, 42, 8);
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
}
