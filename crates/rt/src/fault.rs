//! Seeded adversarial fault plans for the fault-injection tier.
//!
//! The module is deliberately generic: it knows nothing about the
//! simulator. It hands out [`FaultPlan`]s — a fault *kind* plus a child
//! seed split off a master seed with SplitMix64 — and adversarial value
//! samplers. The harness (`tests/fault_injection.rs` at the workspace
//! root) interprets each plan against the discrete-event scheduler, the
//! analog buck, and the mixed-signal testbench, asserting that every
//! injected fault either surfaces as a typed `SimError` or leaves the
//! component's invariants intact.
//!
//! Determinism contract: `plans(seed, n)` is a pure function, and each
//! plan's [`FaultPlan::rng`] stream depends only on the master seed and
//! the plan index. Re-running with the same `A4A_PROP_SEED` replays
//! every scenario bit-identically.

use crate::rng::{splitmix64, Rng};

/// The adversarial scenario families of the fault-injection tier.
///
/// The first group attacks the discrete-event scheduler's contract
/// (FIFO delivery, monotone time, exact `len()`, stale-key rejection);
/// the second attacks the analog stack's parameter validation and
/// numerical robustness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Cancel keys whose events were already delivered.
    CancelAfterPop,
    /// Cancel the same key repeatedly.
    DoubleCancel,
    /// Cancel keys minted by a different scheduler instance.
    ForeignKey,
    /// Many events at one timestamp, randomly cancelled, FIFO checked.
    EqualTimestampFlood,
    /// Schedule and advance within a few femtoseconds of `Time::MAX`.
    NearMaxArithmetic,
    /// Attempt to schedule events before the current time.
    PastEvent,
    /// Random interleaving of schedule/cancel/pop against a model.
    InterleavedChurn,
    /// NaN injected into one analog parameter.
    NanAnalogParam,
    /// Negative or zero value injected into one analog parameter.
    NegativeAnalogParam,
    /// Absurdly large magnitude injected into one analog parameter.
    HugeAnalogParam,
    /// NaN/zero/negative/huge integration steps against a valid buck.
    BadStep,
    /// Adversarial testbench configuration (load steps, dt, phases).
    AdversarialTestbench,
}

impl FaultKind {
    /// Every fault family, in the fixed order [`plans`] cycles through.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::CancelAfterPop,
        FaultKind::DoubleCancel,
        FaultKind::ForeignKey,
        FaultKind::EqualTimestampFlood,
        FaultKind::NearMaxArithmetic,
        FaultKind::PastEvent,
        FaultKind::InterleavedChurn,
        FaultKind::NanAnalogParam,
        FaultKind::NegativeAnalogParam,
        FaultKind::HugeAnalogParam,
        FaultKind::BadStep,
        FaultKind::AdversarialTestbench,
    ];
}

/// One seeded adversarial scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Position in the generated batch (stable across reruns).
    pub index: usize,
    /// The scenario family to run.
    pub kind: FaultKind,
    /// Child seed for every random decision inside the scenario.
    pub seed: u64,
}

impl FaultPlan {
    /// The plan's deterministic random stream.
    pub fn rng(&self) -> Rng {
        Rng::from_seed(self.seed)
    }
}

/// Generates `count` fault plans from `master_seed`, cycling through
/// every [`FaultKind`] so any batch of at least `FaultKind::ALL.len()`
/// scenarios covers every family.
pub fn plans(master_seed: u64, count: usize) -> Vec<FaultPlan> {
    let mut sm = master_seed;
    (0..count)
        .map(|index| FaultPlan {
            index,
            kind: FaultKind::ALL[index % FaultKind::ALL.len()],
            seed: splitmix64(&mut sm),
        })
        .collect()
}

/// An adversarial `f64`: cycles NaN, infinities, signed zeros, negative,
/// denormal, huge, and tiny-but-normal values, falling back to a random
/// magnitude. Roughly half the draws are invalid as a physical
/// parameter, so validators see both accept and reject paths.
pub fn adversarial_f64(rng: &mut Rng) -> f64 {
    match rng.u64_below(10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => -rng.f64_range(1e-12, 1e3),
        6 => f64::MIN_POSITIVE / 2.0, // denormal
        7 => rng.f64_range(1e15, 1e300),
        8 => rng.f64_range(1e-300, 1e-15),
        _ => rng.f64_range(1e-9, 1e3),
    }
}

/// A `u64` within `margin` of `u64::MAX` — for near-sentinel time
/// arithmetic that must saturate or error, never wrap.
pub fn near_max_u64(rng: &mut Rng, margin: u64) -> u64 {
    u64::MAX - rng.u64_below(margin.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        assert_eq!(plans(42, 60), plans(42, 60));
        assert_ne!(plans(42, 60), plans(43, 60));
        // A longer batch extends, not reshuffles, a shorter one.
        assert_eq!(plans(42, 60)[..30], plans(42, 30)[..]);
    }

    #[test]
    fn batch_covers_every_kind() {
        let batch = plans(7, FaultKind::ALL.len());
        for kind in FaultKind::ALL {
            assert!(
                batch.iter().any(|p| p.kind == kind),
                "{kind:?} missing from a full-cycle batch"
            );
        }
    }

    #[test]
    fn plan_rng_streams_are_independent() {
        let batch = plans(1, 3);
        let a: Vec<u64> = {
            let mut r = batch[0].rng();
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = batch[1].rng();
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b, "sibling plans must not share a stream");
        let a2: Vec<u64> = {
            let mut r = batch[0].rng();
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2, "a plan's stream is replayable");
    }

    #[test]
    fn adversarial_f64_hits_the_nasty_classes() {
        let mut rng = Rng::from_seed(0);
        let draws: Vec<f64> = (0..200).map(|_| adversarial_f64(&mut rng)).collect();
        assert!(draws.iter().any(|v| v.is_nan()));
        assert!(draws.iter().any(|v| v.is_infinite()));
        assert!(draws.iter().any(|v| *v < 0.0));
        assert!(draws.contains(&0.0));
        assert!(draws.iter().any(|v| v.is_finite() && *v > 1e15));
    }

    #[test]
    fn near_max_stays_in_margin() {
        let mut rng = Rng::from_seed(9);
        for _ in 0..100 {
            let v = near_max_u64(&mut rng, 16);
            assert!(v >= u64::MAX - 16);
        }
        assert_eq!(near_max_u64(&mut rng, 0), u64::MAX);
    }
}
