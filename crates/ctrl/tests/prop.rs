//! Property-based fuzzing of both controllers: random sensor event
//! streams must never produce a short-circuit command sequence, and
//! commands must be time-monotone per phase.

use a4a_analog::SensorKind;
use a4a_ctrl::{
    AsyncController, AsyncTiming, BuckController, Command, Loopback, SyncController, SyncParams,
};
use a4a_rt::prop::{self, Config, Gen, PropResult, TestCaseError};
use a4a_rt::prop_assert;
use a4a_sim::Time;

#[derive(Debug, Clone, Copy)]
enum Fuzz {
    Hl(bool),
    Uv(bool),
    Ov(bool),
    Oc(usize, bool),
    Zc(usize, bool),
}

fn arb_events(g: &mut Gen, phases: usize, len: usize) -> Vec<(u64, Fuzz)> {
    let steps = g.vec(1..len, |g| {
        let dt = g.u64(1..400);
        let f = match g.choice(5) {
            0 => Fuzz::Hl(g.bool()),
            1 => Fuzz::Uv(g.bool()),
            2 => Fuzz::Ov(g.bool()),
            3 => Fuzz::Oc(g.usize(0..phases), g.bool()),
            _ => Fuzz::Zc(g.usize(0..phases), g.bool()),
        };
        (dt, f)
    });
    let mut t = 10u64;
    steps
        .into_iter()
        .map(|(dt, f)| {
            t += dt;
            (t, f)
        })
        .collect()
}

/// Drives a controller with the fuzz stream through a [`Loopback`], which
/// acks every gate command, and asserts the safety properties on the
/// command log.
fn drive(
    ctrl: impl BuckController,
    events: &[(u64, Fuzz)],
    phases: usize,
) -> Result<(), TestCaseError> {
    let mut lb = Loopback::new(ctrl);
    // Track sensor levels so we only deliver actual changes (comparator
    // outputs are level signals).
    let mut levels = std::collections::HashMap::new();
    for &(t_ns, fuzz) in events {
        let (kind, value) = match fuzz {
            Fuzz::Hl(v) => (SensorKind::Hl, v),
            Fuzz::Uv(v) => (SensorKind::Uv, v),
            Fuzz::Ov(v) => (SensorKind::Ov, v),
            Fuzz::Oc(k, v) => (SensorKind::Oc(k), v),
            Fuzz::Zc(k, v) => (SensorKind::Zc(k), v),
        };
        let slot = levels.entry(format!("{kind}")).or_insert(false);
        if *slot != value {
            *slot = value;
            lb.sensor(Time::from_ns(t_ns as f64), kind, value);
        }
    }
    lb.run_until(Time::from_us(100.0));

    let mut gp = vec![false; phases];
    let mut gn = vec![false; phases];
    let mut last_cmd_time = Time::ZERO;
    for cmd in lb.log() {
        prop_assert!(cmd.time >= last_cmd_time, "commands must be time-sorted");
        last_cmd_time = cmd.time;
        if let Command::Gate { phase, pmos, value } = cmd.command {
            if pmos {
                gp[phase] = value;
            } else {
                gn[phase] = value;
            }
            prop_assert!(
                !(gp[phase] && gn[phase]),
                "short circuit on phase {} at {}",
                phase,
                cmd.time
            );
        }
    }
    Ok(())
}

/// The asynchronous controller never shorts the bridge under any
/// sensor fuzz.
#[test]
fn async_never_shorts() {
    prop::check_with(
        &Config::with_cases(40),
        "async_never_shorts",
        |g: &mut Gen| -> PropResult {
            let events = arb_events(g, 3, 60);
            drive(AsyncController::new(3, AsyncTiming::default()), &events, 3)?;
            Ok(())
        },
    );
}

/// Neither does the synchronous controller, at any clock rate.
#[test]
fn sync_never_shorts() {
    prop::check_with(
        &Config::with_cases(40),
        "sync_never_shorts",
        |g: &mut Gen| -> PropResult {
            let events = arb_events(g, 3, 60);
            let mhz = g.f64(50.0..1200.0);
            drive(SyncController::new(3, SyncParams::at_mhz(mhz)), &events, 3)?;
            Ok(())
        },
    );
}

/// The basic single-phase controller, a one-stage ring, is safe too.
#[test]
fn basic_never_shorts() {
    prop::check_with(
        &Config::with_cases(40),
        "basic_never_shorts",
        |g: &mut Gen| -> PropResult {
            let events = arb_events(g, 1, 40);
            drive(AsyncController::new(1, AsyncTiming::default()), &events, 1)?;
            Ok(())
        },
    );
}
