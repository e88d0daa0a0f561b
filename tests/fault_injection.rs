//! Fault-injection tier: seeded adversarial scenarios against the
//! discrete-event scheduler, the analog buck, and the mixed-signal
//! testbench, plus a mutation fuzz of the shipped `.g` specs through
//! the formal flow.
//!
//! Every scenario comes from `a4a_rt::fault::plans` — a SplitMix64-split
//! batch of [`FaultPlan`]s, deterministic per master seed. The contract
//! under test is uniform: an injected fault must either surface as a
//! typed [`SimError`] or leave the component's invariants intact.
//! **Library code must never panic** — a panic anywhere in this suite is
//! a bug in the simulation stack, not in the test.
//!
//! Reproduce a run exactly with `A4A_PROP_SEED=<hex u64>`:
//!
//! ```text
//! A4A_PROP_SEED=0xDEAD_BEEF cargo test --test fault_injection
//! ```

use a4a::{A4aFlow, TestbenchBuilder};
use a4a_analog::{Buck, BuckParams};
use a4a_ctrl::{AsyncController, AsyncTiming};
use a4a_netlist::{decompose, path, verilog, GateLib};
use a4a_rt::fault::{self, FaultKind, FaultPlan};
use a4a_rt::{prop, Rng};
use a4a_sim::{EventKey, Scheduler, SimError, Time};
use a4a_stg::{Stg, MAX_CODING_CONFLICTS};
use a4a_synth::SynthStyle;

/// Scenario count — at least 50 per the fault-tier acceptance bar, and a
/// multiple of `FaultKind::ALL.len()` so every family runs equally often.
const SCENARIOS: usize = 60;

/// Mutated `.g` specs per run of the spec fuzz.
const G_FUZZ_CASES: usize = 300;

/// Wall budget of one `.g` fuzz case. The cases take milliseconds, so
/// only a hang trips it.
const G_CASE_BUDGET: std::time::Duration = std::time::Duration::from_secs(10);

/// Master seed: `A4A_PROP_SEED` (hex, optional `0x` prefix) or a fixed
/// default. Same convention as the `a4a_rt::prop` harness, so one env
/// var replays both tiers.
fn master_seed() -> u64 {
    match std::env::var("A4A_PROP_SEED") {
        Ok(v) => prop::parse_seed(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => 0xA4A_FA17_5EED,
    }
}

#[test]
fn fault_injection_suite() {
    let seed = master_seed();
    let batch = fault::plans(seed, SCENARIOS);
    assert!(
        batch.len() >= 50,
        "fault tier must run at least 50 scenarios"
    );
    for plan in &batch {
        run_scenario(plan);
    }
}

/// The batch itself is a pure function of the master seed — a rerun with
/// the same `A4A_PROP_SEED` replays identical scenarios.
#[test]
fn fault_plans_replay_deterministically() {
    let seed = master_seed();
    assert_eq!(fault::plans(seed, SCENARIOS), fault::plans(seed, SCENARIOS));
    for kind in FaultKind::ALL {
        assert!(
            fault::plans(seed, SCENARIOS).iter().any(|p| p.kind == kind),
            "{kind:?} not covered by the suite"
        );
    }
}

fn run_scenario(plan: &FaultPlan) {
    let mut rng = plan.rng();
    match plan.kind {
        FaultKind::CancelAfterPop => cancel_after_pop(&mut rng),
        FaultKind::DoubleCancel => double_cancel(&mut rng),
        FaultKind::ForeignKey => foreign_key(&mut rng),
        FaultKind::EqualTimestampFlood => equal_timestamp_flood(&mut rng),
        FaultKind::NearMaxArithmetic => near_max_arithmetic(&mut rng),
        FaultKind::PastEvent => past_event(&mut rng),
        FaultKind::InterleavedChurn => interleaved_churn(&mut rng),
        FaultKind::NanAnalogParam => nan_analog_param(&mut rng),
        FaultKind::NegativeAnalogParam => negative_analog_param(&mut rng),
        FaultKind::HugeAnalogParam => huge_analog_param(&mut rng),
        FaultKind::BadStep => bad_step(&mut rng),
        FaultKind::AdversarialTestbench => adversarial_testbench(&mut rng),
    }
}

fn random_times(rng: &mut Rng, n: usize) -> Vec<Time> {
    (0..n)
        .map(|_| Time::from_fs(rng.u64_below(100_000)))
        .collect()
}

/// Regression for the pre-PR3 `len()` underflow: keys whose events were
/// already delivered must be rejected by `cancel`, and `len()` must stay
/// exact through arbitrarily many stale-cancel attempts.
fn cancel_after_pop(rng: &mut Rng) {
    let mut sched: Scheduler<u32> = Scheduler::new();
    let n = 4 + rng.usize_below(24);
    let keys: Vec<EventKey> = random_times(rng, n)
        .into_iter()
        .enumerate()
        .map(|(i, t)| sched.schedule(t, i as u32))
        .collect();
    let delivered = 1 + rng.usize_below(n);
    for _ in 0..delivered {
        assert!(sched.pop().is_some());
    }
    // `pop` delivers in (time, seq) order, not key order — replay which
    // keys went out by re-deriving the delivery order from the model.
    // Simpler and airtight: after `delivered` pops, exactly
    // `n - delivered` keys are live; every cancel of a stale key must
    // return false without touching `len()`.
    let mut live = n - delivered;
    assert_eq!(sched.len(), live);
    for &key in &keys {
        let before = sched.len();
        if sched.cancel(key) {
            live -= 1;
            assert_eq!(sched.len(), before - 1);
        } else {
            assert_eq!(sched.len(), before, "stale cancel mutated len()");
            assert!(matches!(sched.try_cancel(key), Err(SimError::StaleKey)));
        }
    }
    assert_eq!(sched.len(), live);
    // The old implementation panicked (usize underflow) right here.
    for &key in &keys {
        assert!(!sched.cancel(key), "second pass must reject everything");
    }
    assert_eq!(sched.len(), live);
    while sched.pop().is_some() {}
    assert_eq!(sched.len(), 0);
}

fn double_cancel(rng: &mut Rng) {
    let mut sched: Scheduler<u32> = Scheduler::new();
    let keys: Vec<EventKey> = random_times(rng, 8)
        .into_iter()
        .enumerate()
        .map(|(i, t)| sched.schedule(t, i as u32))
        .collect();
    let victim = keys[rng.usize_below(keys.len())];
    assert!(sched.cancel(victim));
    assert_eq!(sched.len(), keys.len() - 1);
    for _ in 0..1 + rng.usize_below(10) {
        assert!(!sched.cancel(victim), "double cancel must be rejected");
        assert!(matches!(sched.try_cancel(victim), Err(SimError::StaleKey)));
        assert_eq!(sched.len(), keys.len() - 1);
    }
    let mut popped = 0;
    while sched.pop().is_some() {
        popped += 1;
    }
    assert_eq!(popped, keys.len() - 1, "cancelled event must not deliver");
}

fn foreign_key(rng: &mut Rng) {
    let mut minting: Scheduler<u32> = Scheduler::new();
    let foreign: Vec<EventKey> = random_times(rng, 12)
        .into_iter()
        .enumerate()
        .map(|(i, t)| minting.schedule(t, i as u32))
        .collect();
    let mut victim: Scheduler<u32> = Scheduler::new();
    for &key in &foreign {
        assert!(
            !victim.cancel(key),
            "empty scheduler accepted a foreign key"
        );
        assert!(matches!(victim.try_cancel(key), Err(SimError::StaleKey)));
    }
    assert_eq!(victim.len(), 0);
    assert!(victim.is_empty());
    // And the victim still works normally afterwards.
    let k = victim.schedule(Time::from_fs(1), 7);
    assert!(victim.cancel(k));
    assert_eq!(victim.len(), 0);
}

fn equal_timestamp_flood(rng: &mut Rng) {
    let mut sched: Scheduler<u32> = Scheduler::new();
    let t = Time::from_fs(rng.u64_below(1_000_000));
    let n = 16 + rng.usize_below(48);
    let keys: Vec<EventKey> = (0..n).map(|i| sched.schedule(t, i as u32)).collect();
    let mut alive: Vec<u32> = (0..n as u32).collect();
    // Cancel a random subset (possibly none, possibly all).
    for (i, &key) in keys.iter().enumerate() {
        if rng.next_f64() < 0.4 {
            assert!(sched.cancel(key));
            alive.retain(|&v| v != i as u32);
        }
    }
    assert_eq!(sched.len(), alive.len());
    // Survivors must come out in FIFO order at exactly t.
    let mut delivered = Vec::new();
    while let Some((when, ev)) = sched.pop() {
        assert_eq!(when, t, "equal-timestamp flood delivered off-time");
        delivered.push(ev);
    }
    assert_eq!(delivered, alive, "FIFO order broken under flood + cancel");
    assert_eq!(sched.len(), 0);
}

fn near_max_arithmetic(rng: &mut Rng) {
    // Time-level checks: arithmetic near the sentinel must saturate (the
    // operator form) or report (the checked form), never wrap.
    let a = Time::from_fs(fault::near_max_u64(rng, 1 << 20));
    let b = Time::from_fs(1 + rng.u64_below(1 << 21));
    assert_eq!(
        a.saturating_add(b).as_fs(),
        a.as_fs().saturating_add(b.as_fs())
    );
    assert_eq!(
        a.checked_add(b),
        a.as_fs().checked_add(b.as_fs()).map(Time::from_fs)
    );

    // Scheduler-level: advance `now` to within a hair of Time::MAX,
    // then demand an overflowing relative schedule.
    let mut sched: Scheduler<u32> = Scheduler::new();
    let near = Time::from_fs(fault::near_max_u64(rng, 1000));
    sched.schedule(near, 0);
    assert_eq!(sched.pop(), Some((near, 0)));
    assert_eq!(sched.now(), near);
    let overflow_delay = Time::from_fs(u64::MAX - near.as_fs() + 1 + rng.u64_below(1000));
    match sched.try_schedule_after(overflow_delay, 1) {
        Err(SimError::TimeOverflow { .. }) => {}
        other => panic!("expected TimeOverflow, got {other:?}"),
    }
    assert_eq!(sched.len(), 0, "failed schedule must not enqueue");
    // The panicking wrapper keeps the saturating "never" semantics.
    let k = sched.schedule_after(overflow_delay, 2);
    assert_eq!(sched.next_time(), Some(Time::MAX));
    assert!(sched.cancel(k));
    // Absolute scheduling at MAX itself stays legal (the sentinel).
    sched.schedule(Time::MAX, 3);
    assert_eq!(sched.pop(), Some((Time::MAX, 3)));
}

fn past_event(rng: &mut Rng) {
    let mut sched: Scheduler<u32> = Scheduler::new();
    let now = Time::from_fs(1000 + rng.u64_below(1_000_000));
    sched.schedule(now, 0);
    assert!(sched.pop().is_some());
    assert_eq!(sched.now(), now);
    for _ in 0..8 {
        let stale = Time::from_fs(rng.u64_below(now.as_fs()));
        match sched.try_schedule(stale, 1) {
            Err(SimError::PastEvent {
                time,
                now: reported,
            }) => {
                assert_eq!(time, stale);
                assert_eq!(reported, now);
            }
            other => panic!("expected PastEvent, got {other:?}"),
        }
        assert_eq!(sched.len(), 0, "rejected event must not enqueue");
    }
    // Present-time scheduling is legal and the scheduler still works.
    sched.schedule(now, 2);
    assert_eq!(sched.pop(), Some((now, 2)));
}

fn interleaved_churn(rng: &mut Rng) {
    // Model-based churn: the scheduler against a plain-Vec reference.
    let mut sched: Scheduler<u64> = Scheduler::new();
    let mut model: Vec<(Time, u64, EventKey)> = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..200 {
        match rng.u64_below(4) {
            0 | 1 => {
                let t = sched.now() + Time::from_fs(rng.u64_below(10_000));
                let key = sched.schedule(t, next_id);
                model.push((t, next_id, key));
                next_id += 1;
            }
            2 if !model.is_empty() => {
                let i = rng.usize_below(model.len());
                let (_, _, key) = model.swap_remove(i);
                assert!(sched.cancel(key));
            }
            _ => {
                let expect = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, id, _))| (t, id))
                    .map(|(i, _)| i);
                match expect {
                    Some(i) => {
                        let (t, id, _) = model.remove(i);
                        assert_eq!(sched.peek_time(), Some(t));
                        assert_eq!(sched.pop(), Some((t, id)));
                    }
                    None => assert_eq!(sched.pop(), None),
                }
            }
        }
        assert_eq!(sched.len(), model.len(), "len() drifted from the model");
    }
}

/// Sets one field of a parameter set, selected by `field`, to `value`.
fn poison_param(params: &mut BuckParams, field: usize, value: f64) -> &'static str {
    match field % 9 {
        0 => {
            params.vin = value;
            "vin"
        }
        1 => {
            params.cap = value;
            "cap"
        }
        2 => {
            params.rload = value;
            "rload"
        }
        3 => {
            params.rdson_p = value;
            "rdson_p"
        }
        4 => {
            params.rdson_n = value;
            "rdson_n"
        }
        5 => {
            params.vdiode = value;
            "vdiode"
        }
        6 => {
            params.coil.inductance = value;
            "coil.inductance"
        }
        7 => {
            params.coil.dcr = value;
            "coil.dcr"
        }
        _ => {
            params.coil.esr_hf = value;
            "coil.esr_hf"
        }
    }
}

fn nan_analog_param(rng: &mut Rng) {
    let mut params = BuckParams::default();
    let field = poison_param(&mut params, rng.usize_below(9), f64::NAN);
    match Buck::try_new(params) {
        Err(SimError::InvalidParameter { .. }) => {}
        other => panic!("NaN {field} accepted: {other:?}"),
    }
}

fn negative_analog_param(rng: &mut Rng) {
    let mut params = BuckParams::default();
    let value = -rng.f64_range(1e-12, 1e6);
    let field = poison_param(&mut params, rng.usize_below(9), value);
    match Buck::try_new(params) {
        Err(SimError::InvalidParameter { .. }) => {}
        other => panic!("negative {field} ({value}) accepted: {other:?}"),
    }
}

/// Arbitrary adversarial values (huge, denormal, infinite, NaN, zero…)
/// into one parameter: construction either rejects with a typed error or
/// the resulting model survives stepping with finite state.
fn huge_analog_param(rng: &mut Rng) {
    let mut params = BuckParams::default();
    let value = fault::adversarial_f64(rng);
    let field = poison_param(&mut params, rng.usize_below(9), value);
    match Buck::try_new(params) {
        Err(SimError::InvalidParameter { .. }) => {}
        Err(other) => panic!("{field}={value}: wrong error class {other:?}"),
        Ok(mut buck) => {
            buck.try_set_switch(0, true, false).unwrap();
            for _ in 0..50 {
                match buck.try_step(1e-9) {
                    Ok(()) => {
                        assert!(buck.output_voltage().is_finite());
                        assert!(buck.total_coil_current().is_finite());
                    }
                    Err(SimError::NonFinite { .. }) => return, // typed divergence: fine
                    Err(other) => panic!("{field}={value}: wrong error class {other:?}"),
                }
            }
        }
    }
}

fn bad_step(rng: &mut Rng) {
    let mut buck = Buck::try_new(BuckParams::default()).unwrap();
    buck.try_set_switch(rng.usize_below(4), true, false)
        .unwrap();
    buck.try_step(5e-9).unwrap();
    let (v0, i0, t0) = (
        buck.output_voltage(),
        buck.total_coil_current(),
        buck.time(),
    );
    for dt in [f64::NAN, 0.0, -1e-9, f64::INFINITY, -f64::INFINITY] {
        match buck.try_step(dt) {
            Err(SimError::InvalidParameter { .. }) => {}
            other => panic!("dt={dt} accepted: {other:?}"),
        }
        assert_eq!(
            (
                buck.output_voltage(),
                buck.total_coil_current(),
                buck.time()
            ),
            (v0, i0, t0),
            "rejected step mutated the state"
        );
    }
    // The model keeps working after the rejected steps, and the energy
    // ledger stays physical: input energy covers delivered energy.
    for _ in 0..200 {
        buck.try_step(1e-9).unwrap();
    }
    assert!(buck.output_voltage().is_finite());
    let (e_in, e_out) = (buck.energy_in(), buck.energy_out());
    assert!(e_in.is_finite() && e_out.is_finite());
    assert!(
        e_in + 1e-12 + 1e-3 * e_in.abs() >= e_out,
        "energy ledger violated: in={e_in} out={e_out}"
    );
}

fn adversarial_testbench(rng: &mut Rng) {
    // Random adversarial builder configuration: either a typed build
    // error or a clean, finite, short-circuit-free run.
    let ctrl_phases = 1 + rng.usize_below(6);
    let stage_phases = if rng.bool() {
        ctrl_phases
    } else {
        1 + rng.usize_below(6)
    };
    let period = fault::adversarial_f64(rng).abs();
    let mut builder = TestbenchBuilder::new()
        .params(BuckParams::default().with_phases(stage_phases))
        .sample_period(period);
    if rng.bool() {
        builder = builder.load_step(fault::adversarial_f64(rng), fault::adversarial_f64(rng));
    }
    let ctrl = AsyncController::new(ctrl_phases, AsyncTiming::default());
    match builder.try_build(ctrl) {
        Err(SimError::PhaseMismatch {
            controller,
            power_stage,
        }) => {
            assert_eq!(controller, ctrl_phases);
            assert_eq!(power_stage, stage_phases);
        }
        Err(SimError::InvalidParameter { .. }) => {}
        Err(other) => panic!("wrong build error class: {other:?}"),
        Ok(mut tb) => {
            // A femtosecond sample period is legal (validation demands
            // a finite period of at least 1 fs) — bound the horizon to a
            // few hundred samples so a pathological-but-valid period
            // can't stall the suite.
            let t_end = (period * 500.0).min(1e-6);
            match tb.try_run_until(t_end) {
                Ok(()) => {
                    assert_eq!(tb.short_circuits(), 0);
                    assert!(tb.buck().output_voltage().is_finite());
                    assert!(tb.waveform().v.iter().all(|v| v.is_finite()));
                }
                Err(SimError::NonFinite { .. }) => {} // typed divergence: fine
                Err(other) => panic!("wrong run error class: {other:?}"),
            }
        }
    }
}

/// A power stage stiffer than 10¹² s⁻¹ (a capacitance, an inductance or
/// a load of 1e-200) is rejected at once, with one label, by the
/// testbench builder, by `Buck::try_new` and by `Buck::try_set_load`. A
/// plan spans at most one series of `1/‖A‖`, so such a stage would take
/// some 10¹⁰⁰ plans per nanosecond; before the check a run with the
/// capacitance at 1e-200 spent 1–24 s per window.
#[test]
fn stiff_power_stages_are_rejected_at_build() {
    let stiff = |what: &str, result: Result<(), SimError>| {
        assert!(
            matches!(
                result,
                Err(SimError::InvalidParameter {
                    what: "power-stage rate |A| (1/s)",
                    ..
                })
            ),
            "{what}: {result:?}"
        );
    };
    // `poison_param` fields 1, 2 and 6: the capacitance, the load and
    // the inductance.
    for field in [1, 2, 6] {
        let mut params = BuckParams::default();
        let name = poison_param(&mut params, field, 1e-200);
        let started = std::time::Instant::now();
        let ctrl = AsyncController::new(4, AsyncTiming::default());
        let built = TestbenchBuilder::new()
            .params(params.clone())
            .try_build(ctrl);
        stiff(name, built.map(drop));
        stiff(name, Buck::try_new(params).map(drop));
        let took = started.elapsed();
        assert!(
            took.as_secs_f64() < 0.5,
            "{name} = 1e-200: rejected after {took:?}"
        );
    }
    // The same load, stepped to at run time.
    let mut buck = Buck::try_new(BuckParams::default()).unwrap();
    stiff("load step", buck.try_set_load(1e-200));
    assert_eq!(buck.params().rload, BuckParams::default().rload);
    let ctrl = AsyncController::new(4, AsyncTiming::default());
    let built = TestbenchBuilder::new()
        .load_step(1e-6, 1e-200)
        .try_build(ctrl);
    stiff("scheduled load step", built.map(drop));
}

/// Three rings of 40 dummies: 64 000 states under one code, so
/// C(64 000, 2) ≈ 2.0e9 USC pairs. The report counts them all but lists
/// only the first [`MAX_CODING_CONFLICTS`]; listing every pair, as the
/// check once did, would take over 100 GB.
#[test]
fn one_code_state_spaces_keep_the_coding_report_bounded() {
    let stg = a4a_stg::prop_support::dummy_rings_stg(3, 40);
    let text = stg.to_g();
    let stg = Stg::parse_g(&text).expect("the rings round-trip through .g");
    let sg = stg.state_graph(100_000).expect("64 000 states fit");
    assert_eq!(sg.state_count(), 64_000);
    let started = std::time::Instant::now();
    let report = stg.verify(&sg);
    let took = started.elapsed();
    assert_eq!(report.usc_count, 64_000 * 63_999 / 2);
    assert_eq!(report.csc_count, 0);
    assert!(report.is_clean(), "{}", report.summary());
    assert!(report.summary().contains("USC conflicts: 2047968000\n"));
    // The first pairs in report order: the initial state with each of
    // the next states.
    assert_eq!(report.coding.len(), MAX_CODING_CONFLICTS);
    for (k, c) in report.coding.iter().enumerate() {
        assert!(!c.is_csc(), "no signals, no CSC");
        assert_eq!((c.first.index(), c.second.index()), (0, k + 1));
    }
    assert!(took.as_secs_f64() < 5.0, "verify took {took:?}");
}

/// Seeded `.g` mutation fuzz: 1–4 line- and token-level mutations of a
/// shipped module or A2A spec, run through parse → state graph →
/// verify → both synthesis styles of the flow. Every stage returns a
/// `Result` with a typed error, so the contract is: no panic, for any
/// text. A case that runs past [`G_CASE_BUDGET`] fails with its case
/// number and seed.
#[test]
fn mutated_g_specs_never_panic() {
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    let texts: Vec<(&str, String)> = specs
        .iter()
        .map(|(name, stg)| (*name, stg.to_g()))
        .collect();
    assert_eq!(texts.len(), 18, "the shipped spec set changed");
    let seed = master_seed();
    let mut rng = Rng::from_seed(seed);
    // Cases that stopped at parse, at the state graph, and that ran the
    // flow: each stage must be reached, or the fuzz has gone blind.
    let mut reached = [0usize; 3];
    for case in 0..G_FUZZ_CASES {
        let (name, text) = &texts[rng.usize_below(texts.len())];
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for _ in 0..1 + rng.usize_below(4) {
            mutate_g(&mut rng, &mut lines);
        }
        let mutated = lines.join("\n");
        // Each case runs on a thread of its own, so a hang fails here by
        // case number instead of stalling the suite.
        let (done, result) = std::sync::mpsc::channel();
        let text = mutated.clone();
        std::thread::spawn(move || {
            let _ = done.send(std::panic::catch_unwind(|| run_g(&text)));
        });
        let stage = match result.recv_timeout(G_CASE_BUDGET) {
            Ok(Ok(stage)) => stage,
            Ok(Err(_)) => {
                panic!("A4A_PROP_SEED={seed:#x} case {case}: mutated {name}.g panicked:\n{mutated}")
            }
            Err(_) => panic!(
                "A4A_PROP_SEED={seed:#x} case {case}: mutated {name}.g ran past \
                 {G_CASE_BUDGET:?}:\n{mutated}"
            ),
        };
        reached[stage] += 1;
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "stage never reached: {reached:?}"
    );
}

/// The paths of `a4a verify`, `synth [--gc]`, `timing [--gc]`, `dot
/// [--sg]` and `verilog [--gc] --map` on one spec text; returns the
/// stage reached (0 parse error, 1 state-graph error, 2 flow run).
fn run_g(text: &str) -> usize {
    let Ok(stg) = Stg::parse_g(text) else {
        return 0;
    };
    let _ = stg.to_dot();
    let Ok(sg) = stg.state_graph(100_000) else {
        return 1;
    };
    let _ = stg.verify(&sg);
    let _ = sg.to_dot(&stg);
    for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
        let Ok(result) = A4aFlow::new(stg.clone()).with_style(style).run() else {
            continue;
        };
        let netlist = result.synthesis.netlist();
        for p in path::report(netlist) {
            let _ = p.render(netlist);
        }
        if let Ok(mapped) = decompose(netlist, &GateLib::tsmc90()) {
            let _ = verilog::emit(&mapped);
        }
    }
    2
}

fn mutate_g(rng: &mut Rng, lines: &mut Vec<String>) {
    if lines.is_empty() {
        lines.push(String::new());
    }
    let at = rng.usize_below(lines.len());
    match rng.usize_below(8) {
        0 => {
            lines.remove(at);
        }
        1 => lines.insert(at, lines[at].clone()),
        2 => {
            let other = rng.usize_below(lines.len());
            lines.swap(at, other);
        }
        3 => {
            let mut chars: Vec<char> = lines[at].chars().collect();
            if !chars.is_empty() {
                chars.remove(rng.usize_below(chars.len()));
            }
            lines[at] = chars.into_iter().collect();
        }
        4 => {
            const INSERT: [char; 14] = [
                '+', '-', '/', '{', '}', '<', '>', ',', '.', '=', '#', ' ', '0', 'x',
            ];
            let mut chars: Vec<char> = lines[at].chars().collect();
            let pos = rng.usize_below(chars.len() + 1);
            chars.insert(pos, INSERT[rng.usize_below(INSERT.len())]);
            lines[at] = chars.into_iter().collect();
        }
        5 => {
            const TOKENS: [&str; 5] = ["+", "-", "/2", "{", "<a,b>"];
            let mut tokens: Vec<&str> = lines[at].split_whitespace().collect();
            if !tokens.is_empty() {
                let pick = rng.usize_below(tokens.len());
                tokens[pick] = TOKENS[rng.usize_below(TOKENS.len())];
            }
            lines[at] = tokens.join(" ");
        }
        6 => {
            const DIRECTIVES: [&str; 6] = [
                ".dummy t0",
                ".capacity p0=2",
                ".end",
                ".graph",
                ".marking { }",
                ".inputs",
            ];
            lines[at] = DIRECTIVES[rng.usize_below(DIRECTIVES.len())].to_string();
        }
        _ => {
            lines[at] = lines[at]
                .chars()
                .map(|c| match c {
                    '+' => '-',
                    '-' => '+',
                    c => c,
                })
                .collect();
        }
    }
}
