//! STG specifications of the controller modules (§IV, Figure 5c).
//!
//! These are the formal models that the A4A flow synthesises and
//! verifies; the behavioural controllers in this crate implement the
//! same protocols with calibrated module delays. Handshake naming
//! follows the paper: requests start with `r`, acknowledgements with
//! `a`; the second letter refines the role (`i`/`o` input/output
//! channels, `d` timer interfaces, `p`/`n` the PMOS/NMOS transistors).
//!
//! Every specification here is consistent, deadlock-free and
//! output-persistent; all are synthesisable (exercised in the workspace
//! integration tests), and the basic buck controller STG additionally
//! satisfies the PMOS/NMOS mutual-exclusion property.

use a4a_stg::{Stg, StgBuilder};

/// The basic buck controller STG (Figure 2b), covering the *no ZC*,
/// *late ZC* and *early ZC* scenarios as a free input choice after the
/// NMOS phase begins.
///
/// Signals: `uv`, `oc`, `zc`, `gp_ack`, `gn_ack` are inputs; `gp`, `gn`
/// outputs. The initial state is "UV just detected, both transistors
/// off".
pub fn basic_buck_stg() -> Stg {
    let mut b = StgBuilder::new("basic_buck");
    let uv = b.input("uv", true);
    let oc = b.input("oc", false);
    let zc = b.input("zc", false);
    let gpa = b.input("gp_ack", false);
    let gna = b.input("gn_ack", false);
    let gp = b.output("gp", false);
    let gn = b.output("gn", false);

    let gpp = b.rise(gp);
    let gpap = b.rise(gpa);
    let uvm = b.fall(uv);
    let ocp = b.rise(oc);
    let gpm = b.fall(gp);
    let gpam = b.fall(gpa);
    let gnp = b.rise(gn);
    let gnap = b.rise(gna);
    let ocm = b.fall(oc);
    // Early-ZC path.
    let zcp = b.rise(zc);
    let gnm = b.fall(gn);
    let gnam = b.fall(gna);
    let zcm = b.fall(zc);
    let uvp = b.rise(uv);
    // Late/no-ZC path.
    let uvp2 = b.rise(uv);
    let gnm2 = b.fall(gn);
    let gnam2 = b.fall(gna);

    // Charging: PMOS on until OC, voltage recovers (uv-) meanwhile.
    b.connect(gpp, gpap);
    b.connect(gpap, uvm);
    b.connect(gpap, ocp);
    b.connect(ocp, gpm);
    b.connect(gpm, gpam);
    // Break before make: NMOS waits for the PMOS ack and the UV release.
    b.connect(gpam, gnp);
    b.connect(uvm, gnp);
    b.connect(gnp, gnap);
    // The current falls below I_max only once the NMOS conducts.
    b.connect(gnap, ocm);
    // Choice: early ZC or the next UV.
    let choice = b.place("choice");
    b.arc_tp(ocm, choice);
    b.arc_pt(choice, zcp);
    b.arc_pt(choice, uvp2);
    // Early ZC: both off, wait for UV.
    b.connect(zcp, gnm);
    b.connect(gnm, gnam);
    b.connect(gnam, zcm);
    b.connect(zcm, uvp);
    // Late/no ZC: UV takes over, NMOS hands off to PMOS.
    b.connect(uvp2, gnm2);
    b.connect(gnm2, gnam2);
    // uv- enables exactly one next uv+ occurrence.
    let uv_free = b.place("uv_free");
    b.arc_tp(uvm, uv_free);
    b.arc_pt(uv_free, uvp);
    b.arc_pt(uv_free, uvp2);
    // Merge: either completion re-starts the charging cycle.
    let merge = b.place_with_tokens("merge", 1);
    b.arc_tp(uvp, merge);
    b.arc_tp(gnam2, merge);
    b.arc_pt(merge, gpp);
    b.build()
}

/// DECOUPLER: a token-pipeline stage between `get` (from the previous
/// stage) and `pass` (to the next stage).
pub fn decoupler_stg() -> Stg {
    decoupler_named("get", "get_ack", "pass", "pass_ack", false)
}

/// A DECOUPLER stage with custom channel names, for assembling token
/// rings by parallel composition. When `holding` the stage starts *with*
/// the token (its internal latch set, about to issue `pass`); otherwise
/// it starts waiting for `get`.
pub fn decoupler_named(get: &str, get_ack: &str, pass: &str, pass_ack: &str, holding: bool) -> Stg {
    let mut b = StgBuilder::new(format!("decoupler_{get}_{pass}"));
    let g = b.input(get, false);
    let pa = b.input(pass_ack, false);
    let ga = b.output(get_ack, false);
    let p = b.output(pass, false);
    let tok = b.internal(format!("tok_{pass}"), holding);

    let gp = b.rise(g);
    let gap = b.rise(ga);
    let tokp = b.rise(tok);
    let gm = b.fall(g);
    let gam = b.fall(ga);
    let pp = b.rise(p);
    let pap = b.rise(pa);
    let tokm = b.fall(tok);
    let pm = b.fall(p);
    let pam = b.fall(pa);

    if holding {
        b.connect(pam, gp);
    } else {
        b.connect_marked(pam, gp);
    }
    b.connect(gp, gap);
    b.connect(gap, tokp);
    b.connect(tokp, gm);
    b.connect(gm, gam);
    if holding {
        b.connect_marked(gam, pp);
    } else {
        b.connect(gam, pp);
    }
    b.connect(pp, pap);
    b.connect(pap, tokm);
    b.connect(tokm, pm);
    b.connect(pm, pam);
    b.build()
}

/// A closed token ring of two DECOUPLER stages (the circulation skeleton
/// of Figure 5b): stage 0 starts holding the token. The composition
/// closes every channel, so all signals become internal and exactly one
/// token circulates forever.
///
/// # Panics
///
/// Panics if the composition fails (the channel kinds are complementary
/// by construction).
pub fn token_ring_stg() -> Stg {
    let stage0 = decoupler_named("c10", "a10", "c01", "a01", true);
    let stage1 = decoupler_named("c01", "a01", "c10", "a10", false);
    let mut ring = stage0
        .compose(&stage1)
        .expect("complementary ring channels");
    for name in ["c01", "a01", "c10", "a10"] {
        let id = ring.signal_by_name(name).expect(name);
        ring = ring.hide(id);
    }
    ring
}

/// MERGE: the opportunistic-merge element joining the token path and the
/// HL path into one activation channel (inputs `r1`, `r2`, downstream
/// acknowledge `ai`; outputs per-requester acknowledges `a1`, `a2` and
/// the merged request `ro`).
pub fn merge_stg() -> Stg {
    let mut b = StgBuilder::new("merge");
    let r1 = b.input("r1", false);
    let r2 = b.input("r2", false);
    let ai = b.input("ai", false);
    let a1 = b.output("a1", false);
    let a2 = b.output("a2", false);
    let ro = b.output("ro", false);

    let r1p = b.rise(r1);
    let rop1 = b.rise(ro);
    let aip1 = b.rise(ai);
    let a1p = b.rise(a1);
    let r1m = b.fall(r1);
    let rom1 = b.fall(ro);
    let aim1 = b.fall(ai);
    let a1m = b.fall(a1);

    let r2p = b.rise(r2);
    let rop2 = b.rise(ro);
    let aip2 = b.rise(ai);
    let a2p = b.rise(a2);
    let r2m = b.fall(r2);
    let rom2 = b.fall(ro);
    let aim2 = b.fall(ai);
    let a2m = b.fall(a2);

    let choice = b.place_with_tokens("choice", 1);
    b.arc_pt(choice, r1p);
    b.arc_pt(choice, r2p);
    // Channel 1 cycle.
    b.connect(r1p, rop1);
    b.connect(rop1, aip1);
    b.connect(aip1, a1p);
    b.connect(a1p, r1m);
    b.connect(r1m, rom1);
    b.connect(rom1, aim1);
    b.connect(aim1, a1m);
    b.arc_tp(a1m, choice);
    // Channel 2 cycle.
    b.connect(r2p, rop2);
    b.connect(rop2, aip2);
    b.connect(aip2, a2p);
    b.connect(a2p, r2m);
    b.connect(r2m, rom2);
    b.connect(rom2, aim2);
    b.connect(aim2, a2m);
    b.arc_tp(a2m, choice);
    b.build()
}

/// TOKEN_CTRL: on activation (`ri`), starts the TOKEN_TIMER (`rd`/`ad`)
/// and MODE_CTRL (`rm`/`am`) concurrently; acknowledges (`ao`, i.e.
/// passes the token on) once both complete.
pub fn token_ctrl_stg() -> Stg {
    let mut b = StgBuilder::new("token_ctrl");
    let ri = b.input("ri", false);
    let ad = b.input("ad", false);
    let am = b.input("am", false);
    let rd = b.output("rd", false);
    let rm = b.output("rm", false);
    let ao = b.output("ao", false);

    let rip = b.rise(ri);
    let rdp = b.rise(rd);
    let rmp = b.rise(rm);
    let adp = b.rise(ad);
    let amp = b.rise(am);
    let aop = b.rise(ao);
    let rim = b.fall(ri);
    let rdm = b.fall(rd);
    let rmm = b.fall(rm);
    let adm = b.fall(ad);
    let amm = b.fall(am);
    let aom = b.fall(ao);

    b.connect_marked(aom, rip);
    b.connect(rip, rdp);
    b.connect(rip, rmp);
    b.connect(rdp, adp);
    b.connect(rmp, amp);
    b.connect(adp, aop);
    b.connect(amp, aop);
    b.connect(aop, rim);
    b.connect(rim, rdm);
    b.connect(rim, rmm);
    b.connect(rdm, adm);
    b.connect(rmm, amm);
    b.connect(adm, aom);
    b.connect(amm, aom);
    b.build()
}

/// MODE_CTRL: armed by TOKEN_CTRL (`rm`), waits on the WAITX2 grant
/// rails (`uv_g` / `ov_g`), gives the early acknowledge `am`
/// immediately, and runs the charge request `rc`/`ac` to completion.
pub fn mode_ctrl_stg() -> Stg {
    let mut b = StgBuilder::new("mode_ctrl");
    let rm = b.input("rm", false);
    let uv_g = b.input("uv_g", false);
    let ov_g = b.input("ov_g", false);
    let ac = b.input("ac", false);
    let am = b.output("am", false);
    let rc = b.output("rc", false);
    // Internal state: "a demand is being served" — inserted to satisfy
    // complete state coding (the Petrify-style CSC resolution signal).
    let csc0 = b.internal("csc0", false);

    let rmp = b.rise(rm);
    // UV branch: early acknowledge completes before the charge cycle,
    // which is what lets TOKEN_CTRL move the token while charging runs.
    let uvgp = b.rise(uv_g);
    let cscp1 = b.rise(csc0);
    let amp1 = b.rise(am);
    let rmm1 = b.fall(rm);
    let amm1 = b.fall(am);
    let rcp1 = b.rise(rc);
    let acp1 = b.rise(ac);
    let rcm1 = b.fall(rc);
    let uvgm = b.fall(uv_g);
    let acm1 = b.fall(ac);
    let cscm1 = b.fall(csc0);
    // OV branch.
    let ovgp = b.rise(ov_g);
    let cscp2 = b.rise(csc0);
    let amp2 = b.rise(am);
    let rmm2 = b.fall(rm);
    let amm2 = b.fall(am);
    let rcp2 = b.rise(rc);
    let acp2 = b.rise(ac);
    let rcm2 = b.fall(rc);
    let ovgm = b.fall(ov_g);
    let acm2 = b.fall(ac);
    let cscm2 = b.fall(csc0);

    let entry = b.place_with_tokens("entry", 1);
    b.arc_pt(entry, rmp);
    let choice = b.place("choice");
    b.arc_tp(rmp, choice);
    b.arc_pt(choice, uvgp);
    b.arc_pt(choice, ovgp);
    // UV branch.
    b.connect(uvgp, cscp1);
    b.connect(cscp1, amp1);
    b.connect(amp1, rmm1);
    b.connect(rmm1, amm1);
    b.connect(amm1, rcp1);
    b.connect(rcp1, acp1);
    b.connect(acp1, rcm1);
    b.connect(rcm1, uvgm);
    b.connect(uvgm, acm1);
    b.connect(acm1, cscm1);
    b.arc_tp(cscm1, entry);
    // OV branch.
    b.connect(ovgp, cscp2);
    b.connect(cscp2, amp2);
    b.connect(amp2, rmm2);
    b.connect(rmm2, amm2);
    b.connect(amm2, rcp2);
    b.connect(rcp2, acp2);
    b.connect(acp2, rcm2);
    b.connect(rcm2, ovgm);
    b.connect(ovgm, acm2);
    b.connect(acm2, cscm2);
    b.arc_tp(cscm2, entry);
    b.build()
}

/// PMOS_DELAY_CTRL / NMOS_DELAY_CTRL: delays an acknowledgement through
/// a timer handshake (`rd`/`ad` to PMIN_TIMER or NMIN_TIMER) so the
/// transistor honours its minimum on-time.
pub fn delay_ctrl_stg(name: &str) -> Stg {
    let mut b = StgBuilder::new(name);
    let ri = b.input("ri", false);
    let ad = b.input("ad", false);
    let rd = b.output("rd", false);
    let ao = b.output("ao", false);

    let rip = b.rise(ri);
    let rdp = b.rise(rd);
    let adp = b.rise(ad);
    let aop = b.rise(ao);
    let rim = b.fall(ri);
    let rdm = b.fall(rd);
    let adm = b.fall(ad);
    let aom = b.fall(ao);

    b.connect_marked(aom, rip);
    b.connect(rip, rdp);
    b.connect(rdp, adp);
    b.connect(adp, aop);
    b.connect(aop, rim);
    b.connect(rim, rdm);
    b.connect(rdm, adm);
    b.connect(adm, aom);
    b.build()
}

/// EXT_DELAY_CTRL: the same timer-gated shape as
/// [`delay_ctrl_stg`], driving PEXT_TIMER for the first-cycle PMOS
/// extension (the WAIT01 that detects "first cycle after UV" sits in
/// front of `ri`).
pub fn ext_delay_ctrl_stg() -> Stg {
    delay_ctrl_stg("ext_delay_ctrl")
}

/// HL_CTRL: wraps the HL WAIT element into an activation request toward
/// the MERGE (`ro`/`ai` channel).
pub fn hl_ctrl_stg() -> Stg {
    let mut b = StgBuilder::new("hl_ctrl");
    let hl = b.input("hl", false);
    let ai = b.input("ai", false);
    let ro = b.output("ro", false);

    let hlp = b.rise(hl);
    let rop = b.rise(ro);
    let aip = b.rise(ai);
    let rom = b.fall(ro);
    let aim = b.fall(ai);
    let hlm = b.fall(hl);

    b.connect_marked(aim, hlp);
    b.connect(hlp, rop);
    b.connect(rop, aip);
    // The latched condition clears before the handshake closes.
    b.connect(rop, hlm);
    b.connect(aip, rom);
    b.connect(hlm, rom);
    b.connect_marked(hlm, hlp);
    b.connect(rom, aim);
    b.build()
}

/// CHARGE_CTRL: the charging cycle behind a request/acknowledge channel
/// (`rc`/`ac` from MODE_CTRL). One request drives one full PMOS/NMOS
/// cycle: `rc+ → gp+ → gp_ack+ → oc+ → gp- → gp_ack- → gn+ → gn_ack+ →
/// ac+`, released through `rc- → oc- → zc+ → gn- → gn_ack- → zc- → ac-`
/// (the early-ZC completion; the no-ZC takeover is arbitrated upstream).
pub fn charge_ctrl_stg() -> Stg {
    let mut b = StgBuilder::new("charge_ctrl");
    let rc = b.input("rc", false);
    let oc = b.input("oc", false);
    let zc = b.input("zc", false);
    let gpa = b.input("gp_ack", false);
    let gna = b.input("gn_ack", false);
    let gp = b.output("gp", false);
    let gn = b.output("gn", false);
    let ac = b.output("ac", false);

    let rcp = b.rise(rc);
    let gpp = b.rise(gp);
    let gpap = b.rise(gpa);
    let ocp = b.rise(oc);
    let gpm = b.fall(gp);
    let gpam = b.fall(gpa);
    let gnp = b.rise(gn);
    let gnap = b.rise(gna);
    let acp = b.rise(ac);
    let rcm = b.fall(rc);
    let ocm = b.fall(oc);
    let zcp = b.rise(zc);
    let gnm = b.fall(gn);
    let gnam = b.fall(gna);
    let zcm = b.fall(zc);
    let acm = b.fall(ac);

    b.connect_marked(acm, rcp);
    b.connect(rcp, gpp);
    b.connect(gpp, gpap);
    b.connect(gpap, ocp);
    b.connect(ocp, gpm);
    b.connect(gpm, gpam);
    b.connect(gpam, gnp);
    b.connect(gnp, gnap);
    b.connect(gnap, acp);
    b.connect(acp, rcm);
    b.connect(rcm, ocm);
    b.connect(ocm, zcp);
    b.connect(zcp, gnm);
    b.connect(gnm, gnam);
    b.connect(gnam, zcm);
    b.connect(zcm, acm);
    b.build()
}

/// A timer environment for a `rd`/`ad` interface: acknowledges the
/// request after its (abstract) delay. Structurally this is the mirror
/// of [`delay_ctrl_stg`]'s timer port.
pub fn timer_stg(req: &str, ack: &str) -> Stg {
    let mut b = StgBuilder::new(format!("timer_{req}_{ack}"));
    let r = b.input(req, false);
    let a = b.output(ack, false);
    let rp = b.rise(r);
    let ap = b.rise(a);
    let rm = b.fall(r);
    let am = b.fall(a);
    b.connect_marked(am, rp);
    b.connect(rp, ap);
    b.connect(ap, rm);
    b.connect(rm, am);
    b.build()
}

/// The integrated phase-controller core: TOKEN_CTRL composed with
/// MODE_CTRL and the TOKEN_TIMER (Figure 5c's upper half), with the
/// module handshakes (`rm`/`am`, `rd`/`ad`) closed by the composition —
/// the A4A flow's *system integration* step.
///
/// The remaining open signals are the stage's external interface: the
/// activation channel `ri`/`ao`, the WAITX2 grant rails `uv_g`/`ov_g`,
/// and the charge channel `rc`/`ac`.
///
/// # Panics
///
/// Panics if the composition fails (it cannot: the interfaces are
/// complementary by construction).
pub fn phase_core_stg() -> Stg {
    let token = token_ctrl_stg();
    let mode = mode_ctrl_stg();
    let timer = timer_stg("rd", "ad");
    let composed = token
        .compose(&mode)
        .expect("token_ctrl || mode_ctrl interfaces are complementary")
        .compose(&timer)
        .expect("timer interface is complementary");
    // The closed module handshakes become internal signals.
    let mut result = composed;
    for name in ["rm", "am", "rd", "ad"] {
        if let Some(id) = result.signal_by_name(name) {
            if result.signal(id).kind == a4a_stg::SignalKind::Output {
                result = result.hide(id);
            }
        }
    }
    result
}

/// All module specifications with their names (the per-experiment index
/// of DESIGN.md references these).
pub fn all_module_stgs() -> Vec<(&'static str, Stg)> {
    vec![
        ("basic_buck", basic_buck_stg()),
        ("decoupler", decoupler_stg()),
        ("merge", merge_stg()),
        ("token_ctrl", token_ctrl_stg()),
        ("mode_ctrl", mode_ctrl_stg()),
        ("pmos_delay_ctrl", delay_ctrl_stg("pmos_delay_ctrl")),
        ("nmos_delay_ctrl", delay_ctrl_stg("nmos_delay_ctrl")),
        ("ext_delay_ctrl", ext_delay_ctrl_stg()),
        ("hl_ctrl", hl_ctrl_stg()),
        ("charge_ctrl", charge_ctrl_stg()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_module_stgs_are_clean() {
        for (name, stg) in all_module_stgs() {
            let sg = stg
                .state_graph(500_000)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = stg.verify(&sg);
            assert!(
                report.is_clean(),
                "{name} not clean ({} states):\n{}\nfirst persistence: {:?}\nfirst csc: {:?}",
                sg.state_count(),
                report.summary(),
                report.persistence.first(),
                report.csc_conflicts().first(),
            );
        }
    }

    #[test]
    fn basic_buck_never_shorts_the_bridge() {
        let stg = basic_buck_stg();
        let sg = stg.state_graph(500_000).unwrap();
        let gp = stg.signal_by_name("gp").unwrap();
        let gn = stg.signal_by_name("gn").unwrap();
        assert!(
            stg.check_mutual_exclusion(&sg, gp, gn).is_empty(),
            "PMOS and NMOS must never be on together"
        );
    }

    #[test]
    fn basic_buck_covers_three_scenarios() {
        let stg = basic_buck_stg();
        let sg = stg.state_graph(500_000).unwrap();
        // Both completion paths reachable: a state where zc is high
        // (early ZC) and a state where gn falls with uv high (late ZC).
        let zc = stg.signal_by_name("zc").unwrap();
        let uv = stg.signal_by_name("uv").unwrap();
        let gn = stg.signal_by_name("gn").unwrap();
        let mut saw_early = false;
        let mut saw_late = false;
        for s in sg.state_ids() {
            let code = sg.code(s);
            if code & zc.mask() != 0 {
                saw_early = true;
            }
            if code & uv.mask() != 0 && code & gn.mask() != 0 {
                saw_late = true;
            }
        }
        assert!(saw_early && saw_late);
    }

    #[test]
    fn decoupler_pipelines_the_token() {
        let stg = decoupler_stg();
        let sg = stg.state_graph(10_000).unwrap();
        assert!(
            sg.state_count() >= 8,
            "pipelined handshakes: {}",
            sg.state_count()
        );
    }

    #[test]
    fn merge_serves_both_requesters() {
        let stg = merge_stg();
        let sg = stg.state_graph(100_000).unwrap();
        let a1 = stg.signal_by_name("a1").unwrap();
        let a2 = stg.signal_by_name("a2").unwrap();
        let mut saw1 = false;
        let mut saw2 = false;
        for s in sg.state_ids() {
            saw1 |= sg.code(s) & a1.mask() != 0;
            saw2 |= sg.code(s) & a2.mask() != 0;
        }
        assert!(saw1 && saw2);
    }

    #[test]
    fn token_ctrl_joins_timer_and_mode() {
        let stg = token_ctrl_stg();
        let sg = stg.state_graph(100_000).unwrap();
        let ao = stg.signal_by_name("ao").unwrap();
        let ad = stg.signal_by_name("ad").unwrap();
        let am = stg.signal_by_name("am").unwrap();
        // ao never rises while either branch is incomplete.
        for s in sg.state_ids() {
            let code = sg.code(s);
            if sg.is_excited(&stg, s, ao) && code & ao.mask() == 0 {
                assert!(
                    code & ad.mask() != 0 && code & am.mask() != 0,
                    "ao+ excited before both acks"
                );
            }
        }
    }

    #[test]
    fn token_ring_circulates_one_token_forever() {
        let ring = token_ring_stg();
        let sg = ring.state_graph(100_000).expect("consistent");
        let report = ring.verify(&sg);
        assert!(report.deadlocks.is_empty(), "ring deadlocked");
        assert!(report.persistence.is_empty());
        // Every channel is internal after closing the ring.
        for s in ring.signal_ids() {
            assert_eq!(
                ring.signal(s).kind,
                a4a_stg::SignalKind::Internal,
                "{} should be internal",
                ring.signal(s).name
            );
        }
        // The token is never lost: in every reachable state it sits in a
        // stage latch or travels on a channel. (The latches overlap
        // briefly during hand-off — make-before-break — so exclusivity
        // is deliberately NOT required.)
        let t0 = ring.signal_by_name("tok_c01").expect("stage0 latch");
        let t1 = ring.signal_by_name("tok_c10").expect("stage1 latch");
        let c01 = ring.signal_by_name("c01").expect("channel");
        let c10 = ring.signal_by_name("c10").expect("channel");
        let lost = ring.check_invariant(&sg, |code| {
            code & (t0.mask() | t1.mask() | c01.mask() | c10.mask()) != 0
        });
        assert!(
            lost.is_empty(),
            "the token vanished in {} states",
            lost.len()
        );
        // And the token visits both stages.
        let mut saw0 = false;
        let mut saw1 = false;
        for s in sg.state_ids() {
            saw0 |= sg.code(s) & t0.mask() != 0;
            saw1 |= sg.code(s) & t1.mask() != 0;
        }
        assert!(saw0 && saw1, "token must circulate");
        // Structural conservation: every computed place invariant keeps
        // its weighted token sum constant along the whole state space
        // (the Gaussian basis need not be semi-positive, so the stronger
        // coverage certificate is not asserted here).
        let invariants = ring.net().place_invariants();
        assert!(!invariants.is_empty());
        let m0 = ring.net().initial_marking();
        for inv in &invariants {
            let s0 = inv.sum(&m0);
            for st in sg.state_ids() {
                assert_eq!(inv.sum(&sg.marking(st)), s0, "invariant broke");
            }
        }
        // And the ring is 1-bounded: a single token.
        for st in sg.state_ids() {
            assert!(sg.marking(st).is_safe(), "ring must stay safe");
        }
    }

    #[test]
    fn charge_ctrl_never_shorts() {
        let stg = charge_ctrl_stg();
        let sg = stg.state_graph(100_000).unwrap();
        let gp = stg.signal_by_name("gp").unwrap();
        let gn = stg.signal_by_name("gn").unwrap();
        assert!(stg.check_mutual_exclusion(&sg, gp, gn).is_empty());
    }

    #[test]
    fn phase_core_composition_is_live() {
        let stg = phase_core_stg();
        let sg = stg
            .state_graph(1_000_000)
            .expect("composed system is consistent");
        // Every closed-handshake signal became internal.
        for name in ["rm", "am", "rd", "ad"] {
            let id = stg.signal_by_name(name).expect(name);
            assert_eq!(
                stg.signal(id).kind,
                a4a_stg::SignalKind::Internal,
                "{name} should be hidden after integration"
            );
        }
        // The integrated system is deadlock-free and output-persistent.
        let report = stg.verify(&sg);
        assert!(report.deadlocks.is_empty(), "deadlock in composition");
        assert!(
            report.persistence.is_empty(),
            "persistence violated: {:?}",
            report.persistence.first()
        );
        // The external interface stayed open.
        for name in ["ri", "ao", "uv_g", "ov_g", "rc", "ac"] {
            assert!(stg.signal_by_name(name).is_some(), "missing {name}");
        }
        assert!(sg.state_count() > 20, "non-trivial product");
    }

    #[test]
    fn timer_env_is_clean() {
        let stg = timer_stg("rd", "ad");
        let sg = stg.state_graph(100).unwrap();
        assert!(stg.verify(&sg).is_clean());
    }

    #[test]
    fn stgs_round_trip_through_g_format() {
        for (name, stg) in all_module_stgs() {
            let text = stg.to_g();
            let back = a4a_stg::Stg::parse_g(&text)
                .unwrap_or_else(|e| panic!("{name} reparse: {e}\n{text}"));
            let sg1 = stg.state_graph(500_000).unwrap();
            let sg2 = back
                .state_graph(500_000)
                .unwrap_or_else(|e| panic!("{name} rebuild: {e}"));
            assert_eq!(
                sg1.state_count(),
                sg2.state_count(),
                "{name} state count changed through .g round trip"
            );
        }
    }
}
