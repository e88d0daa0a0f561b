//! Golden tests for the exploration interner: state-id assignment on
//! the composed token-ring STG is pinned exactly, so any change to the
//! interner, the safe-net exploration kernel's row layout, or the BFS
//! order shows up as a diff here — not as a silently renumbered state
//! space.
//!
//! The companion coverage lives in `tests/par_vs_seq.rs` (kernel vs
//! reference differential) and `crates/rt/src/hash.rs` (unit tests of
//! `IdTable` itself).

use a4a_rt::IdTable;
use a4a_stg::SgStateId;

/// Discovery-order signal codes of the token-ring state graph. Breadth-
/// first numbering is part of the engine's contract, so this sequence is
/// a golden: it must never change, in the kernel or the reference engine.
const RING_CODES: [u64; 14] = [16, 24, 26, 10, 58, 42, 34, 32, 33, 37, 53, 5, 21, 20];

#[test]
fn token_ring_ids_are_pinned() {
    let ring = a4a_ctrl::stgs::token_ring_stg();
    for (label, sg) in [
        ("kernel", ring.state_graph(500_000).unwrap()),
        ("ref", ring.state_graph_ref(500_000).unwrap()),
    ] {
        assert_eq!(sg.state_count(), RING_CODES.len(), "{label}");
        assert_eq!(sg.edge_count(), 16, "{label}");
        let codes: Vec<u64> = sg.state_ids().map(|s| sg.code(s)).collect();
        assert_eq!(codes, RING_CODES, "{label}: numbering moved");
    }
}

#[test]
fn interner_assigns_discovery_order_ids() {
    // Re-intern the ring's markings by hand in discovery order: the
    // IdTable must hand back exactly the engine's ids, with every
    // marking stored once (in the arena, not the table).
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let sg = ring.state_graph(500_000).unwrap();
    let markings: Vec<_> = sg.state_ids().map(|s| sg.marking(s).clone()).collect();
    let mut table = IdTable::new();
    for (i, m) in markings.iter().enumerate() {
        let h = m.fx_hash();
        assert_eq!(
            table.get(h, |id| &markings[id as usize] == m),
            None,
            "state {i} interned twice"
        );
        table.insert(h, i as u32);
    }
    assert_eq!(table.len(), markings.len());
    for (i, m) in markings.iter().enumerate() {
        let got = table.get(m.fx_hash(), |id| &markings[id as usize] == m);
        assert_eq!(got, Some(i as u32), "lookup of state {i}");
    }
}

#[test]
fn states_by_code_covers_every_state_exactly_once() {
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let sg = ring.state_graph(500_000).unwrap();
    let by_code = sg.states_by_code();
    // The ring has unique state encoding: 14 codes, one state each.
    assert_eq!(by_code.len(), 14);
    let mut seen = vec![false; sg.state_count()];
    for (code, states) in &by_code {
        for &s in states {
            assert_eq!(sg.code(s), *code, "{s} grouped under wrong code");
            assert!(!seen[s.index()], "{s} grouped twice");
            seen[s.index()] = true;
        }
    }
    assert!(seen.iter().all(|&b| b), "every state grouped");
    // Group membership agrees with the golden numbering.
    assert_eq!(by_code[&RING_CODES[0]], vec![SgStateId::INITIAL]);
}
