//! Parallel composition of STGs (the PComp step of the A4A flow).
//!
//! Two STGs are composed by synchronising on their shared signals: every
//! transition of a shared signal in one component fires together with a
//! matching-polarity transition of the same signal in the other. Shared
//! signals must be driven by at most one side (output/internal in one,
//! input in the other); the composed signal keeps the driving side's
//! kind.

use std::collections::HashMap;

use a4a_petri::{ArcKind, NetBuilder, NetError, PlaceId, TransitionId};

use crate::{Edge, Label, Polarity, Signal, SignalId, SignalKind, Stg, StgError};

impl Stg {
    /// Parallel composition `self || other`, synchronising on shared
    /// signal names.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::Compose`] when a shared signal is driven by
    /// both components or their initial values disagree, or when the
    /// net builder refuses a name or an arc of the product (a local
    /// transition whose `.N` suffix gives it a name already taken).
    ///
    /// # Examples
    ///
    /// Compose a controller with its environment mirror and check the
    /// closed system is deadlock-free:
    ///
    /// ```
    /// use a4a_stg::Stg;
    ///
    /// let ctrl = Stg::parse_g("\
    /// .model ctrl
    /// .inputs req
    /// .outputs ack
    /// .graph
    /// req+ ack+
    /// ack+ req-
    /// req- ack-
    /// ack- req+
    /// .marking { <ack-,req+> }
    /// .end
    /// ")?;
    /// let env = Stg::parse_g("\
    /// .model env
    /// .inputs ack
    /// .outputs req
    /// .graph
    /// req+ ack+
    /// ack+ req-
    /// req- ack-
    /// ack- req+
    /// .marking { <ack-,req+> }
    /// .end
    /// ")?;
    /// let closed = ctrl.compose(&env)?;
    /// let sg = closed.state_graph(1000)?;
    /// assert!(sg.state_ids().all(|s| !sg.successors(s).is_empty()));
    /// # Ok::<(), a4a_stg::StgError>(())
    /// ```
    pub fn compose(&self, other: &Stg) -> Result<Stg, StgError> {
        // 1. Merge signal declarations.
        let mut signals: Vec<Signal> = Vec::new();
        let mut map_a: Vec<SignalId> = Vec::new();
        let mut map_b: Vec<Option<SignalId>> = vec![None; other.signals.len()];
        for (ia, sa) in self.signals.iter().enumerate() {
            let merged = match other.signal_by_name(&sa.name) {
                Some(ib) => {
                    let sb = other.signal(ib);
                    if sb.initial != sa.initial {
                        return Err(StgError::Compose {
                            message: format!(
                                "initial value of shared signal {:?} disagrees ({} vs {})",
                                sa.name, sa.initial, sb.initial
                            ),
                        });
                    }
                    let kind = merge_kinds(&sa.name, sa.kind, sb.kind)?;
                    map_b[ib.index()] = Some(SignalId(signals.len() as u32));
                    Signal {
                        name: sa.name.clone(),
                        kind,
                        initial: sa.initial,
                    }
                }
                None => sa.clone(),
            };
            map_a.push(SignalId(signals.len() as u32));
            signals.push(merged);
            let _ = ia;
        }
        for (ib, sb) in other.signals.iter().enumerate() {
            if map_b[ib].is_none() {
                map_b[ib] = Some(SignalId(signals.len() as u32));
                signals.push(sb.clone());
            }
        }
        if signals.len() > 64 {
            return Err(StgError::Compose {
                message: format!(
                    "composition has {} signals; at most 64 supported",
                    signals.len()
                ),
            });
        }
        let shared: Vec<String> = self
            .signals
            .iter()
            .filter(|s| other.signal_by_name(&s.name).is_some())
            .map(|s| s.name.clone())
            .collect();

        // 2. Places: disjoint union with prefixed names.
        let mut net = NetBuilder::new();
        let mut places_a: Vec<PlaceId> = Vec::new();
        let mut places_b: Vec<PlaceId> = Vec::new();
        for p in self.net.place_ids() {
            let pl = self.net.place(p);
            places_a.push(
                net.place_with_tokens(format!("A.{}", pl.name), pl.initial_tokens)
                    .map_err(refused)?,
            );
        }
        for p in other.net.place_ids() {
            let pl = other.net.place(p);
            places_b.push(
                net.place_with_tokens(format!("B.{}", pl.name), pl.initial_tokens)
                    .map_err(refused)?,
            );
        }

        // 3. Transitions.
        let mut labels: Vec<Label> = Vec::new();
        let mut name_counts: HashMap<String, u32> = HashMap::new();
        let fresh_name = |base: String, counts: &mut HashMap<String, u32>| -> String {
            let n = counts.entry(base.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                base
            } else {
                format!("{base}.{n}")
            }
        };
        let is_shared_a = |t: TransitionId| -> Option<(SignalId, Polarity)> {
            match self.label(t) {
                Label::Edge(e) if shared.contains(&self.signal(e.signal).name) => {
                    Some((e.signal, e.polarity))
                }
                _ => None,
            }
        };

        let add_arcs = |net: &mut NetBuilder,
                        nt: TransitionId,
                        src: &Stg,
                        t: TransitionId,
                        place_map: &[PlaceId]|
         -> Result<(), StgError> {
            let tr = src.net.transition(t);
            for (kind, arcs) in [
                (ArcKind::Consume, tr.consumed()),
                (ArcKind::Produce, tr.produced()),
                (ArcKind::Read, tr.read()),
            ] {
                for &(p, w) in arcs {
                    net.arc(kind, place_map[p.index()], nt, w)
                        .map_err(refused)?;
                }
            }
            Ok(())
        };

        // Local (non-shared) transitions of A.
        for t in self.net.transition_ids() {
            if is_shared_a(t).is_some() {
                continue;
            }
            let label = match self.label(t) {
                Label::Dummy => Label::Dummy,
                Label::Edge(e) => Label::Edge(Edge {
                    signal: map_a[e.signal.index()],
                    polarity: e.polarity,
                }),
            };
            let name = fresh_name(self.transition_name(t), &mut name_counts);
            let nt = net.transition(name).map_err(refused)?;
            labels.push(label);
            add_arcs(&mut net, nt, self, t, &places_a)?;
        }
        // Local transitions of B.
        for t in other.net.transition_ids() {
            let local = !matches!(other.label(t),
                Label::Edge(e) if shared.contains(&other.signal(e.signal).name));
            if !local {
                continue;
            }
            let label = match other.label(t) {
                Label::Dummy => Label::Dummy,
                Label::Edge(e) => Label::Edge(Edge {
                    signal: map_b[e.signal.index()].expect("mapped"),
                    polarity: e.polarity,
                }),
            };
            let name = fresh_name(other.transition_name(t), &mut name_counts);
            let nt = net.transition(name).map_err(refused)?;
            labels.push(label);
            add_arcs(&mut net, nt, other, t, &places_b)?;
        }
        // Synchronised products for shared signals.
        for ta in self.net.transition_ids() {
            let Some((sig_a, pol_a)) = is_shared_a(ta) else {
                continue;
            };
            let name_a = &self.signal(sig_a).name;
            let sig_b = other.signal_by_name(name_a).expect("shared");
            for tb in other.transitions_of(sig_b) {
                let Label::Edge(eb) = other.label(tb) else {
                    continue;
                };
                if eb.polarity != pol_a {
                    continue;
                }
                let label = Label::Edge(Edge {
                    signal: map_a[sig_a.index()],
                    polarity: pol_a,
                });
                let name = fresh_name(self.transition_name(ta), &mut name_counts);
                let nt = net.transition(name).map_err(refused)?;
                labels.push(label);
                add_arcs(&mut net, nt, self, ta, &places_a)?;
                add_arcs(&mut net, nt, other, tb, &places_b)?;
            }
        }

        Ok(Stg {
            name: format!("{}||{}", self.name, other.name),
            net: net.build(),
            signals,
            labels,
        })
    }

    /// Hides a signal: turns it into an internal signal of the composed
    /// system (commonly applied to handshake wires after composition).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this STG or names an input
    /// signal (inputs cannot be hidden — nothing would drive them).
    pub fn hide(&self, id: SignalId) -> Stg {
        assert!(
            self.signal(id).kind != SignalKind::Input,
            "cannot hide input signal {}",
            self.signal(id).name
        );
        self.with_signal_kind(id, SignalKind::Internal)
    }
}

/// The net builder's refusal as a composition error.
fn refused(e: NetError) -> StgError {
    StgError::Compose {
        message: e.to_string(),
    }
}

fn merge_kinds(name: &str, a: SignalKind, b: SignalKind) -> Result<SignalKind, StgError> {
    use SignalKind::*;
    match (a, b) {
        (Input, Input) => Ok(Input),
        (Input, k) | (k, Input) => Ok(k),
        _ => Err(StgError::Compose {
            message: format!("signal {name:?} is driven by both components"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake(name: &str, in_sig: &str, out_sig: &str, swap: bool) -> Stg {
        // A 4-phase handshake where `in_sig` leads if !swap.
        let mut b = crate::StgBuilder::new(name);
        let i = b.input(in_sig, false);
        let o = b.output(out_sig, false);
        let (lead, follow) = if swap { (o, i) } else { (i, o) };
        let lp = b.rise(lead);
        let fp = b.rise(follow);
        let lm = b.fall(lead);
        let fm = b.fall(follow);
        b.connect_marked(fm, lp);
        b.connect(lp, fp);
        b.connect(fp, lm);
        b.connect(lm, fm);
        b.build()
    }

    #[test]
    fn closed_composition_behaves_like_one_handshake() {
        let ctrl = handshake("ctrl", "req", "ack", false);
        let env = handshake("env", "ack", "req", true); // env drives req
        let closed = ctrl.compose(&env).unwrap();
        assert_eq!(closed.signal_count(), 2);
        let req = closed.signal_by_name("req").unwrap();
        let ack = closed.signal_by_name("ack").unwrap();
        assert_eq!(
            closed.signal(req).kind,
            SignalKind::Output,
            "env drives req"
        );
        assert_eq!(closed.signal(ack).kind, SignalKind::Output);
        let sg = closed.state_graph(1000).unwrap();
        assert_eq!(sg.state_count(), 4);
        assert!(sg.state_ids().all(|s| !sg.successors(s).is_empty()));
    }

    #[test]
    fn disjoint_signals_interleave() {
        let a = handshake("a", "x", "y", false);
        let b = handshake("b", "u", "v", false);
        let c = a.compose(&b).unwrap();
        assert_eq!(c.signal_count(), 4);
        let sg = c.state_graph(1000).unwrap();
        assert_eq!(sg.state_count(), 16, "4 x 4 product");
    }

    #[test]
    fn shared_inputs_synchronise() {
        // Two observers of the same environment input `x`.
        let a = handshake("a", "x", "y", false);
        let mut bb = crate::StgBuilder::new("b");
        let x = bb.input("x", false);
        let z = bb.output("z", false);
        let xp = bb.rise(x);
        let zp = bb.rise(z);
        let xm = bb.fall(x);
        let zm = bb.fall(z);
        bb.connect_marked(zm, xp);
        bb.connect(xp, zp);
        bb.connect(zp, xm);
        bb.connect(xm, zm);
        let b = bb.build();
        let c = a.compose(&b).unwrap();
        let shared = c.signal_by_name("x").unwrap();
        assert_eq!(c.signal(shared).kind, SignalKind::Input, "still external");
        let sg = c.state_graph(10_000).unwrap();
        // Both outputs react to the same synchronised x.
        let y = c.signal_by_name("y").unwrap();
        let z = c.signal_by_name("z").unwrap();
        let mut saw_both = false;
        for s in sg.state_ids() {
            let code = sg.code(s);
            saw_both |= code & y.mask() != 0 && code & z.mask() != 0;
        }
        assert!(saw_both, "y and z both follow x");
    }

    #[test]
    fn output_clash_rejected() {
        let a = handshake("a", "x", "y", false);
        let b = handshake("b", "x", "y", false);
        let err = a.compose(&b).unwrap_err();
        assert!(matches!(err, StgError::Compose { .. }));
    }

    #[test]
    fn initial_value_mismatch_rejected() {
        let a = handshake("a", "x", "y", false);
        let mut bb = crate::StgBuilder::new("b");
        let y = bb.input("y", true); // disagrees with a's y=false
        let z = bb.output("z", false);
        let yp = bb.fall(y);
        let zp = bb.rise(z);
        bb.connect_marked(zp, yp);
        bb.connect(yp, zp);
        let b = bb.build();
        let err = a.compose(&b).unwrap_err();
        assert!(matches!(err, StgError::Compose { .. }));
    }

    /// The `.N` suffix that keeps local transition names apart can hit
    /// a name the other side already took: the builder's refusal comes
    /// back as a composition error.
    #[test]
    fn transition_name_clash_is_a_composition_error() {
        let a = Stg::parse_g(
            ".inputs a\n.dummy a+.2\n.graph\na+ a-\na- a+.2\na+.2 a+\n.marking { <a+.2,a+> }\n.end\n",
        )
        .unwrap();
        let b = Stg::parse_g(".dummy a+\n.graph\na+ p\np a+\n.marking { p }\n.end\n").unwrap();
        assert_eq!(
            a.compose(&b).unwrap_err(),
            StgError::Compose {
                message: "duplicate transition name \"a+.2\"".into()
            }
        );
    }

    #[test]
    fn hide_turns_output_internal() {
        let a = handshake("a", "x", "y", false);
        let y = a.signal_by_name("y").unwrap();
        let hidden = a.hide(y);
        assert_eq!(hidden.signal(y).kind, SignalKind::Internal);
    }

    #[test]
    #[should_panic(expected = "cannot hide input")]
    fn hide_input_panics() {
        let a = handshake("a", "x", "y", false);
        let x = a.signal_by_name("x").unwrap();
        let _ = a.hide(x);
    }

    #[test]
    fn composition_name() {
        let a = handshake("a", "x", "y", false);
        let b = handshake("b", "u", "v", false);
        assert_eq!(a.compose(&b).unwrap().name(), "a||b");
    }
}
