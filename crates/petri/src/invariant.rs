//! Structural place-invariant analysis.
//!
//! A P-invariant (place invariant) is an integer weighting of places
//! whose weighted token sum is preserved by every transition firing.
//! Invariants certify boundedness structurally: if every place appears
//! in some non-negative invariant, the net is bounded regardless of the
//! state space — the check the A4A flow uses before committing to
//! explicit exploration, and the formal backbone of "the token is
//! conserved in the ring".

use crate::{Marking, PetriNet, PlaceId};

/// A place invariant: integer weights per place with
/// `weights · marking` constant over all reachable markings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceInvariant {
    /// One weight per place, indexed by [`PlaceId::index`].
    pub weights: Vec<i64>,
}

impl PlaceInvariant {
    /// The invariant's weighted token sum for a marking.
    pub fn sum(&self, marking: &Marking) -> i64 {
        self.weights
            .iter()
            .zip(marking.iter())
            .map(|(&w, t)| w * i64::from(t))
            .sum()
    }

    /// Returns `true` when every weight is non-negative (such invariants
    /// bound every place they cover).
    pub fn is_semi_positive(&self) -> bool {
        self.weights.iter().all(|&w| w >= 0)
    }

    /// Places with non-zero weight.
    pub fn support(&self) -> Vec<PlaceId> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .map(|(i, _)| PlaceId(i as u32))
            .collect()
    }
}

impl PetriNet {
    /// The incidence matrix entry for (place, transition):
    /// tokens produced minus tokens consumed when the transition fires
    /// (read arcs contribute nothing).
    pub fn incidence(&self, place: PlaceId, transition: crate::TransitionId) -> i64 {
        let tr = self.transition(transition);
        let produced: i64 = tr
            .produced()
            .iter()
            .filter(|&&(p, _)| p == place)
            .map(|&(_, w)| i64::from(w))
            .sum();
        let consumed: i64 = tr
            .consumed()
            .iter()
            .filter(|&&(p, _)| p == place)
            .map(|&(_, w)| i64::from(w))
            .sum();
        produced - consumed
    }

    /// Checks whether a weight vector is a P-invariant (annihilates the
    /// incidence matrix).
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not have one entry per place.
    pub fn is_place_invariant(&self, weights: &[i64]) -> bool {
        assert_eq!(weights.len(), self.place_count(), "one weight per place");
        self.transition_ids().all(|t| {
            self.place_ids()
                .map(|p| weights[p.index()] * self.incidence(p, t))
                .sum::<i64>()
                == 0
        })
    }

    /// Computes a basis of rational P-invariants (scaled to integers) by
    /// Gaussian elimination over the incidence matrix.
    ///
    /// The result spans the invariant space; individual basis vectors
    /// are not necessarily semi-positive.
    pub fn place_invariants(&self) -> Vec<PlaceInvariant> {
        let np = self.place_count();
        let nt = self.transition_count();
        // Solve xᵀ·C = 0, i.e. Cᵀ·x = 0 with C the |P|×|T| incidence
        // matrix. Build Cᵀ as an nt × np rational matrix (i128 fractions
        // via row scaling is enough: entries are small integers).
        let mut m: Vec<Vec<i128>> = (0..nt)
            .map(|t| {
                (0..np)
                    .map(|p| {
                        i128::from(self.incidence(PlaceId(p as u32), crate::TransitionId(t as u32)))
                    })
                    .collect()
            })
            .collect();

        // Fraction-free Gaussian elimination, tracking pivot columns.
        let mut pivot_cols = Vec::new();
        let mut rank = 0usize;
        for col in 0..np {
            let Some(pivot_row) = (rank..nt).find(|&r| m[r][col] != 0) else {
                continue;
            };
            m.swap(rank, pivot_row);
            let pivot = m[rank][col];
            for r in 0..nt {
                if r != rank && m[r][col] != 0 {
                    let factor = m[r][col];
                    let pivot_row_copy = m[rank].clone();
                    for (cell, &pv) in m[r].iter_mut().zip(&pivot_row_copy) {
                        *cell = *cell * pivot - pv * factor;
                    }
                    // Keep numbers small: divide the row by its gcd.
                    let g = m[r].iter().fold(0i128, |acc, &x| gcd(acc, x.abs()));
                    if g > 1 {
                        for cell in m[r].iter_mut() {
                            *cell /= g;
                        }
                    }
                }
            }
            pivot_cols.push(col);
            rank += 1;
            if rank == nt {
                break;
            }
        }

        // Free columns parameterise the null space.
        let mut invariants = Vec::new();
        for free in 0..np {
            if pivot_cols.contains(&free) {
                continue;
            }
            // x[free] = 1; back-substitute pivots. Work in rationals:
            // x[pivot_col] = -row[free] / row[pivot_col].
            let mut numer: Vec<i128> = vec![0; np];
            let mut denom: Vec<i128> = vec![1; np];
            numer[free] = 1;
            for (r, &pc) in pivot_cols.iter().enumerate() {
                let a = m[r][free];
                let b = m[r][pc];
                if b != 0 {
                    numer[pc] = -a;
                    denom[pc] = b;
                }
            }
            // Clear denominators.
            let lcm_all = denom.iter().fold(1i128, |acc, &d| lcm(acc, d.abs().max(1)));
            let mut weights: Vec<i64> = (0..np)
                .map(|i| (numer[i] * (lcm_all / denom[i])) as i64)
                .collect();
            // Normalise sign and gcd.
            let g = weights.iter().fold(0i64, |acc, &x| gcd64(acc, x.abs()));
            if g > 1 {
                for w in &mut weights {
                    *w /= g;
                }
            }
            let negatives = weights.iter().filter(|&&w| w < 0).count();
            let positives = weights.iter().filter(|&&w| w > 0).count();
            if negatives > positives {
                for w in &mut weights {
                    *w = -*w;
                }
            }
            let inv = PlaceInvariant { weights };
            debug_assert!(self.is_place_invariant(&inv.weights));
            invariants.push(inv);
        }
        invariants
    }

    /// Returns `true` when every place is covered by a semi-positive
    /// invariant in the computed basis — a structural boundedness
    /// certificate (sufficient, not necessary).
    pub fn covered_by_invariants(&self) -> bool {
        let invariants = self.place_invariants();
        self.place_ids().all(|p| {
            invariants
                .iter()
                .any(|inv| inv.is_semi_positive() && inv.weights[p.index()] > 0)
        })
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn gcd64(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd64(b, a % b)
    }
}

fn lcm(a: i128, b: i128) -> i128 {
    a / gcd(a, b).max(1) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArcKind, NetBuilder};

    fn ring(n: usize) -> PetriNet {
        let mut b = NetBuilder::new();
        let places: Vec<_> = (0..n)
            .map(|i| {
                b.place_with_tokens(format!("p{i}"), u32::from(i == 0))
                    .unwrap()
            })
            .collect();
        for i in 0..n {
            let t = b.transition(format!("t{i}")).unwrap();
            b.arc_pt(places[i], t).unwrap();
            b.arc_tp(t, places[(i + 1) % n]).unwrap();
        }
        b.build()
    }

    #[test]
    fn ring_token_is_conserved() {
        let net = ring(4);
        let invariants = net.place_invariants();
        assert!(!invariants.is_empty());
        // The all-ones vector is an invariant of a ring.
        assert!(net.is_place_invariant(&[1, 1, 1, 1]));
        // The computed basis certifies conservation of the initial sum.
        let m0 = net.initial_marking();
        for inv in &invariants {
            let s0 = inv.sum(&m0);
            let g = net.explore(100).unwrap();
            for s in g.state_ids() {
                assert_eq!(inv.sum(&g.marking(s)), s0, "invariant violated");
            }
        }
        assert!(net.covered_by_invariants());
    }

    #[test]
    fn incidence_matrix_entries() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        let t = b.transition("t").unwrap();
        b.arc_pt(p, t).unwrap();
        b.arc(ArcKind::Produce, q, t, 3).unwrap();
        let net = b.build();
        let t0 = crate::TransitionId(0);
        assert_eq!(net.incidence(p, t0), -1);
        assert_eq!(net.incidence(q, t0), 3);
    }

    #[test]
    fn read_arcs_do_not_affect_invariants() {
        let mut b = NetBuilder::new();
        let ctx = b.place_with_tokens("ctx", 1).unwrap();
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        let t = b.transition("t").unwrap();
        b.arc_read(ctx, t).unwrap();
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        let net = b.build();
        assert_eq!(net.incidence(ctx, crate::TransitionId(0)), 0);
        assert!(net.is_place_invariant(&[1, 0, 0]), "ctx alone is invariant");
        assert!(net.is_place_invariant(&[0, 1, 1]), "p+q conserved");
    }

    #[test]
    fn unbounded_net_is_not_covered() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        let t = b.transition("t").unwrap();
        b.arc_read(p, t).unwrap();
        b.arc_tp(t, q).unwrap(); // q grows without bound
        let net = b.build();
        assert!(!net.covered_by_invariants());
    }

    #[test]
    fn handshake_has_two_independent_invariants() {
        // Two disjoint 2-rings: invariant space has dimension >= 2.
        let mut b = NetBuilder::new();
        for side in ["a", "b"] {
            let p0 = b.place_with_tokens(format!("{side}0"), 1).unwrap();
            let p1 = b.place(format!("{side}1")).unwrap();
            let t0 = b.transition(format!("{side}_t0")).unwrap();
            let t1 = b.transition(format!("{side}_t1")).unwrap();
            b.arc_pt(p0, t0).unwrap();
            b.arc_tp(t0, p1).unwrap();
            b.arc_pt(p1, t1).unwrap();
            b.arc_tp(t1, p0).unwrap();
        }
        let net = b.build();
        let invariants = net.place_invariants();
        assert!(invariants.len() >= 2, "got {}", invariants.len());
        assert!(net.covered_by_invariants());
    }

    #[test]
    fn support_and_semipositivity() {
        let inv = PlaceInvariant {
            weights: vec![1, 0, 2, 0],
        };
        assert!(inv.is_semi_positive());
        assert_eq!(inv.support(), vec![crate::PlaceId(0), crate::PlaceId(2)]);
        let neg = PlaceInvariant {
            weights: vec![1, -1],
        };
        assert!(!neg.is_semi_positive());
    }

    #[test]
    #[should_panic(expected = "one weight per place")]
    fn wrong_length_panics() {
        let net = ring(3);
        let _ = net.is_place_invariant(&[1, 1]);
    }
}
