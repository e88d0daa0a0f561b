//! Graphviz (DOT) export of STGs and their state graphs — the visual
//! artefacts Workcraft renders in its editor (Figure 4 of the paper).

use std::fmt::Write as _;

use crate::{Label, SgStateId, StateGraph, Stg};

impl Stg {
    /// Renders the STG as Graphviz DOT: transitions as boxes (inputs
    /// outlined, outputs filled, dummies as points), explicit places as
    /// circles, implicit places folded into direct edges.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", escape(&self.name));
        let _ = writeln!(out, "  rankdir=TB; node [fontname=monospace];");
        // Transitions.
        for t in self.net.transition_ids() {
            let name = self.transition_name(t);
            match self.label(t) {
                Label::Dummy => {
                    let _ = writeln!(
                        out,
                        "  t{} [shape=point, xlabel=\"{}\"];",
                        t.index(),
                        escape(&name)
                    );
                }
                Label::Edge(e) => {
                    let sig = self.signal(e.signal);
                    let style = if sig.kind.is_implemented() {
                        "style=filled, fillcolor=lightblue"
                    } else {
                        "style=solid"
                    };
                    let _ = writeln!(
                        out,
                        "  t{} [shape=box, {} , label=\"{}\"];",
                        t.index(),
                        style,
                        escape(&name)
                    );
                }
            }
        }
        // Places: implicit (1 producer, 1 consumer, unweighted) become
        // direct edges.
        for p in self.net.place_ids() {
            let producers: Vec<_> = self
                .net
                .transition_ids()
                .filter(|&t| {
                    self.net
                        .transition(t)
                        .produced()
                        .iter()
                        .any(|&(q, _)| q == p)
                })
                .collect();
            let consumers: Vec<_> = self
                .net
                .transition_ids()
                .filter(|&t| {
                    self.net
                        .transition(t)
                        .consumed()
                        .iter()
                        .any(|&(q, _)| q == p)
                })
                .collect();
            let readers: Vec<_> = self
                .net
                .transition_ids()
                .filter(|&t| self.net.transition(t).read().iter().any(|&(q, _)| q == p))
                .collect();
            let tokens = self.net.place(p).initial_tokens;
            let implicit =
                producers.len() == 1 && consumers.len() == 1 && readers.is_empty() && tokens <= 1;
            if implicit {
                let style = if tokens == 1 { " [label=\"●\"]" } else { "" };
                let _ = writeln!(
                    out,
                    "  t{} -> t{}{};",
                    producers[0].index(),
                    consumers[0].index(),
                    style
                );
            } else {
                let label = if tokens > 0 {
                    format!("{tokens}")
                } else {
                    String::new()
                };
                let _ = writeln!(out, "  p{} [shape=circle, label=\"{label}\"];", p.index());
                for t in &producers {
                    let _ = writeln!(out, "  t{} -> p{};", t.index(), p.index());
                }
                for t in &consumers {
                    let _ = writeln!(out, "  p{} -> t{};", p.index(), t.index());
                }
                for t in &readers {
                    let _ = writeln!(
                        out,
                        "  p{} -> t{} [dir=both, arrowtail=odot];",
                        p.index(),
                        t.index()
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

impl StateGraph {
    /// Renders the binary-encoded state graph as DOT, labelling states
    /// with their signal codes and edges with transition names.
    pub fn to_dot(&self, stg: &Stg) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}_sg\" {{", escape(stg.name()));
        let _ = writeln!(out, "  node [shape=ellipse, fontname=monospace];");
        for s in self.state_ids() {
            let code: String = (0..stg.signal_count())
                .rev()
                .map(|i| {
                    if self.code(s) & (1 << i) != 0 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            let style = if s == SgStateId::INITIAL {
                ", style=bold"
            } else {
                ""
            };
            let _ = writeln!(out, "  q{} [label=\"{}\"{}];", s.index(), code, style);
        }
        for s in self.state_ids() {
            for &(t, succ) in self.successors(s) {
                let _ = writeln!(
                    out,
                    "  q{} -> q{} [label=\"{}\"];",
                    s.index(),
                    succ.index(),
                    escape(&stg.transition_name(t))
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use crate::Stg;

    const HANDSHAKE: &str = "\
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
";

    #[test]
    fn stg_dot_has_all_transitions() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        let dot = stg.to_dot();
        assert!(dot.starts_with("digraph"));
        for name in ["req+", "ack+", "req-", "ack-"] {
            assert!(dot.contains(name), "missing {name}\n{dot}");
        }
        // The marked implicit place renders as a token edge.
        assert!(dot.contains('●'));
        // Output transitions are filled, inputs are not.
        assert!(dot.contains("lightblue"));
    }

    #[test]
    fn state_graph_dot_marks_initial() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        let sg = stg.state_graph(100).unwrap();
        let dot = sg.to_dot(&stg);
        assert!(dot.contains("style=bold"));
        assert_eq!(dot.matches("->").count(), 4, "four firings");
        assert!(dot.contains("\"00\"") && dot.contains("\"11\""));
    }

    #[test]
    fn dot_escapes_quotes() {
        let mut b = crate::StgBuilder::new("we\"ird");
        let a = b.input("a", false);
        let up = b.rise(a);
        let down = b.fall(a);
        b.connect_marked(down, up);
        b.connect(up, down);
        let stg = b.build();
        let dot = stg.to_dot();
        assert!(dot.contains("we\\\"ird"));
    }
}
