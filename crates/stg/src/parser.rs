//! Reader and writer for the `.g` (astg) interchange format used by
//! Petrify, Punf/MPSat, and Workcraft.
//!
//! Supported directives: `.model`, `.inputs`, `.outputs`, `.internal`,
//! `.dummy`, `.graph`, `.marking`, `.initial_state` (an extension listing
//! signals that start high; when absent, initial values are inferred from
//! the first edge reachable for each signal), and `.end`.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;

use a4a_petri::{
    ExploreError, Hook, Limit, NetBuilder, NetError, PetriNet, PlaceId, StateId, Step, TransitionId,
};

use crate::{Label, Polarity, Signal, SignalId, SignalKind, Stg, StgError};

impl Stg {
    /// Parses an STG from `.g` text.
    ///
    /// Without an `.initial_state` directive, each signal's initial value
    /// is inferred from its first reachable edge. The inference runs the
    /// net's breadth-first search ([`a4a_petri::PetriNet::search`], the
    /// one the state graph runs) with each state tagged by its signal
    /// parity, and stops it as soon as every signal's first edge has
    /// been seen: for a spec whose signals all fire, usually a small
    /// part of its state graph.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::Parse`] on malformed input;
    /// [`StgError::StateLimit`] if some signal never fires and the
    /// inference knows more than an internal budget of 200 000
    /// (marking, parity) pairs, with one left to expand, looking for it;
    /// and
    /// [`StgError::TokenOverflow`] if a firing on the way overflows a
    /// place's token counter.
    ///
    /// # Examples
    ///
    /// ```
    /// let text = "\
    /// .model hs
    /// .inputs req
    /// .outputs ack
    /// .graph
    /// req+ ack+
    /// ack+ req-
    /// req- ack-
    /// ack- req+
    /// .marking { <ack-,req+> }
    /// .end
    /// ";
    /// let stg = a4a_stg::Stg::parse_g(text)?;
    /// assert_eq!(stg.signal_count(), 2);
    /// assert_eq!(stg.state_graph(100)?.state_count(), 4);
    /// # Ok::<(), a4a_stg::StgError>(())
    /// ```
    pub fn parse_g(text: &str) -> Result<Stg, StgError> {
        Parser::new(text).parse()
    }

    /// Serialises the STG to `.g` text.
    ///
    /// Implicit places (single producer, single consumer, generated by
    /// [`crate::StgBuilder::connect`]) are folded back into direct
    /// transition–transition lines; other places appear explicitly with
    /// sanitised names.
    pub fn to_g(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, ".model {}", sanitise(&self.name));
        for (dir, kind) in [
            (".inputs", SignalKind::Input),
            (".outputs", SignalKind::Output),
            (".internal", SignalKind::Internal),
        ] {
            let names: Vec<&str> = self
                .signals
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.name.as_str())
                .collect();
            if !names.is_empty() {
                let _ = writeln!(out, "{dir} {}", names.join(" "));
            }
        }
        let dummies: Vec<String> = self
            .net
            .transition_ids()
            .filter(|&t| self.label(t) == Label::Dummy)
            .map(|t| self.transition_name(t))
            .collect();
        if !dummies.is_empty() {
            let _ = writeln!(out, ".dummy {}", dummies.join(" "));
        }
        let _ = writeln!(out, ".graph");

        // Identify implicit places: exactly one producer, one consumer, no
        // read arcs, weight 1 both sides, and not initially holding more
        // than one token.
        let np = self.net.place_count();
        let mut producers: Vec<Vec<TransitionId>> = vec![Vec::new(); np];
        let mut consumers: Vec<Vec<TransitionId>> = vec![Vec::new(); np];
        let mut readers: Vec<Vec<TransitionId>> = vec![Vec::new(); np];
        let mut weighted = vec![false; np];
        for t in self.net.transition_ids() {
            let tr = self.net.transition(t);
            for &(p, w) in tr.produced() {
                producers[p.index()].push(t);
                weighted[p.index()] |= w != 1;
            }
            for &(p, w) in tr.consumed() {
                consumers[p.index()].push(t);
                weighted[p.index()] |= w != 1;
            }
            for &(p, _) in tr.read() {
                readers[p.index()].push(t);
            }
        }
        let mut implicit = vec![false; np];
        for p in self.net.place_ids() {
            let i = p.index();
            implicit[i] = producers[i].len() == 1
                && consumers[i].len() == 1
                && readers[i].is_empty()
                && !weighted[i]
                && self.net.place(p).initial_tokens <= 1;
        }

        // Adjacency lines. For each transition: direct successors through
        // implicit places, plus explicit-place successors.
        for t in self.net.transition_ids() {
            let tname = self.transition_name(t);
            let mut targets = Vec::new();
            for &(p, _) in self.net.transition(t).produced() {
                if implicit[p.index()] {
                    targets.push(self.transition_name(consumers[p.index()][0]));
                } else {
                    targets.push(place_alias(p));
                }
            }
            if !targets.is_empty() {
                let _ = writeln!(out, "{tname} {}", targets.join(" "));
            }
        }
        // Explicit place -> transition lines.
        for p in self.net.place_ids() {
            if implicit[p.index()] {
                continue;
            }
            let mut targets: Vec<String> = consumers[p.index()]
                .iter()
                .map(|&t| self.transition_name(t))
                .collect();
            // Read arcs are encoded as a consume+produce pair in standard
            // .g, so emit the reader both as target and as a producer of
            // the place.
            for &t in &readers[p.index()] {
                targets.push(self.transition_name(t));
            }
            if !targets.is_empty() {
                let _ = writeln!(out, "{} {}", place_alias(p), targets.join(" "));
            }
        }
        for p in self.net.place_ids() {
            for &t in &readers[p.index()] {
                let _ = writeln!(out, "{} {}", self.transition_name(t), place_alias(p));
            }
        }

        // Marking.
        let mut marked = Vec::new();
        for p in self.net.place_ids() {
            let tokens = self.net.place(p).initial_tokens;
            if tokens == 0 {
                continue;
            }
            let entry = if implicit[p.index()] {
                format!(
                    "<{},{}>",
                    self.transition_name(producers[p.index()][0]),
                    self.transition_name(consumers[p.index()][0])
                )
            } else {
                place_alias(p)
            };
            if tokens == 1 {
                marked.push(entry);
            } else {
                marked.push(format!("{entry}={tokens}"));
            }
        }
        let _ = writeln!(out, ".marking {{ {} }}", marked.join(" "));

        // Initial state extension: list of high signals.
        let high: Vec<&str> = self
            .signals
            .iter()
            .filter(|s| s.initial)
            .map(|s| s.name.as_str())
            .collect();
        if !high.is_empty() {
            let _ = writeln!(out, ".initial_state {}", high.join(" "));
        }
        let _ = writeln!(out, ".end");
        out
    }
}

fn place_alias(p: PlaceId) -> String {
    format!("p{}", p.index())
}

fn sanitise(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "model".to_string()
    } else {
        cleaned
    }
}

struct Parser<'a> {
    text: &'a str,
}

/// A graph-line token as the first pass resolved it.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// A labelled transition occurrence, e.g. `a+/2`.
    Transition(TransitionId),
    /// An explicit place, e.g. `p3`.
    Place(PlaceId),
}

/// The net builder's refusal as a parse error at `line`.
fn refused(line: usize) -> impl Fn(NetError) -> StgError {
    move |e| StgError::Parse {
        line,
        message: e.to_string(),
    }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text }
    }

    fn parse(self) -> Result<Stg, StgError> {
        let mut model = String::from("model");
        let mut signals: Vec<Signal> = Vec::new();
        let mut dummy_names: Vec<String> = Vec::new();
        let mut graph_lines: Vec<(usize, Vec<String>)> = Vec::new();
        let mut marking_tokens: Vec<(usize, String)> = Vec::new();
        let mut initial_high: Option<Vec<String>> = None;
        let mut in_graph = false;

        for (lineno, raw) in self.text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(".model") {
                model = rest.trim().to_string();
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".inputs"]) {
                add_signals(&mut signals, rest, SignalKind::Input, lineno)?;
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".outputs"]) {
                add_signals(&mut signals, rest, SignalKind::Output, lineno)?;
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".internal", ".int"]) {
                add_signals(&mut signals, rest, SignalKind::Internal, lineno)?;
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".dummy"]) {
                dummy_names.extend(rest.split_whitespace().map(str::to_string));
                in_graph = false;
            } else if line == ".graph" {
                in_graph = true;
            } else if let Some(rest) = strip_directive(line, &[".marking"]) {
                in_graph = false;
                let inner = rest
                    .trim()
                    .trim_start_matches('{')
                    .trim_end_matches('}')
                    .trim();
                // Tokens may be plain names or <t1,t2> pairs; the angle
                // form contains no spaces in well-formed files.
                for token in inner.split_whitespace() {
                    marking_tokens.push((lineno, token.to_string()));
                }
            } else if let Some(rest) = strip_directive(line, &[".initial_state"]) {
                initial_high = Some(rest.split_whitespace().map(str::to_string).collect());
                in_graph = false;
            } else if line == ".end" {
                break;
            } else if line.starts_with('.') {
                return Err(StgError::Parse {
                    line: lineno,
                    message: format!("unknown directive {line:?}"),
                });
            } else if in_graph {
                graph_lines.push((
                    lineno,
                    line.split_whitespace().map(str::to_string).collect(),
                ));
            } else {
                return Err(StgError::Parse {
                    line: lineno,
                    message: format!("unexpected content outside .graph: {line:?}"),
                });
            }
        }

        // First pass: resolve every token of the graph section to a
        // transition (a dummy or an edge of a declared signal) or an
        // explicit place, adding each at its first occurrence.
        let signal_names: HashMap<&str, SignalId> = signals
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), SignalId(i as u32)))
            .collect();
        let mut net = NetBuilder::new();
        let mut labels: Vec<Label> = Vec::new();
        let mut lines: Vec<(usize, Vec<(&str, Node)>)> = Vec::with_capacity(graph_lines.len());
        for &(line, ref tokens) in &graph_lines {
            if tokens.len() < 2 {
                return Err(StgError::Parse {
                    line,
                    message: "graph line needs a source and at least one target".into(),
                });
            }
            let mut nodes = Vec::with_capacity(tokens.len());
            for token in tokens {
                let label = if dummy_names.contains(token) {
                    Some(Label::Dummy)
                } else {
                    parse_edge_name(token, &signal_names)
                        .map(|(signal, polarity)| Label::Edge(crate::Edge { signal, polarity }))
                };
                let node = match label {
                    Some(label) => Node::Transition(match net.transition_by_name(token) {
                        Some(t) => t,
                        None => {
                            let t = net.transition(token.as_str()).map_err(refused(line))?;
                            labels.push(label);
                            t
                        }
                    }),
                    None => Node::Place(match net.place_by_name(token) {
                        Some(p) => p,
                        None => net.place(token.as_str()).map_err(refused(line))?,
                    }),
                };
                nodes.push((token.as_str(), node));
            }
            lines.push((line, nodes));
        }

        // Second pass: arcs. A transition->transition arc gets an
        // implicit place named `<a,b>`. The first pass made every
        // explicit place, so a place id from here on is implicit.
        let explicit = net.place_count();
        for &(line, ref nodes) in &lines {
            let (a, src) = nodes[0];
            for &(b, dst) in &nodes[1..] {
                let duplicate = || StgError::Parse {
                    line,
                    message: format!("duplicate arc {a} -> {b}"),
                };
                match (src, dst) {
                    (Node::Transition(ta), Node::Transition(tb)) => {
                        let p = match net.place(format!("<{a},{b}>")) {
                            Ok(p) => p,
                            Err(NetError::DuplicatePlace(name)) => {
                                let implicit = net
                                    .place_by_name(&name)
                                    .is_some_and(|p| p.index() >= explicit);
                                return Err(if implicit {
                                    duplicate()
                                } else {
                                    StgError::Parse {
                                        line,
                                        message: format!(
                                            "implicit place {name} collides with a place"
                                        ),
                                    }
                                });
                            }
                            Err(e) => return Err(refused(line)(e)),
                        };
                        net.arc_tp(ta, p).map_err(refused(line))?;
                        net.arc_pt(p, tb).map_err(refused(line))?;
                    }
                    // Weight 1: the builder refuses only a repeated arc.
                    (Node::Transition(t), Node::Place(p)) => {
                        net.arc_tp(t, p).map_err(|_| duplicate())?
                    }
                    (Node::Place(p), Node::Transition(t)) => {
                        net.arc_pt(p, t).map_err(|_| duplicate())?
                    }
                    (Node::Place(_), Node::Place(_)) => {
                        return Err(StgError::Parse {
                            line,
                            message: format!("place-to-place arc {a} -> {b} is not allowed"),
                        });
                    }
                }
            }
        }

        // Marking: `<a,b>` names an implicit place, anything else an
        // explicit one.
        for (lineno, token) in &marking_tokens {
            let (name, count) = match token.split_once('=') {
                Some((n, c)) => (
                    n,
                    c.parse::<u32>().map_err(|_| StgError::Parse {
                        line: *lineno,
                        message: format!("bad token count in {token:?}"),
                    })?,
                ),
                None => (token.as_str(), 1),
            };
            let place =
                if let Some(inner) = name.strip_prefix('<').and_then(|s| s.strip_suffix('>')) {
                    if !inner.contains(',') {
                        return Err(StgError::Parse {
                            line: *lineno,
                            message: format!("malformed implicit place {name:?}"),
                        });
                    }
                    net.place_by_name(name)
                        .filter(|p| p.index() >= explicit)
                        .ok_or_else(|| StgError::Parse {
                            line: *lineno,
                            message: format!("implicit place {name:?} does not exist"),
                        })?
                } else {
                    net.place_by_name(name).ok_or_else(|| StgError::Parse {
                        line: *lineno,
                        message: format!("marked place {name:?} does not exist"),
                    })?
                };
            net.add_tokens(place, count)
                .ok_or_else(|| StgError::Parse {
                    line: *lineno,
                    message: format!("token count of place {name:?} overflows u32"),
                })?;
        }
        let net = net.build();

        // Initial signal values: explicit directive or inference.
        match initial_high {
            Some(high) => {
                for name in &high {
                    let name = name.trim_start_matches('!');
                    if !signals.iter().any(|s| s.name == name) {
                        return Err(StgError::Parse {
                            line: 0,
                            message: format!(".initial_state mentions unknown signal {name:?}"),
                        });
                    }
                }
                for s in &mut signals {
                    s.initial = high.iter().any(|h| h == &s.name);
                }
            }
            None => {
                infer_initial_values(&net, &labels, &mut signals)?;
            }
        }

        let stg = Stg {
            name: model,
            net,
            signals,
            labels,
        };
        Ok(stg)
    }
}

fn strip_directive<'a>(line: &'a str, names: &[&str]) -> Option<&'a str> {
    for n in names {
        if let Some(rest) = line.strip_prefix(n) {
            if rest.is_empty() || rest.starts_with(char::is_whitespace) {
                return Some(rest.trim());
            }
        }
    }
    None
}

fn add_signals(
    signals: &mut Vec<Signal>,
    rest: &str,
    kind: SignalKind,
    lineno: usize,
) -> Result<(), StgError> {
    for name in rest.split_whitespace() {
        if signals.iter().any(|s| s.name == name) {
            return Err(StgError::Parse {
                line: lineno,
                message: format!("signal {name:?} declared twice"),
            });
        }
        if signals.len() >= 64 {
            return Err(StgError::Parse {
                line: lineno,
                message: "at most 64 signals are supported".into(),
            });
        }
        signals.push(Signal {
            name: name.to_string(),
            kind,
            initial: false,
        });
    }
    Ok(())
}

/// Parses `name+`, `name-`, `name+/2` against declared signals.
fn parse_edge_name(token: &str, signals: &HashMap<&str, SignalId>) -> Option<(SignalId, Polarity)> {
    let base = token.split('/').next().unwrap_or(token);
    let (name, pol) = if let Some(n) = base.strip_suffix('+') {
        (n, Polarity::Rising)
    } else if let Some(n) = base.strip_suffix('-') {
        (n, Polarity::Falling)
    } else {
        return None;
    };
    signals.get(name).map(|&s| (s, pol))
}

/// Infers the initial value of each signal from the first reachable edge:
/// a first-seen rising edge means the signal started low, and vice versa.
/// Signals with no reachable edge default to low.
///
/// The search's tag is the toggle parity (bit `i` set when signal `i`
/// has flipped an odd number of times since the initial state), and it
/// stops as soon as every signal's first edge has been seen: a value is
/// fixed at first sight, so nothing later can change it. Only a spec
/// with a signal that never fires needs the whole space, and only then
/// can the budget trip.
fn infer_initial_values(
    net: &PetriNet,
    labels: &[Label],
    signals: &mut [Signal],
) -> Result<(), StgError> {
    const BUDGET: usize = 200_000;
    if signals.is_empty() {
        // Nothing to infer: a search could never stop early, only trip
        // the budget.
        return Ok(());
    }
    let mut first = FirstEdges {
        labels,
        inferred: vec![None; signals.len()],
        unseen: signals.len(),
    };
    let initial = net.initial_marking();
    net.search::<StateId, _>(&initial, 0, Limit::Expansion(BUDGET), &mut first)
        .map_err(ExploreError::from)?;
    for (s, value) in signals.iter_mut().zip(first.inferred) {
        s.initial = value.unwrap_or(false);
    }
    Ok(())
}

/// The inference's hook: the value each signal holds before its first
/// reachable edge, `None` while it has not fired.
#[derive(Clone)]
struct FirstEdges<'a> {
    labels: &'a [Label],
    inferred: Vec<Option<bool>>,
    /// Signals whose first edge is still to be seen.
    unseen: usize,
}

impl Hook for FirstEdges<'_> {
    type Error = Infallible;

    fn step(&mut self, parity: u64, t: TransitionId) -> Step<Infallible> {
        let Label::Edge(e) = self.labels[t.index()] else {
            return Step::Next(parity);
        };
        let idx = e.signal.index();
        if self.inferred[idx].is_none() {
            // value before firing = initial ^ flipped; must be !target.
            let flipped = (parity >> idx) & 1 == 1;
            self.inferred[idx] = Some(!e.polarity.target_value() ^ flipped);
            self.unseen -= 1;
            if self.unseen == 0 {
                return Step::Stop;
            }
        }
        Step::Next(parity ^ (1 << idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StgBuilder;

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
    fn parse_handshake() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        assert_eq!(stg.name(), "hs");
        assert_eq!(stg.signal_count(), 2);
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 4);
        assert!(stg.verify(&sg).is_clean());
    }

    #[test]
    fn initial_values_inferred() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        let req = stg.signal_by_name("req").unwrap();
        let ack = stg.signal_by_name("ack").unwrap();
        assert!(!stg.signal(req).initial, "req+ fires first");
        assert!(!stg.signal(ack).initial);
    }

    #[test]
    fn initial_state_directive_overrides() {
        let text = HANDSHAKE.replace(".end", ".initial_state req\n.end");
        let stg = Stg::parse_g(&text).unwrap();
        let req = stg.signal_by_name("req").unwrap();
        assert!(stg.signal(req).initial);
        // With a wrong initial value the state graph is inconsistent.
        assert!(stg.state_graph(100).is_err());
    }

    #[test]
    fn explicit_places_and_counts() {
        let text = "\
.model counters
.inputs a
.graph
p0 a+
a+ p1
p1 a-
a- p0
.marking { p0=1 }
.end
";
        let stg = Stg::parse_g(text).unwrap();
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 2);
    }

    #[test]
    fn dummy_declared() {
        let text = "\
.model d
.inputs a
.dummy start
.graph
start a+
a+ a-
a- start
.marking { <a-,start> }
.end
";
        let stg = Stg::parse_g(text).unwrap();
        let dummies: Vec<_> = stg
            .net()
            .transition_ids()
            .filter(|&t| stg.label(t) == Label::Dummy)
            .collect();
        assert_eq!(dummies.len(), 1);
        assert_eq!(stg.state_graph(100).unwrap().state_count(), 3);
    }

    #[test]
    fn multiple_occurrences_of_one_edge() {
        let text = "\
.model multi
.inputs a b
.graph
a+ b+
b+ a-
a- b-
b- a+/2
a+/2 a-/2
a-/2 a+
.marking { <a-/2,a+> }
.end
";
        let stg = Stg::parse_g(text).unwrap();
        let a = stg.signal_by_name("a").unwrap();
        assert_eq!(stg.transitions_of(a).len(), 4);
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 6);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let err = Stg::parse_g(".model x\n.bogus\n").unwrap_err();
        assert!(matches!(err, StgError::Parse { line: 2, .. }));

        let err = Stg::parse_g(".model x\nstray line\n").unwrap_err();
        assert!(matches!(err, StgError::Parse { line: 2, .. }));

        let err =
            Stg::parse_g(".model x\n.inputs a\n.graph\na+ a-\na- a+\n.marking { <a+,zz> }\n.end\n")
                .unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }));
    }

    /// The line and message of the parse error `text` must give.
    fn parse_error(text: &str) -> (usize, String) {
        match Stg::parse_g(text) {
            Err(StgError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}\n{text}"),
        }
    }

    /// A spec over inputs `a b` with the given graph lines (from line 4)
    /// and marking (on the line after them).
    fn spec(graph: &str, marking: &str) -> String {
        format!(".model m\n.inputs a b\n.graph\n{graph}\n.marking {{ {marking} }}\n.end\n")
    }

    #[test]
    fn implicit_place_colliding_with_explicit_place_is_a_parse_error() {
        // `marking` without its dot is read as a graph line, so
        // `<b-,a+>` becomes an explicit place before the arc `b- a+`
        // asks for the implicit place of the same name.
        let dotless = "\
.outputs a b
.graph
a+ b+
b+ a-
a- b-
b- a+
marking { <b-,a+> }
.end
";
        let cases = [
            (
                dotless.to_string(),
                6,
                "implicit place <b-,a+> collides with a place",
            ),
            (
                spec("a+ b+\n<a+,b+> a-\nb+ a-", ""),
                4,
                "implicit place <a+,b+> collides with a place",
            ),
            // An explicit place that looks implicit is not one: marking
            // it by the implicit form finds no implicit place.
            (
                spec("<a+,b+> a+\na+ <a+,b+>", "<a+,b+>"),
                6,
                "implicit place \"<a+,b+>\" does not exist",
            ),
            (
                spec("a+ a-\na- a+", "<x>"),
                6,
                "malformed implicit place \"<x>\"",
            ),
        ];
        for (text, line, message) in cases {
            assert_eq!(parse_error(&text), (line, message.to_string()), "{text}");
        }
    }

    #[test]
    fn overflowing_token_count_is_a_parse_error() {
        // Two entries for one place whose counts sum past u32::MAX.
        let text = "\
.model x
.inputs a
.graph
a+ a-
a- a+
.marking { <a-,a+>=4294967295 <a-,a+>=1 }
.end
";
        let err = Stg::parse_g(text).unwrap_err();
        match &err {
            StgError::Parse { line, message } => {
                assert_eq!(*line, 6, "{err}");
                assert!(message.contains("<a-,a+>"), "{err}");
                assert!(message.contains("overflows"), "{err}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_explicit_arcs_rejected() {
        let cases = [
            (
                spec("p0 a+\np0 a+\na+ p0", "p0"),
                5,
                "duplicate arc p0 -> a+",
            ),
            (spec("a+ b+ b+\nb+ a+", ""), 4, "duplicate arc a+ -> b+"),
            (spec("a+ p\np a+\na+ p", "p"), 6, "duplicate arc a+ -> p"),
            (spec("p b+\nb+ p\np b+", "p"), 6, "duplicate arc p -> b+"),
        ];
        for (text, line, message) in cases {
            assert_eq!(parse_error(&text), (line, message.to_string()), "{text}");
        }
    }

    #[test]
    fn duplicate_signal_rejected() {
        let err = Stg::parse_g(".model x\n.inputs a\n.outputs a\n").unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }));
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        let text = stg.to_g();
        let back = Stg::parse_g(&text).unwrap();
        let sg1 = stg.state_graph(100).unwrap();
        let sg2 = back.state_graph(100).unwrap();
        assert_eq!(sg1.state_count(), sg2.state_count());
        assert_eq!(sg1.edge_count(), sg2.edge_count());
        assert_eq!(back.signal_count(), stg.signal_count());
    }

    #[test]
    fn round_trip_with_initial_high_signal() {
        let mut b = StgBuilder::new("inv");
        let a = b.input("a", true);
        let o = b.output("o", false);
        let am = b.fall(a);
        let op = b.rise(o);
        let ap = b.rise(a);
        let om = b.fall(o);
        b.connect_marked(om, am);
        b.connect(am, op);
        b.connect(op, ap);
        b.connect(ap, om);
        let stg = b.build();
        let text = stg.to_g();
        assert!(text.contains(".initial_state a"));
        let back = Stg::parse_g(&text).unwrap();
        assert!(back.signal(back.signal_by_name("a").unwrap()).initial);
        assert_eq!(back.state_graph(100).unwrap().state_count(), 4);
    }

    /// An `n`-signal handshake pipeline whose token starts after the
    /// rise of signal `high - 1`, so signals `0..high` start high.
    fn rotated_pipeline(prefix: &str, n: usize, high: usize) -> Stg {
        let mut b = StgBuilder::new(format!("{prefix}{n}"));
        let signals: Vec<_> = (0..n)
            .map(|i| {
                let name = format!("{prefix}{i}");
                if i % 2 == 1 {
                    b.output(name, i < high)
                } else {
                    b.input(name, i < high)
                }
            })
            .collect();
        let mut chain: Vec<_> = signals.iter().map(|&s| b.rise(s)).collect();
        chain.extend(signals.iter().map(|&s| b.fall(s)));
        chain.rotate_left(high);
        for w in chain.windows(2) {
            b.connect(w[0], w[1]);
        }
        b.connect_marked(chain[chain.len() - 1], chain[0]);
        b.build()
    }

    #[test]
    fn inference_stops_once_every_signal_has_fired() {
        // Four 11-signal pipelines: 22^4 = 234 256 (marking, parity)
        // pairs, more than the inference budget of 200 000, yet every
        // signal's first edge lies within ten firings of the start.
        let mut stg = rotated_pipeline("a", 11, 0);
        for (prefix, high) in [("b", 3), ("c", 6), ("d", 10)] {
            stg = stg.compose(&rotated_pipeline(prefix, 11, high)).unwrap();
        }
        assert_eq!(stg.signal_count(), 44);
        // Drop the `.initial_state` line so the parser must infer.
        let text: String = stg
            .to_g()
            .lines()
            .filter(|l| !l.starts_with(".initial_state"))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = Stg::parse_g(&text).unwrap();
        for s in stg.signals() {
            let id = back.signal_by_name(&s.name).unwrap();
            assert_eq!(back.signal(id).initial, s.initial, "signal {}", s.name);
        }
        assert_eq!(back.initial_code().count_ones(), 3 + 6 + 10);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("# header comment\n\n{HANDSHAKE}");
        let stg = Stg::parse_g(&text).unwrap();
        assert_eq!(stg.signal_count(), 2);
    }
}
