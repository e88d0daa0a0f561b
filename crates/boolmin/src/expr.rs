use std::fmt;

use crate::{Cover, Cube};

/// A Boolean expression tree, used to render synthesised functions as
/// complex gates and to evaluate them inside the gate-level simulator.
///
/// # Examples
///
/// ```
/// use a4a_boolmin::Expr;
///
/// // f = a & !b | c
/// let f = Expr::or(vec![
///     Expr::and(vec![Expr::var(0), Expr::not(Expr::var(1))]),
///     Expr::var(2),
/// ]);
/// assert!(f.eval(0b001));
/// assert!(!f.eval(0b010));
/// assert!(f.eval(0b100));
/// assert_eq!(f.support(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant.
    Const(bool),
    /// A variable reference by index.
    Var(usize),
    /// Negation.
    Not(Box<Expr>),
    /// Conjunction of all operands (empty = constant 1).
    And(Vec<Expr>),
    /// Disjunction of all operands (empty = constant 0).
    Or(Vec<Expr>),
}

impl Expr {
    /// A variable leaf.
    pub fn var(index: usize) -> Expr {
        Expr::Var(index)
    }

    /// A constant leaf.
    pub fn constant(value: bool) -> Expr {
        Expr::Const(value)
    }

    /// Negation, folding double negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        match e {
            Expr::Not(inner) => *inner,
            Expr::Const(v) => Expr::Const(!v),
            other => Expr::Not(Box::new(other)),
        }
    }

    /// N-ary AND with constant folding and single-operand collapse.
    pub fn and(mut operands: Vec<Expr>) -> Expr {
        operands.retain(|e| *e != Expr::Const(true));
        if operands.contains(&Expr::Const(false)) {
            return Expr::Const(false);
        }
        match operands.len() {
            0 => Expr::Const(true),
            1 => operands.pop().expect("length checked"),
            _ => Expr::And(operands),
        }
    }

    /// N-ary OR with constant folding and single-operand collapse.
    pub fn or(mut operands: Vec<Expr>) -> Expr {
        operands.retain(|e| *e != Expr::Const(false));
        if operands.contains(&Expr::Const(true)) {
            return Expr::Const(true);
        }
        match operands.len() {
            0 => Expr::Const(false),
            1 => operands.pop().expect("length checked"),
            _ => Expr::Or(operands),
        }
    }

    /// Builds a sum-of-products expression from a cover.
    pub fn from_cover(cover: &Cover) -> Expr {
        Expr::or(cover.cubes().iter().map(Expr::from_cube).collect())
    }

    /// Builds a product term from a cube.
    pub fn from_cube(cube: &Cube) -> Expr {
        Expr::and(
            cube.literals()
                .map(|(var, pos)| {
                    if pos {
                        Expr::var(var)
                    } else {
                        Expr::not(Expr::var(var))
                    }
                })
                .collect(),
        )
    }

    /// Evaluates on an assignment (bit `i` = variable `i`).
    pub fn eval(&self, assignment: u64) -> bool {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(i) => (assignment >> i) & 1 == 1,
            Expr::Not(e) => !e.eval(assignment),
            Expr::And(es) => es.iter().all(|e| e.eval(assignment)),
            Expr::Or(es) => es.iter().any(|e| e.eval(assignment)),
        }
    }

    /// Sorted list of distinct variables appearing in the expression.
    pub fn support(&self) -> Vec<usize> {
        let mut vars = Vec::new();
        self.collect_support(&mut vars);
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    fn collect_support(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(i) => out.push(*i),
            Expr::Not(e) => e.collect_support(out),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_support(out);
                }
            }
        }
    }

    /// Number of literal occurrences (complexity measure used for gate
    /// sizing).
    pub fn literal_count(&self) -> u32 {
        match self {
            Expr::Const(_) => 0,
            Expr::Var(_) => 1,
            Expr::Not(e) => e.literal_count(),
            Expr::And(es) | Expr::Or(es) => es.iter().map(Expr::literal_count).sum(),
        }
    }

    /// Rewrites variable indices through a mapping function (used when
    /// embedding a locally-numbered function into a global netlist).
    pub fn map_vars(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Const(v) => Expr::Const(*v),
            Expr::Var(i) => Expr::Var(f(*i)),
            Expr::Not(e) => Expr::Not(Box::new(e.map_vars(f))),
            Expr::And(es) => Expr::And(es.iter().map(|e| e.map_vars(f)).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(|e| e.map_vars(f)).collect()),
        }
    }

    /// Renders with variable names.
    pub fn format_with(&self, names: &[String]) -> String {
        self.render(names, 0)
    }

    fn render(&self, names: &[String], prec: u8) -> String {
        // precedence: Or=1, And=2, Not/leaf=3
        match self {
            Expr::Const(v) => if *v { "1" } else { "0" }.to_string(),
            Expr::Var(i) => names.get(*i).cloned().unwrap_or_else(|| format!("v{i}")),
            Expr::Not(e) => format!("!{}", e.render(names, 3)),
            Expr::And(es) => {
                let body = es
                    .iter()
                    .map(|e| e.render(names, 2))
                    .collect::<Vec<_>>()
                    .join(" & ");
                if prec > 2 {
                    format!("({body})")
                } else {
                    body
                }
            }
            Expr::Or(es) => {
                let body = es
                    .iter()
                    .map(|e| e.render(names, 1))
                    .collect::<Vec<_>>()
                    .join(" | ");
                if prec > 1 {
                    format!("({body})")
                } else {
                    body
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&[], 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{minimize, Minimize};

    #[test]
    fn constructors_fold_constants() {
        assert_eq!(Expr::and(vec![]), Expr::Const(true));
        assert_eq!(Expr::or(vec![]), Expr::Const(false));
        assert_eq!(
            Expr::and(vec![Expr::var(0), Expr::Const(false)]),
            Expr::Const(false)
        );
        assert_eq!(
            Expr::or(vec![Expr::var(0), Expr::Const(true)]),
            Expr::Const(true)
        );
        assert_eq!(Expr::and(vec![Expr::var(1)]), Expr::var(1));
        assert_eq!(Expr::not(Expr::not(Expr::var(2))), Expr::var(2));
        assert_eq!(Expr::not(Expr::Const(true)), Expr::Const(false));
    }

    #[test]
    fn eval_matches_semantics() {
        let f = Expr::or(vec![
            Expr::and(vec![Expr::var(0), Expr::not(Expr::var(1))]),
            Expr::var(2),
        ]);
        for m in 0..8u64 {
            let a = m & 1 == 1;
            let b = m & 2 == 2;
            let c = m & 4 == 4;
            assert_eq!(f.eval(m), (a && !b) || c);
        }
    }

    #[test]
    fn from_cover_agrees_with_cover() {
        let on = [0b011u64, 0b101, 0b110, 0b111];
        let off = [0b000u64, 0b001, 0b010, 0b100];
        let cover = minimize(&Minimize::new(3).on(&on).off(&off)).unwrap();
        let expr = Expr::from_cover(&cover);
        for m in 0..8u64 {
            assert_eq!(expr.eval(m), cover.eval(m));
        }
        assert_eq!(expr.literal_count(), cover.literal_count());
    }

    #[test]
    fn support_and_map_vars() {
        let f = Expr::and(vec![Expr::var(3), Expr::not(Expr::var(1))]);
        assert_eq!(f.support(), vec![1, 3]);
        let g = f.map_vars(&|i| i + 10);
        assert_eq!(g.support(), vec![11, 13]);
    }

    #[test]
    fn rendering_uses_precedence() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let f = Expr::and(vec![
            Expr::or(vec![Expr::var(0), Expr::var(1)]),
            Expr::not(Expr::var(2)),
        ]);
        assert_eq!(f.format_with(&names), "(a | b) & !c");
        let g = Expr::or(vec![
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            Expr::var(2),
        ]);
        assert_eq!(g.format_with(&names), "a & b | c");
    }

    #[test]
    fn display_without_names() {
        let f = Expr::not(Expr::var(4));
        assert_eq!(f.to_string(), "!v4");
    }

    #[test]
    fn empty_cover_renders_zero() {
        let cover = Cover::new(2);
        assert_eq!(Expr::from_cover(&cover), Expr::Const(false));
    }
}
