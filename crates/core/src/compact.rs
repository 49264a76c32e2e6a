//! Flat affine rows: the form every linear update takes.
//!
//! For *linear* circuits every discretized update is an affine function of
//! its leaves (inputs, delayed values, already-computed quantities), so it
//! can be held as the flat constant-coefficient statement the paper's
//! Figure 7(b) shows: `x = c₀ + c₁·a + c₂·b + …`. The assembler carries
//! linear rows in this form while it eliminates (see
//! [`assemble`](crate::assemble)), and the compiled model runs each one as a
//! native dot product.
//!
//! No coefficient is ever dropped for being small: a term whose coefficient
//! is many orders below the row's largest can still carry a leaf that is
//! many orders larger, so only exact zeros vanish. Nonlinear or conditional
//! expressions have no affine view; they stay expression trees.

use std::collections::BTreeMap;

use expr::{BinOp, Expr};
use netlist::{QExpr, Quantity};

/// A leaf of an affine expression: a quantity at a given delay (0 =
/// current value).
pub type Leaf = (Quantity, u32);

/// The affine view of an expression: constant term plus weighted leaves.
pub type AffineTerms = (f64, Vec<(Leaf, f64)>);

/// An affine form `constant + Σ coeff·leaf`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Affine {
    pub(crate) constant: f64,
    pub(crate) terms: BTreeMap<Leaf, f64>,
}

impl Affine {
    pub(crate) fn constant(v: f64) -> Affine {
        Affine {
            constant: v,
            terms: BTreeMap::new(),
        }
    }

    pub(crate) fn leaf(l: Leaf) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(l, 1.0);
        Affine {
            constant: 0.0,
            terms,
        }
    }

    pub(crate) fn scale(mut self, k: f64) -> Affine {
        self.constant *= k;
        self.terms.values_mut().for_each(|c| *c *= k);
        self
    }

    /// `self += k·other`.
    pub(crate) fn add_scaled(&mut self, other: &Affine, k: f64) {
        self.constant += k * other.constant;
        for (l, c) in &other.terms {
            *self.terms.entry(l.clone()).or_insert(0.0) += k * c;
        }
    }

    fn as_pure_constant(&self) -> Option<f64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// Renders the row as a flat sum of products, skipping exact zeros.
    pub(crate) fn into_expr(self) -> QExpr {
        let mut e: Option<QExpr> = None;
        for (l, c) in self.terms {
            if c == 0.0 {
                continue;
            }
            let leaf = match l {
                (q, 0) => Expr::var(q),
                (q, k) => Expr::prev_n(q, k),
            };
            let term = if c == 1.0 { leaf } else { Expr::num(c) * leaf };
            e = Some(match e {
                None => term,
                Some(acc) => acc + term,
            });
        }
        match e {
            None => Expr::num(self.constant),
            Some(acc) if self.constant == 0.0 => acc,
            Some(acc) => acc + Expr::num(self.constant),
        }
    }
}

/// Tries to view an expression as an affine form over its leaves.
pub(crate) fn as_affine(e: &QExpr) -> Option<Affine> {
    as_affine_with(e, &mut |q| Some(Affine::leaf((q.clone(), 0))))
}

/// [`as_affine`] with current-value leaves resolved by `var`, which may
/// substitute a quantity's own row or return `None` to make the whole
/// expression non-affine. Delayed leaves stay leaves.
pub(crate) fn as_affine_with(
    e: &QExpr,
    var: &mut impl FnMut(&Quantity) -> Option<Affine>,
) -> Option<Affine> {
    match e {
        Expr::Num(v) => Some(Affine::constant(*v)),
        Expr::Var(q) => var(q),
        Expr::Prev(q, k) => Some(Affine::leaf((q.clone(), *k))),
        Expr::Neg(a) => Some(as_affine_with(a, var)?.scale(-1.0)),
        Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => {
            let mut sum = as_affine_with(a, var)?;
            let sign = if *op == BinOp::Add { 1.0 } else { -1.0 };
            sum.add_scaled(&as_affine_with(b, var)?, sign);
            Some(sum)
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            let fa = as_affine_with(a, var)?;
            let fb = as_affine_with(b, var)?;
            if let Some(k) = fa.as_pure_constant() {
                Some(fb.scale(k))
            } else {
                fb.as_pure_constant().map(|k| fa.scale(k))
            }
        }
        Expr::Bin(BinOp::Div, a, b) => {
            let fb = as_affine_with(b, var)?;
            let k = fb.as_pure_constant()?;
            if k == 0.0 {
                return None;
            }
            Some(as_affine_with(a, var)?.scale(1.0 / k))
        }
        // Conditionals, relational operators, function calls and analog
        // operators are not affine.
        _ => None,
    }
}

/// Extracts the affine view of an expression — the constant term plus
/// `((quantity, delay), coefficient)` pairs, exact zeros dropped. Returns
/// `None` for non-affine expressions.
///
/// The compiled model evaluator uses this to run constant-coefficient
/// updates as native dot products instead of interpreted bytecode.
pub fn affine_terms(e: &QExpr) -> Option<AffineTerms> {
    let affine = as_affine(e)?;
    let terms = affine
        .terms
        .into_iter()
        .filter(|(_, c)| *c != 0.0)
        .collect();
    Some((affine.constant, terms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> QExpr {
        Expr::var(Quantity::var(n))
    }

    /// The flat rendering of an affine expression; others unchanged.
    fn compact(e: &QExpr) -> QExpr {
        as_affine(e).map_or_else(|| e.clone(), Affine::into_expr)
    }

    fn assert_same_value(a: &QExpr, b: &QExpr) {
        for seed in [0.1_f64, -0.7, 2.3] {
            let mut env = |q: &Quantity, delay: u32| {
                let h = q.name().bytes().map(u64::from).sum::<u64>() as f64;
                Some(seed * (h + 1.0) / (delay as f64 + 1.0))
            };
            let x = a.eval(&mut env).unwrap();
            let y = b.eval(&mut env).unwrap();
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                "{a} vs {b}: {x} != {y}"
            );
        }
    }

    #[test]
    fn flattens_nested_linear_tree() {
        // ((x + y)·2 − (x − 3)/4)·0.5 → flat affine
        let e = ((v("x") + v("y")) * Expr::num(2.0) - (v("x") - Expr::num(3.0)) / Expr::num(4.0))
            * Expr::num(0.5);
        let c = compact(&e);
        assert!(c.node_count() < e.node_count());
        assert_same_value(&e, &c);
    }

    #[test]
    fn merges_duplicate_leaves() {
        // x + x + x → 3x (one term)
        let e = v("x") + v("x") + v("x");
        let c = compact(&e);
        assert_eq!(c, Expr::num(3.0) * v("x"));
    }

    #[test]
    fn cancellation_drops_terms() {
        let e = v("x") - v("x") + Expr::num(2.0);
        assert_eq!(compact(&e), Expr::num(2.0));
    }

    #[test]
    fn tiny_coefficients_survive() {
        // A coefficient 1e-20 of the largest one still carries its leaf:
        // only exact zeros are dropped.
        let e = v("x") + Expr::num(1e-20) * v("y");
        let (_, terms) = affine_terms(&e).unwrap();
        assert_eq!(terms.len(), 2);
        assert_eq!(compact(&e), e);
    }

    #[test]
    fn keeps_delays_distinct() {
        let q = Quantity::var("x");
        let e = Expr::var(q.clone()) + Expr::prev(q.clone()) + Expr::prev_n(q, 2);
        let c = compact(&e);
        assert_same_value(&e, &c);
        assert_eq!(c.variables().len(), 1);
        assert_eq!(c.node_count(), 5, "three distinct leaves survive");
    }

    #[test]
    fn nonlinear_left_untouched() {
        let e = v("x") * v("y");
        assert_eq!(compact(&e), e);
        let e2 = Expr::call1(expr::Func::Sin, v("x"));
        assert_eq!(compact(&e2), e2);
        let e3 = Expr::cond(v("c"), v("x"), v("y"));
        assert_eq!(compact(&e3), e3);
    }

    #[test]
    fn division_by_constant_is_affine() {
        let e = (v("x") + Expr::num(1.0)) / Expr::num(4.0);
        let c = compact(&e);
        assert_same_value(&e, &c);
        // Division by a variable is not.
        let e2 = Expr::num(1.0) / v("x");
        assert_eq!(compact(&e2), e2);
    }

    #[test]
    fn pure_constant_collapses() {
        let e: QExpr = (Expr::num(2.0) + Expr::num(3.0)) * Expr::num(4.0);
        assert_eq!(compact(&e), Expr::num(20.0));
    }
}
