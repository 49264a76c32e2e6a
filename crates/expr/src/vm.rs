//! A compact stack-machine compiler/evaluator for resolved expressions.
//!
//! The paper's end target is *generated C++*: constant-coefficient update
//! statements executed in a tight loop. The closest honest Rust analogue —
//! short of emitting and invoking `rustc` — is compiling the expression
//! trees once into flat bytecode and evaluating that in a loop without any
//! tree walking or hashing. That is what powers the "C++" rows of the
//! reproduced tables.
//!
//! Variables are compiled down to *slot* indices into a flat `f64` state
//! array supplied at evaluation time; the caller decides the slot layout
//! (current values, delayed values, inputs — all just slots).
//!
//! # Example
//!
//! ```
//! use amsvp_expr::vm::compile;
//! use amsvp_expr::Expr;
//!
//! // slot 0 = x, slot 1 = prev(x)
//! let e = Expr::var("x") * Expr::num(2.0) + Expr::prev("x");
//! let prog = compile(&e, &mut |_v, delay| Some(if delay == 0 { 0 } else { 1 }))
//!     .expect("resolvable");
//! let mut stack = Vec::new();
//! assert_eq!(prog.eval(&[3.0, 1.0], &mut stack), 7.0);
//! ```

use crate::{BinOp, Expr, Func};
use std::error::Error;
use std::fmt;

/// One bytecode instruction of the expression VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push a constant.
    Const(f64),
    /// Push the value of a state slot.
    Load(u32),
    /// Negate the top of stack.
    Neg,
    /// Pop two, apply the operator, push the result.
    Bin(BinOp),
    /// Pop one argument, apply the function, push.
    Call1(Func),
    /// Pop two arguments, apply the function, push.
    Call2(Func),
    /// Pop `else`, `then`, `cond`; push `cond != 0 ? then : else`.
    Select,
}

/// Error produced by [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// `ddt`/`idt` must be discretized before compilation.
    UnresolvedAnalogOp,
    /// The slot resolver returned `None` for a variable (rendered with
    /// `Display`).
    UnresolvedVariable(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnresolvedAnalogOp => {
                write!(f, "ddt/idt operator not resolved before compilation")
            }
            CompileError::UnresolvedVariable(v) => {
                write!(f, "no slot assigned for variable `{v}`")
            }
        }
    }
}

impl Error for CompileError {}

/// A compiled expression: flat bytecode plus the stack depth it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    code: Vec<Instr>,
    max_stack: usize,
}

impl Program {
    /// The instruction sequence (for inspection/tests).
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Maximum operand-stack depth the program can reach.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Evaluates the program against a slot array.
    ///
    /// `stack` is scratch space reused across calls to avoid allocation in
    /// simulation loops; it is cleared on entry.
    ///
    /// # Panics
    ///
    /// Panics if a `Load` references a slot outside `slots` (a compile-time
    /// resolver bug) or if the program is empty.
    #[inline]
    pub fn eval(&self, slots: &[f64], stack: &mut Vec<f64>) -> f64 {
        stack.clear();
        stack.reserve(self.max_stack);
        for instr in &self.code {
            match *instr {
                Instr::Const(v) => stack.push(v),
                Instr::Load(slot) => stack.push(slots[slot as usize]),
                Instr::Neg => {
                    let a = stack.last_mut().expect("stack underflow");
                    *a = -*a;
                }
                Instr::Bin(op) => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.last_mut().expect("stack underflow");
                    *a = op.apply(*a, b);
                }
                Instr::Call1(f) => {
                    let a = stack.last_mut().expect("stack underflow");
                    *a = f.apply(&[*a]);
                }
                Instr::Call2(f) => {
                    let b = stack.pop().expect("stack underflow");
                    let a = stack.last_mut().expect("stack underflow");
                    *a = f.apply(&[*a, b]);
                }
                Instr::Select => {
                    let e = stack.pop().expect("stack underflow");
                    let t = stack.pop().expect("stack underflow");
                    let c = stack.last_mut().expect("stack underflow");
                    *c = if *c != 0.0 { t } else { e };
                }
            }
        }
        debug_assert_eq!(stack.len(), 1, "program left a non-singleton stack");
        stack.pop().expect("empty program")
    }

    /// Evaluates the program over `lanes` independent slot blocks at once
    /// — the structure-of-arrays hot path of batched scenario sweeps.
    ///
    /// `slots` is laid out `[slot][lane]` with the lane index contiguous:
    /// slot `s` of lane `l` lives at `slots[s * lanes + l]`, so the inner
    /// lane loops below run over adjacent memory and auto-vectorize. The
    /// result for lane `l` is written to `out[l]`.
    ///
    /// # Determinism
    ///
    /// Each lane executes exactly the IEEE-754 operations [`Program::eval`]
    /// would execute on that lane's slots, in the same order — batching
    /// only changes the loop nesting, never the arithmetic — so every
    /// `out[l]` is **bit-identical** to a scalar evaluation of lane `l`
    /// (NaN payloads included). This is a design requirement the batched
    /// solver relies on, not a tolerance.
    ///
    /// One lane is the scalar layout (`slots[s * 1 + 0] == slots[s]`), so
    /// `lanes == 1` runs [`Program::eval`] itself: the contract above makes
    /// that bit-identical, and it skips the lane loops of width one.
    ///
    /// `stack` is scratch space of `max_stack * lanes` values, reused
    /// across calls; it is resized on entry.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != lanes`, if a `Load` references a slot
    /// outside `slots` for the given lane count, or if the program is
    /// empty.
    // Always inlined: a one-lane caller then calls `eval` straight from
    // its own loop, as a scalar evaluator would.
    #[inline(always)]
    pub fn eval_lanes(&self, slots: &[f64], lanes: usize, stack: &mut Vec<f64>, out: &mut [f64]) {
        assert_eq!(out.len(), lanes, "output lane count");
        match lanes {
            0 => {}
            1 => out[0] = self.eval(slots, stack),
            _ => self.eval_soa(slots, lanes, stack, out),
        }
        #[cfg(feature = "fault-inject")]
        {
            let mask = crate::fault::take_lane_poison();
            if mask != 0 {
                for (l, v) in out.iter_mut().enumerate().take(64) {
                    if mask & (1u64 << l) != 0 {
                        *v = f64::NAN;
                    }
                }
            }
        }
    }

    /// The lane-vector interpreter behind [`Program::eval_lanes`] for two
    /// or more lanes.
    fn eval_soa(&self, slots: &[f64], lanes: usize, stack: &mut Vec<f64>, out: &mut [f64]) {
        stack.clear();
        stack.resize(self.max_stack.max(1) * lanes, 0.0);
        let mut depth = 0usize;
        for instr in &self.code {
            match *instr {
                Instr::Const(v) => {
                    stack[depth * lanes..(depth + 1) * lanes].fill(v);
                    depth += 1;
                }
                Instr::Load(slot) => {
                    let src = &slots[slot as usize * lanes..(slot as usize + 1) * lanes];
                    stack[depth * lanes..(depth + 1) * lanes].copy_from_slice(src);
                    depth += 1;
                }
                Instr::Neg => {
                    for v in &mut stack[(depth - 1) * lanes..depth * lanes] {
                        *v = -*v;
                    }
                }
                Instr::Bin(op) => {
                    depth -= 1;
                    let (lo, hi) = stack.split_at_mut(depth * lanes);
                    let a = &mut lo[(depth - 1) * lanes..];
                    let b = &hi[..lanes];
                    // Dispatch on the operator once per instruction, not
                    // once per lane: the four arithmetic ops are the hot
                    // path and must compile to straight-line lane loops.
                    match op {
                        BinOp::Add => {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x += y;
                            }
                        }
                        BinOp::Sub => {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x -= y;
                            }
                        }
                        BinOp::Mul => {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x *= y;
                            }
                        }
                        BinOp::Div => {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x /= y;
                            }
                        }
                        other => {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x = other.apply(*x, *y);
                            }
                        }
                    }
                }
                Instr::Call1(f) => {
                    for v in &mut stack[(depth - 1) * lanes..depth * lanes] {
                        *v = f.apply(&[*v]);
                    }
                }
                Instr::Call2(f) => {
                    depth -= 1;
                    let (lo, hi) = stack.split_at_mut(depth * lanes);
                    let a = &mut lo[(depth - 1) * lanes..];
                    let b = &hi[..lanes];
                    for (x, y) in a.iter_mut().zip(b) {
                        *x = f.apply(&[*x, *y]);
                    }
                }
                Instr::Select => {
                    depth -= 2;
                    let (lo, hi) = stack.split_at_mut(depth * lanes);
                    let c = &mut lo[(depth - 1) * lanes..];
                    let (t, e) = hi.split_at(lanes);
                    for l in 0..lanes {
                        c[l] = if c[l] != 0.0 { t[l] } else { e[l] };
                    }
                }
            }
        }
        assert_eq!(depth, 1, "program left a non-singleton stack");
        out.copy_from_slice(&stack[..lanes]);
    }
}

/// Compiles a resolved expression into a [`Program`].
///
/// `resolve` maps `(variable, delay)` to a slot index; `delay == 0` is the
/// current value, `delay == k` the value `k` steps ago. The caller owns the
/// slot layout and is responsible for shifting delayed slots between steps.
///
/// # Errors
///
/// * [`CompileError::UnresolvedAnalogOp`] if `ddt`/`idt` nodes remain.
/// * [`CompileError::UnresolvedVariable`] if `resolve` returns `None`.
pub fn compile<V: Clone + Ord + fmt::Display>(
    expr: &Expr<V>,
    resolve: &mut impl FnMut(&V, u32) -> Option<u32>,
) -> Result<Program, CompileError> {
    let mut code = Vec::new();
    emit(expr, resolve, &mut code)?;
    let max_stack = simulate_stack(&code);
    Ok(Program { code, max_stack })
}

fn emit<V: Clone + Ord + fmt::Display>(
    expr: &Expr<V>,
    resolve: &mut impl FnMut(&V, u32) -> Option<u32>,
    code: &mut Vec<Instr>,
) -> Result<(), CompileError> {
    match expr {
        Expr::Num(v) => code.push(Instr::Const(*v)),
        Expr::Var(v) => {
            let slot =
                resolve(v, 0).ok_or_else(|| CompileError::UnresolvedVariable(v.to_string()))?;
            code.push(Instr::Load(slot));
        }
        Expr::Prev(v, k) => {
            let slot =
                resolve(v, *k).ok_or_else(|| CompileError::UnresolvedVariable(v.to_string()))?;
            code.push(Instr::Load(slot));
        }
        Expr::Neg(a) => {
            emit(a, resolve, code)?;
            code.push(Instr::Neg);
        }
        Expr::Bin(op, a, b) => {
            emit(a, resolve, code)?;
            emit(b, resolve, code)?;
            code.push(Instr::Bin(*op));
        }
        Expr::Call(f, args) => {
            for a in args {
                emit(a, resolve, code)?;
            }
            code.push(match f.arity() {
                1 => Instr::Call1(*f),
                _ => Instr::Call2(*f),
            });
        }
        Expr::Ddt(_) | Expr::Idt(_) => return Err(CompileError::UnresolvedAnalogOp),
        Expr::Cond(c, t, e) => {
            emit(c, resolve, code)?;
            emit(t, resolve, code)?;
            emit(e, resolve, code)?;
            code.push(Instr::Select);
        }
    }
    Ok(())
}

fn simulate_stack(code: &[Instr]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for instr in code {
        match instr {
            Instr::Const(_) | Instr::Load(_) => depth += 1,
            Instr::Neg | Instr::Call1(_) => {}
            Instr::Bin(_) | Instr::Call2(_) => depth -= 1,
            Instr::Select => depth -= 2,
        }
        max = max.max(depth);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Expr<&'static str> {
        Expr::var("x")
    }

    fn compile_xy(e: &Expr<&'static str>) -> Program {
        // x → slot 0, y → slot 1, prev(x) → slot 2
        compile(e, &mut |v, delay| match (*v, delay) {
            ("x", 0) => Some(0),
            ("y", 0) => Some(1),
            ("x", 1) => Some(2),
            _ => None,
        })
        .unwrap()
    }

    #[test]
    fn arithmetic_matches_eval() {
        let e = (x() + Expr::var("y")) * Expr::num(2.0) - Expr::prev("x");
        let prog = compile_xy(&e);
        let mut stack = Vec::new();
        let got = prog.eval(&[3.0, 4.0, 1.0], &mut stack);
        assert_eq!(got, 13.0);
        // Reuse of the scratch stack must not change results.
        assert_eq!(prog.eval(&[3.0, 4.0, 1.0], &mut stack), 13.0);
    }

    #[test]
    fn functions_and_select() {
        let e = Expr::cond(
            Expr::bin(BinOp::Gt, x(), Expr::num(0.0)),
            Expr::call1(Func::Sqrt, x()),
            Expr::call2(Func::Max, x(), Expr::num(-1.0)),
        );
        let prog = compile_xy(&e);
        let mut stack = Vec::new();
        assert_eq!(prog.eval(&[9.0, 0.0, 0.0], &mut stack), 3.0);
        assert_eq!(prog.eval(&[-5.0, 0.0, 0.0], &mut stack), -1.0);
    }

    #[test]
    fn stack_depth_is_tracked() {
        let e = (x() + x()) * (x() + (x() * x()));
        let prog = compile_xy(&e);
        assert!(prog.max_stack() >= 3);
        assert!(!prog.code().is_empty());
        let mut stack = Vec::new();
        assert_eq!(prog.eval(&[2.0, 0.0, 0.0], &mut stack), 24.0);
    }

    #[test]
    fn unresolved_variable_is_reported() {
        let e = Expr::var("ghost");
        let err = compile(&e, &mut |_: &&str, _| None).unwrap_err();
        assert_eq!(err, CompileError::UnresolvedVariable("ghost".into()));
    }

    #[test]
    fn analog_ops_rejected() {
        let e = Expr::ddt(x());
        let err = compile(&e, &mut |_, _| Some(0)).unwrap_err();
        assert_eq!(err, CompileError::UnresolvedAnalogOp);
    }

    #[test]
    fn lanes_match_scalar_bitwise() {
        let e = Expr::cond(
            Expr::bin(BinOp::Gt, x(), Expr::num(0.0)),
            Expr::call1(Func::Exp, x() * Expr::num(0.5)) / (Expr::var("y") + Expr::num(1.0)),
            Expr::call2(Func::Pow, Expr::var("y"), x()) - Expr::prev("x"),
        );
        let prog = compile_xy(&e);
        // 3 slots × 5 lanes, SoA: slot s lane l at [s * 5 + l]. Lane 3
        // carries NaN, lane 4 an infinity — payloads must survive bitwise.
        let lanes = 5;
        let per_lane = [
            [4.0, 1.0, 0.5],
            [-2.0, 3.0, 0.25],
            [0.0, -1.0, 7.0],
            [f64::NAN, 2.0, 1.0],
            [f64::INFINITY, -0.5, 2.0],
        ];
        let mut soa = vec![0.0; 3 * lanes];
        for (l, vals) in per_lane.iter().enumerate() {
            for (s, v) in vals.iter().enumerate() {
                soa[s * lanes + l] = *v;
            }
        }
        let mut stack = Vec::new();
        let mut out = vec![0.0; lanes];
        prog.eval_lanes(&soa, lanes, &mut stack, &mut out);
        let mut scalar_stack = Vec::new();
        for (l, vals) in per_lane.iter().enumerate() {
            let scalar = prog.eval(vals, &mut scalar_stack);
            assert_eq!(
                scalar.to_bits(),
                out[l].to_bits(),
                "lane {l}: scalar {scalar} vs batch {}",
                out[l]
            );
        }
        // Scratch reuse across calls must not change results.
        let mut out2 = vec![0.0; lanes];
        prog.eval_lanes(&soa, lanes, &mut stack, &mut out2);
        for (a, b) in out.iter().zip(&out2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_lane_is_the_scalar_path() {
        let e = (x() + Expr::var("y")) * Expr::num(2.0) - Expr::prev("x");
        let prog = compile_xy(&e);
        let slots = [3.0, 4.0, 1.0];
        let mut stack = Vec::new();
        let mut out = [0.0];
        prog.eval_lanes(&slots, 1, &mut stack, &mut out);
        assert_eq!(out[0], 13.0);
        let mut none: [f64; 0] = [];
        prog.eval_lanes(&[], 0, &mut stack, &mut none); // no-op, no panic
    }

    #[test]
    fn agreement_with_tree_eval_on_composite() {
        let e = Expr::call1(Func::Exp, x() * Expr::num(0.1))
            + Expr::call1(Func::Sin, Expr::var("y"))
            - x() / (Expr::var("y") + Expr::num(2.0));
        let prog = compile_xy(&e);
        let mut stack = Vec::new();
        for (xv, yv) in [(0.0, 0.0), (1.0, -0.5), (-2.0, 3.0)] {
            let tree = e
                .eval(&mut |v: &&str, _| match *v {
                    "x" => Some(xv),
                    "y" => Some(yv),
                    _ => None,
                })
                .unwrap();
            let vm = prog.eval(&[xv, yv, 0.0], &mut stack);
            assert!((tree - vm).abs() < 1e-12);
        }
    }
}
