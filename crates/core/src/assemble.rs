//! Step 3 — Assemble and solve (§IV-C, Algorithm 2 and Figure 6/7).
//!
//! Starting from each output of interest, the assembler recursively fetches
//! one equation per dependency class, splices the chains into the defining
//! expression, discretizes the analog operators (`ResolveDerivative`), and
//! — when the output re-appears on its own right-hand side — solves the
//! linear equation so that only explicitly delayed (`t − Δt`) occurrences
//! remain, exactly as the paper's Figure 7 elaboration does.
//!
//! Two behaviours go beyond the paper's prose but are required for
//! correctness on general topologies:
//!
//! * **Backtracking.** Algorithm 2 greedily takes "one equation of each
//!   dependency set". A fixed fetch order can dead-end on meshed circuits
//!   (every remaining class for some quantity already consumed), so the
//!   assembler backtracks over the candidate classes until a consistent
//!   matching is found.
//! * **Inline chaining through algebraic loops.** When a quantity's spliced
//!   definition still references an *ancestor* that is currently being
//!   defined, the definition is embedded inline in the ancestor's tree
//!   instead of becoming a standalone assignment. Each level solves its own
//!   self-reference, which makes the overall elaboration an exact symbolic
//!   Gaussian elimination — the O(|N|³) "solution of the linear equation"
//!   the paper reports — and yields the unconditionally stable fully
//!   implicit update even for feedback circuits like the operational
//!   amplifier of Figure 8.

use std::collections::HashMap;

use expr::{solve_linear, Expr};
use netlist::{ClassId, EquationTable, QExpr, Quantity};

use crate::discretize::{discretize, AuxAllocator};
use crate::AbstractError;

/// The elaborated model: an ordered sequence of constant-time assignments
/// evaluated once per time step, followed by state bookkeeping handled by
/// the execution layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Assembly {
    /// `quantity := expression` updates in evaluation order. Expressions
    /// reference inputs, previously assigned quantities, and delayed
    /// (`Prev`) values only.
    pub assignments: Vec<(Quantity, QExpr)>,
    /// The outputs of interest, in request order.
    pub outputs: Vec<Quantity>,
    /// The discretization time step used for `ddt`/`idt`.
    pub dt: f64,
}

impl Assembly {
    /// Total node count across all right-hand sides (a size metric).
    pub fn expression_size(&self) -> usize {
        self.assignments.iter().map(|(_, e)| e.node_count()).sum()
    }

    /// Looks up the assignment defining `q`.
    pub fn assignment(&self, q: &Quantity) -> Option<&QExpr> {
        self.assignments
            .iter()
            .find(|(lhs, _)| lhs == q)
            .map(|(_, e)| e)
    }
}

/// Maximum number of candidate attempts before giving up on pathological
/// topologies.
const SEARCH_BUDGET: usize = 200_000;

/// Solves `q = rhs` for the self-referencing quantity `q`.
///
/// Linear self-references are eliminated directly (Figure 7). A
/// *conditional* right-hand side — the piecewise-linear case of §III-C,
/// e.g. a clamped amplifier inside a feedback loop — is solved arm by arm:
/// each arm yields its own fixpoint, and the guard is re-evaluated with
/// the then-arm's solution substituted, so the consistent piece is
/// selected at run time. Returns `None` for genuinely nonlinear loops.
fn solve_self(q: &Quantity, rhs: &QExpr) -> Option<QExpr> {
    if !rhs.contains_var(q) {
        return Some(rhs.clone());
    }
    if let Some(solved) = solve_linear(&Expr::var(q.clone()), rhs, q) {
        return Some(solved);
    }
    if let Expr::Cond(c, t, e) = rhs {
        let qt = solve_self(q, t)?;
        let qe = solve_self(q, e)?;
        let guard = c.substitute(q, &qt);
        return Some(Expr::cond(guard, qt, qe));
    }
    None
}

/// How algebraic couplings between in-progress quantities are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Exact symbolic elimination: every in-progress coupling is spliced
    /// inline and solved, yielding the fully implicit (backward-Euler)
    /// update. Unconditionally stable, slightly larger expressions.
    #[default]
    Implicit,
    /// Literal reading of §IV-C: only occurrences of the *output of
    /// interest* on its own right-hand side are solved (Figure 7); every
    /// other in-progress coupling reads the value from the previous time
    /// step ("already delayed by Δt"). Generated code stays O(chain
    /// length), but the resulting scheme is semi-explicit: on stiff
    /// multi-state circuits (RC2 and deeper at the paper's Δt = 50 ns)
    /// the delayed couplings are numerically *unstable* — measured in this
    /// repository's ablation experiments — which is why [`SolveMode::Implicit`]
    /// is the default and the mode used for every reproduced table.
    Sequential,
}

enum Memo {
    /// The quantity has a standalone assignment; references stay symbolic.
    Assigned,
    /// The definition is embedded in its ancestors; references clone it.
    Inline(QExpr),
}

enum Undo {
    Class(ClassId),
    Memo(Quantity),
}

enum Fail {
    /// Another candidate choice higher up may still succeed.
    Soft(AbstractError),
    /// Abort the whole search.
    Hard(AbstractError),
}

struct Assembler<'t> {
    table: &'t mut EquationTable,
    dt: f64,
    stack: Vec<Quantity>,
    memo: HashMap<Quantity, Memo>,
    assignments: Vec<(Quantity, QExpr)>,
    aux: AuxAllocator,
    undo: Vec<Undo>,
    attempts: usize,
    /// Globally consistent quantity → class assignment (see
    /// [`compute_matching`]); tried first at every definition.
    matching: HashMap<Quantity, ClassId>,
    mode: SolveMode,
}

/// Computes a maximum bipartite matching between quantities and the
/// dependency classes able to define them (Kuhn's augmenting-path
/// algorithm).
///
/// The paper's Algorithm 2 takes "one equation of each dependency set"
/// greedily; system-wide, that choice is exactly a matching between
/// unknowns and equations. Computing it up front makes chain construction
/// conflict-free in polynomial time — the greedy fetch with backtracking
/// remains only as a fallback for exotic topologies.
fn compute_matching(table: &EquationTable) -> HashMap<Quantity, ClassId> {
    use std::collections::{BTreeMap, HashSet};
    let mut adj: BTreeMap<Quantity, Vec<ClassId>> = BTreeMap::new();
    for cls in table.class_ids() {
        for eq in table.class_members(cls) {
            adj.entry(eq.lhs.clone()).or_default().push(cls);
        }
    }
    let mut class_owner: HashMap<ClassId, Quantity> = HashMap::new();

    fn try_augment(
        q: &Quantity,
        adj: &BTreeMap<Quantity, Vec<ClassId>>,
        class_owner: &mut HashMap<ClassId, Quantity>,
        visited: &mut HashSet<ClassId>,
    ) -> bool {
        let Some(classes) = adj.get(q) else {
            return false;
        };
        for &c in classes {
            if visited.insert(c) {
                let owner = class_owner.get(&c).cloned();
                let free = match owner {
                    None => true,
                    Some(o) => try_augment(&o, adj, class_owner, visited),
                };
                if free {
                    class_owner.insert(c, q.clone());
                    return true;
                }
            }
        }
        false
    }

    for q in adj.keys() {
        let mut visited = HashSet::new();
        try_augment(q, &adj, &mut class_owner, &mut visited);
    }
    class_owner.into_iter().map(|(c, q)| (q, c)).collect()
}

/// Runs assembly for the given outputs against an enriched equation table.
///
/// The table is consumed conceptually: used dependency classes stay
/// disabled so that a subsequent output shares the same consistent matching
/// (call [`EquationTable::reset`] to start over).
///
/// # Errors
///
/// * [`AbstractError::InvalidTimeStep`] for a non-positive/non-finite `dt`.
/// * [`AbstractError::UndefinedOutput`] when an output has no defining
///   chain at all.
/// * [`AbstractError::NoEquationFor`] / [`AbstractError::NonlinearLoop`]
///   when no consistent matching exists.
/// * [`AbstractError::SearchBudgetExhausted`] on pathological topologies.
pub fn assemble(
    table: &mut EquationTable,
    outputs: &[Quantity],
    dt: f64,
) -> Result<Assembly, AbstractError> {
    assemble_with(table, outputs, dt, SolveMode::default())
}

/// [`assemble`] with an explicit coupling [`SolveMode`].
///
/// # Errors
///
/// Same as [`assemble`].
pub fn assemble_with(
    table: &mut EquationTable,
    outputs: &[Quantity],
    dt: f64,
    mode: SolveMode,
) -> Result<Assembly, AbstractError> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(AbstractError::InvalidTimeStep { dt });
    }
    let matching = compute_matching(table);
    let mut asm = Assembler {
        table,
        dt,
        stack: Vec::new(),
        memo: HashMap::new(),
        assignments: Vec::new(),
        aux: AuxAllocator::new(),
        undo: Vec::new(),
        attempts: 0,
        matching,
        mode,
    };
    for q in outputs {
        if q.is_input() {
            return Err(AbstractError::UndefinedOutput {
                quantity: q.clone(),
            });
        }
        match asm.define(q) {
            Ok(()) => {}
            Err(Fail::Soft(AbstractError::NoEquationFor { quantity: e }))
                if e == *q && asm.table.candidates(q).is_empty() =>
            {
                return Err(AbstractError::UndefinedOutput {
                    quantity: q.clone(),
                })
            }
            Err(Fail::Soft(e)) | Err(Fail::Hard(e)) => return Err(e),
        }
        // Outputs must be materialized even if their definition ended up
        // inline (possible only through quantities shared between outputs).
        asm.materialize(q);
    }
    asm.finalize(outputs.to_vec())
}

impl Assembler<'_> {
    fn define(&mut self, q: &Quantity) -> Result<(), Fail> {
        if q.is_input() || self.memo.contains_key(q) || self.stack.contains(q) {
            return Ok(());
        }
        let mut candidates: Vec<(netlist::Equation, ClassId)> = self
            .table
            .candidates(q)
            .into_iter()
            .map(|(eq, c)| (eq.clone(), c))
            .collect();
        // The globally matched class (conflict-free by construction) is
        // tried first; the remaining candidates stay as a backtracking
        // fallback for topologies where a matched chain still fails.
        if let Some(&preferred) = self.matching.get(q) {
            candidates.sort_by_key(|&(_, c)| usize::from(c != preferred));
        }
        if candidates.is_empty() {
            return Err(Fail::Soft(AbstractError::NoEquationFor {
                quantity: q.clone(),
            }));
        }
        self.stack.push(q.clone());
        let mut last = AbstractError::NoEquationFor {
            quantity: q.clone(),
        };
        for (eq, cls) in candidates {
            self.attempts += 1;
            if self.attempts > SEARCH_BUDGET {
                self.stack.pop();
                return Err(Fail::Hard(AbstractError::SearchBudgetExhausted));
            }
            let snap = (self.undo.len(), self.assignments.len(), self.aux.len());
            self.table.disable_class(cls);
            self.undo.push(Undo::Class(cls));
            match self.build_rhs(q, &eq.rhs) {
                Ok(rhs) => {
                    self.stack.pop();
                    let refs_ancestor = {
                        let mut found = false;
                        rhs.visit_vars(&mut |v, delayed| {
                            if !delayed && self.stack.contains(v) {
                                found = true;
                            }
                        });
                        found
                    };
                    if refs_ancestor {
                        self.memo.insert(q.clone(), Memo::Inline(rhs));
                    } else {
                        self.assignments.push((q.clone(), rhs));
                        self.memo.insert(q.clone(), Memo::Assigned);
                    }
                    self.undo.push(Undo::Memo(q.clone()));
                    return Ok(());
                }
                Err(Fail::Hard(e)) => {
                    self.stack.pop();
                    return Err(Fail::Hard(e));
                }
                Err(Fail::Soft(e)) => {
                    self.rollback(snap);
                    last = e;
                }
            }
        }
        self.stack.pop();
        Err(Fail::Soft(last))
    }

    fn rollback(&mut self, snap: (usize, usize, usize)) {
        let (undo_len, asg_len, aux_len) = snap;
        while self.undo.len() > undo_len {
            match self.undo.pop().expect("length checked") {
                Undo::Class(c) => self.table.enable_class(c),
                Undo::Memo(q) => {
                    self.memo.remove(&q);
                }
            }
        }
        self.assignments.truncate(asg_len);
        self.aux.truncate(aux_len);
    }

    /// Splices, discretizes, and solves one fetched right-hand side.
    fn build_rhs(&mut self, q: &Quantity, rhs: &QExpr) -> Result<QExpr, Fail> {
        let spliced = self.splice(rhs)?;
        let disc = discretize(&spliced, self.dt, &mut self.aux).simplified();
        // Derivative resolution distributes over embedded inline chains and
        // can surface current references to quantities that completed as
        // inline definitions since; a second splice resolves them.
        let disc = self.splice(&disc)?;
        let solved = solve_self(q, &disc).ok_or_else(|| {
            Fail::Soft(AbstractError::NonlinearLoop {
                quantity: q.clone(),
            })
        })?;
        Ok(solved.simplified())
    }

    /// Recursively replaces quantity leaves according to the memo table,
    /// defining quantities on first encounter.
    fn splice(&mut self, e: &QExpr) -> Result<QExpr, Fail> {
        Ok(match e {
            Expr::Num(_) | Expr::Prev(..) => e.clone(),
            Expr::Var(v) => {
                if v.is_input() {
                    return Ok(e.clone());
                }
                if self.stack.contains(v) {
                    // In sequential mode, couplings to in-progress
                    // quantities other than the root output read the
                    // previous-step value (the paper's implicit Δt delay).
                    if self.mode == SolveMode::Sequential
                        && self.stack.first() != Some(v)
                        && self.stack.last() != Some(v)
                    {
                        return Ok(Expr::prev(v.clone()));
                    }
                    return Ok(e.clone());
                }
                if !self.memo.contains_key(v) {
                    self.define(v)?;
                }
                match self.memo.get(v) {
                    Some(Memo::Assigned) => e.clone(),
                    // Inline definitions were solved in the context where
                    // they were created; any symbols they carry for
                    // quantities that have completed as inline since must
                    // be substituted for the *current* context, so they are
                    // re-spliced here.
                    Some(Memo::Inline(x)) => {
                        let x = x.clone();
                        self.splice(&x)?
                    }
                    None => unreachable!("define() must memoize on success"),
                }
            }
            Expr::Neg(a) => -self.splice(a)?,
            Expr::Bin(op, a, b) => Expr::bin(*op, self.splice(a)?, self.splice(b)?),
            Expr::Call(f, args) => Expr::Call(
                *f,
                args.iter()
                    .map(|a| self.splice(a))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Ddt(a) => Expr::ddt(self.splice(a)?),
            Expr::Idt(a) => Expr::idt(self.splice(a)?),
            Expr::Cond(c, t, el) => Expr::cond(self.splice(c)?, self.splice(t)?, self.splice(el)?),
        })
    }

    /// Ensures `q` has a standalone assignment, materializing an inline
    /// definition (with ancestors substituted) if necessary.
    fn materialize(&mut self, q: &Quantity) {
        if matches!(self.memo.get(q), Some(Memo::Assigned)) {
            return;
        }
        if let Some(Memo::Inline(x)) = self.memo.get(q) {
            let resolved = self.resolve_inline(&x.clone());
            self.assignments.push((q.clone(), resolved));
            self.memo.insert(q.clone(), Memo::Assigned);
        }
    }

    /// Substitutes remaining inline definitions (ancestor chains) inside an
    /// expression; terminates because inline references strictly climb
    /// ancestor chains toward assigned quantities.
    fn resolve_inline(&self, e: &QExpr) -> QExpr {
        match e {
            Expr::Var(v) => match self.memo.get(v) {
                Some(Memo::Inline(x)) => self.resolve_inline(x),
                _ => e.clone(),
            },
            Expr::Num(_) | Expr::Prev(..) => e.clone(),
            Expr::Neg(a) => -self.resolve_inline(a),
            Expr::Bin(op, a, b) => Expr::bin(*op, self.resolve_inline(a), self.resolve_inline(b)),
            Expr::Call(f, args) => {
                Expr::Call(*f, args.iter().map(|a| self.resolve_inline(a)).collect())
            }
            Expr::Ddt(a) => Expr::ddt(self.resolve_inline(a)),
            Expr::Idt(a) => Expr::idt(self.resolve_inline(a)),
            Expr::Cond(c, t, el) => Expr::cond(
                self.resolve_inline(c),
                self.resolve_inline(t),
                self.resolve_inline(el),
            ),
        }
    }

    /// Appends auxiliary-state updates and materializes every delayed
    /// quantity that lacks storage, then packages the assembly.
    fn finalize(mut self, outputs: Vec<Quantity>) -> Result<Assembly, AbstractError> {
        // Auxiliary updates (idt accumulators, nonlinear ddt states) go
        // after the main sequence; they only feed the next step.
        let pending: Vec<(Quantity, QExpr)> = self
            .aux
            .pending()
            .iter()
            .map(|(q, e)| (q.clone(), self.resolve_inline(e)))
            .collect();
        for (q, e) in pending {
            self.assignments.push((q.clone(), e));
            self.memo.insert(q, Memo::Assigned);
        }
        // Materialize states: any Prev(x) without an assignment needs one
        // so that its previous value exists. Iterate to closure because a
        // materialized definition can reference further delayed inline
        // quantities.
        loop {
            let mut missing: Vec<Quantity> = Vec::new();
            for (_, e) in &self.assignments {
                e.visit_vars(&mut |v, delayed| {
                    if delayed
                        && !v.is_input()
                        && !matches!(self.memo.get(v), Some(Memo::Assigned))
                        && !missing.contains(v)
                    {
                        missing.push(v.clone());
                    }
                });
            }
            if missing.is_empty() {
                break;
            }
            for q in missing {
                match self.memo.get(&q) {
                    Some(Memo::Inline(x)) => {
                        let resolved = self.resolve_inline(&x.clone());
                        self.assignments.push((q.clone(), resolved));
                        self.memo.insert(q, Memo::Assigned);
                    }
                    _ => {
                        // A delayed reference to a quantity that was never
                        // defined cannot be satisfied.
                        return Err(AbstractError::NoEquationFor { quantity: q });
                    }
                }
            }
        }
        // Affine compaction: flatten linear updates into the
        // constant-coefficient statements of Figure 7(b). Without it the
        // substitution fill-in grows polynomially with circuit depth.
        let assignments = self
            .assignments
            .into_iter()
            .map(|(q, e)| (q, crate::compact::compact(&e)))
            .collect();
        Ok(Assembly {
            assignments,
            outputs,
            dt: self.dt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquire::acquire;
    use crate::enrich::enrich;
    use vams_parser::parse_module;

    fn assemble_src(src: &str, outputs: &[Quantity], dt: f64) -> Assembly {
        let m = parse_module(src).unwrap();
        let model = acquire(&m).unwrap();
        let mut table = enrich(&model).unwrap();
        assemble(&mut table, outputs, dt).unwrap()
    }

    const RC1: &str = "module rc(in, out);
        input in; output out;
        parameter real R = 5k;
        parameter real C = 25n;
        electrical in, out, gnd;
        ground gnd;
        branch (in, out) res;
        branch (out, gnd) cap;
        analog begin
          V(res) <+ R * I(res);
          I(cap) <+ C * ddt(V(cap));
        end
      endmodule";

    /// Steps an assembly naively via tree evaluation (tests only).
    fn run(asm: &Assembly, inputs: &[(&str, f64)], steps: usize) -> f64 {
        let mut state: HashMap<(Quantity, u32), f64> = HashMap::new();
        let out = asm.outputs[0].clone();
        let mut result = 0.0;
        for _ in 0..steps {
            for (q, e) in &asm.assignments {
                let v = e
                    .eval(&mut |v: &Quantity, delay| {
                        if delay == 0 {
                            if let Quantity::Input(n) = v {
                                return inputs.iter().find(|(k, _)| k == n).map(|&(_, x)| x);
                            }
                            state.get(&(v.clone(), 0)).copied()
                        } else {
                            Some(state.get(&(v.clone(), delay)).copied().unwrap_or(0.0))
                        }
                    })
                    .unwrap();
                state.insert((q.clone(), 0), v);
            }
            result = state[&(out.clone(), 0)];
            // Shift delays (support up to 2).
            let snapshot: Vec<((Quantity, u32), f64)> =
                state.iter().map(|(k, &v)| (k.clone(), v)).collect();
            for ((q, d), v) in snapshot {
                if d == 0 {
                    state.insert((q.clone(), 1), v);
                } else if d == 1 {
                    state.insert((q.clone(), 2), v);
                }
            }
            // Input prev.
            for (n, x) in inputs {
                state.insert((Quantity::input(*n), 1), *x);
            }
        }
        result
    }

    #[test]
    fn rc1_produces_single_backward_euler_assignment() {
        let dt = 50e-9;
        let asm = assemble_src(RC1, &[Quantity::node_v("out")], dt);
        // The paper's Figure 7: one update statement for the output.
        assert_eq!(asm.assignments.len(), 1);
        let (lhs, rhs) = &asm.assignments[0];
        assert_eq!(*lhs, Quantity::node_v("out"));
        // No current self-reference survives the solve.
        assert!(!rhs.contains_var(lhs));
        // out = (u + k·prev) / (1 + k) with k = RC/dt.
        let k = 5000.0 * 25e-9 / dt;
        let got = rhs
            .eval(&mut |q: &Quantity, delay| match (q, delay) {
                (Quantity::Input(_), 0) => Some(1.0),
                (Quantity::NodeV(_), 1) => Some(0.25),
                _ => None,
            })
            .unwrap();
        let want = (1.0 + k * 0.25) / (1.0 + k);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn rc1_step_response_matches_analytic() {
        // dt = τ/100; after τ the step response reaches 1 − e⁻¹ within the
        // backward-Euler error budget.
        let tau = 5000.0 * 25e-9;
        let dt = tau / 100.0;
        let asm = assemble_src(RC1, &[Quantity::node_v("out")], dt);
        let v = run(&asm, &[("in", 1.0)], 100);
        let analytic = 1.0 - (-1.0_f64).exp();
        assert!((v - analytic).abs() < 5e-3, "{v} vs {analytic}");
    }

    #[test]
    fn rc2_couples_states_implicitly() {
        let src = "module rc2(in, out);
            input in; output out;
            parameter real R = 5k;
            parameter real C = 25n;
            electrical in, n1, out, gnd;
            ground gnd;
            branch (in, n1) r1;
            branch (n1, out) r2;
            branch (n1, gnd) c1;
            branch (out, gnd) c2;
            analog begin
              V(r1) <+ R * I(r1);
              V(r2) <+ R * I(r2);
              I(c1) <+ C * ddt(V(c1));
              I(c2) <+ C * ddt(V(c2));
            end
          endmodule";
        let tau = 5000.0 * 25e-9;
        let dt = tau / 200.0;
        let asm = assemble_src(src, &[Quantity::node_v("out")], dt);
        // Two states (the capacitor nodes) must have assignments.
        assert!(asm.assignment(&Quantity::node_v("out")).is_some());
        assert!(
            asm.assignments.len() >= 2,
            "internal state n1 must be materialized: {:?}",
            asm.assignments
                .iter()
                .map(|(q, _)| q.clone())
                .collect::<Vec<_>>()
        );
        // Long-run step response settles to 1 (no leakage paths).
        let v = run(&asm, &[("in", 1.0)], 4000);
        assert!((v - 1.0).abs() < 2e-2, "settles to the input, got {v}");
    }

    #[test]
    fn divider_is_static() {
        // Pure resistive divider: no states, exact algebra.
        let src = "module div(in, out);
            input in; output out;
            electrical in, out, gnd;
            ground gnd;
            branch (in, out) r1;
            branch (out, gnd) r2;
            analog begin
              V(r1) <+ 1k * I(r1);
              V(r2) <+ 3k * I(r2);
            end
          endmodule";
        let asm = assemble_src(src, &[Quantity::node_v("out")], 1e-6);
        let v = run(&asm, &[("in", 4.0)], 3);
        assert!(
            (v - 3.0).abs() < 1e-9,
            "4 V over 1k/3k divides to 3 V, got {v}"
        );
    }

    #[test]
    fn vcvs_feedback_is_solved_implicitly() {
        // Inverting amplifier with explicit high-gain VCVS: the algebraic
        // loop must be eliminated, not delayed.
        let src = "module inv(in, out);
            input in; output out;
            electrical in, inm, out, gnd;
            ground gnd;
            branch (in, inm) r1;
            branch (inm, out) r2;
            branch (out, gnd) src;
            analog begin
              V(r1) <+ 1k * I(r1);
              V(r2) <+ 4k * I(r2);
              V(src) <+ -100k * V(inm, gnd);
            end
          endmodule";
        let asm = assemble_src(src, &[Quantity::node_v("out")], 1e-6);
        let v = run(&asm, &[("in", 1.0)], 3);
        // Ideal gain −R2/R1 = −4; with A₀ = 1e5 the error is ~5/A₀.
        assert!((v + 4.0).abs() < 1e-3, "inverting gain, got {v}");
        // Crucially the value is already correct at the FIRST step — no
        // delayed relaxation through the loop.
        let v1 = run(&asm, &[("in", 1.0)], 1);
        assert!(
            (v1 + 4.0).abs() < 1e-3,
            "implicit solve at step 1, got {v1}"
        );
    }

    #[test]
    fn output_of_interest_restricts_cone() {
        // Two independent RC branches; asking for one must not pull in the
        // other (Figure 3's subset extraction).
        let src = "module two(in, o1, o2);
            input in; output o1; output o2;
            parameter real R = 1k;
            parameter real C = 1u;
            electrical in, o1, o2, gnd;
            ground gnd;
            branch (in, o1) ra;
            branch (o1, gnd) ca;
            branch (in, o2) rb;
            branch (o2, gnd) cb;
            analog begin
              V(ra) <+ R * I(ra);
              I(ca) <+ C * ddt(V(ca));
              V(rb) <+ R * I(rb);
              I(cb) <+ C * ddt(V(cb));
            end
          endmodule";
        let asm = assemble_src(src, &[Quantity::node_v("o1")], 1e-6);
        for (q, e) in &asm.assignments {
            assert!(q.name() != "o2", "o2 must not be defined");
            assert!(
                !e.variables()
                    .iter()
                    .any(|v| v.name() == "o2" || v.name() == "rb" || v.name() == "cb"),
                "cone for o1 must not touch the o2 branch: {q} = {e}"
            );
        }
    }

    #[test]
    fn both_outputs_share_a_consistent_matching() {
        let src = "module rc(in, out);
            input in; output out;
            electrical in, out, gnd;
            ground gnd;
            branch (in, out) res;
            branch (out, gnd) cap;
            analog begin
              V(res) <+ 5k * I(res);
              I(cap) <+ 25n * ddt(V(cap));
            end
          endmodule";
        let m = parse_module(src).unwrap();
        let model = acquire(&m).unwrap();
        let mut table = enrich(&model).unwrap();
        let asm = assemble(
            &mut table,
            &[Quantity::node_v("out"), Quantity::branch_i("cap")],
            1e-6,
        )
        .unwrap();
        assert!(asm.assignment(&Quantity::node_v("out")).is_some());
        assert!(asm.assignment(&Quantity::branch_i("cap")).is_some());
    }

    #[test]
    fn piecewise_linear_loop_solved_per_arm() {
        // x = clamp(u − 2x): each arm solves to its own fixpoint and the
        // guard picks the consistent piece.
        use expr::BinOp;
        let x = Quantity::var("x");
        let u = Quantity::input("u");
        let inner = Expr::var(u.clone()) - Expr::num(2.0) * Expr::var(x.clone());
        let rhs = Expr::cond(
            Expr::bin(BinOp::Gt, inner.clone(), Expr::num(1.0)),
            Expr::num(1.0),
            inner,
        );
        let solved = solve_self(&x, &rhs).expect("PWL loop solves");
        assert!(!solved.contains_var(&x));
        let eval_at = |uv: f64| {
            solved
                .eval(&mut |q: &Quantity, _| q.is_input().then_some(uv))
                .unwrap()
        };
        // Linear region: x = u/3 while u − 2x = u/3 ≤ 1 (u ≤ 3).
        assert!((eval_at(1.5) - 0.5).abs() < 1e-12);
        // Clamped region: x = 1 when u − 2·1 > 1 (u > 3).
        assert!((eval_at(6.0) - 1.0).abs() < 1e-12);

        // A truly nonlinear loop still fails.
        let bad = Expr::var(x.clone()) * Expr::var(x.clone());
        assert!(solve_self(&x, &bad).is_none());
    }

    #[test]
    fn bad_dt_rejected() {
        let m = parse_module(RC1).unwrap();
        let model = acquire(&m).unwrap();
        let mut table = enrich(&model).unwrap();
        assert!(matches!(
            assemble(&mut table, &[Quantity::node_v("out")], 0.0),
            Err(AbstractError::InvalidTimeStep { dt: _ })
        ));
        assert!(matches!(
            assemble(&mut table, &[Quantity::node_v("out")], f64::NAN),
            Err(AbstractError::InvalidTimeStep { dt: _ })
        ));
    }

    #[test]
    fn unknown_output_rejected() {
        let m = parse_module(RC1).unwrap();
        let model = acquire(&m).unwrap();
        let mut table = enrich(&model).unwrap();
        assert!(matches!(
            assemble(&mut table, &[Quantity::node_v("ghost")], 1e-6),
            Err(AbstractError::UndefinedOutput { quantity: _ })
        ));
        let mut table2 = enrich(&model).unwrap();
        assert!(matches!(
            assemble(&mut table2, &[Quantity::input("in")], 1e-6),
            Err(AbstractError::UndefinedOutput { quantity: _ })
        ));
    }
}
