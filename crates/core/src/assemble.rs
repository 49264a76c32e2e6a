//! Step 3 — Assemble and solve (§IV-C, Algorithm 2 and Figure 6/7).
//!
//! Starting from each output of interest, the assembler recursively fetches
//! one equation per dependency class, substitutes the chains into the
//! defining expression, discretizes the analog operators
//! (`ResolveDerivative`), and — when the output re-appears on its own
//! right-hand side — solves the linear equation so that only explicitly
//! delayed (`t − Δt`) occurrences remain, exactly as the paper's Figure 7
//! elaboration does.
//!
//! Three behaviours go beyond the paper's prose but are required for
//! correctness and scale on general topologies:
//!
//! * **Backtracking.** Algorithm 2 greedily takes "one equation of each
//!   dependency set". A fixed fetch order can dead-end on meshed circuits
//!   (every remaining class for some quantity already consumed), so the
//!   assembler backtracks over the candidate classes until a consistent
//!   matching is found.
//! * **Elimination through algebraic loops.** A quantity whose definition
//!   still reads a quantity being defined further up (an *ancestor*)
//!   completes *inline*: it gets no statement of its own yet, and each
//!   ancestor solves its own self-reference once the chain below it is
//!   substituted. This is an exact Gaussian elimination in the order of
//!   definition — the "solution of the linear equation" the paper reports —
//!   and yields the unconditionally stable fully implicit update even for
//!   feedback circuits like the operational amplifier of Figure 8.
//! * **Flat rows with named intermediates.** Every definition that is
//!   affine after discretization is held as a flat constant-coefficient row
//!   (see [`compact`](crate::compact)), never as a spliced tree. When a
//!   quantity completes inline, the part of its row that can already be
//!   computed (inputs, delayed values, assigned quantities, earlier
//!   intermediates) becomes one named intermediate statement `__e{k}` in
//!   the forward sequence, and the inline row keeps only its terms on
//!   pending quantities plus that one symbol. A completed inline quantity
//!   stays a symbol in later rows unless its definition reaches the pivot
//!   being solved, decided from a cached list of the stack quantities it
//!   depends on. A final pass back-substitutes the outputs, the delayed
//!   states and the symbols they read, in dependency order, and folds
//!   aliases and single-use rows into their readers. Each [`Assembly`]
//!   statement thus carries only its row's fill — a tridiagonal RC ladder
//!   costs a few terms per node — and no coefficient is ever pruned.
//!
//! Conditional and nonlinear definitions (calls, per-arm piecewise-linear
//! solves) stay symbolic trees and are substituted whole where they reach
//! the pivot.

use std::collections::{HashMap, HashSet};

use expr::{solve_linear, Expr};
use netlist::{ClassId, EquationTable, QExpr, Quantity};

use crate::compact::{as_affine, as_affine_with, Affine};
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
    /// Exact elimination: every in-progress coupling is substituted and
    /// solved, yielding the fully implicit (backward-Euler) update.
    /// Unconditionally stable.
    #[default]
    Implicit,
    /// Literal reading of §IV-C: only occurrences of the *output of
    /// interest* on its own right-hand side are solved (Figure 7); every
    /// other in-progress coupling reads the value from the previous time
    /// step ("already delayed by Δt"). The resulting scheme is
    /// semi-explicit: on stiff multi-state circuits (RC2 and deeper at the
    /// paper's Δt = 50 ns) the delayed couplings are numerically
    /// *unstable* — measured in this repository's ablation experiments —
    /// which is why [`SolveMode::Implicit`] is the default and the mode
    /// used for every reproduced table.
    Sequential,
}

/// A completed definition: a flat affine row, or a symbolic tree for
/// conditional and nonlinear right-hand sides.
#[derive(Debug, Clone)]
enum Def {
    Row(Affine),
    Tree(QExpr),
}

impl Def {
    fn from_tree(e: QExpr) -> Def {
        match as_affine(&e) {
            Some(row) => Def::Row(row),
            None => Def::Tree(e),
        }
    }

    /// Visits every quantity leaf; `delayed` tells whether it is read at
    /// an earlier step.
    fn visit(&self, f: &mut impl FnMut(&Quantity, bool)) {
        match self {
            Def::Row(row) => row.terms.keys().for_each(|(v, d)| f(v, *d > 0)),
            Def::Tree(e) => e.visit_vars(f),
        }
    }

    fn into_expr(self) -> QExpr {
        match self {
            Def::Row(row) => row.into_expr(),
            Def::Tree(e) => e,
        }
    }
}

enum Memo {
    /// Being defined (on the stack); the value is its push serial.
    Pending(usize),
    /// The quantity has a statement in the forward sequence; references
    /// stay symbolic.
    Assigned,
    /// The definition reads quantities still being defined. `deps` caches
    /// the push serials of the stack quantities it depends on, deepest
    /// first.
    Inline { def: Def, deps: Vec<usize> },
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
    /// Push serials of the quantities being defined, outermost first.
    stack: Vec<usize>,
    /// The quantity pushed with each serial.
    pushed: Vec<Quantity>,
    memo: HashMap<Quantity, Memo>,
    /// Statements over inputs, delayed values and earlier statements only,
    /// in evaluation order.
    forward: Vec<(Quantity, Def)>,
    intermediates: usize,
    /// Expansions of inline quantities for the pivot being solved, so a
    /// definition reached along several paths is expanded once.
    expanded: HashMap<Quantity, Option<Affine>>,
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
    use std::collections::BTreeMap;
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
///   when no consistent matching exists; the error is the one the matched
///   (first-tried) candidate failed with.
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
        pushed: Vec::new(),
        memo: HashMap::new(),
        forward: Vec::new(),
        intermediates: 0,
        expanded: HashMap::new(),
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
    }
    asm.finalize(outputs.to_vec())
}

/// Rebuilds `e` with every current-value leaf replaced by `f`'s result.
fn map_current(e: &QExpr, f: &mut impl FnMut(&Quantity) -> QExpr) -> QExpr {
    match e {
        Expr::Var(v) => f(v),
        Expr::Num(_) | Expr::Prev(..) => e.clone(),
        Expr::Neg(a) => -map_current(a, f),
        Expr::Bin(op, a, b) => Expr::bin(*op, map_current(a, f), map_current(b, f)),
        Expr::Call(func, args) => {
            Expr::Call(*func, args.iter().map(|a| map_current(a, f)).collect())
        }
        Expr::Ddt(a) => Expr::ddt(map_current(a, f)),
        Expr::Idt(a) => Expr::idt(map_current(a, f)),
        Expr::Cond(c, t, el) => {
            Expr::cond(map_current(c, f), map_current(t, f), map_current(el, f))
        }
    }
}

/// Orders a dependency list deepest (latest pushed) first, without
/// duplicates.
fn sort_deps(deps: &mut Vec<usize>) {
    deps.sort_unstable_by(|a, b| b.cmp(a));
    deps.dedup();
}

impl Assembler<'_> {
    fn define(&mut self, q: &Quantity) -> Result<(), Fail> {
        if q.is_input() || self.memo.contains_key(q) {
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
        self.push(q);
        // The first-tried candidate's failure names the real cause; later
        // fallbacks mostly fail for consuming classes the match needed.
        let mut first_failure = None;
        for (eq, cls) in candidates {
            self.attempts += 1;
            if self.attempts > SEARCH_BUDGET {
                self.pop();
                return Err(Fail::Hard(AbstractError::SearchBudgetExhausted));
            }
            let snap = (self.undo.len(), self.forward.len(), self.aux.len());
            self.table.disable_class(cls);
            self.undo.push(Undo::Class(cls));
            match self.build_rhs(q, &eq.rhs) {
                Ok(def) => {
                    self.pop();
                    self.complete(q, def);
                    self.undo.push(Undo::Memo(q.clone()));
                    return Ok(());
                }
                Err(Fail::Hard(e)) => {
                    self.pop();
                    return Err(Fail::Hard(e));
                }
                Err(Fail::Soft(e)) => {
                    self.rollback(snap);
                    first_failure.get_or_insert(e);
                }
            }
        }
        self.pop();
        Err(Fail::Soft(first_failure.expect("at least one candidate")))
    }

    fn push(&mut self, q: &Quantity) {
        let serial = self.pushed.len();
        self.pushed.push(q.clone());
        self.stack.push(serial);
        self.memo.insert(q.clone(), Memo::Pending(serial));
    }

    fn pop(&mut self) {
        let serial = self.stack.pop().expect("balanced push/pop");
        self.memo.remove(&self.pushed[serial]);
    }

    /// The push serial of `v` while it is being defined.
    fn pending_serial(&self, v: &Quantity) -> Option<usize> {
        match self.memo.get(v) {
            Some(&Memo::Pending(s)) => Some(s),
            _ => None,
        }
    }

    /// Whether the quantity pushed with `serial` is still being defined.
    fn live(&self, serial: usize) -> bool {
        self.pending_serial(&self.pushed[serial]) == Some(serial)
    }

    fn rollback(&mut self, snap: (usize, usize, usize)) {
        let (undo_len, forward_len, aux_len) = snap;
        while self.undo.len() > undo_len {
            match self.undo.pop().expect("length checked") {
                Undo::Class(c) => self.table.enable_class(c),
                Undo::Memo(q) => {
                    self.memo.remove(&q);
                }
            }
        }
        self.forward.truncate(forward_len);
        self.aux.truncate(aux_len);
    }

    /// Whether `v`'s current value is not computable yet: it is being
    /// defined, or it completed inline.
    fn is_pending(&self, v: &Quantity) -> bool {
        matches!(
            self.memo.get(v),
            Some(Memo::Pending(_) | Memo::Inline { .. })
        )
    }

    /// Defines every quantity `rhs` reads, substitutes, discretizes, and
    /// solves for `q`.
    fn build_rhs(&mut self, q: &Quantity, rhs: &QExpr) -> Result<Def, Fail> {
        // Algorithm 2's recursion: define the operands in the order the
        // equation reads them.
        let mut operands = Vec::new();
        rhs.visit_vars(&mut |v, delayed| {
            if !delayed {
                operands.push(v.clone());
            }
        });
        for v in &operands {
            self.define(v)?;
        }
        let rhs = match self.mode {
            SolveMode::Implicit => rhs.clone(),
            // Couplings to in-progress quantities other than the root
            // output read the previous-step value (the paper's implicit Δt
            // delay).
            SolveMode::Sequential => {
                let root = self.pushed[self.stack[0]].clone();
                map_current(rhs, &mut |v| {
                    if *v != root && v != q && self.pending_serial(v).is_some() {
                        Expr::prev(v.clone())
                    } else {
                        Expr::var(v.clone())
                    }
                })
            }
        };
        let disc = discretize(&rhs, self.dt, &mut self.aux).simplified();
        let pivot = *self.stack.last().expect("q is on the stack");
        self.expanded.clear();
        let nonlinear = || {
            Fail::Soft(AbstractError::NonlinearLoop {
                quantity: q.clone(),
            })
        };
        if let Some(mut row) = as_affine_with(&disc, &mut |v| self.affine_leaf(v, pivot)) {
            let a = row.terms.remove(&(q.clone(), 0)).unwrap_or(0.0);
            if a != 0.0 {
                let k = 1.0 - a;
                if k == 0.0 {
                    return Err(nonlinear());
                }
                row = row.scale(1.0 / k);
            }
            row.terms.retain(|_, c| *c != 0.0);
            return Ok(Def::Row(row));
        }
        let tree = map_current(&disc, &mut |v| self.substituted(v, pivot));
        let solved = solve_self(q, &tree).ok_or_else(nonlinear)?;
        Ok(Def::from_tree(solved.simplified()))
    }

    /// Whether `w` completed inline and its value depends on the quantity
    /// pushed with serial `pivot`, the top of the stack.
    fn reaches(&mut self, w: &Quantity, pivot: usize) -> bool {
        self.refresh(w);
        matches!(self.memo.get(w), Some(Memo::Inline { deps, .. }) if deps.first() == Some(&pivot))
    }

    /// Brings `w`'s cached dependencies up to date. Every dependency is a
    /// stack quantity, so when the deepest one is still on the stack, all
    /// of them are. Otherwise each one that completed since is replaced by
    /// its own dependencies (none when it was assigned), and the result is
    /// cached again.
    fn refresh(&mut self, w: &Quantity) {
        let stale = match self.memo.get(w) {
            Some(Memo::Inline { deps, .. }) if deps.first().is_some_and(|&s| !self.live(s)) => {
                deps.clone()
            }
            _ => return,
        };
        let mut fresh = Vec::new();
        for s in stale {
            if self.live(s) {
                fresh.push(s);
            } else {
                let d = self.pushed[s].clone();
                fresh.extend(self.deps_of(&d));
            }
        }
        sort_deps(&mut fresh);
        if let Some(Memo::Inline { deps, .. }) = self.memo.get_mut(w) {
            *deps = fresh;
        }
    }

    /// Current dependencies of a completed quantity (empty when assigned).
    fn deps_of(&mut self, w: &Quantity) -> Vec<usize> {
        self.refresh(w);
        match self.memo.get(w) {
            Some(Memo::Inline { deps, .. }) => deps.clone(),
            _ => Vec::new(),
        }
    }

    /// Resolves a current-value leaf for the affine path: an inline
    /// quantity that reaches the pivot is replaced by its expanded row.
    /// `None` (non-affine) when that definition is a symbolic tree.
    fn affine_leaf(&mut self, v: &Quantity, pivot: usize) -> Option<Affine> {
        if self.reaches(v, pivot) {
            self.expand(v, pivot)
        } else {
            Some(Affine::leaf((v.clone(), 0)))
        }
    }

    /// The row of inline quantity `w` with every inline symbol that
    /// reaches the pivot substituted, recursively.
    fn expand(&mut self, w: &Quantity, pivot: usize) -> Option<Affine> {
        if let Some(done) = self.expanded.get(w) {
            return done.clone();
        }
        let row = match self.memo.get(w) {
            Some(Memo::Inline {
                def: Def::Row(row), ..
            }) => Some(row.clone()),
            _ => None,
        };
        let expanded = row.and_then(|row| {
            let mut out = Affine::constant(row.constant);
            for ((v, d), c) in row.terms {
                if d == 0 && self.reaches(&v, pivot) {
                    out.add_scaled(&self.expand(&v, pivot)?, c);
                } else {
                    *out.terms.entry((v, d)).or_insert(0.0) += c;
                }
            }
            Some(out)
        });
        self.expanded.insert(w.clone(), expanded.clone());
        expanded
    }

    /// Resolves a current-value leaf for the symbolic path: an inline
    /// quantity that reaches the pivot is replaced by its definition,
    /// recursively.
    fn substituted(&mut self, v: &Quantity, pivot: usize) -> QExpr {
        if !self.reaches(v, pivot) {
            return Expr::var(v.clone());
        }
        let def = match self.memo.get(v) {
            Some(Memo::Inline { def, .. }) => def.clone(),
            _ => unreachable!("checked above"),
        };
        let tree = match def {
            Def::Row(row) => row.into_expr(),
            Def::Tree(e) => e,
        };
        map_current(&tree, &mut |x| self.substituted(x, pivot))
    }

    /// Records `q`'s solved definition: a statement in the forward
    /// sequence when it reads only computable values, inline otherwise.
    fn complete(&mut self, q: &Quantity, def: Def) {
        let mut pending = false;
        def.visit(&mut |v, delayed| pending |= !delayed && self.is_pending(v));
        if !pending {
            self.forward.push((q.clone(), def));
            self.memo.insert(q.clone(), Memo::Assigned);
            return;
        }
        let def = match def {
            Def::Row(row) => Def::Row(self.hoist(row)),
            tree => tree,
        };
        let mut deps = Vec::new();
        let mut reads = Vec::new();
        def.visit(&mut |v, delayed| {
            if !delayed {
                reads.push(v.clone());
            }
        });
        for v in reads {
            match self.pending_serial(&v) {
                Some(s) => deps.push(s),
                None => deps.extend(self.deps_of(&v)),
            }
        }
        sort_deps(&mut deps);
        self.memo.insert(q.clone(), Memo::Inline { def, deps });
    }

    /// Splits an inline row into its pending terms and the part that is
    /// computable now. The computable part becomes a named intermediate
    /// statement (unless it is a single term, kept as is) and the returned
    /// row reads it through one symbol.
    fn hoist(&mut self, row: Affine) -> Affine {
        let mut pending = Affine::default();
        let mut ready = Affine::constant(row.constant);
        for ((v, d), c) in row.terms {
            let part = if d == 0 && self.is_pending(&v) {
                &mut pending
            } else {
                &mut ready
            };
            part.terms.insert((v, d), c);
        }
        if ready.constant == 0.0 && ready.terms.len() <= 1 {
            pending.terms.extend(ready.terms);
            return pending;
        }
        let e = Quantity::var(format!("__e{}", self.intermediates));
        self.intermediates += 1;
        self.forward.push((e.clone(), Def::Row(ready)));
        pending.terms.insert((e, 0), 1.0);
        pending
    }

    /// Emits the back-substitution statement of `q` after those of the
    /// inline quantities it reads.
    fn emit(
        &self,
        q: &Quantity,
        done: &mut HashSet<Quantity>,
        out: &mut Vec<(Quantity, Def)>,
    ) -> Result<(), AbstractError> {
        if q.is_input() || done.contains(q) {
            return Ok(());
        }
        let Some(Memo::Inline { def, .. }) = self.memo.get(q) else {
            // A reference to a quantity that was never defined cannot be
            // satisfied.
            return Err(AbstractError::NoEquationFor {
                quantity: q.clone(),
            });
        };
        done.insert(q.clone());
        let mut reads = Vec::new();
        def.visit(&mut |v, delayed| {
            if !delayed {
                reads.push(v.clone());
            }
        });
        for v in reads {
            self.emit(&v, done, out)?;
        }
        out.push((q.clone(), def.clone()));
        Ok(())
    }

    /// Back-substitutes the outputs, every delayed state and the symbols
    /// they read, appends the auxiliary-state updates, folds aliases and
    /// single-use rows, and packages the assembly.
    fn finalize(mut self, outputs: Vec<Quantity>) -> Result<Assembly, AbstractError> {
        let forward = std::mem::take(&mut self.forward);
        // Auxiliary updates (idt accumulators, nonlinear ddt states) go
        // after the main sequence; they only feed the next step.
        let aux: Vec<(Quantity, Def)> = std::mem::take(&mut self.aux)
            .into_pending()
            .into_iter()
            .map(|(q, e)| (q, Def::from_tree(e)))
            .collect();
        let mut done: HashSet<Quantity> =
            forward.iter().chain(&aux).map(|(q, _)| q.clone()).collect();
        let mut wanted = outputs.clone();
        for (_, def) in &aux {
            def.visit(&mut |v, delayed| {
                if !delayed {
                    wanted.push(v.clone());
                }
            });
        }
        // Every delayed read needs its quantity stored each step; iterate
        // to closure, since a back-substituted state can read further
        // delayed inline quantities.
        let delayed_reads = |defs: &[(Quantity, Def)], wanted: &mut Vec<Quantity>| {
            for (_, def) in defs {
                def.visit(&mut |v, delayed| {
                    if delayed {
                        wanted.push(v.clone());
                    }
                });
            }
        };
        delayed_reads(&forward, &mut wanted);
        delayed_reads(&aux, &mut wanted);
        let mut back = Vec::new();
        let mut scanned = 0;
        while !wanted.is_empty() {
            for q in std::mem::take(&mut wanted) {
                self.emit(&q, &mut done, &mut back)?;
            }
            delayed_reads(&back[scanned..], &mut wanted);
            scanned = back.len();
        }
        let keep: HashSet<Quantity> = outputs
            .iter()
            .chain(aux.iter().map(|(q, _)| q))
            .cloned()
            .collect();
        let statements = fold(forward.into_iter().chain(back).chain(aux).collect(), &keep);
        Ok(Assembly {
            assignments: statements
                .into_iter()
                .map(|(q, def)| (q, def.into_expr()))
                .collect(),
            outputs,
            dt: self.dt,
        })
    }
}

/// Folds statements into the rows that read them: a single-term row
/// (`q := c·w`, an alias when c = 1) into every reader, shifting delays,
/// and any other row read once, at the current step, into that reader.
/// Statements in `keep`, and statements a symbolic tree reads, stay.
fn fold(statements: Vec<(Quantity, Def)>, keep: &HashSet<Quantity>) -> Vec<(Quantity, Def)> {
    let index: HashMap<Quantity, usize> = statements
        .iter()
        .enumerate()
        .map(|(i, (q, _))| (q.clone(), i))
        .collect();
    // For each statement: the (reader, delay) pairs of the rows reading
    // it, and whether a tree reads it.
    let mut readers: Vec<Vec<(usize, u32)>> = vec![Vec::new(); statements.len()];
    let mut pinned = vec![false; statements.len()];
    for (r, (_, def)) in statements.iter().enumerate() {
        match def {
            Def::Row(row) => {
                for (v, d) in row.terms.keys() {
                    if let Some(&i) = index.get(v) {
                        readers[i].push((r, *d));
                    }
                }
            }
            Def::Tree(e) => e.visit_vars(&mut |v, _| {
                if let Some(&i) = index.get(v) {
                    pinned[i] = true;
                }
            }),
        }
    }
    let mut statements: Vec<Option<(Quantity, Def)>> = statements.into_iter().map(Some).collect();
    for i in 0..statements.len() {
        let row = match &statements[i] {
            Some((q, Def::Row(row))) if !keep.contains(q) && !pinned[i] => row,
            _ => continue,
        };
        let single_term = row.constant == 0.0 && row.terms.len() == 1;
        let read_once = matches!(readers[i].as_slice(), [(_, 0)]);
        if !(single_term || read_once) || readers[i].iter().any(|&(r, _)| r == i) {
            continue;
        }
        let Some((q, Def::Row(row))) = statements[i].take() else {
            unreachable!("matched above");
        };
        // The statement's own reads move to its readers.
        for (v, d) in row.terms.keys() {
            if let Some(&j) = index.get(v) {
                readers[j].retain(|&(x, e)| (x, e) != (i, *d));
            }
        }
        for (r, k) in std::mem::take(&mut readers[i]) {
            let Some((_, Def::Row(reader))) = &mut statements[r] else {
                unreachable!("readers are live rows");
            };
            let c = reader
                .terms
                .remove(&(q.clone(), k))
                .expect("the reader reads this statement");
            reader.constant += c * row.constant;
            for ((v, d), cv) in &row.terms {
                let leaf = (v.clone(), d + k);
                let merged = reader.terms.contains_key(&leaf);
                *reader.terms.entry(leaf).or_insert(0.0) += c * cv;
                match index.get(v) {
                    Some(&j) if !merged => readers[j].push((r, d + k)),
                    _ => {}
                }
            }
        }
    }
    statements.into_iter().flatten().collect()
}

/// Number of affine terms across an assembly's statements.
///
/// # Panics
///
/// Panics on a statement that is not affine.
#[cfg(test)]
pub(crate) fn affine_term_count(asm: &Assembly) -> usize {
    asm.assignments
        .iter()
        .map(|(q, e)| {
            crate::compact::affine_terms(e)
                .unwrap_or_else(|| panic!("{q} := {e} is not affine"))
                .1
                .len()
        })
        .sum()
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
    fn ladders_assemble_in_their_fill() {
        // Back-substitution over named intermediates keeps a few terms per
        // stage of the tridiagonal ladder: at most 7·n for RCn.
        use crate::circuits::{opamp, rc_ladder, two_inputs};
        for n in [8, 20, 64, 250] {
            let asm = assemble_src(&rc_ladder(n), &[Quantity::node_v("out")], 50e-9);
            let terms = affine_term_count(&asm);
            assert!(terms <= 7 * n, "RC{n}: {terms} affine terms > {}", 7 * n);
        }
        for (label, src) in [
            ("RC1", rc_ladder(1)),
            ("2IN", two_inputs()),
            ("OA", opamp()),
        ] {
            let asm = assemble_src(&src, &[Quantity::node_v("out")], 50e-9);
            assert_eq!(asm.assignments.len(), 1, "{label}: {:?}", asm.assignments);
        }
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
