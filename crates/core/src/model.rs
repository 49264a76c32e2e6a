//! Step 4 output — the executable signal-flow model.
//!
//! [`SignalFlowModel`] is the runnable counterpart of the generated C++
//! code: every assignment of the [`Assembly`](crate::Assembly) is compiled
//! once into flat stack-machine bytecode over a register file of `f64`
//! slots (current and delayed values), and [`SignalFlowModel::step`]
//! advances the model by one time step without any allocation, hashing, or
//! tree walking.

use std::collections::BTreeMap;

use expr::vm::{compile, Program};
use netlist::{QExpr, Quantity};

use crate::compact::affine_terms;
use crate::{AbstractError, Assembly};

/// How one update statement executes.
#[derive(Debug, Clone)]
enum Exec {
    /// Native constant-coefficient dot product (the common case for
    /// linear circuits — evaluates like compiled C++).
    Affine {
        constant: f64,
        terms: Vec<(u32, f64)>,
    },
    /// General stack-machine program (conditionals, functions, ...).
    Vm(Program),
}

/// An executable discrete-time signal-flow model.
///
/// Construct one through [`Abstraction`](crate::Abstraction) (the full
/// pipeline) or directly with [`SignalFlowModel::from_assembly`].
#[derive(Debug, Clone)]
pub struct SignalFlowModel {
    name: String,
    dt: f64,
    inputs: Vec<String>,
    input_slots: Vec<u32>,
    outputs: Vec<Quantity>,
    output_slots: Vec<u32>,
    assignments: Vec<(Quantity, QExpr)>,
    programs: Vec<(u32, Exec)>,
    /// `(base_slot, max_delay)` per tracked quantity, for the delay shift.
    shifts: Vec<(u32, u32)>,
    slot_of: BTreeMap<Quantity, (u32, u32)>,
    slots: Vec<f64>,
    scratch: Vec<f64>,
}

impl SignalFlowModel {
    /// Compiles an assembly into an executable model.
    ///
    /// `inputs` fixes the order in which [`SignalFlowModel::step`] expects
    /// input samples; every `Input` quantity referenced by the assembly
    /// must be listed.
    ///
    /// # Errors
    ///
    /// Returns [`AbstractError::UndefinedOutput`] if an assembly output has
    /// no assignment, or [`AbstractError::UnknownIdentifier`] if an input
    /// referenced by the equations is missing from `inputs`.
    pub fn from_assembly(
        name: impl Into<String>,
        assembly: &Assembly,
        inputs: &[String],
    ) -> Result<Self, AbstractError> {
        // Gather every referenced (quantity, max delay).
        let mut max_delay: BTreeMap<Quantity, u32> = BTreeMap::new();
        for i in inputs {
            max_delay.insert(Quantity::input(i.clone()), 0);
        }
        for (q, e) in &assembly.assignments {
            max_delay.entry(q.clone()).or_insert(0);
            e.visit_vars(&mut |v, _| {
                max_delay.entry(v.clone()).or_insert(0);
            });
        }
        for (_, e) in &assembly.assignments {
            collect_delays(e, &mut max_delay);
        }

        // Validate inputs: every Input quantity must be listed.
        for q in max_delay.keys() {
            if let Quantity::Input(n) = q {
                if !inputs.iter().any(|i| i == n) {
                    return Err(AbstractError::UnknownIdentifier { name: n.clone() });
                }
            }
        }

        // Slot layout: contiguous runs [current, prev1, prev2, ...].
        let mut slot_of: BTreeMap<Quantity, (u32, u32)> = BTreeMap::new();
        let mut next = 0u32;
        let mut shifts = Vec::new();
        for (q, &d) in &max_delay {
            slot_of.insert(q.clone(), (next, d));
            if d > 0 {
                shifts.push((next, d));
            }
            next += d + 1;
        }

        let resolve = |q: &Quantity, delay: u32| -> Option<u32> {
            let &(base, maxd) = slot_of.get(q)?;
            (delay <= maxd).then_some(base + delay)
        };

        let mut programs = Vec::with_capacity(assembly.assignments.len());
        for (q, e) in &assembly.assignments {
            let exec = match affine_terms(e) {
                Some((constant, terms)) => {
                    let mut resolved = Vec::with_capacity(terms.len());
                    for ((v, d), c) in terms {
                        let slot =
                            resolve(&v, d).ok_or_else(|| AbstractError::UnknownIdentifier {
                                name: v.to_string(),
                            })?;
                        resolved.push((slot, c));
                    }
                    Exec::Affine {
                        constant,
                        terms: resolved,
                    }
                }
                None => {
                    let prog = compile(e, &mut |v, d| resolve(v, d)).map_err(|err| {
                        match err {
                            expr::vm::CompileError::UnresolvedVariable(v) => {
                                AbstractError::UnknownIdentifier { name: v }
                            }
                            expr::vm::CompileError::UnresolvedAnalogOp => {
                                // Assemblies are discretized; reaching this
                                // is a pipeline bug, surfaced as an error.
                                AbstractError::NonlinearLoop {
                                    quantity: q.clone(),
                                }
                            }
                        }
                    })?;
                    Exec::Vm(prog)
                }
            };
            let slot = resolve(q, 0).expect("assigned quantities have slots");
            programs.push((slot, exec));
        }

        let input_slots = inputs
            .iter()
            .map(|n| resolve(&Quantity::input(n.clone()), 0).expect("inputs have slots"))
            .collect();
        let mut output_slots = Vec::with_capacity(assembly.outputs.len());
        for q in &assembly.outputs {
            let slot = resolve(q, 0).ok_or_else(|| AbstractError::UndefinedOutput {
                quantity: q.clone(),
            })?;
            output_slots.push(slot);
        }

        Ok(SignalFlowModel {
            name: name.into(),
            dt: assembly.dt,
            inputs: inputs.to_vec(),
            input_slots,
            outputs: assembly.outputs.clone(),
            output_slots,
            assignments: assembly.assignments.clone(),
            programs,
            shifts,
            slot_of,
            slots: vec![0.0; next as usize],
            scratch: Vec::new(),
        })
    }

    /// Model name (the source module's name by default).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Discretization time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Input names in the order [`SignalFlowModel::step`] expects.
    pub fn input_names(&self) -> &[String] {
        &self.inputs
    }

    /// Output quantities in request order.
    pub fn output_quantities(&self) -> &[Quantity] {
        &self.outputs
    }

    /// The symbolic update assignments (used by the code generators and
    /// for inspection).
    pub fn assignments(&self) -> &[(Quantity, QExpr)] {
        &self.assignments
    }

    /// Advances the model by one time step.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count.
    #[inline]
    pub fn step(&mut self, inputs: &[f64]) {
        assert_eq!(inputs.len(), self.input_slots.len(), "input arity mismatch");
        for (slot, &v) in self.input_slots.iter().zip(inputs) {
            self.slots[*slot as usize] = v;
        }
        for (slot, exec) in &self.programs {
            let v = match exec {
                Exec::Affine { constant, terms } => {
                    let mut acc = *constant;
                    for &(s, c) in terms {
                        acc += c * self.slots[s as usize];
                    }
                    acc
                }
                Exec::Vm(prog) => prog.eval(&self.slots, &mut self.scratch),
            };
            self.slots[*slot as usize] = v;
        }
        // Shift delay lines: prev_k ← prev_{k−1}.
        for &(base, maxd) in &self.shifts {
            let b = base as usize;
            for k in (1..=maxd as usize).rev() {
                self.slots[b + k] = self.slots[b + k - 1];
            }
        }
    }

    /// Value of output `i` after the last step.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn output(&self, i: usize) -> f64 {
        self.slots[self.output_slots[i] as usize]
    }

    /// Number of outputs.
    pub fn output_count(&self) -> usize {
        self.output_slots.len()
    }

    /// Current value of an arbitrary tracked quantity.
    pub fn value(&self, q: &Quantity) -> Option<f64> {
        self.slot_of
            .get(q)
            .map(|&(base, _)| self.slots[base as usize])
    }

    /// Sets the current value of a tracked quantity (initial conditions —
    /// the paper's X₀).
    ///
    /// Returns `false` when the quantity is not tracked by this model.
    pub fn set_value(&mut self, q: &Quantity, v: f64) -> bool {
        if let Some(&(base, maxd)) = self.slot_of.get(q) {
            for k in 0..=maxd {
                self.slots[(base + k) as usize] = v;
            }
            true
        } else {
            false
        }
    }

    /// Resets all state (and delay lines) to zero.
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = 0.0);
    }

    /// Runs the model over a sampled input sequence, collecting one output
    /// sample (output 0) per step.
    ///
    /// # Panics
    ///
    /// Panics if the model has no outputs or if an item of `stimulus` has
    /// the wrong arity.
    pub fn run_collect(&mut self, stimulus: impl IntoIterator<Item = Vec<f64>>) -> Vec<f64> {
        let mut out = Vec::new();
        for sample in stimulus {
            self.step(&sample);
            out.push(self.output(0));
        }
        out
    }
}

fn collect_delays(e: &QExpr, max_delay: &mut BTreeMap<Quantity, u32>) {
    match e {
        expr::Expr::Prev(v, k) => {
            let entry = max_delay.entry(v.clone()).or_insert(0);
            *entry = (*entry).max(*k);
        }
        expr::Expr::Num(_) | expr::Expr::Var(_) => {}
        expr::Expr::Neg(a) | expr::Expr::Ddt(a) | expr::Expr::Idt(a) => {
            collect_delays(a, max_delay)
        }
        expr::Expr::Bin(_, a, b) => {
            collect_delays(a, max_delay);
            collect_delays(b, max_delay);
        }
        expr::Expr::Call(_, args) => args.iter().for_each(|a| collect_delays(a, max_delay)),
        expr::Expr::Cond(c, t, el) => {
            collect_delays(c, max_delay);
            collect_delays(t, max_delay);
            collect_delays(el, max_delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expr::Expr;

    /// Hand-built assembly: out = (u + k·prev(out)) / (1 + k).
    fn rc_assembly(k: f64, dt: f64) -> Assembly {
        let out = Quantity::node_v("out");
        let u = Quantity::input("in");
        let rhs = (Expr::var(u) + Expr::num(k) * Expr::prev(out.clone())) / Expr::num(1.0 + k);
        Assembly {
            assignments: vec![(out.clone(), rhs)],
            outputs: vec![out],
            dt,
        }
    }

    #[test]
    fn step_matches_recurrence() {
        let k = 4.0;
        let mut m =
            SignalFlowModel::from_assembly("rc", &rc_assembly(k, 1e-6), &["in".into()]).unwrap();
        let mut expect = 0.0;
        for _ in 0..50 {
            m.step(&[1.0]);
            expect = (1.0 + k * expect) / (1.0 + k);
            assert!((m.output(0) - expect).abs() < 1e-12);
        }
        assert_eq!(m.output_count(), 1);
        assert_eq!(m.dt(), 1e-6);
        assert_eq!(m.name(), "rc");
    }

    #[test]
    fn reset_and_initial_conditions() {
        let mut m =
            SignalFlowModel::from_assembly("rc", &rc_assembly(4.0, 1e-6), &["in".into()]).unwrap();
        let out = Quantity::node_v("out");
        assert!(m.set_value(&out, 0.5));
        assert_eq!(m.value(&out), Some(0.5));
        m.step(&[0.0]);
        // Decay from the initial condition: (0 + 4·0.5)/5 = 0.4.
        assert!((m.output(0) - 0.4).abs() < 1e-12);
        m.reset();
        assert_eq!(m.value(&out), Some(0.0));
        assert!(!m.set_value(&Quantity::var("ghost"), 1.0));
    }

    #[test]
    fn multi_delay_shifting() {
        // y = prev(x,1) − prev(x,2), x = u: y must be u₁ − u₂... through x.
        let x = Quantity::var("x");
        let y = Quantity::var("y");
        let asm = Assembly {
            assignments: vec![
                (x.clone(), Expr::var(Quantity::input("u"))),
                (
                    y.clone(),
                    Expr::prev(x.clone()) - Expr::prev_n(x.clone(), 2),
                ),
            ],
            outputs: vec![y],
            dt: 1.0,
        };
        let mut m = SignalFlowModel::from_assembly("d", &asm, &["u".into()]).unwrap();
        for (i, u) in [10.0, 20.0, 40.0, 80.0].iter().enumerate() {
            m.step(&[*u]);
            if i >= 2 {
                // prev1(x) − prev2(x) after feeding u(i): x lags are u(i−1), u(i−2).
                let want = [10.0, 20.0, 40.0, 80.0][i - 1] - [10.0, 20.0, 40.0, 80.0][i - 2];
                assert_eq!(m.output(0), want);
            }
        }
    }

    #[test]
    fn missing_input_is_reported() {
        let err = SignalFlowModel::from_assembly("rc", &rc_assembly(1.0, 1e-6), &[]).unwrap_err();
        assert!(matches!(err, AbstractError::UnknownIdentifier { name: n } if n == "in"));
    }

    #[test]
    fn output_without_assignment_is_reported() {
        let asm = Assembly {
            assignments: vec![],
            outputs: vec![Quantity::node_v("out")],
            dt: 1.0,
        };
        let err = SignalFlowModel::from_assembly("m", &asm, &[]).unwrap_err();
        assert!(matches!(
            err,
            AbstractError::UndefinedOutput { quantity: _ }
        ));
    }

    #[test]
    fn run_collect_gathers_samples() {
        let mut m =
            SignalFlowModel::from_assembly("rc", &rc_assembly(0.0, 1e-6), &["in".into()]).unwrap();
        // k = 0 ⇒ out = u instantly.
        let samples = m.run_collect(vec![vec![1.0], vec![2.0], vec![3.0]]);
        assert_eq!(samples, vec![1.0, 2.0, 3.0]);
    }
}
