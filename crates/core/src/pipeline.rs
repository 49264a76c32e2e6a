//! The user-facing pipeline: module in, executable model (or generated
//! source) out.
//!
//! Signal-flow and conservative descriptions go through the same four
//! steps; a pure signal-flow module simply has trivial chains, so the
//! conversion problem of §III-C degenerates to ordered translation exactly
//! as the paper describes.

use netlist::Quantity;
use obs::Obs;
use vams_ast::Module;

use crate::acquire::{acquire, AcquiredModel};
use crate::assemble::{assemble_with, Assembly, SolveMode};
use crate::enrich::enrich;
use crate::{AbstractError, SignalFlowModel};

/// What the caller wants to observe, before resolution against the module.
///
/// Parsed from strings like `"V(out)"`, `"I(cap)"`, or a bare variable
/// name; resolution decides between node potentials, branch voltages and
/// branch currents using the module's declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputSpec {
    /// `V(name)` — potential of a node, or voltage of a named branch.
    Potential(String),
    /// `I(name)` — current of a named branch.
    Flow(String),
    /// A bare name — a `real` variable, or a node potential.
    Name(String),
}

impl OutputSpec {
    /// Parses a textual spec.
    pub fn parse(spec: &str) -> OutputSpec {
        let s = spec.trim();
        if let Some(inner) = s.strip_prefix("V(").and_then(|r| r.strip_suffix(')')) {
            OutputSpec::Potential(inner.trim().to_string())
        } else if let Some(inner) = s.strip_prefix("I(").and_then(|r| r.strip_suffix(')')) {
            OutputSpec::Flow(inner.trim().to_string())
        } else {
            OutputSpec::Name(s.to_string())
        }
    }

    /// Resolves the spec against an acquired module: decides between node
    /// potentials, branch voltages, branch currents and folded variables
    /// using the module's declarations.
    ///
    /// # Errors
    ///
    /// * [`AbstractError::UnknownIdentifier`] when the name matches no
    ///   declaration of the right kind;
    /// * [`AbstractError::NoSuchBranch`] when `I(name)` names no branch.
    pub fn resolve(&self, model: &AcquiredModel) -> Result<Quantity, AbstractError> {
        let is_branch = |n: &str| model.graph.branch_id(n).is_some();
        let is_node = |n: &str| model.graph.node_id(n).is_some();
        match self {
            OutputSpec::Potential(n) => {
                if is_branch(n) {
                    Ok(Quantity::branch_v(n.clone()))
                } else if is_node(n) {
                    Ok(Quantity::node_v(n.clone()))
                } else {
                    Err(AbstractError::UnknownIdentifier { name: n.clone() })
                }
            }
            OutputSpec::Flow(n) => {
                if is_branch(n) {
                    Ok(Quantity::branch_i(n.clone()))
                } else {
                    Err(AbstractError::NoSuchBranch {
                        from: n.clone(),
                        to: None,
                    })
                }
            }
            OutputSpec::Name(n) => {
                if model.folded_vars.iter().any(|(v, _)| v == n) {
                    Ok(Quantity::var(n.clone()))
                } else if is_node(n) {
                    Ok(Quantity::node_v(n.clone()))
                } else {
                    Err(AbstractError::UnknownIdentifier { name: n.clone() })
                }
            }
        }
    }
}

impl std::fmt::Display for OutputSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutputSpec::Potential(n) => write!(f, "V({n})"),
            OutputSpec::Flow(n) => write!(f, "I({n})"),
            OutputSpec::Name(n) => write!(f, "{n}"),
        }
    }
}

impl From<&str> for OutputSpec {
    fn from(s: &str) -> Self {
        OutputSpec::parse(s)
    }
}

impl From<String> for OutputSpec {
    fn from(s: String) -> Self {
        OutputSpec::parse(&s)
    }
}

impl From<&String> for OutputSpec {
    fn from(s: &String) -> Self {
        OutputSpec::parse(s)
    }
}

/// Builder for the abstraction pipeline (Figure 4 of the paper).
///
/// # Example
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone)]
pub struct Abstraction<'m> {
    module: &'m Module,
    dt: f64,
    outputs: Vec<OutputSpec>,
    mode: SolveMode,
    obs: Obs,
}

impl<'m> Abstraction<'m> {
    /// Starts a pipeline for `module` with the paper's default time step
    /// of 50 ns.
    pub fn new(module: &'m Module) -> Self {
        Abstraction {
            module,
            dt: 50e-9,
            outputs: Vec::new(),
            mode: SolveMode::default(),
            obs: Obs::none(),
        }
    }

    /// Attaches an instrumentation collector; the pipeline reports
    /// per-phase timings (`pipeline/acquire`, `pipeline/enrich`,
    /// `pipeline/assemble`, `pipeline/codegen`) through it.
    #[must_use]
    pub fn collector(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the discretization time step in seconds.
    #[must_use]
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Selects how algebraic couplings are resolved (see [`SolveMode`]).
    #[must_use]
    pub fn mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Adds an output signal of interest (`"V(out)"`, `"I(cap)"`, or a
    /// variable name). May be called repeatedly; without any call, the
    /// module's first `output` port is observed.
    #[must_use]
    pub fn output(mut self, spec: impl Into<OutputSpec>) -> Self {
        self.outputs.push(spec.into());
        self
    }

    /// Runs acquisition + enrichment + assembly and returns the symbolic
    /// assembly together with the ordered input names.
    ///
    /// Exposed separately so code generators can consume the intermediate
    /// result without compiling an executable model.
    ///
    /// # Errors
    ///
    /// Any [`AbstractError`] from the pipeline stages.
    pub fn assembly(&self) -> Result<(Assembly, Vec<String>), AbstractError> {
        let _pipeline = self.obs.span("pipeline");
        self.assembly_stages()
            .map_err(|e| e.in_module(&self.module.name))
    }

    fn assembly_stages(&self) -> Result<(Assembly, Vec<String>), AbstractError> {
        let acquired = {
            let _s = self.obs.span("acquire");
            acquire(self.module)?
        };
        let mut specs = self.outputs.clone();
        if specs.is_empty() {
            let first = acquired.outputs.first().cloned().ok_or_else(|| {
                AbstractError::UndefinedOutput {
                    quantity: Quantity::var("<no output port>"),
                }
            })?;
            specs.push(OutputSpec::Potential(first));
        }
        let outputs: Vec<Quantity> = specs
            .iter()
            .map(|s| s.resolve(&acquired))
            .collect::<Result<_, _>>()?;
        let mut table = {
            let _s = self.obs.span("enrich");
            enrich(&acquired)?
        };
        let assembly = {
            let _s = self.obs.span("assemble");
            assemble_with(&mut table, &outputs, self.dt, self.mode)?
        };
        Ok((assembly, acquired.inputs))
    }

    /// Runs the full pipeline down to an executable [`SignalFlowModel`].
    ///
    /// # Errors
    ///
    /// Any [`AbstractError`] from the pipeline stages.
    pub fn build(&self) -> Result<SignalFlowModel, AbstractError> {
        let (assembly, inputs) = self.assembly()?;
        let _pipeline = self.obs.span("pipeline");
        let _s = self.obs.span("codegen");
        SignalFlowModel::from_assembly(&self.module.name, &assembly, &inputs)
            .map_err(|e| e.in_module(&self.module.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vams_parser::parse_module;

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

    #[test]
    fn spec_parsing() {
        assert_eq!(
            OutputSpec::parse("V(out)"),
            OutputSpec::Potential("out".into())
        );
        assert_eq!(
            OutputSpec::parse(" I( cap ) "),
            OutputSpec::Flow("cap".into())
        );
        assert_eq!(OutputSpec::parse("vlim"), OutputSpec::Name("vlim".into()));
    }

    #[test]
    fn spec_parsing_edge_cases() {
        // Interior and surrounding whitespace are both tolerated.
        assert_eq!(
            OutputSpec::parse("  V( out )  "),
            OutputSpec::Potential("out".into())
        );
        assert_eq!(
            OutputSpec::parse("\tI(cap)\n"),
            OutputSpec::Flow("cap".into())
        );
        // A name with whitespace around it parses as a bare name.
        assert_eq!(OutputSpec::parse("  y  "), OutputSpec::Name("y".into()));
        // Unbalanced or prefix-only forms fall back to bare names rather
        // than silently losing characters.
        assert_eq!(OutputSpec::parse("V(out"), OutputSpec::Name("V(out".into()));
        assert_eq!(OutputSpec::parse("Vout)"), OutputSpec::Name("Vout)".into()));
        // From impls route through parse for all string flavors.
        assert_eq!(OutputSpec::from("V(a)"), OutputSpec::Potential("a".into()));
        assert_eq!(
            OutputSpec::from(String::from("I(b)")),
            OutputSpec::Flow("b".into())
        );
        assert_eq!(
            OutputSpec::from(&String::from("c")),
            OutputSpec::Name("c".into())
        );
    }

    #[test]
    fn bare_name_resolution_prefers_variable_over_node() {
        use crate::acquire::acquire;
        // `out` is a node; `y` is a folded real variable in this module.
        let m = parse_module(
            "module amb(i, out); input i; output out;
             electrical i, out, gnd; ground gnd;
             real y;
             analog begin
               y = 2 * V(i, gnd);
               V(out, gnd) <+ y;
             end
             endmodule",
        )
        .unwrap();
        let acq = acquire(&m).unwrap();
        assert_eq!(
            OutputSpec::parse("y").resolve(&acq).unwrap(),
            Quantity::var("y"),
            "bare variable wins when declared as real"
        );
        assert_eq!(
            OutputSpec::parse("out").resolve(&acq).unwrap(),
            Quantity::node_v("out"),
            "bare node name falls back to the node potential"
        );
        // V(...) resolution: named branch beats node of the same name.
        assert!(matches!(
            OutputSpec::parse("V(ghost)").resolve(&acq),
            Err(AbstractError::UnknownIdentifier { .. })
        ));
        // I(...) of a non-branch reports the branch name without placeholders.
        let err = OutputSpec::parse("I(out)").resolve(&acq).unwrap_err();
        assert_eq!(
            err,
            AbstractError::NoSuchBranch {
                from: "out".into(),
                to: None
            }
        );
        assert!(err.to_string().contains("I(out)"));
    }

    #[test]
    fn default_output_is_first_output_port() {
        let m = parse_module(RC1).unwrap();
        let mut model = Abstraction::new(&m).dt(125e-6 / 100.0).build().unwrap();
        assert_eq!(model.output_quantities(), &[Quantity::node_v("out")]);
        assert_eq!(model.input_names(), &["in".to_string()]);
        for _ in 0..100 {
            model.step(&[1.0]);
        }
        let analytic = 1.0 - (-1.0_f64).exp();
        assert!((model.output(0) - analytic).abs() < 5e-3);
    }

    #[test]
    fn branch_current_output() {
        let m = parse_module(RC1).unwrap();
        let mut model = Abstraction::new(&m)
            .dt(1e-6)
            .output("I(cap)")
            .build()
            .unwrap();
        model.step(&[1.0]);
        // First step: all current flows into the discharged capacitor.
        assert!(model.output(0) > 0.0);
    }

    #[test]
    fn signal_flow_only_module_converts() {
        // The degenerate conversion case: gain + clamp, no conservative
        // network beyond the output source.
        let m = parse_module(
            "module amp(i, o); input i; output o;
             electrical i, o, gnd; ground gnd;
             parameter real g = 3;
             real y;
             analog begin
               y = g * V(i, gnd);
               if (y > 2) y = 2;
               V(o, gnd) <+ y;
             end
             endmodule",
        )
        .unwrap();
        let mut model = Abstraction::new(&m).dt(1e-6).build().unwrap();
        model.step(&[0.5]);
        assert!((model.output(0) - 1.5).abs() < 1e-12);
        model.step(&[1.0]);
        assert!((model.output(0) - 2.0).abs() < 1e-12, "clamped");
    }

    #[test]
    fn unknown_output_spec_is_reported() {
        let m = parse_module(RC1).unwrap();
        let err = Abstraction::new(&m).output("V(ghost)").build().unwrap_err();
        assert!(matches!(err.root(), AbstractError::UnknownIdentifier { name } if name == "ghost"));
        assert!(err.to_string().contains("in module `rc`"), "{err}");
        let err = Abstraction::new(&m).output("I(ghost)").build().unwrap_err();
        assert!(
            matches!(err.root(), AbstractError::NoSuchBranch { from, to: None } if from == "ghost")
        );
    }

    #[test]
    fn sequential_mode_stays_compact_and_accurate() {
        use crate::circuits;
        let src = circuits::rc_ladder(6);
        let m = parse_module(&src).unwrap();
        let tau = 5000.0 * 25e-9;
        let dt = tau / 100.0;
        let (implicit, _) = Abstraction::new(&m).dt(dt).assembly().unwrap();
        let (sequential, _) = Abstraction::new(&m)
            .dt(dt)
            .mode(SolveMode::Sequential)
            .assembly()
            .unwrap();
        // Implicit elimination carries flat rows with named intermediates,
        // a few terms per stage of the tridiagonal ladder.
        let terms = crate::assemble::affine_term_count(&implicit);
        assert!(terms <= 42, "RC6 implicit model has {terms} affine terms");
        // The implicit elaboration settles to the step input.
        let mut model =
            SignalFlowModel::from_assembly("rc6", &implicit, &["in".to_string()]).unwrap();
        for _ in 0..40_000 {
            model.step(&[1.0]);
        }
        let v = model.output(0);
        assert!((v - 1.0).abs() < 2e-2, "settles to 1, got {v}");
        // The sequential (literal §IV-C) elaboration is semi-explicit and
        // diverges on stiff multi-state chains — the documented reason the
        // implicit mode is the default.
        let mut seq =
            SignalFlowModel::from_assembly("rc6", &sequential, &["in".to_string()]).unwrap();
        let mut diverged = false;
        for _ in 0..40_000 {
            seq.step(&[1.0]);
            if !seq.output(0).is_finite() {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "sequential mode is expected to diverge on RC6");
    }

    #[test]
    fn sequential_mode_matches_implicit_on_single_state() {
        // With a single state there are no cross couplings to delay, so
        // both modes produce the same backward-Euler update.
        let m = parse_module(RC1).unwrap();
        let tau = 5000.0 * 25e-9;
        let dt = tau / 100.0;
        let mut a = Abstraction::new(&m).dt(dt).build().unwrap();
        let mut b = Abstraction::new(&m)
            .dt(dt)
            .mode(SolveMode::Sequential)
            .build()
            .unwrap();
        for _ in 0..500 {
            a.step(&[1.0]);
            b.step(&[1.0]);
            assert!((a.output(0) - b.output(0)).abs() < 1e-12);
        }
    }

    #[test]
    fn multiple_outputs() {
        let m = parse_module(RC1).unwrap();
        let mut model = Abstraction::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .output("I(cap)")
            .build()
            .unwrap();
        assert_eq!(model.output_count(), 2);
        model.step(&[1.0]);
        // KCL: the capacitor current equals the resistor current; both are
        // (in − out)/R.
        let out = model.output(0);
        let i = model.output(1);
        assert!((i - (1.0 - out) / 5000.0).abs() < 1e-12);
    }
}
