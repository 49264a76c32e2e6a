//! Complexity scaling of the methodology's steps (§IV: acquisition O(|B|),
//! enrichment O(|N|²)+O(|N|³)+O(|B|²), assemble/solve O(|N|³)), of the whole
//! `Abstraction::build`, and of the generated models, over RC ladders of
//! growing depth.

use amsvp_bench::microbench;
use amsvp_core::acquire::acquire;
use amsvp_core::assemble::assemble;
use amsvp_core::circuits::rc_ladder;
use amsvp_core::enrich::enrich;
use amsvp_core::{Abstraction, Quantity};

const SIZES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 250];

fn main() {
    for n in SIZES {
        let source = rc_ladder(n);
        let module = vams_parser::parse_module(&source).unwrap();
        microbench("scaling_pipeline", &format!("acquire/{n}"), || {
            acquire(&module).unwrap()
        });
        let model = acquire(&module).unwrap();
        microbench("scaling_pipeline", &format!("enrich/{n}"), || {
            enrich(&model).unwrap()
        });
        let table = enrich(&model).unwrap();
        microbench("scaling_pipeline", &format!("assemble/{n}"), || {
            let mut table = table.clone();
            assemble(&mut table, &[Quantity::node_v("out")], 50e-9).unwrap()
        });
        microbench("scaling_pipeline", &format!("build/{n}"), || {
            Abstraction::new(&module).dt(50e-9).build().unwrap()
        });
    }

    for n in SIZES {
        let source = rc_ladder(n);
        let module = vams_parser::parse_module(&source).unwrap();
        let mut model = Abstraction::new(&module).dt(50e-9).build().unwrap();
        microbench("scaling_generated_step", &format!("step/{n}"), || {
            model.step(&[1.0]);
            model.output(0)
        });
    }
}
