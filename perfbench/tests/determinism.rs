//! Which compile outputs repeat exactly, and so may be compared by the
//! benchmark's checks.
//!
//! Instruction counts and `PassStats` repeat exactly between two compiles
//! of one model. Printed O2 IR does not: mem2reg places phis in `HashMap`
//! iteration order, which differs between two maps in one process, so the
//! text (and the artifact bytes) can differ while the program computes the
//! same bits. The benchmark therefore never compares IR text or artifact
//! bytes.

use distill::{compile, CompileConfig};
use distill_ir::printer::print_module;
use distill_models::registry::{registry, Scale};

#[test]
fn counts_repeat_exactly_and_ir_text_is_not_compared() {
    let mut text_differs = Vec::new();
    for spec in registry() {
        let model = spec.build(Scale::Full).model;
        let a = compile(&model, CompileConfig::default()).expect("first compile");
        let b = compile(&model, CompileConfig::default()).expect("second compile");
        assert_eq!(
            a.module.inst_count(),
            b.module.inst_count(),
            "{}: instruction count differs between compiles",
            spec.name
        );
        assert_eq!(
            a.opt_stats, b.opt_stats,
            "{}: PassStats differ between compiles",
            spec.name
        );
        for (fa, fb) in a.module.functions.iter().zip(&b.module.functions) {
            assert_eq!(
                fa.inst_count(),
                fb.inst_count(),
                "{}: {}",
                spec.name,
                fa.name
            );
        }
        if print_module(&a.module) != print_module(&b.module) {
            text_differs.push(spec.name);
        }
    }
    // Recorded, not asserted: how many families print different O2 IR on
    // two compiles varies with hash seeds (7 to 9 of 12 in repeated runs).
    eprintln!(
        "printed O2 IR differs between two compiles on {} of {} families: {:?}",
        text_differs.len(),
        registry().len(),
        text_differs
    );
}
