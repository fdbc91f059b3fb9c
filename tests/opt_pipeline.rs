//! The default O2 pipeline on every registry family: how much it finds, and
//! whether it prints the same IR every time.
//!
//! The golden counts pin the optimizer's strength, not just its results:
//! a pass that reached equal outputs by finding fewer redundancies (or
//! more, by a different route) changes a count here even when every
//! bit-identity test still passes. They were recorded with the eager
//! per-change rewrite that preceded the batched `Rewrite` commit, and the
//! batched passes reproduce them exactly. A deliberate change to a pass
//! updates this table in the same change, with the reason.

use distill::{compile, CompileConfig};
use distill_ir::printer::print_module;
use distill_models::registry::{registry, Scale};

/// Per family: O2 `PassStats` as `[promoted_allocas, folded, dce_removed,
/// cse_removed, cfg_simplified, licm_hoisted, inlined_calls]`, and the
/// optimized module's instruction count.
const GOLDEN: [(&str, [usize; 7], usize); 12] = [
    ("vectorized_necker_cube", [3, 68, 1, 2583, 22, 226, 3], 3563),
    ("necker_cube_3", [3, 40, 1, 556, 72, 81, 8], 1042),
    ("necker_cube_8", [3, 100, 1, 1506, 172, 186, 18], 2642),
    ("predator_prey_2", [11, 11, 5, 1607, 150, 201, 20], 2375),
    ("botvinick_stroop", [3, 28, 1, 855, 82, 155, 9], 1638),
    ("extended_stroop_a", [3, 28, 1, 1105, 112, 181, 12], 2056),
    ("extended_stroop_b", [3, 44, 1, 1105, 112, 181, 12], 2056),
    ("multitasking", [3, 52, 1, 1450, 52, 188, 6], 2304),
    ("predator_prey_4", [11, 11, 5, 1607, 150, 201, 20], 2375),
    ("predator_prey_6", [11, 11, 5, 1607, 150, 201, 20], 2375),
    (
        "predator_prey_skewed",
        [11, 11, 5, 3836, 150, 237, 20],
        4808,
    ),
    ("gpu_stress", [6, 131, 0, 6156, 35, 453, 10], 10492),
];

#[test]
fn o2_pass_stats_and_sizes_match_the_golden_counts() {
    let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
    let golden_names: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(names, golden_names, "registry changed: extend GOLDEN");
    for (spec, (name, stats, insts)) in registry().iter().zip(GOLDEN) {
        let c = compile(&spec.build(Scale::Reduced).model, CompileConfig::default())
            .expect("compilation succeeds");
        let s = c.opt_stats;
        let got = [
            s.promoted_allocas,
            s.folded,
            s.dce_removed,
            s.cse_removed,
            s.cfg_simplified,
            s.licm_hoisted,
            s.inlined_calls,
        ];
        assert_eq!(got, stats, "{name}: O2 PassStats ({s})");
        assert_eq!(c.module.inst_count(), insts, "{name}: O2 instruction count");
    }
}

#[test]
fn o2_ir_text_repeats_between_compiles() {
    for spec in registry() {
        let model = spec.build(Scale::Reduced).model;
        let a = compile(&model, CompileConfig::default()).expect("first compile");
        let b = compile(&model, CompileConfig::default()).expect("second compile");
        assert!(
            print_module(&a.module) == print_module(&b.module),
            "{}: printed O2 IR differs between two compiles",
            spec.name
        );
    }
}
