//! Property test: a revise session is *invisible*. After any sequence of
//! random deltas — sparse rebindings and cache-size set swaps — a revised
//! [`ModelDag`] must answer byte-identically to (a) a session started from
//! scratch at the accumulated bindings and (b) the batch evaluator
//! [`MissModel::predict_misses`] at every tracked size. The corpus mixes
//! the paper's builtin kernels with programs synthesized by the mini
//! tensor-contraction engine, so the equivalence is exercised on loop
//! nests the builtins' shapes never produce.

use proptest::prelude::*;
use sdlo_core::dag::{DagDelta, ModelDag};
use sdlo_core::MissModel;
use sdlo_ir::programs;
use sdlo_symbolic::{Bindings, Sym};
use std::sync::OnceLock;

/// Corpus programs with their (expensively) prebuilt models, shared across
/// all proptest cases.
fn corpus() -> &'static [(Vec<Sym>, MissModel)] {
    static CORPUS: OnceLock<Vec<(Vec<Sym>, MissModel)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut progs = vec![
            programs::matmul(),
            programs::tiled_matmul(),
            programs::tiled_two_index(),
            programs::two_index_fused(),
        ];
        let sizes = Bindings::new().with("N", 40).with("V", 40);
        for fuse in [false, true] {
            progs.push(
                sdlo_tce::synthesize(
                    "B[a,b] = C1[a,i] * C2[b,j] * A[i,j]",
                    &[("a", "V"), ("b", "V"), ("i", "N"), ("j", "N")],
                    &sizes,
                    fuse,
                )
                .expect("synthesis succeeds"),
            );
        }
        progs
            .into_iter()
            .map(|p| {
                let mut syms = p.free_symbols().into_iter().collect::<Vec<_>>();
                syms.sort();
                let model = MissModel::build(&p);
                (syms, model)
            })
            .collect()
    })
}

/// Tile symbols (`T…`) stay at or below the smallest bound value; every
/// other symbol is a loop bound / extent.
fn value_for(sym: &Sym, choice: u8) -> i128 {
    if sym.name().starts_with('T') {
        [4i128, 8, 16, 32][(choice % 4) as usize]
    } else {
        [64i128, 128, 256][(choice % 3) as usize]
    }
}

const SIZE_SETS: [&[u64]; 3] = [&[1024, 8192], &[512], &[2048, 4096, 16384]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn revise_matches_rebuild_and_batch_predict(
        program_choice in 0usize..6,
        // Four deltas per case; each rebinds 0–3 of its generated
        // (symbol index, value choice) pairs and, when `size_choice < 3`,
        // also swaps the tracked cache-size set (≥ 3 leaves it alone).
        deltas in proptest::collection::vec(
            (proptest::collection::vec((0usize..16, 0u8..12), 3),
             0usize..4,
             0u8..6),
            4,
        ),
    ) {
        let (syms, model) = &corpus()[program_choice];

        // Full initial bindings: every free symbol bound.
        let mut current = Bindings::new();
        for s in syms {
            current.set(s.name(), value_for(s, 0));
        }
        let mut sizes: Vec<u64> = SIZE_SETS[0].to_vec();
        let mut dag = ModelDag::new(model, current.clone(), &sizes).unwrap();

        for (rebinds, rebind_count, size_choice) in &deltas {
            let mut delta = DagDelta::default();
            for (sym_idx, choice) in &rebinds[..*rebind_count.min(&rebinds.len())] {
                let s = &syms[sym_idx % syms.len()];
                let v = value_for(s, *choice);
                delta.bindings.set(s.name(), v);
                current.set(s.name(), v);
            }
            if (*size_choice as usize) < SIZE_SETS.len() {
                sizes = SIZE_SETS[*size_choice as usize].to_vec();
                delta.cache_sizes = Some(sizes.clone());
            }
            let outcome = dag.revise(&delta).unwrap();

            // (a) Byte-identical to a from-scratch DAG at the same state.
            let fresh = ModelDag::new(model, current.clone(), &sizes).unwrap();
            prop_assert_eq!(&outcome.misses, &fresh.misses());
            prop_assert_eq!(dag.misses(), fresh.misses());

            // (b) Byte-identical to the batch evaluator per tracked size.
            for (size, total) in dag.misses() {
                prop_assert_eq!(
                    total,
                    model.predict_misses(&current, size).unwrap(),
                    "program {} size {}", program_choice, size
                );
            }
        }
    }
}
