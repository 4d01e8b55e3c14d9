//! A revise session over one [`MissModel`]: the last bindings, every
//! component's evaluated §5 inputs ([`MissModel::evaluate`]), and the
//! tracked cache sizes with their miss totals.
//!
//! A delta that changes some binding's value re-evaluates and re-prices
//! every component. A delta that only replaces the cache-size set
//! re-prices from the stored values and evaluates no expression. One full
//! evaluation costs a few microseconds, no more than an incremental update
//! of a per-expression dependency graph did, so the session keeps no
//! per-expression state.
//!
//! Revision is transactional: every evaluation must succeed before
//! anything is committed, so a failed delta (division by zero, overflow,
//! negative count) leaves the session answering for its previous state.

use crate::model::{price, ComponentValues, MissModel, ModelError};
use sdlo_symbolic::Bindings;

/// A structured change to a revise session: sparse symbol rebindings
/// (tile sizes, loop bounds) and/or a replacement cache-size set.
#[derive(Debug, Clone, Default)]
pub struct DagDelta {
    /// Symbols to rebind; symbols not mentioned keep their values.
    pub bindings: Bindings,
    /// When present, replaces the tracked cache-size set (sorted, deduped).
    pub cache_sizes: Option<Vec<u64>>,
}

/// What one [`ModelDag::revise`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReviseOutcome {
    /// Expressions evaluated: all of [`MissModel::expr_count`] when the
    /// delta changed some binding's value, otherwise none.
    pub nodes_reevaluated: u64,
    /// Expressions whose stored values were reused.
    pub nodes_reused: u64,
    /// Total predicted misses per tracked cache size, ascending.
    pub misses: Vec<(u64, u64)>,
}

/// A live revise session: build once from a [`MissModel`], then feed it
/// [`DagDelta`]s.
///
/// ```
/// use sdlo_core::dag::{DagDelta, ModelDag};
/// use sdlo_core::MissModel;
/// use sdlo_ir::{programs, Bindings};
///
/// let model = MissModel::build(&programs::tiled_matmul());
/// let b = Bindings::new()
///     .with("Ni", 512).with("Nj", 512).with("Nk", 512)
///     .with("Ti", 32).with("Tj", 32).with("Tk", 32);
/// let mut session = ModelDag::new(&model, b, &[8192]).unwrap();
/// assert_eq!(session.misses(), vec![(8192, 8_650_752)]);
///
/// let delta = DagDelta {
///     bindings: Bindings::new().with("Ti", 64).with("Tj", 64).with("Tk", 64),
///     cache_sizes: None,
/// };
/// let out = session.revise(&delta).unwrap();
/// assert_eq!(out.misses, vec![(8192, 6_291_456)]); // Table 3 value
/// ```
#[derive(Debug, Clone)]
pub struct ModelDag {
    model: MissModel,
    bindings: Bindings,
    values: Vec<ComponentValues>,
    /// `(cache size, total misses)`, ascending by size.
    misses: Vec<(u64, u64)>,
}

/// Price `values` at each distinct size of `sizes`, ascending.
fn price_sizes(values: &[ComponentValues], sizes: &[u64]) -> Result<Vec<(u64, u64)>, ModelError> {
    let mut sizes = sizes.to_vec();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
        .into_iter()
        .map(|cs| Ok((cs, price(values, cs)?)))
        .collect()
}

impl ModelDag {
    /// Start a session from a built model, a full binding set and the cache
    /// sizes to track. The model is shared, not copied.
    pub fn new(
        model: &MissModel,
        bindings: Bindings,
        cache_sizes: &[u64],
    ) -> Result<Self, ModelError> {
        let span = sdlo_trace::span(sdlo_trace::names::REVISE_SESSION_BUILD);
        let values = model.evaluate(&bindings)?;
        let misses = price_sizes(&values, cache_sizes)?;
        span.add("components", values.len() as u64);
        span.add("cache_sizes", misses.len() as u64);
        Ok(ModelDag {
            model: model.clone(),
            bindings,
            values,
            misses,
        })
    }

    /// Apply one delta: rebind symbols and/or replace the cache-size set,
    /// committing only if every evaluation succeeds.
    pub fn revise(&mut self, delta: &DagDelta) -> Result<ReviseOutcome, ModelError> {
        let span = sdlo_trace::span(sdlo_trace::names::REVISE_APPLY_DELTA);
        let changed = delta
            .bindings
            .iter()
            .any(|(s, v)| self.bindings.get(s) != Some(v));
        let staged = if changed {
            let mut bindings = self.bindings.clone();
            bindings.extend(&delta.bindings);
            let values = self.model.evaluate(&bindings)?;
            Some((bindings, values))
        } else {
            None
        };
        let values = staged.as_ref().map_or(&self.values, |(_, v)| v);
        let sizes = delta
            .cache_sizes
            .clone()
            .unwrap_or_else(|| self.misses.iter().map(|(cs, _)| *cs).collect());
        let misses = price_sizes(values, &sizes)?;
        if let Some((bindings, values)) = staged {
            self.bindings = bindings;
            self.values = values;
        }
        self.misses = misses;

        let exprs = self.model.expr_count() as u64;
        let nodes_reevaluated = if changed { exprs } else { 0 };
        span.add("nodes_reevaluated", nodes_reevaluated);
        Ok(ReviseOutcome {
            nodes_reevaluated,
            nodes_reused: exprs - nodes_reevaluated,
            misses: self.misses(),
        })
    }

    /// Current totals per tracked cache size, ascending.
    pub fn misses(&self) -> Vec<(u64, u64)> {
        self.misses.clone()
    }

    /// The session's current bindings.
    pub fn bindings(&self) -> &Bindings {
        &self.bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs;

    fn tmm(n: i128, t: (i128, i128, i128)) -> Bindings {
        Bindings::new()
            .with("Ni", n)
            .with("Nj", n)
            .with("Nk", n)
            .with("Ti", t.0)
            .with("Tj", t.1)
            .with("Tk", t.2)
    }

    fn rebind(bindings: Bindings) -> DagDelta {
        DagDelta {
            bindings,
            cache_sizes: None,
        }
    }

    #[test]
    fn matches_cold_rebuild_on_table3_cases() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut session = ModelDag::new(&model, tmm(512, (32, 32, 32)), &[2048, 8192]).unwrap();
        let cases = [
            (512, (64, 64, 64)),
            (512, (128, 128, 128)),
            (256, (64, 32, 32)),
            (256, (64, 64, 64)),
            (256, (32, 64, 128)),
        ];
        for (n, t) in cases {
            let out = session.revise(&rebind(tmm(n, t))).unwrap();
            assert_eq!(out.nodes_reevaluated, model.expr_count() as u64);
            for (cs, got) in out.misses {
                let want = model.predict_misses(&tmm(n, t), cs).unwrap();
                assert_eq!(got, want, "N={n} tiles={t:?} CS={cs}");
            }
        }
    }

    #[test]
    fn noop_delta_evaluates_nothing() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut session = ModelDag::new(&model, tmm(256, (64, 64, 64)), &[8192]).unwrap();
        let before = session.misses();
        let out = session
            .revise(&rebind(Bindings::new().with("Ti", 64)))
            .unwrap();
        assert_eq!(out.nodes_reevaluated, 0);
        assert_eq!(out.nodes_reused, model.expr_count() as u64);
        assert_eq!(out.misses, before);
    }

    #[test]
    fn cache_size_delta_reprices_without_evaluating() {
        let model = MissModel::build(&programs::tiled_matmul());
        let b = tmm(512, (64, 64, 64));
        let mut session = ModelDag::new(&model, b.clone(), &[8192]).unwrap();
        let out = session
            .revise(&DagDelta {
                bindings: Bindings::new(),
                cache_sizes: Some(vec![8192, 2048, 8192]),
            })
            .unwrap();
        assert_eq!(out.nodes_reevaluated, 0);
        assert_eq!(
            out.misses,
            vec![
                (2048, model.predict_misses(&b, 2048).unwrap()),
                (8192, model.predict_misses(&b, 8192).unwrap()),
            ]
        );
    }

    #[test]
    fn failed_revise_leaves_state_intact() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut session = ModelDag::new(&model, tmm(256, (32, 32, 32)), &[2048]).unwrap();
        let before = session.misses();
        let before_bindings = session.bindings().clone();
        // Unbinding is impossible via a delta, but a division by zero is
        // reachable: Ti = 0 makes ceil-div terms blow up.
        let err = session.revise(&DagDelta {
            bindings: Bindings::new().with("Ti", 0),
            cache_sizes: Some(vec![1024]),
        });
        assert!(err.is_err());
        assert_eq!(session.misses(), before);
        assert_eq!(session.bindings(), &before_bindings);
        // Still serviceable after the failure.
        let out = session
            .revise(&rebind(Bindings::new().with("Ti", 64)))
            .unwrap();
        let want = model
            .predict_misses(&tmm(256, (32, 32, 32)).with("Ti", 64), 2048)
            .unwrap();
        assert_eq!(out.misses, vec![(2048, want)]);
    }

    #[test]
    fn two_index_program_agrees_across_deltas() {
        let model = MissModel::build(&programs::tiled_two_index());
        let base = Bindings::new()
            .with("Ni", 64)
            .with("Nj", 64)
            .with("Nm", 64)
            .with("Nn", 64)
            .with("Ti", 16)
            .with("Tj", 8)
            .with("Tm", 8)
            .with("Tn", 16);
        let sizes = [256u64, 4096, 65536];
        let mut session = ModelDag::new(&model, base, &sizes).unwrap();
        for (sym, val) in [("Ti", 8), ("Nn", 128), ("Tm", 32), ("Nj", 32)] {
            let out = session
                .revise(&rebind(Bindings::new().with(sym, val)))
                .unwrap();
            for (cs, got) in out.misses {
                let want = model.predict_misses(session.bindings(), cs).unwrap();
                assert_eq!(got, want, "{sym}={val} CS={cs}");
            }
        }
    }

    #[test]
    fn cold_start_needs_every_free_symbol() {
        let p = programs::tiled_matmul();
        let model = MissModel::build(&p);
        for s in p.free_symbols() {
            let mut partial = Bindings::new();
            for (sym, v) in tmm(64, (8, 8, 8)).iter() {
                if *sym != s {
                    partial.set(sym.name(), v);
                }
            }
            assert!(
                matches!(
                    ModelDag::new(&model, partial, &[1024]),
                    Err(ModelError::Eval(_))
                ),
                "session started without {s:?}"
            );
        }
    }
}
