//! The reactive model engine: an explicit dependency DAG over a built
//! [`MissModel`], so a changed tile size or loop bound re-evaluates only
//! the expressions it feeds instead of repricing the whole model.
//!
//! ## Node taxonomy
//!
//! The DAG has four layers, mirroring how the model is priced:
//!
//! 1. **Inputs** — the symbol bindings (tile sizes, loop bounds) and the
//!    tracked cache-size set. These are the only things a
//!    [`DagDelta`] can change.
//! 2. **Expression nodes** — every distinct symbolic expression appearing
//!    as a component count or stack-distance endpoint, interned so shared
//!    subexpressions are priced once. Each node records the exact symbols
//!    it reads ([`sdlo_symbolic::Expr::vars`]), its current value, and a
//!    **fingerprint** of the input values it read — the memoization key.
//! 3. **Component summaries** — per [`Component`], the evaluated count and
//!    [`DistanceValues`], wired to the expression nodes they read.
//! 4. **Miss cells and totals** — per `(component, cache size)`, the §5
//!    miss formula ([`predict_from_values`]) on layer-3 values, summed in
//!    component order into one total per cache size.
//!
//! ## Invalidation rules
//!
//! [`ModelDag::revise`] marks dirty exactly the expression nodes whose
//! symbol set intersects the *actually changed* bindings (a delta that
//! rebinds a symbol to its current value changes nothing). A dirty node is
//! re-evaluated only if its input fingerprint really moved; everything
//! else is reused. Miss cells recompute only for components fed by a
//! re-evaluated expression — plus every component for cache sizes newly
//! added by the delta. Totals update incrementally (subtract the stale
//! cell, add the fresh one).
//!
//! Revision is transactional: all staged evaluations must succeed before
//! any state is committed, so a failed delta (unbound symbol, negative
//! count) leaves the DAG answering for its previous state.

use crate::model::{predict_from_values, DistanceValues, MissModel, ModelError};
use crate::partition::StackDistance;
use sdlo_ir::canon::Fnv64;
use sdlo_symbolic::{Bindings, Expr, Sym};
use std::collections::{BTreeMap, BTreeSet};

/// A structured change to a live [`ModelDag`]: sparse symbol rebindings
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
    /// Expression nodes whose fingerprint moved and were re-evaluated.
    pub nodes_reevaluated: u64,
    /// Expression nodes reused without re-evaluation.
    pub nodes_reused: u64,
    /// `(component, cache size)` miss cells recomputed.
    pub cells_recomputed: u64,
    /// Total predicted misses per tracked cache size, ascending.
    pub misses: Vec<(u64, u64)>,
}

/// Lifetime counters of one DAG.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagStats {
    /// Completed [`ModelDag::revise`] calls.
    pub revisions: u64,
    /// Expression nodes re-evaluated across all revisions.
    pub nodes_reevaluated: u64,
    /// Expression nodes reused across all revisions.
    pub nodes_reused: u64,
}

/// One interned expression node (layer 2).
#[derive(Debug, Clone)]
struct ExprNode {
    expr: Expr,
    /// The symbols this node reads, in symbol order.
    vars: Vec<Sym>,
    /// Current value under the DAG's bindings.
    value: i64,
    /// FNV-1a over the values of exactly the inputs this node reads.
    fingerprint: u64,
}

/// A component's stack distance as expression-node references.
#[derive(Debug, Clone, Copy)]
enum DistRef {
    Infinite,
    Constant(usize),
    Varying(usize, usize),
}

/// One component summary (layer 3): count + distance as node references.
#[derive(Debug, Clone, Copy)]
struct CompNode {
    count: usize,
    distance: DistRef,
}

/// The live reactive model: build once from a [`MissModel`], then feed it
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
/// let mut dag = ModelDag::new(&model, b, &[8192]).unwrap();
/// assert_eq!(dag.misses(), vec![(8192, 8_650_752)]);
///
/// // Retile: only the tile-fed expressions re-evaluate.
/// let delta = DagDelta {
///     bindings: Bindings::new().with("Ti", 64).with("Tj", 64).with("Tk", 64),
///     cache_sizes: None,
/// };
/// let out = dag.revise(&delta).unwrap();
/// assert_eq!(out.misses, vec![(8192, 6_291_456)]); // Table 3 value
/// assert!(out.nodes_reused > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ModelDag {
    exprs: Vec<ExprNode>,
    comps: Vec<CompNode>,
    /// Symbol → expression nodes reading it.
    sym_index: BTreeMap<Sym, Vec<usize>>,
    /// Expression node → components it feeds.
    expr_comps: Vec<Vec<usize>>,
    bindings: Bindings,
    /// Tracked cache sizes, ascending and deduped.
    cache_sizes: Vec<u64>,
    /// `comp_misses[size_idx][comp_idx]` — the layer-4 miss cells.
    comp_misses: Vec<Vec<u64>>,
    /// Per-size totals, parallel to `cache_sizes`.
    totals: Vec<u64>,
    stats: DagStats,
}

/// Fingerprint of the values a node reads: FNV-1a over `(value)` in the
/// node's symbol order. Unbound symbols hash as a distinct tag so "unbound"
/// and "bound to zero" never collide.
fn input_fingerprint(vars: &[Sym], bindings: &Bindings) -> u64 {
    let mut h = Fnv64::new();
    for v in vars {
        match bindings.get(v) {
            Some(val) => {
                h.bytes(&[1]);
                h.bytes(&val.to_le_bytes());
            }
            None => h.bytes(&[0]),
        }
    }
    h.finish()
}

impl ModelDag {
    /// Build the DAG from a built model, an initial full binding set, and
    /// the cache sizes to track. Every expression is evaluated once; the
    /// model layers below the expressions (partitioning, symbolic stack
    /// distances) are captured by reference and never recomputed.
    pub fn new(
        model: &MissModel,
        bindings: Bindings,
        cache_sizes: &[u64],
    ) -> Result<Self, ModelError> {
        let span = sdlo_trace::span(sdlo_trace::names::REVISE_DAG_BUILD);
        let mut exprs: Vec<ExprNode> = Vec::new();
        let mut interned: BTreeMap<Expr, usize> = BTreeMap::new();
        let mut intern = |e: &Expr, exprs: &mut Vec<ExprNode>| -> usize {
            if let Some(id) = interned.get(e) {
                return *id;
            }
            let id = exprs.len();
            exprs.push(ExprNode {
                expr: e.clone(),
                vars: e.vars().into_iter().collect(),
                value: 0,
                fingerprint: 0,
            });
            interned.insert(e.clone(), id);
            id
        };

        let comps: Vec<CompNode> = model
            .components()
            .iter()
            .map(|c| CompNode {
                count: intern(&c.count, &mut exprs),
                distance: match &c.distance {
                    StackDistance::Infinite => DistRef::Infinite,
                    StackDistance::Constant(e) => DistRef::Constant(intern(e, &mut exprs)),
                    StackDistance::Varying { lo, hi } => {
                        DistRef::Varying(intern(lo, &mut exprs), intern(hi, &mut exprs))
                    }
                },
            })
            .collect();

        let mut sym_index: BTreeMap<Sym, Vec<usize>> = BTreeMap::new();
        for (id, node) in exprs.iter_mut().enumerate() {
            for v in &node.vars {
                sym_index.entry(v.clone()).or_default().push(id);
            }
            node.value = node.expr.eval(&bindings)?;
            node.fingerprint = input_fingerprint(&node.vars, &bindings);
        }

        let mut expr_comps: Vec<Vec<usize>> = vec![Vec::new(); exprs.len()];
        for (ci, comp) in comps.iter().enumerate() {
            let feed = |id: usize, expr_comps: &mut Vec<Vec<usize>>| {
                if expr_comps[id].last() != Some(&ci) {
                    expr_comps[id].push(ci);
                }
            };
            feed(comp.count, &mut expr_comps);
            match comp.distance {
                DistRef::Infinite => {}
                DistRef::Constant(d) => feed(d, &mut expr_comps),
                DistRef::Varying(lo, hi) => {
                    feed(lo, &mut expr_comps);
                    feed(hi, &mut expr_comps);
                }
            }
        }

        let mut sizes: Vec<u64> = cache_sizes.to_vec();
        sizes.sort_unstable();
        sizes.dedup();

        let mut dag = ModelDag {
            exprs,
            comps,
            sym_index,
            expr_comps,
            bindings,
            cache_sizes: sizes,
            comp_misses: Vec::new(),
            totals: Vec::new(),
            stats: DagStats::default(),
        };
        for k in 0..dag.cache_sizes.len() {
            let (row, total) = dag.price_size(dag.cache_sizes[k])?;
            dag.comp_misses.push(row);
            dag.totals.push(total);
        }
        span.add("exprs", dag.exprs.len() as u64);
        span.add("components", dag.comps.len() as u64);
        span.add("cache_sizes", dag.cache_sizes.len() as u64);
        Ok(dag)
    }

    /// Evaluate one component against the *current* expression values.
    fn comp_prediction(&self, ci: usize, cache_size: u64) -> Result<u64, ModelError> {
        let comp = &self.comps[ci];
        let count = self.exprs[comp.count].value;
        let distance = match comp.distance {
            DistRef::Infinite => DistanceValues::Infinite,
            DistRef::Constant(d) => DistanceValues::Constant(self.exprs[d].value),
            DistRef::Varying(lo, hi) => DistanceValues::Varying {
                lo: self.exprs[lo].value,
                hi: self.exprs[hi].value,
            },
        };
        Ok(predict_from_values(count, distance, cache_size)?.misses)
    }

    /// Price every component for one cache size: the full miss-cell row
    /// plus its total, in component order (matching
    /// [`MissModel::predict_misses`] exactly).
    fn price_size(&self, cache_size: u64) -> Result<(Vec<u64>, u64), ModelError> {
        let mut row = Vec::with_capacity(self.comps.len());
        let mut total = 0u64;
        for ci in 0..self.comps.len() {
            let m = self.comp_prediction(ci, cache_size)?;
            total += m;
            row.push(m);
        }
        Ok((row, total))
    }

    /// Apply one structured delta: rebind symbols, optionally replace the
    /// cache-size set, re-evaluate only what the changes feed.
    pub fn revise(&mut self, delta: &DagDelta) -> Result<ReviseOutcome, ModelError> {
        let span = sdlo_trace::span(sdlo_trace::names::REVISE_APPLY_DELTA);

        // Which symbols actually changed value?
        let changed: Vec<&Sym> = delta
            .bindings
            .iter()
            .filter(|(s, v)| self.bindings.get(s) != Some(*v))
            .map(|(s, _)| s)
            .collect();

        let mut staged_bindings = self.bindings.clone();
        staged_bindings.extend(&delta.bindings);

        // Dirty set: expression nodes reading any changed symbol.
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for s in &changed {
            if let Some(ids) = self.sym_index.get(s) {
                dirty.extend(ids.iter().copied());
            }
        }

        // Stage re-evaluations; the fingerprint decides reuse.
        let mut reevaluated: Vec<(usize, i64, u64)> = Vec::new();
        let mut nodes_reused = (self.exprs.len() - dirty.len()) as u64;
        for id in &dirty {
            let node = &self.exprs[*id];
            let fp = input_fingerprint(&node.vars, &staged_bindings);
            if fp == node.fingerprint {
                nodes_reused += 1;
                continue;
            }
            reevaluated.push((*id, node.expr.eval(&staged_bindings)?, fp));
        }
        let nodes_reevaluated = reevaluated.len() as u64;

        // Commit expression values (totals still reflect the old cells).
        for (id, value, fp) in &reevaluated {
            self.exprs[*id].value = *value;
            self.exprs[*id].fingerprint = *fp;
        }
        self.bindings = staged_bindings;

        // Components fed by a re-evaluated node.
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for (id, _, _) in &reevaluated {
            touched.extend(self.expr_comps[*id].iter().copied());
        }

        // Reconcile the cache-size set: kept sizes keep their rows.
        let mut cells_recomputed = 0u64;
        if let Some(sizes) = &delta.cache_sizes {
            let mut new_sizes = sizes.clone();
            new_sizes.sort_unstable();
            new_sizes.dedup();
            let mut comp_misses = Vec::with_capacity(new_sizes.len());
            let mut totals = Vec::with_capacity(new_sizes.len());
            for cs in &new_sizes {
                match self.cache_sizes.binary_search(cs) {
                    Ok(k) => {
                        comp_misses.push(std::mem::take(&mut self.comp_misses[k]));
                        totals.push(self.totals[k]);
                    }
                    Err(_) => {
                        let (row, total) = self.price_size(*cs)?;
                        cells_recomputed += row.len() as u64;
                        comp_misses.push(row);
                        totals.push(total);
                    }
                }
            }
            self.cache_sizes = new_sizes;
            self.comp_misses = comp_misses;
            self.totals = totals;
        }

        // Recompute the touched miss cells for every tracked size, updating
        // totals incrementally.
        for (k, cs) in self.cache_sizes.iter().enumerate() {
            for ci in &touched {
                let fresh = self.comp_prediction(*ci, *cs)?;
                cells_recomputed += 1;
                let stale = std::mem::replace(&mut self.comp_misses[k][*ci], fresh);
                self.totals[k] = self.totals[k] - stale + fresh;
            }
        }

        self.stats.revisions += 1;
        self.stats.nodes_reevaluated += nodes_reevaluated;
        self.stats.nodes_reused += nodes_reused;
        span.add("changed_symbols", changed.len() as u64);
        span.add("nodes_reevaluated", nodes_reevaluated);
        span.add("nodes_reused", nodes_reused);
        span.add("cells_recomputed", cells_recomputed);
        Ok(ReviseOutcome {
            nodes_reevaluated,
            nodes_reused,
            cells_recomputed,
            misses: self.misses(),
        })
    }

    /// Current totals per tracked cache size, ascending.
    pub fn misses(&self) -> Vec<(u64, u64)> {
        self.cache_sizes
            .iter()
            .copied()
            .zip(self.totals.iter().copied())
            .collect()
    }

    /// Current total for one tracked cache size.
    pub fn misses_for(&self, cache_size: u64) -> Option<u64> {
        self.cache_sizes
            .binary_search(&cache_size)
            .ok()
            .map(|k| self.totals[k])
    }

    /// The DAG's current bindings.
    pub fn bindings(&self) -> &Bindings {
        &self.bindings
    }

    /// The tracked cache sizes, ascending.
    pub fn cache_sizes(&self) -> &[u64] {
        &self.cache_sizes
    }

    /// Interned expression nodes (the memoizable layer).
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Components priced by the DAG.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DagStats {
        self.stats
    }

    /// The symbols any expression in the DAG reads — exactly the bindings a
    /// cold start must provide.
    pub fn required_symbols(&self) -> Vec<Sym> {
        self.sym_index.keys().cloned().collect()
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

    #[test]
    fn matches_cold_rebuild_on_table3_cases() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut dag = ModelDag::new(&model, tmm(512, (32, 32, 32)), &[2048, 8192]).unwrap();
        let cases = [
            (512, (64, 64, 64)),
            (512, (128, 128, 128)),
            (256, (64, 32, 32)),
            (256, (64, 64, 64)),
            (256, (32, 64, 128)),
        ];
        for (n, t) in cases {
            let out = dag
                .revise(&DagDelta {
                    bindings: tmm(n, t),
                    cache_sizes: None,
                })
                .unwrap();
            for (cs, got) in out.misses {
                let want = model.predict_misses(&tmm(n, t), cs).unwrap();
                assert_eq!(got, want, "N={n} tiles={t:?} CS={cs}");
            }
        }
    }

    #[test]
    fn tile_only_delta_reuses_bound_only_nodes() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut dag = ModelDag::new(&model, tmm(512, (32, 32, 32)), &[8192]).unwrap();
        // Change a single tile: some expressions must be untouched (e.g.
        // pure bound products), so reuse is non-trivial.
        let out = dag
            .revise(&DagDelta {
                bindings: Bindings::new().with("Ti", 64),
                cache_sizes: None,
            })
            .unwrap();
        assert!(out.nodes_reused > 0, "{out:?}");
        assert!(out.nodes_reevaluated > 0, "{out:?}");
        assert!(
            out.nodes_reevaluated < dag.expr_count() as u64,
            "expected partial re-evaluation: {out:?}"
        );
    }

    #[test]
    fn noop_delta_reuses_everything() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut dag = ModelDag::new(&model, tmm(256, (64, 64, 64)), &[8192]).unwrap();
        let before = dag.misses();
        let out = dag
            .revise(&DagDelta {
                bindings: Bindings::new().with("Ti", 64),
                cache_sizes: None,
            })
            .unwrap();
        assert_eq!(out.nodes_reevaluated, 0);
        assert_eq!(out.nodes_reused, dag.expr_count() as u64);
        assert_eq!(out.misses, before);
    }

    #[test]
    fn cache_size_delta_keeps_rows_and_adds_new() {
        let model = MissModel::build(&programs::tiled_matmul());
        let b = tmm(512, (64, 64, 64));
        let mut dag = ModelDag::new(&model, b.clone(), &[8192]).unwrap();
        let out = dag
            .revise(&DagDelta {
                bindings: Bindings::new(),
                cache_sizes: Some(vec![2048, 8192]),
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
        // Only the new size paid any cells.
        assert_eq!(out.cells_recomputed, dag.component_count() as u64);
    }

    #[test]
    fn failed_revise_leaves_state_intact() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut dag = ModelDag::new(&model, tmm(256, (32, 32, 32)), &[2048]).unwrap();
        let before = dag.misses();
        let before_bindings = dag.bindings().clone();
        // Unbinding is impossible via a delta, but a division by zero is
        // reachable: Ti = 0 makes ceil-div terms blow up.
        let err = dag.revise(&DagDelta {
            bindings: Bindings::new().with("Ti", 0),
            cache_sizes: None,
        });
        assert!(err.is_err());
        assert_eq!(dag.misses(), before);
        assert_eq!(dag.bindings(), &before_bindings);
        // Still serviceable after the failure.
        let out = dag
            .revise(&DagDelta {
                bindings: Bindings::new().with("Ti", 64),
                cache_sizes: None,
            })
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
        let mut dag = ModelDag::new(&model, base.clone(), &sizes).unwrap();
        for (sym, val) in [("Ti", 8), ("Nn", 128), ("Tm", 32), ("Nj", 32)] {
            let out = dag
                .revise(&DagDelta {
                    bindings: Bindings::new().with(sym, val),
                    cache_sizes: None,
                })
                .unwrap();
            for (cs, got) in out.misses {
                let want = model.predict_misses(dag.bindings(), cs).unwrap();
                assert_eq!(got, want, "{sym}={val} CS={cs}");
            }
        }
    }

    #[test]
    fn required_symbols_cover_free_symbols() {
        let p = programs::tiled_matmul();
        let model = MissModel::build(&p);
        let dag = ModelDag::new(&model, tmm(64, (8, 8, 8)), &[1024]).unwrap();
        let req = dag.required_symbols();
        for s in p.free_symbols() {
            assert!(req.contains(&s), "missing {s:?}");
        }
    }
}
