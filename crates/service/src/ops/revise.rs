//! `revise` — re-price one program shape at new bindings or cache sizes
//! through a session kept in the shape's model-store entry.
//!
//! A client that sweeps tile sizes (or cache capacities) over one program
//! shape names the shape once, by its canonical hash (`base`), and then
//! sends only what changes. The session (`sdlo_core::ModelDag`) holds the
//! last bindings, every component's evaluated §5 inputs and the tracked
//! cache sizes. A delta that rebinds a symbol re-evaluates the model's
//! expressions; a delta that only replaces the cache-size set re-prices
//! the stored values and evaluates nothing. The reply's `revise` object
//! reports `exprs` (the expressions one evaluation reads),
//! `nodes_reevaluated` (`exprs` when a binding changed, else 0) and
//! `nodes_reused` (the remainder).
//!
//! ## Session lifecycle
//!
//! * **Warm** (`revised: true`): the base's resident entry holds a
//!   session; the delta is applied transactionally in place. An evaluation
//!   error (e.g. a binding driving a distance negative) leaves the session
//!   untouched.
//! * **Cold** (`revised: false`): no session. The model is recovered from
//!   the request's optional `program` (which must canonicalize to `base`)
//!   or by hash from the store — memory, then the disk tier — and a fresh
//!   session is started in the entry from the delta, which must then carry
//!   `cache_sizes` and bindings for every free symbol. A session lives as
//!   long as its shape stays in the store; eviction just means the next
//!   revise against that base is cold again.
//!
//! The answers are byte-identical to `predict` over the same points: both
//! sum through the one §5 pricing function (`sdlo_core::price`).

use crate::api::{self, schema, ApiError, ErrorKind, ProgramSpec};
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_core::dag::{DagDelta, ModelDag};
use sdlo_wire::Value;
use std::sync::atomic::Ordering::Relaxed;

#[derive(Debug)]
struct Revise {
    /// Canonical shape hash naming the session (and the model on a cold
    /// start).
    base: u64,
    delta: DagDelta,
    /// Optional program spec to establish a session for a shape the engine
    /// has never seen. Must canonicalize to `base`.
    program: Option<ProgramSpec>,
}

fn parse(request: &Value) -> Result<Revise, ApiError> {
    let base_str = request
        .get("base")
        .and_then(Value::as_str)
        .ok_or_else(|| schema("missing `base` canonical shape hash"))?;
    let base = (base_str.len() == 16)
        .then(|| u64::from_str_radix(base_str, 16).ok())
        .flatten()
        .ok_or_else(|| schema("`base` must be a 16-hex canonical shape hash"))?;
    let delta = sdlo_wire::delta_from_value(
        request
            .get("delta")
            .ok_or_else(|| schema("missing `delta` object"))?,
    )
    .map_err(|e| schema(e.to_string()))?;
    let program = match request.get("program") {
        Some(_) => Some(api::program_spec(request)?),
        None => None,
    };
    Ok(Revise {
        base,
        delta,
        program,
    })
}

/// Reply body shared by the warm and cold paths. `misses` is keyed by the
/// decimal cache size so sweep clients can index replies without tracking
/// array order.
fn body(
    base: u64,
    revised: bool,
    misses: &[(u64, u64)],
    sessions: u64,
    reevaluated: u64,
    reused: u64,
    exprs: usize,
) -> Vec<(&'static str, Value)> {
    vec![
        ("revised", Value::from(revised)),
        ("base", Value::from(format!("{base:016x}"))),
        (
            "misses",
            Value::Object(
                misses
                    .iter()
                    .map(|(size, count)| (size.to_string(), Value::from(*count)))
                    .collect(),
            ),
        ),
        (
            "revise",
            Value::obj(vec![
                ("sessions", Value::from(sessions)),
                ("nodes_reevaluated", Value::from(reevaluated)),
                ("nodes_reused", Value::from(reused)),
                ("exprs", Value::from(exprs as u64)),
            ]),
        ),
    ]
}

pub struct ReviseOp;

impl ServiceOp for ReviseOp {
    fn name(&self) -> &'static str {
        "revise"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        let request = parse(ctx.request)?;
        let (metrics, store) = (&engine.metrics, &engine.store);

        // Warm path: the base's resident entry holds a session. The delta
        // applies in place under the entry's own lock. Not a model-cache
        // lookup.
        let warm = store.resident(request.base).and_then(|entry| {
            entry.with_session(|session| (session.revise(&request.delta), entry.model.expr_count()))
        });
        if let Some((outcome, exprs)) = warm {
            let outcome = outcome.map_err(|e| api::fail(ErrorKind::Eval, e.to_string()))?;
            metrics
                .revise_nodes_reevaluated
                .fetch_add(outcome.nodes_reevaluated, Relaxed);
            metrics
                .revise_nodes_reused
                .fetch_add(outcome.nodes_reused, Relaxed);
            return Ok(body(
                request.base,
                true,
                &outcome.misses,
                metrics.revise_sessions.load(Relaxed),
                outcome.nodes_reevaluated,
                outcome.nodes_reused,
                exprs,
            ));
        }

        // Cold path: recover the model, start a session outside any lock,
        // then install it into the shape's entry.
        metrics.revise_base_misses.fetch_add(1, Relaxed);
        let entry = if let Some(spec) = request.program {
            let resolved = engine.resolve_spec(spec)?;
            if resolved.canonical.hash != request.base {
                return Err(schema(format!(
                    "`program` canonicalizes to `{:016x}`, which is not base `{:016x}`",
                    resolved.canonical.hash, request.base
                )));
            }
            store.get(&resolved.canonical).0
        } else {
            store.by_hash(request.base).ok_or_else(|| {
                schema(format!(
                    "unknown base `{:016x}`; include `program` to establish the session",
                    request.base
                ))
            })?
        };
        let Some(sizes) = request.delta.cache_sizes.clone() else {
            return Err(schema(
                "`delta.cache_sizes` is required to establish a new revise session",
            ));
        };
        engine.require_bound(&entry.canonical.program, &request.delta.bindings, &[])?;
        let session = {
            let _span = sdlo_trace::span(sdlo_trace::names::REVISE_FULL_BUILD);
            ModelDag::new(&entry.model, request.delta.bindings.clone(), &sizes)
                .map_err(|e| api::fail(ErrorKind::Eval, e.to_string()))?
        };
        metrics.revise_full_builds.fetch_add(1, Relaxed);
        let misses = session.misses();
        let exprs = entry.model.expr_count();
        let live = store.install(&entry, session);
        Ok(body(request.base, false, &misses, live, 0, 0, exprs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(s: &str) -> Value {
        sdlo_wire::parse(s).unwrap()
    }

    #[test]
    fn base_hash_is_validated_strictly() {
        let err = parse(&doc(r#"{"op":"revise","delta":{}}"#)).unwrap_err();
        assert_eq!(err.message, "missing `base` canonical shape hash");
        for bad in ["abc", "zzzzzzzzzzzzzzzz", "00112233445566778899"] {
            let err = parse(&doc(&format!(
                r#"{{"op":"revise","base":"{bad}","delta":{{}}}}"#
            )))
            .unwrap_err();
            assert_eq!(err.message, "`base` must be a 16-hex canonical shape hash");
        }
        let ok = parse(&doc(r#"{"op":"revise","base":"00ff00ff00ff00ff",
                "delta":{"bindings":{"Ti":32},"cache_sizes":[1024]}}"#))
        .unwrap();
        assert_eq!(ok.base, 0x00ff_00ff_00ff_00ff);
        assert_eq!(ok.delta.cache_sizes.as_deref(), Some(&[1024u64][..]));
        assert!(ok.program.is_none());
    }

    #[test]
    fn delta_is_required() {
        let err = parse(&doc(r#"{"op":"revise","base":"0011223344556677"}"#)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Schema);
        assert_eq!(err.message, "missing `delta` object");
    }
}
