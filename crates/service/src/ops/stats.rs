//! `stats` — the metrics snapshot plus engine-level extras: per-op slowest
//! requests, current store size, protocol version and the advertised op
//! list (driven by the registry, so it can never drift from dispatch).

use crate::api;
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_wire::Value;

pub struct StatsOp;

impl ServiceOp for StatsOp {
    fn name(&self) -> &'static str {
        "stats"
    }

    fn serve(&self, engine: &Engine, _ctx: &OpCtx<'_>) -> OpResult {
        let mut snap = match engine.metrics.snapshot() {
            Value::Object(fields) => fields,
            _ => unreachable!("snapshot is an object"),
        };
        snap.push((
            "slowest".to_string(),
            Value::Object(
                engine
                    .flight
                    .slowest_per_op()
                    .into_iter()
                    .map(|(op, r)| {
                        (
                            op,
                            Value::obj(vec![
                                ("total_micros", Value::from(r.total_micros)),
                                ("request_id", Value::from(r.request_id.as_str())),
                                ("trace_id", Value::from(r.trace_id.as_str())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        snap.push(("cached_shapes".to_string(), Value::from(engine.store.len())));
        snap.push((
            "protocol_version".to_string(),
            Value::from(api::PROTOCOL_VERSION),
        ));
        snap.push((
            "ops".to_string(),
            Value::Array(api::ops().iter().map(|o| Value::from(*o)).collect()),
        ));
        Ok(vec![("stats", Value::Object(snap))])
    }
}
