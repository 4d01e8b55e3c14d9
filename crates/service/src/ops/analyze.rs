//! `analyze` — reuse components + symbolic stack-distance expressions for
//! one program, under the requester's original array names.

use crate::api::{self, ApiError, ProgramSpec};
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_wire::{component_to_value, Value};

struct Analyze {
    program: ProgramSpec,
}

fn parse(request: &Value) -> Result<Analyze, ApiError> {
    Ok(Analyze {
        program: api::program_spec(request)?,
    })
}

pub struct AnalyzeOp;

impl ServiceOp for AnalyzeOp {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        let request = parse(ctx.request)?;
        let resolved = engine.resolve_spec(request.program)?;
        let program = &resolved.program;
        let (cached, hit) = engine.store.get(&resolved.canonical);
        let name_of = Engine::original_name(program, &cached.canonical);
        let components: Vec<Value> = cached
            .model
            .components()
            .iter()
            .map(|c| component_to_value(c, &name_of))
            .collect();
        let free: Vec<Value> = program
            .free_symbols()
            .iter()
            .map(|s| Value::from(s.name()))
            .collect();
        Ok(vec![
            ("program", Value::from(program.name.as_str())),
            (
                "shape",
                Value::from(format!("{:016x}", cached.canonical.hash)),
            ),
            ("cache_hit", Value::from(hit)),
            ("free_symbols", Value::Array(free)),
            ("components", Value::Array(components)),
        ])
    }
}
