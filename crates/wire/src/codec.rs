//! Conversions between sdlo's in-memory types and [`Value`] documents.
//!
//! Symbolic expressions travel as strings in the `sdlo-symbolic` surface
//! syntax (`Display` on encode, [`parse_expr`] on decode — the round trip is
//! property-tested in that crate). Arrays are referenced *by name* on the
//! wire; statement ids are implicit (program order) and reassigned on decode.

use crate::json::{JsonError, Value};
use sdlo_core::partition::{Component, ComponentKind, StackDistance};
use sdlo_ir::{
    ArrayDecl, ArrayId, ArrayRef, DimExpr, LoopNode, Node, Program, Stmt, StmtId, StmtKind,
    ValidateError,
};
use sdlo_symbolic::{parse_expr, Bindings, Expr, Sym};
use sdlo_tilesearch::{Evaluation, SearchOutcome};

/// Decode-side failure: malformed JSON, a schema violation, or a program
/// that parses but does not validate.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    Json(JsonError),
    Schema(String),
    Validate(ValidateError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Schema(m) => write!(f, "schema error: {m}"),
            WireError::Validate(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::Json(e)
    }
}

fn schema(msg: impl Into<String>) -> WireError {
    WireError::Schema(msg.into())
}

fn expr_to_string(e: &Expr) -> String {
    e.to_string()
}

fn expr_from_value(v: &Value, what: &str) -> Result<Expr, WireError> {
    let s = v
        .as_str()
        .ok_or_else(|| schema(format!("{what}: expected expression string")))?;
    parse_expr(s).map_err(|e| schema(format!("{what}: `{s}`: {e}")))
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, WireError> {
    v.get(key)
        .ok_or_else(|| schema(format!("{what}: missing field `{key}`")))
}

fn str_field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, WireError> {
    field(v, key, what)?
        .as_str()
        .ok_or_else(|| schema(format!("{what}: field `{key}` must be a string")))
}

// ---------------------------------------------------------------------------
// Bindings
// ---------------------------------------------------------------------------

/// `{"N": 512, "Ti": 64}`. Values must fit `i64` on the wire.
pub fn bindings_to_value(b: &Bindings) -> Value {
    Value::Object(
        b.iter()
            .map(|(s, v)| {
                let val = i64::try_from(v)
                    .map(Value::Int)
                    .unwrap_or(Value::Float(v as f64));
                (s.name().to_string(), val)
            })
            .collect(),
    )
}

pub fn bindings_from_value(v: &Value) -> Result<Bindings, WireError> {
    let fields = v
        .as_object()
        .ok_or_else(|| schema("bindings: expected an object of integers"))?;
    let mut b = Bindings::new();
    for (k, val) in fields {
        let n = val
            .as_i64()
            .ok_or_else(|| schema(format!("bindings: `{k}` must be an integer")))?;
        b.set(Sym::new(k.as_str()), i128::from(n));
    }
    Ok(b)
}

// ---------------------------------------------------------------------------
// Revise deltas
// ---------------------------------------------------------------------------

/// Decode a `revise` delta: `{"bindings":{…}?, "cache_sizes":[…]?}`. Both
/// fields are optional — an empty delta is a legal no-op that re-reads the
/// session's current answer.
pub fn delta_from_value(v: &Value) -> Result<sdlo_core::dag::DagDelta, WireError> {
    v.as_object()
        .ok_or_else(|| schema("delta: expected an object"))?;
    let bindings = match v.get("bindings") {
        None => Bindings::new(),
        Some(b) => bindings_from_value(b)?,
    };
    let cache_sizes =
        match v.get("cache_sizes") {
            None => None,
            Some(cs) => {
                let arr = cs
                    .as_array()
                    .ok_or_else(|| schema("delta: `cache_sizes` must be an array of integers"))?;
                if arr.is_empty() {
                    return Err(schema(
                        "delta: `cache_sizes` must be non-empty when present",
                    ));
                }
                let mut sizes = Vec::with_capacity(arr.len());
                for s in arr {
                    sizes.push(s.as_u64().ok_or_else(|| {
                        schema("delta: `cache_sizes` must be non-negative integers")
                    })?);
                }
                Some(sizes)
            }
        };
    Ok(sdlo_core::dag::DagDelta {
        bindings,
        cache_sizes,
    })
}

/// Encode a `revise` delta (client side; round-trips through
/// [`delta_from_value`]).
pub fn delta_to_value(delta: &sdlo_core::dag::DagDelta) -> Value {
    let mut fields = vec![("bindings", bindings_to_value(&delta.bindings))];
    if let Some(sizes) = &delta.cache_sizes {
        fields.push((
            "cache_sizes",
            Value::Array(sizes.iter().map(|s| Value::from(*s)).collect()),
        ));
    }
    Value::obj(fields)
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

fn kind_to_str(k: StmtKind) -> &'static str {
    match k {
        StmtKind::ZeroLhs => "zero",
        StmtKind::Assign => "assign",
        StmtKind::MulAddAssign => "mul_add_assign",
    }
}

fn kind_from_str(s: &str) -> Result<StmtKind, WireError> {
    match s {
        "zero" => Ok(StmtKind::ZeroLhs),
        "assign" => Ok(StmtKind::Assign),
        "mul_add_assign" => Ok(StmtKind::MulAddAssign),
        other => Err(schema(format!(
            "unknown statement kind `{other}` (expected zero | assign | mul_add_assign)"
        ))),
    }
}

/// Encode a program. The inverse of [`program_from_value`].
pub fn program_to_value(p: &Program) -> Value {
    fn node(p: &Program, n: &Node) -> Value {
        match n {
            Node::Loop(l) => Value::obj(vec![(
                "for",
                Value::obj(vec![
                    ("index", Value::from(l.index.name())),
                    ("bound", Value::from(expr_to_string(&l.bound))),
                    (
                        "body",
                        Value::Array(l.body.iter().map(|c| node(p, c)).collect()),
                    ),
                ]),
            )]),
            Node::Stmt(s) => Value::obj(vec![(
                "stmt",
                Value::obj(vec![
                    ("kind", Value::from(kind_to_str(s.kind))),
                    (
                        "refs",
                        Value::Array(
                            s.refs
                                .iter()
                                .map(|r| {
                                    Value::obj(vec![
                                        ("array", Value::from(p.array(r.array).name.name())),
                                        ("write", Value::from(r.is_write)),
                                        (
                                            "dims",
                                            Value::Array(
                                                r.dims
                                                    .iter()
                                                    .map(|d| {
                                                        Value::Array(
                                                            d.parts
                                                                .iter()
                                                                .map(|(idx, stride)| {
                                                                    Value::obj(vec![
                                                                        (
                                                                            "index",
                                                                            Value::from(idx.name()),
                                                                        ),
                                                                        (
                                                                            "stride",
                                                                            Value::from(
                                                                                expr_to_string(
                                                                                    stride,
                                                                                ),
                                                                            ),
                                                                        ),
                                                                    ])
                                                                })
                                                                .collect(),
                                                        )
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )]),
        }
    }
    Value::obj(vec![
        ("name", Value::from(p.name.as_str())),
        (
            "arrays",
            Value::Array(
                p.arrays
                    .iter()
                    .map(|a| {
                        Value::obj(vec![
                            ("name", Value::from(a.name.name())),
                            (
                                "dims",
                                Value::Array(
                                    a.dims
                                        .iter()
                                        .map(|d| Value::from(expr_to_string(d)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "nest",
            Value::Array(p.root.iter().map(|n| node(p, n)).collect()),
        ),
    ])
}

/// Decode a program and validate it. Statement ids are assigned in program
/// order; labels are regenerated from the reference structure.
pub fn program_from_value(v: &Value) -> Result<Program, WireError> {
    let p = program_from_value_unchecked(v)?;
    p.validate().map_err(WireError::Validate)?;
    Ok(p)
}

/// Decode a program WITHOUT the final [`Program::validate`] step. For the
/// lint path: structural problems are the linter's `structure` diagnostics,
/// not a request error. Schema-level problems (unknown arrays, bad
/// expressions) still fail the decode.
pub fn program_from_value_unchecked(v: &Value) -> Result<Program, WireError> {
    let name = v.get("name").and_then(Value::as_str).unwrap_or("unnamed");
    let mut p = Program::new(name);
    let arrays = field(v, "arrays", "program")?
        .as_array()
        .ok_or_else(|| schema("program: `arrays` must be an array"))?;
    for a in arrays {
        let aname = str_field(a, "name", "array")?;
        if p.array_by_name(aname).is_some() {
            return Err(schema(format!("array `{aname}` declared twice")));
        }
        let dims = field(a, "dims", "array")?
            .as_array()
            .ok_or_else(|| schema(format!("array `{aname}`: `dims` must be an array")))?;
        if dims.is_empty() {
            return Err(schema(format!(
                "array `{aname}` must have at least one dimension"
            )));
        }
        let dims: Vec<Expr> = dims
            .iter()
            .map(|d| expr_from_value(d, &format!("array `{aname}` extent")))
            .collect::<Result<_, _>>()?;
        p.declare(aname, dims);
    }

    fn decode_ref(p: &Program, v: &Value) -> Result<ArrayRef, WireError> {
        let aname = str_field(v, "array", "ref")?;
        let decl: &ArrayDecl = p
            .array_by_name(aname)
            .ok_or_else(|| schema(format!("reference to undeclared array `{aname}`")))?;
        let is_write = v.get("write").and_then(Value::as_bool).unwrap_or(false);
        let dims = field(v, "dims", "ref")?
            .as_array()
            .ok_or_else(|| schema(format!("ref `{aname}`: `dims` must be an array")))?;
        let dims: Vec<DimExpr> = dims
            .iter()
            .map(|d| {
                // An empty part list is legal: a scalar subscript (always
                // element 1), as in the fused two-index transform's `T[]`.
                let parts = d.as_array().ok_or_else(|| {
                    schema(format!(
                        "ref `{aname}`: dimension must be an array of parts"
                    ))
                })?;
                let parts: Vec<(Sym, Expr)> = parts
                    .iter()
                    .map(|part| {
                        let idx = str_field(part, "index", "dim part")?;
                        let stride = match part.get("stride") {
                            Some(s) => expr_from_value(s, "dim part stride")?,
                            None => Expr::one(),
                        };
                        Ok((Sym::new(idx), stride))
                    })
                    .collect::<Result<_, WireError>>()?;
                Ok::<DimExpr, WireError>(DimExpr { parts })
            })
            .collect::<Result<_, _>>()?;
        Ok(ArrayRef {
            array: decl.id,
            dims,
            is_write,
        })
    }

    fn decode_node(p: &Program, v: &Value, next_stmt: &mut usize) -> Result<Node, WireError> {
        if let Some(l) = v.get("for") {
            let index = str_field(l, "index", "loop")?;
            let bound = expr_from_value(field(l, "bound", "loop")?, "loop bound")?;
            let body = field(l, "body", "loop")?
                .as_array()
                .ok_or_else(|| schema("loop: `body` must be an array"))?;
            let body: Vec<Node> = body
                .iter()
                .map(|n| decode_node(p, n, next_stmt))
                .collect::<Result<_, _>>()?;
            Ok(Node::Loop(LoopNode {
                index: Sym::new(index),
                bound,
                body,
            }))
        } else if let Some(s) = v.get("stmt") {
            let kind = kind_from_str(str_field(s, "kind", "stmt")?)?;
            let refs = field(s, "refs", "stmt")?
                .as_array()
                .ok_or_else(|| schema("stmt: `refs` must be an array"))?;
            let refs: Vec<ArrayRef> = refs
                .iter()
                .map(|r| decode_ref(p, r))
                .collect::<Result<_, _>>()?;
            let id = StmtId(*next_stmt);
            *next_stmt += 1;
            let label = render_label(p, kind, &refs);
            Ok(Node::Stmt(Stmt {
                id,
                label,
                refs,
                kind,
            }))
        } else {
            Err(schema("node must be `{\"for\": …}` or `{\"stmt\": …}`"))
        }
    }

    let nest = field(v, "nest", "program")?
        .as_array()
        .ok_or_else(|| schema("program: `nest` must be an array"))?;
    let mut next_stmt = 0usize;
    p.root = nest
        .iter()
        .map(|n| decode_node(&p, n, &mut next_stmt))
        .collect::<Result<_, _>>()?;
    Ok(p)
}

/// Human-readable statement text, e.g. `C[i,k] += A[i,j] * B[j,k]`.
fn render_label(p: &Program, kind: StmtKind, refs: &[ArrayRef]) -> String {
    let fmt_ref = |r: &ArrayRef| {
        let dims: Vec<String> = r
            .dims
            .iter()
            .map(|d| {
                d.parts
                    .iter()
                    .map(|(idx, stride)| {
                        if stride.as_const() == Some(1) {
                            idx.name().to_string()
                        } else {
                            format!("{idx}*({stride})")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .collect();
        format!("{}[{}]", p.array(r.array).name, dims.join(","))
    };
    match (kind, refs) {
        (StmtKind::ZeroLhs, [l]) => format!("{} = 0", fmt_ref(l)),
        (StmtKind::Assign, [l, r]) => format!("{} = {}", fmt_ref(l), fmt_ref(r)),
        (StmtKind::MulAddAssign, [l, a, b]) => {
            format!("{} += {} * {}", fmt_ref(l), fmt_ref(a), fmt_ref(b))
        }
        _ => "<malformed>".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Analysis results (encode only — responses, not requests)
// ---------------------------------------------------------------------------

/// Encode one reuse component. `name_of` maps the component's [`ArrayId`]
/// to the array name the caller knows (lets a service report results on a
/// canonical program under the original names).
pub fn component_to_value(c: &Component, name_of: impl Fn(ArrayId) -> String) -> Value {
    let kind = match &c.kind {
        ComponentKind::Compulsory => Value::obj(vec![("kind", Value::from("compulsory"))]),
        ComponentKind::Carried {
            loop_index,
            source_stmt,
        } => Value::obj(vec![
            ("kind", Value::from("carried")),
            ("loop", Value::from(loop_index.name())),
            ("source_stmt", Value::from(source_stmt.0)),
        ]),
        ComponentKind::CrossStmt { source_stmt } => Value::obj(vec![
            ("kind", Value::from("cross_stmt")),
            ("source_stmt", Value::from(source_stmt.0)),
        ]),
    };
    let distance = match &c.distance {
        StackDistance::Infinite => Value::from("inf"),
        StackDistance::Constant(e) => Value::from(expr_to_string(e)),
        StackDistance::Varying { lo, hi } => Value::obj(vec![
            ("lo", Value::from(expr_to_string(lo))),
            ("hi", Value::from(expr_to_string(hi))),
        ]),
    };
    Value::obj(vec![
        ("array", Value::from(name_of(c.array))),
        ("stmt", Value::from(c.stmt.0)),
        ("ref", Value::from(c.ref_idx)),
        ("reuse", kind),
        ("count", Value::from(expr_to_string(&c.count))),
        ("distance", distance),
    ])
}

// ---------------------------------------------------------------------------
// Persisted components (the disk model-cache tier)
// ---------------------------------------------------------------------------

/// Encode one reuse component for *persistence*: array ids are numeric
/// (positions in the canonical program), expressions travel as strings, and
/// [`stored_component_from_value`] is the exact inverse. This is distinct
/// from [`component_to_value`], which renders components for human-facing
/// replies under the caller's array names and has no decoder.
pub fn stored_component_to_value(c: &Component) -> Value {
    let kind = match &c.kind {
        ComponentKind::Compulsory => Value::obj(vec![("kind", Value::from("compulsory"))]),
        ComponentKind::Carried {
            loop_index,
            source_stmt,
        } => Value::obj(vec![
            ("kind", Value::from("carried")),
            ("loop", Value::from(loop_index.name())),
            ("source_stmt", Value::from(source_stmt.0)),
        ]),
        ComponentKind::CrossStmt { source_stmt } => Value::obj(vec![
            ("kind", Value::from("cross_stmt")),
            ("source_stmt", Value::from(source_stmt.0)),
        ]),
    };
    let distance = match &c.distance {
        StackDistance::Infinite => Value::from("inf"),
        StackDistance::Constant(e) => Value::obj(vec![("const", Value::from(expr_to_string(e)))]),
        StackDistance::Varying { lo, hi } => Value::obj(vec![
            ("lo", Value::from(expr_to_string(lo))),
            ("hi", Value::from(expr_to_string(hi))),
        ]),
    };
    Value::obj(vec![
        ("array", Value::from(c.array.0)),
        ("stmt", Value::from(c.stmt.0)),
        ("ref", Value::from(c.ref_idx)),
        ("reuse", kind),
        ("count", Value::from(expr_to_string(&c.count))),
        ("distance", distance),
    ])
}

/// Decode one persisted reuse component. The inverse of
/// [`stored_component_to_value`]; every malformed field is a
/// [`WireError::Schema`], never a panic — the disk cache treats any decode
/// failure as a miss and rebuilds.
pub fn stored_component_from_value(v: &Value) -> Result<Component, WireError> {
    let idx_field = |key: &str| -> Result<usize, WireError> {
        field(v, key, "component")?
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| schema(format!("component: `{key}` must be a non-negative integer")))
    };
    let reuse = field(v, "reuse", "component")?;
    let kind = match str_field(reuse, "kind", "component reuse")? {
        "compulsory" => ComponentKind::Compulsory,
        "carried" => ComponentKind::Carried {
            loop_index: Sym::new(str_field(reuse, "loop", "carried reuse")?),
            source_stmt: StmtId(
                field(reuse, "source_stmt", "carried reuse")?
                    .as_u64()
                    .ok_or_else(|| schema("carried reuse: `source_stmt` must be an integer"))?
                    as usize,
            ),
        },
        "cross_stmt" => ComponentKind::CrossStmt {
            source_stmt: StmtId(
                field(reuse, "source_stmt", "cross_stmt reuse")?
                    .as_u64()
                    .ok_or_else(|| schema("cross_stmt reuse: `source_stmt` must be an integer"))?
                    as usize,
            ),
        },
        other => return Err(schema(format!("unknown reuse kind `{other}`"))),
    };
    let dv = field(v, "distance", "component")?;
    let distance = if dv.as_str() == Some("inf") {
        StackDistance::Infinite
    } else if let Some(c) = dv.get("const") {
        StackDistance::Constant(expr_from_value(c, "constant distance")?)
    } else if dv.get("lo").is_some() && dv.get("hi").is_some() {
        StackDistance::Varying {
            lo: expr_from_value(field(dv, "lo", "varying distance")?, "varying distance lo")?,
            hi: expr_from_value(field(dv, "hi", "varying distance")?, "varying distance hi")?,
        }
    } else {
        return Err(schema(
            "component distance must be \"inf\", {const}, or {lo, hi}",
        ));
    };
    Ok(Component {
        array: ArrayId(idx_field("array")?),
        stmt: StmtId(idx_field("stmt")?),
        ref_idx: idx_field("ref")?,
        kind,
        count: expr_from_value(field(v, "count", "component")?, "component count")?,
        distance,
    })
}

/// Encode one lint diagnostic. Span coordinates are emitted only when the
/// rule filled them in; the fix-it is an optional `{action, detail,
/// legality, target?}` object, where `target` is the machine-applicable
/// payload (`{permute: {stmt, order}}` or `{tile: {stmt, loops}}`) present
/// exactly when the fix-it can be auto-applied.
pub fn diagnostic_to_value(d: &sdlo_analysis::Diagnostic) -> Value {
    let mut span = Vec::new();
    if let Some(s) = d.span.stmt {
        span.push(("stmt", Value::from(s.0)));
    }
    if let Some(r) = d.span.ref_idx {
        span.push(("ref", Value::from(r)));
    }
    if let Some(dim) = d.span.dim {
        span.push(("dim", Value::from(dim)));
    }
    if let Some(l) = &d.span.loop_index {
        span.push(("loop", Value::from(l.name())));
    }
    if let Some(a) = &d.span.array {
        span.push(("array", Value::from(a.name())));
    }
    let mut fields = vec![
        ("rule", Value::from(d.rule)),
        ("severity", Value::from(d.severity.name())),
        ("span", Value::obj(span)),
        ("message", Value::from(d.message.as_str())),
    ];
    if let Some(fx) = &d.fixit {
        let mut fx_fields = vec![
            ("action", Value::from(fx.action)),
            ("detail", Value::from(fx.detail.as_str())),
            ("legality", Value::from(fx.legality.name())),
        ];
        if let Some(t) = &fx.target {
            fx_fields.push(("target", fix_target_to_value(t)));
        }
        fields.push(("fixit", Value::obj(fx_fields)));
    }
    Value::obj(fields)
}

fn fix_target_to_value(t: &sdlo_analysis::FixTarget) -> Value {
    match t {
        sdlo_analysis::FixTarget::Permute { stmt, order } => Value::obj(vec![(
            "permute",
            Value::obj(vec![
                ("stmt", Value::from(stmt.0)),
                (
                    "order",
                    Value::Array(order.iter().map(|s| Value::from(s.name())).collect()),
                ),
            ]),
        )]),
        sdlo_analysis::FixTarget::Tile { stmt, loops } => Value::obj(vec![(
            "tile",
            Value::obj(vec![
                ("stmt", Value::from(stmt.0)),
                (
                    "loops",
                    Value::Array(
                        loops
                            .iter()
                            .map(|(l, t)| {
                                Value::obj(vec![
                                    ("loop", Value::from(l.name())),
                                    ("tile_sym", Value::from(t.name())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        )]),
    }
}

/// Encode a dependence summary: totals by kind, precision, per-loop carried
/// counts, and the parallelizable loops.
pub fn dep_summary_to_value(s: &sdlo_deps::DepSummary) -> Value {
    Value::obj(vec![
        ("total", Value::from(s.total)),
        ("flow", Value::from(s.flow)),
        ("anti", Value::from(s.anti)),
        ("output", Value::from(s.output)),
        ("precise", Value::from(s.precise)),
        (
            "carried",
            Value::Object(
                s.carried
                    .iter()
                    .map(|(l, n)| (l.clone(), Value::from(*n)))
                    .collect(),
            ),
        ),
        (
            "parallelizable",
            Value::Array(
                s.parallelizable
                    .iter()
                    .map(|l| Value::from(l.as_str()))
                    .collect(),
            ),
        ),
    ])
}

/// `{"tiles": {"Ti": 8, …}, "misses": n}` with tiles named by the search
/// space's symbols.
pub fn evaluation_to_value(tile_syms: &[String], e: &Evaluation) -> Value {
    Value::obj(vec![
        (
            "tiles",
            Value::Object(
                tile_syms
                    .iter()
                    .zip(&e.tiles)
                    .map(|(s, t)| (s.clone(), Value::from(*t)))
                    .collect(),
            ),
        ),
        ("misses", Value::from(e.misses)),
    ])
}

/// Encode a tile-search outcome: best point, evaluation count, completion
/// flag, wall time, frontier.
pub fn outcome_to_value(tile_syms: &[String], o: &SearchOutcome) -> Value {
    Value::obj(vec![
        ("best", evaluation_to_value(tile_syms, &o.best)),
        ("evaluations", Value::from(o.evaluations)),
        ("completed", Value::from(o.completed)),
        ("wall_micros", Value::from(o.wall_micros)),
        (
            "frontier",
            Value::Array(
                o.frontier
                    .iter()
                    .map(|e| evaluation_to_value(tile_syms, e))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs;

    #[test]
    fn program_roundtrips() {
        for p in [
            programs::matmul(),
            programs::tiled_matmul(),
            programs::two_index_unfused(),
            programs::two_index_fused(),
            programs::tiled_two_index(),
        ] {
            let v = program_to_value(&p);
            let text = v.render();
            let q = program_from_value(&crate::json::parse(&text).unwrap()).unwrap();
            // Labels are regenerated, so compare structure via canonical form.
            assert_eq!(
                sdlo_ir::canonicalize(&p).hash,
                sdlo_ir::canonicalize(&q).hash,
                "{}",
                p.name
            );
            assert_eq!(q.validate(), Ok(()));
            assert_eq!(q.name, p.name);
        }
    }

    #[test]
    fn stored_components_roundtrip() {
        for p in [
            programs::matmul(),
            programs::tiled_matmul(),
            programs::two_index_unfused(),
            programs::two_index_fused(),
            programs::tiled_two_index(),
        ] {
            let model = sdlo_core::MissModel::build(&p);
            for c in model.components() {
                let v = stored_component_to_value(c);
                let text = v.render();
                let back =
                    stored_component_from_value(&crate::json::parse(&text).unwrap()).unwrap();
                assert_eq!(back.array, c.array, "{}: {text}", p.name);
                assert_eq!(back.stmt, c.stmt);
                assert_eq!(back.ref_idx, c.ref_idx);
                assert_eq!(back.kind, c.kind);
                assert_eq!(back.count.to_string(), c.count.to_string());
                assert_eq!(
                    format!("{}", back.distance),
                    format!("{}", c.distance),
                    "{}: {text}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn stored_component_decode_rejects_garbage() {
        for bad in [
            r#"{"stmt":0,"ref":0,"reuse":{"kind":"compulsory"},"count":"1","distance":"inf"}"#,
            r#"{"array":0,"stmt":0,"ref":0,"reuse":{"kind":"warp"},"count":"1","distance":"inf"}"#,
            r#"{"array":0,"stmt":0,"ref":0,"reuse":{"kind":"carried"},"count":"1","distance":"inf"}"#,
            r#"{"array":0,"stmt":0,"ref":0,"reuse":{"kind":"compulsory"},"count":"N +","distance":"inf"}"#,
            r#"{"array":0,"stmt":0,"ref":0,"reuse":{"kind":"compulsory"},"count":"1","distance":{"x":1}}"#,
            r#"{"array":-1,"stmt":0,"ref":0,"reuse":{"kind":"compulsory"},"count":"1","distance":"inf"}"#,
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(
                matches!(stored_component_from_value(&v), Err(WireError::Schema(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn bindings_roundtrip() {
        let b = Bindings::new()
            .with("N", 512)
            .with("Ti", 64)
            .with("neg", -3);
        let v = bindings_to_value(&b);
        let b2 = bindings_from_value(&crate::json::parse(&v.render()).unwrap()).unwrap();
        assert_eq!(b2.get(&Sym::new("N")), Some(512));
        assert_eq!(b2.get(&Sym::new("Ti")), Some(64));
        assert_eq!(b2.get(&Sym::new("neg")), Some(-3));
    }

    #[test]
    fn diagnostic_encodes_span_and_fixit() {
        let p = programs::matmul();
        let diags = sdlo_analysis::lint(&p);
        let d = diags
            .iter()
            .find(|d| d.rule == "untiled-reuse")
            .expect("matmul has untiled reuse");
        let v = diagnostic_to_value(d);
        assert_eq!(v.get("rule").unwrap().as_str(), Some("untiled-reuse"));
        assert_eq!(v.get("severity").unwrap().as_str(), Some("warning"));
        assert!(v.get("span").unwrap().get("loop").is_some());
        let fx = v.get("fixit").unwrap();
        assert_eq!(fx.get("action").unwrap().as_str(), Some("tile-loop"));
        // The document renders and re-parses.
        let text = v.render();
        assert!(crate::json::parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn undeclared_array_is_schema_error() {
        let mut v = program_to_value(&programs::matmul());
        // Drop the declarations, keep the nest.
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "arrays" {
                    *val = Value::Array(vec![]);
                }
            }
        }
        assert!(matches!(program_from_value(&v), Err(WireError::Schema(_))));
    }

    #[test]
    fn bad_expression_reports_context() {
        let v =
            crate::json::parse(r#"{"name":"x","arrays":[{"name":"A","dims":["N +"]}],"nest":[]}"#)
                .unwrap();
        let err = program_from_value(&v).unwrap_err();
        assert!(err.to_string().contains("extent"), "{err}");
    }

    #[test]
    fn invalid_program_fails_validation() {
        // A reference using an index with no enclosing loop.
        let v = crate::json::parse(
            r#"{"name":"x","arrays":[{"name":"A","dims":["N"]}],
                "nest":[{"stmt":{"kind":"zero",
                         "refs":[{"array":"A","write":true,
                                  "dims":[[{"index":"i"}]]}]}}]}"#,
        )
        .unwrap();
        assert!(matches!(
            program_from_value(&v),
            Err(WireError::Validate(_))
        ));
    }
}
