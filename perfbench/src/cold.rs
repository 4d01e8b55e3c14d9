//! `cold-explore`: two threads drive one `Arc<Engine>` through
//! `handle_line`, no sockets. Each session brings a never-seen shape — a
//! seeded tensor contraction, tiled and sometimes permuted, sent inline —
//! and runs `lint` → `analyze` → `advise` (pruned, completes) → cold
//! `revise` plus warm tile deltas → `predict` at the advised tile. Time goes
//! to canonicalisation, model build, dependence analysis, tile search, DAG
//! build and revise, and model-store inserts, evictions and disk writes.
//!
//! Each load thread runs its calls inside a one-worker rayon pool, so the
//! tile search runs on the thread that asked for it: two load threads keep
//! the two cores busy without spawning search workers per call, whose
//! start-up cost on a shared virtual host swings from run to run.

use crate::common::{median_setup, set_stream, Event, Metrics, Outcome, Rng, Samples, SETUP_REPS};
use crate::gen;
use crate::trace::{Recorder, Span};
use sdlo_core::dag::{DagDelta, ModelDag};
use sdlo_core::MissModel;
use sdlo_service::{Engine, EngineConfig};
use sdlo_symbolic::Bindings;
use sdlo_tilesearch::{SearchSpace, TileSearcher};
use sdlo_wire::Value;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Warm tile deltas per session.
const WARM_DELTAS: usize = 16;
/// Sessions generated during set-up and run as the warm-up; it matches the
/// engine's default memory-store capacity. Later sessions are generated on
/// demand, outside the session timer.
const POOL: usize = 256;
const OPS: [&str; 5] = ["lint", "analyze", "advise", "revise", "predict"];
const MIN_TILE: u64 = 4;

/// One session's input: the program as a wire value plus its bindings.
struct SessionInput {
    program: sdlo_ir::Program,
    program_json: Value,
    /// Loop-bound bindings (no tile symbols).
    bounds: Bindings,
    tile_syms: Vec<String>,
    tile_max: Vec<u64>,
    cache: u64,
    /// Seeded choices for the warm deltas.
    seed: u64,
}

/// Deterministic stream of never-seen shapes: a shape whose canonical hash
/// was already produced is skipped.
struct Generator {
    rng: Rng,
    seen: HashSet<u64>,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            rng: Rng::new(seed),
            seen: HashSet::new(),
        }
    }

    fn next(&mut self) -> SessionInput {
        loop {
            let v = *self.rng.pick(&[64i128, 128]);
            let n = *self.rng.pick(&[64i128, 128, 256]);
            let sizes = Bindings::new().with("V", v).with("N", n);
            let Some(g) = gen::program(&mut self.rng, &sizes, 3) else {
                continue;
            };
            if !self.seen.insert(sdlo_ir::canonical_hash(&g.program)) {
                continue;
            }
            let Some(tile_max) = g
                .tiles
                .iter()
                .map(|(_, bound)| bound.eval(&sizes).ok().map(|b| b as u64))
                .collect::<Option<Vec<u64>>>()
            else {
                continue;
            };
            if tile_max.iter().any(|m| *m < MIN_TILE) {
                continue;
            }
            let cache = *self.rng.pick(&[2048u64, 8192, 32768]);
            return SessionInput {
                program_json: sdlo_wire::program_to_value(&g.program),
                program: g.program,
                bounds: sizes,
                tile_syms: g.tiles.into_iter().map(|(s, _)| s).collect(),
                tile_max,
                cache,
                seed: self.rng.next_u64(),
            };
        }
    }
}

/// Sessions handed to the load threads in generation order: the first
/// `POOL` generated during set-up, the rest on demand. Nothing past the
/// pool is kept, so memory does not grow with throughput.
struct Pool {
    ready: Vec<Arc<SessionInput>>,
    /// The next session number and the generator that continues the pool.
    /// Numbering and generation share one lock, so session `k` is always
    /// the `k`-th generated — the post-run check regenerates by number.
    more: Mutex<(usize, Generator)>,
}

impl Pool {
    /// The next session and its number, unless `limit` sessions were taken.
    fn take(&self, limit: usize) -> Option<(usize, Arc<SessionInput>)> {
        let mut more = self.more.lock().expect("generator lock poisoned");
        let (next, gen) = &mut *more;
        let k = *next;
        if k >= limit {
            return None;
        }
        *next += 1;
        let s = match self.ready.get(k) {
            Some(s) => Arc::clone(s),
            None => Arc::new(gen.next()),
        };
        Some((k, s))
    }
}

struct Setup {
    engine: Arc<Engine>,
    pool: Pool,
    dir: PathBuf,
    seed: u64,
}

fn setup(seed: u64, work: &Path, n: usize) -> Setup {
    let dir = work.join(format!("cold-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the model-cache directory");
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    }));
    let mut gen = Generator::new(seed);
    let ready = (0..POOL).map(|_| Arc::new(gen.next())).collect();
    Setup {
        engine,
        pool: Pool {
            ready,
            more: Mutex::new((0, gen)),
        },
        dir,
        seed,
    }
}

/// Per-thread measurements.
#[derive(Default)]
struct Driven {
    out: Outcome,
    sessions: Vec<Event>,
    calls: Vec<Event>,
    op_us: [Samples; 5],
    /// Warm revise points to re-check against `predict` after the run:
    /// session number, tile sizes, count.
    checks: Vec<(usize, Vec<u64>, u64)>,
    warm: u64,
    revises: u64,
    nodes_reevaluated: Samples,
    // Traced runs only.
    render_us: Samples,
    parse_us: Samples,
    request_bytes: Samples,
    canon_us: Samples,
    build_us: Samples,
    components: Samples,
    distance_us: Samples,
    dag_build_us: Samples,
    core_revise_us: Samples,
    pruned_us: Samples,
    evaluations: Samples,
    eval_ratio: Samples,
    lint_us: Samples,
    deps_us: Samples,
    spans: Vec<Span>,
}

fn with(bindings: &Bindings, syms: &[String], tiles: &[u64]) -> Bindings {
    let mut b = bindings.clone();
    for (s, t) in syms.iter().zip(tiles) {
        b.set(s.as_str(), *t as i128);
    }
    b
}

fn tile_value(syms: &[String], tiles: &[u64]) -> Value {
    Value::Object(
        syms.iter()
            .zip(tiles)
            .map(|(s, t)| (s.clone(), Value::from(*t)))
            .collect(),
    )
}

/// One engine call: render, handle, parse; timed and (when traced) spanned.
struct Caller<'a> {
    engine: &'a Engine,
    start: Instant,
    rec: Recorder,
    d: Driven,
}

impl Caller<'_> {
    fn call(
        &mut self,
        op: usize,
        fields: Vec<(&str, Value)>,
        parent: u64,
        req: u64,
    ) -> Option<Value> {
        self.d.out.attempted += 1;
        let t0 = Instant::now();
        let line = Value::obj(fields).render();
        let t1 = Instant::now();
        let reply = self.engine.handle_line(&line);
        let t2 = Instant::now();
        let parsed = sdlo_wire::parse(&reply);
        let t3 = Instant::now();
        self.d.calls.push(Event::new(self.start, t0, t3, 1.0));
        self.d.op_us[op].push_micros(t2 - t1);
        if self.rec.enabled() {
            let id = self.rec.reserve();
            self.rec.record("wire.render", Some(id), req, t0, t1);
            self.rec.record("engine.call", Some(id), req, t1, t2);
            self.rec.record("wire.parse", Some(id), req, t2, t3);
            self.rec
                .record_as(id, OP_SPANS[op], Some(parent), req, t0, t3);
            self.d.render_us.push_micros(t1 - t0);
            self.d.parse_us.push_micros(t3 - t2);
            self.d.request_bytes.push(line.len() as f64);
        }
        match parsed {
            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => Some(v),
            Ok(v) => {
                self.d.out.fail(format!("{}: {}", OPS[op], v.render()));
                None
            }
            Err(e) => {
                self.d
                    .out
                    .fail(format!("{}: unparseable reply: {e}", OPS[op]));
                None
            }
        }
    }
}

const OP_SPANS: [&str; 5] = [
    "bench.lint",
    "bench.analyze",
    "bench.advise",
    "bench.revise",
    "bench.predict",
];

fn misses_at(reply: &Value, cache: u64) -> Option<u64> {
    reply
        .get("misses")
        .and_then(|m| m.get(&cache.to_string()))
        .and_then(Value::as_u64)
}

/// One timed session; returns `false` if it had to stop early.
fn session(c: &mut Caller<'_>, s: &SessionInput, req: u64) -> bool {
    let root = c.rec.reserve();
    let failed = c.d.out.failed;
    let t0 = Instant::now();
    let ok = session_calls(c, s, root, req).is_some();
    let t1 = Instant::now();
    c.d.sessions.push(Event::new(c.start, t0, t1, 1.0));
    c.rec.record_as(root, "bench.session", None, req, t0, t1);
    if !ok && c.d.out.failed == failed {
        c.d.out
            .fail(format!("session {req} stopped on a malformed reply"));
    }
    ok
}

/// The session's engine calls and in-session checks; `None` when a reply
/// leaves nothing to continue with.
fn session_calls(c: &mut Caller<'_>, s: &SessionInput, root: u64, req: u64) -> Option<()> {
    let prog = || s.program_json.clone();
    c.call(
        0,
        vec![("op", Value::from("lint")), ("program", prog())],
        root,
        req,
    )?;
    let analyze = c.call(
        1,
        vec![("op", Value::from("analyze")), ("program", prog())],
        root,
        req,
    )?;
    let base = analyze.get("shape").and_then(Value::as_str)?.to_string();
    let space = Value::obj(vec![
        (
            "syms",
            Value::Array(
                s.tile_syms
                    .iter()
                    .map(|t| Value::from(t.as_str()))
                    .collect(),
            ),
        ),
        (
            "max",
            Value::Array(s.tile_max.iter().map(|m| Value::from(*m)).collect()),
        ),
        ("min", Value::from(MIN_TILE)),
    ]);
    let advise = c.call(
        2,
        vec![
            ("op", Value::from("advise")),
            ("program", prog()),
            ("bindings", sdlo_wire::bindings_to_value(&s.bounds)),
            ("cache", Value::from(s.cache)),
            ("space", space),
        ],
        root,
        req,
    )?;
    if advise.get("completed").and_then(Value::as_bool) != Some(true) {
        c.d.out.fail("advise did not complete".into());
        return None;
    }
    let best = advise.path(&["outcome", "best"])?;
    let best_misses = best.get("misses").and_then(Value::as_u64)?;
    let advised: Vec<u64> = s
        .tile_syms
        .iter()
        .map(|t| best.path(&["tiles", t]).and_then(Value::as_u64))
        .collect::<Option<_>>()?;
    let full = with(&s.bounds, &s.tile_syms, &advised);
    let cold = c.call(
        3,
        vec![
            ("op", Value::from("revise")),
            ("base", Value::from(base.as_str())),
            ("program", prog()),
            (
                "delta",
                Value::obj(vec![
                    ("bindings", sdlo_wire::bindings_to_value(&full)),
                    ("cache_sizes", Value::Array(vec![Value::from(s.cache)])),
                ]),
            ),
        ],
        root,
        req,
    )?;
    c.d.revises += 1;
    if cold.get("revised").and_then(Value::as_bool) != Some(false)
        || misses_at(&cold, s.cache) != Some(best_misses)
    {
        c.d.out.fail(format!(
            "cold revise disagrees with advise: {}",
            cold.render()
        ));
    }
    let mut rng = Rng::new(s.seed);
    let mut tiles = advised.clone();
    let mut seen: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
    for k in 0..WARM_DELTAS {
        // Move one or two tile sizes to another power of two; the last
        // delta returns to the advised tile.
        let mut delta = Vec::new();
        if k + 1 == WARM_DELTAS {
            delta.extend(0..tiles.len());
            tiles.clone_from(&advised);
        } else {
            for _ in 0..1 + rng.below(2) {
                let d = rng.below(tiles.len());
                let steps = (s.tile_max[d] / MIN_TILE).ilog2() + 1;
                tiles[d] = MIN_TILE << rng.below(steps as usize);
                delta.push(d);
            }
        }
        delta.sort_unstable();
        delta.dedup();
        let syms: Vec<String> = delta.iter().map(|&d| s.tile_syms[d].clone()).collect();
        let vals: Vec<u64> = delta.iter().map(|&d| tiles[d]).collect();
        let warm = c.call(
            3,
            vec![
                ("op", Value::from("revise")),
                ("base", Value::from(base.as_str())),
                (
                    "delta",
                    Value::obj(vec![("bindings", tile_value(&syms, &vals))]),
                ),
            ],
            root,
            req,
        )?;
        c.d.revises += 1;
        if warm.get("revised").and_then(Value::as_bool) == Some(true) {
            c.d.warm += 1;
        }
        if let Some(n) = warm
            .path(&["revise", "nodes_reevaluated"])
            .and_then(Value::as_u64)
        {
            c.d.nodes_reevaluated.push(n as f64);
        }
        match misses_at(&warm, s.cache) {
            Some(m) => {
                if *seen.entry(tiles.clone()).or_insert(m) != m {
                    c.d.out
                        .fail(format!("warm revise at {tiles:?} changed its count to {m}"));
                }
            }
            None => {
                c.d.out
                    .fail(format!("warm revise without a count: {}", warm.render()))
            }
        }
    }
    // The advised point is checked against `predict` below; every
    // other distinct point is re-checked after the run.
    let advised_count = seen.remove(&advised);
    for (t, m) in seen {
        c.d.checks.push((req as usize, t, m));
    }
    let predict = c.call(
        4,
        vec![
            ("op", Value::from("predict")),
            ("program", prog()),
            ("bindings", sdlo_wire::bindings_to_value(&full)),
            ("cache", Value::from(s.cache)),
        ],
        root,
        req,
    )?;
    if predict.get("misses").and_then(Value::as_u64) != Some(best_misses)
        || advised_count != Some(best_misses)
    {
        c.d.out.fail(format!(
            "at the advised tile: advise {best_misses}, warm revise {advised_count:?}, predict {}",
            predict.render()
        ));
    }
    Some(())
}

/// Traced runs: time each layer the session exercises by calling it
/// directly on the session's own program, outside the session timer.
fn probe(c: &mut Caller<'_>, s: &SessionInput, req: u64) {
    let rec = &mut c.rec;
    let d = &mut c.d;
    let timed =
        |name: &'static str, samples: &mut Samples, rec: &mut Recorder, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            let t1 = Instant::now();
            samples.push_micros(t1 - t0);
            rec.record(name, None, req, t0, t1);
        };
    timed("ir.canonicalize", &mut d.canon_us, rec, &mut || {
        std::hint::black_box(sdlo_ir::canonicalize(&s.program));
    });
    timed("analysis.lint", &mut d.lint_us, rec, &mut || {
        std::hint::black_box(sdlo_analysis::lint(&s.program));
    });
    timed("deps.analyze", &mut d.deps_us, rec, &mut || {
        std::hint::black_box(sdlo_deps::analyze(&s.program));
    });
    let mut model = None;
    timed("core.model_build", &mut d.build_us, rec, &mut || {
        model = Some(MissModel::build(&s.program));
    });
    let model = model.expect("model built");
    d.components.push(model.components().len() as f64);
    let space = SearchSpace {
        tile_syms: s.tile_syms.clone(),
        max: s.tile_max.clone(),
        min: MIN_TILE,
    };
    let grid: u64 = s
        .tile_max
        .iter()
        .map(|m| (m / MIN_TILE).ilog2() as u64 + 1)
        .product();
    let mut best = Vec::new();
    let mut evals = 0;
    timed("tilesearch.pruned", &mut d.pruned_us, rec, &mut || {
        let o = TileSearcher::new(&model, s.bounds.clone(), s.cache, space.clone()).pruned();
        evals = o.evaluations;
        best = o.best.tiles;
    });
    d.evaluations.push(evals as f64);
    d.eval_ratio.push(evals as f64 / grid as f64);
    let full = with(&s.bounds, &s.tile_syms, &best);
    timed(
        "symbolic.distance_values",
        &mut d.distance_us,
        rec,
        &mut || {
            std::hint::black_box(model.distance_values(&full).ok());
        },
    );
    let mut dag = None;
    timed("core.dag_build", &mut d.dag_build_us, rec, &mut || {
        dag = ModelDag::new(&model, full.clone(), &[s.cache]).ok();
    });
    let Some(mut dag) = dag else { return };
    let mut rng = Rng::new(s.seed);
    for _ in 0..WARM_DELTAS {
        let k = rng.below(best.len());
        let steps = (s.tile_max[k] / MIN_TILE).ilog2() + 1;
        let delta = DagDelta {
            bindings: Bindings::new().with(
                s.tile_syms[k].as_str(),
                (MIN_TILE << rng.below(steps as usize)) as i128,
            ),
            cache_sizes: None,
        };
        timed("core.revise", &mut d.core_revise_us, rec, &mut || {
            std::hint::black_box(dag.revise(&delta).ok());
        });
    }
}

/// Run sessions until `deadline` or until session number `limit` is
/// reached.
fn drive(
    engine: &Engine,
    pool: &Pool,
    start: Instant,
    deadline: Instant,
    limit: usize,
    rec: Recorder,
) -> Driven {
    let mut c = Caller {
        engine,
        start,
        rec,
        d: Driven::default(),
    };
    while Instant::now() < deadline {
        let Some((k, s)) = pool.take(limit) else {
            break;
        };
        let req = k as u64;
        if !session(&mut c, &s, req) {
            continue;
        }
        if c.rec.enabled() {
            probe(&mut c, &s, req);
        }
    }
    let mut d = c.d;
    d.spans = std::mem::take(&mut c.rec.spans);
    d
}

/// Both load threads for `seconds`, or through session number `limit`,
/// each with a one-worker search pool.
fn measure(
    setup: &Setup,
    seconds: f64,
    limit: usize,
    traced: bool,
    epoch: Instant,
) -> (Vec<Driven>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let driven = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let rec = Recorder::new(epoch, 10 + t, traced);
                sc.spawn(move || {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(1)
                        .build()
                        .expect("one-worker pool");
                    pool.install(|| drive(&setup.engine, &setup.pool, start, deadline, limit, rec))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cold load thread"))
            .collect::<Vec<_>>()
    });
    (driven, start.elapsed().as_secs_f64())
}

/// Every warm revise count must equal the batch evaluator,
/// `MissModel::predict_misses`, at the same point. Runs after the timed
/// phase on both cores; sessions are regenerated from the seed one at a
/// time rather than kept, so memory does not grow with throughput.
fn verify(setup: &Setup, driven: &[Driven], out: &mut Outcome) {
    let mut checks: Vec<&(usize, Vec<u64>, u64)> = driven.iter().flat_map(|d| &d.checks).collect();
    checks.sort_by_key(|c| c.0);
    let half = checks.len().div_ceil(2).max(1);
    let results: Vec<Outcome> = std::thread::scope(|sc| {
        let handles: Vec<_> = checks
            .chunks(half)
            .map(|chunk| {
                sc.spawn(move || {
                    let mut o = Outcome::default();
                    let mut gen = Generator::new(setup.seed);
                    let mut n = 0;
                    let mut s = gen.next();
                    let mut model = None;
                    for (k, tiles, count) in chunk {
                        while n < *k {
                            (n, s, model) = (n + 1, gen.next(), None);
                        }
                        let model = model.get_or_insert_with(|| MissModel::build(&s.program));
                        o.attempted += 1;
                        let got =
                            model.predict_misses(&with(&s.bounds, &s.tile_syms, tiles), s.cache);
                        if got.as_ref().ok() != Some(count) {
                            o.fail(format!(
                                "session {k}: warm revise {count} != predict {got:?}"
                            ));
                        }
                    }
                    o
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread"))
            .collect()
    });
    for o in results {
        out.absorb(o);
    }
}

fn merged(driven: &[Driven], f: impl Fn(&Driven) -> &Samples) -> Samples {
    let mut s = Samples::default();
    for d in driven {
        s.extend(f(d).clone());
    }
    s
}

fn scrape(engine: &Engine) -> String {
    let reply = engine.handle_line(r#"{"op":"metrics"}"#);
    sdlo_wire::parse(&reply)
        .ok()
        .and_then(|v| v.get("text").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
    work: &Path,
    spans: &mut Vec<Span>,
) -> Outcome {
    let mut n = 0;
    let (setup_s, setup) = median_setup(
        SETUP_REPS,
        || {
            n += 1;
            setup(seed, work, n)
        },
        |s: Setup| {
            let _ = std::fs::remove_dir_all(&s.dir);
        },
    );
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s, "s", SETUP_REPS);

    let report = |driven: &[Driven], secs: f64, m: &mut Metrics| {
        let events =
            |f: fn(&Driven) -> &Vec<Event>| driven.iter().flat_map(f).copied().collect::<Vec<_>>();
        set_stream(m, "primary", &events(|d| &d.sessions), secs);
        set_stream(m, "secondary", &events(|d| &d.calls), secs);
    };

    // Warm-up, untimed but checked: the set-up's sessions fill the memory
    // store to capacity, so the timed phase sees steady-state evictions.
    let (warm, _) = measure(&setup, 3600.0, POOL, false, epoch);
    verify(&setup, &warm, &mut out);
    for d in warm {
        out.absorb(d.out);
    }

    if !traced {
        let (driven, secs) = measure(&setup, seconds, usize::MAX, false, epoch);
        report(&driven, secs, &mut out.metrics);
        verify(&setup, &driven, &mut out);
        for d in driven {
            out.absorb(d.out);
        }
        let _ = std::fs::remove_dir_all(&setup.dir);
        return out;
    }

    let half = seconds / 2.0;
    let (base, base_secs) = measure(&setup, half, usize::MAX, false, epoch);
    let mut base_m = Metrics::default();
    report(&base, base_secs, &mut base_m);
    let store0 = scrape(&setup.engine);
    let (driven, secs) = measure(&setup, half, usize::MAX, true, epoch);
    let store1 = scrape(&setup.engine);
    let mut traced_m = Metrics::default();
    report(&driven, secs, &mut traced_m);
    verify(&setup, &base, &mut out);
    verify(&setup, &driven, &mut out);

    let m = &mut out.metrics;
    let rate0 = base_m.get("primary_per_s").unwrap_or(0.0);
    let rate1 = traced_m.get("primary_per_s").unwrap_or(0.0);
    m.set(
        "trace.overhead_pct",
        100.0 * (rate0 - rate1) / rate0.max(f64::MIN_POSITIVE),
        "%",
        2,
    );
    for (i, op) in OPS.iter().enumerate() {
        let s = merged(&driven, |d| &d.op_us[i]);
        m.set(format!("engine.{op}_us.p50"), s.p50(), "us", s.len());
    }
    crate::store_metrics(&store0, &store1, m);
    let warm: u64 = driven.iter().map(|d| d.warm).sum();
    let revises: u64 = driven.iter().map(|d| d.revises).sum();
    m.set(
        "revise.warm_ratio",
        warm as f64 / revises.max(1) as f64,
        "ratio",
        revises as usize,
    );
    let nodes = merged(&driven, |d| &d.nodes_reevaluated);
    m.set(
        "revise.nodes_reevaluated.mean",
        nodes.mean(),
        "count",
        nodes.len(),
    );
    let p50 = |m: &mut Metrics, name: &str, s: Samples| m.set(name, s.p50(), "us", s.len());
    p50(m, "wire.parse_us.p50", merged(&driven, |d| &d.parse_us));
    p50(m, "wire.render_us.p50", merged(&driven, |d| &d.render_us));
    let bytes = merged(&driven, |d| &d.request_bytes);
    m.set(
        "wire.request_bytes.mean",
        bytes.mean(),
        "bytes",
        bytes.len(),
    );
    p50(
        m,
        "ir.canonicalize_us.p50",
        merged(&driven, |d| &d.canon_us),
    );
    p50(
        m,
        "core.model_build_us.p50",
        merged(&driven, |d| &d.build_us),
    );
    let comps = merged(&driven, |d| &d.components);
    m.set("core.components.mean", comps.mean(), "count", comps.len());
    p50(
        m,
        "core.dag_build_us.p50",
        merged(&driven, |d| &d.dag_build_us),
    );
    p50(
        m,
        "core.revise_us.p50",
        merged(&driven, |d| &d.core_revise_us),
    );
    p50(
        m,
        "symbolic.distance_values_us.p50",
        merged(&driven, |d| &d.distance_us),
    );
    m.p50_p90(
        "tilesearch.pruned_us",
        &merged(&driven, |d| &d.pruned_us),
        "us",
    );
    let evals = merged(&driven, |d| &d.evaluations);
    m.set(
        "tilesearch.evaluations.mean",
        evals.mean(),
        "count",
        evals.len(),
    );
    let ratio = merged(&driven, |d| &d.eval_ratio);
    m.set("tilesearch.eval_ratio", ratio.mean(), "ratio", ratio.len());
    p50(m, "analysis.lint_us.p50", merged(&driven, |d| &d.lint_us));
    p50(m, "deps.analyze_us.p50", merged(&driven, |d| &d.deps_us));

    for d in base {
        out.absorb(d.out);
    }
    for mut d in driven {
        spans.append(&mut d.spans);
        out.absorb(d.out);
    }
    let _ = std::fs::remove_dir_all(&setup.dir);
    out
}
