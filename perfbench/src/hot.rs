//! `hot-predict`: the service and a one-backend router run in-process; one
//! closed-loop connection goes straight to the service, the other through
//! the router. Every shape is warmed during set-up, so each request is a
//! memory-store hit and evaluation takes microseconds: the time goes to the
//! client write path, sockets, the reactor, the router hop and JSON
//! parse/render.

use crate::common::{
    fnv1a, median_setup, prom_sum, set_stream, windowed, Event, Outcome, Rng, Samples, FNV_OFFSET,
    SETUP_REPS,
};
use crate::trace::{Recorder, Span};
use sdlo_core::MissModel;
use sdlo_ir::programs::{builtin, BUILTIN_NAMES};
use sdlo_router::{RouterConfig, RouterHandle};
use sdlo_service::{serve, Client, ServerConfig, ServerHandle};
use sdlo_symbolic::{Bindings, Sym};
use sdlo_wire::Value;
use std::time::{Duration, Instant};

/// The paper's Table 3 anchors: `tiled_matmul`, N=512, C=8192.
const ANCHORS: [(u64, u64); 2] = [(64, 6_291_456), (32, 8_650_752)];

const BOUNDS: [i128; 3] = [128, 256, 512];
const TILES: [i128; 3] = [16, 32, 64];
const CACHES: [u64; 3] = [1024, 8192, 32768];

/// What a correct reply to a shape carries.
#[derive(Debug, Clone)]
enum Expect {
    Misses(u64),
    Analyze { shape: String, components: usize },
}

/// One request of the fixed shape set, without its correlation ids.
struct Shape {
    op: &'static str,
    program: &'static str,
    bindings: Bindings,
    cache: u64,
    expect: Expect,
    /// Index into the builtin models, for the traced `core.predict` probe.
    model: usize,
}

impl Shape {
    fn request(&self, id: u64, request_id: &str, timing: bool) -> Value {
        let mut fields = vec![
            ("op", Value::from(self.op)),
            ("id", Value::from(id)),
            ("request_id", Value::from(request_id)),
            ("program", Value::from(self.program)),
        ];
        if self.op == "predict" {
            fields.push(("bindings", sdlo_wire::bindings_to_value(&self.bindings)));
            fields.push(("cache", Value::from(self.cache)));
        }
        if timing {
            fields.push(("server_timing", Value::from(true)));
        }
        Value::obj(fields)
    }
}

/// The fixed shape set: every builtin at every bound/tile/cache choice,
/// plus one `analyze` per builtin. Expected answers come from the library
/// model, independent of the service path.
fn shapes(models: &[MissModel]) -> Vec<Shape> {
    let mut out = Vec::new();
    for (m, name) in BUILTIN_NAMES.iter().enumerate() {
        let program = builtin(name).expect("builtin exists");
        let syms = program.free_symbols();
        let tiled = syms.iter().any(|s| s.name().starts_with('T'));
        for &n in &BOUNDS {
            for &t in if tiled { &TILES[..] } else { &TILES[..1] } {
                for &cache in &CACHES {
                    let mut b = Bindings::new();
                    for s in &syms {
                        b.set(s.name(), if s.name().starts_with('T') { t } else { n });
                    }
                    let Ok(misses) = models[m].predict_misses(&b, cache) else {
                        continue;
                    };
                    out.push(Shape {
                        op: "predict",
                        program: name,
                        bindings: b,
                        cache,
                        expect: Expect::Misses(misses),
                        model: m,
                    });
                }
            }
        }
        out.push(Shape {
            op: "analyze",
            program: name,
            bindings: Bindings::new(),
            cache: 0,
            expect: Expect::Analyze {
                shape: format!("{:016x}", sdlo_ir::canonical_hash(&program)),
                components: models[m].components().len(),
            },
            model: m,
        });
    }
    out
}

/// The request stream both connections replay, in the same order: ~90%
/// `predict`, ~10% `analyze`, shapes uniform within each op.
struct Stream {
    rng: Rng,
    predicts: Vec<usize>,
    analyzes: Vec<usize>,
}

impl Stream {
    fn new(seed: u64, shapes: &[Shape]) -> Self {
        let idx = |op: &str| {
            (0..shapes.len())
                .filter(|&i| shapes[i].op == op)
                .collect::<Vec<_>>()
        };
        Stream {
            rng: Rng::new(seed),
            predicts: idx("predict"),
            analyzes: idx("analyze"),
        }
    }

    fn next(&mut self) -> usize {
        if self.rng.chance(1, 10) {
            *self.rng.pick(&self.analyzes)
        } else {
            *self.rng.pick(&self.predicts)
        }
    }
}

struct Fleet {
    server: ServerHandle,
    router: RouterHandle,
    direct: Client,
    routed: Client,
}

impl Fleet {
    fn stop(self) {
        drop(self.direct);
        drop(self.routed);
        self.router.shutdown();
        self.server.shutdown();
    }
}

/// Start the service and the router, warm every shape through the engine,
/// and open both connections.
fn start(shapes: &[Shape]) -> Fleet {
    let server = serve(ServerConfig::default()).expect("service binds a loopback port");
    let router = sdlo_router::serve(RouterConfig {
        backends: vec![server.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router binds a loopback port");
    let engine = server.engine();
    for (i, s) in shapes.iter().enumerate() {
        let reply = engine.handle_line(&s.request(i as u64, "warm", false).render());
        assert!(reply.contains("\"ok\":true"), "warm-up failed: {reply}");
    }
    let connect = |addr| {
        let c = Client::connect(addr).expect("loopback connect");
        c.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        c
    };
    let direct = connect(server.addr());
    let routed = connect(router.addr());
    Fleet {
        server,
        router,
        direct,
        routed,
    }
}

/// A reply with its per-request parts removed: the `request_id` value and
/// the opt-in `timing` object. Direct and routed replies to the same line
/// must agree on every remaining byte.
fn normalize(reply: &str) -> String {
    let mut s = reply.to_string();
    if let Some(at) = s.find("\"request_id\":\"") {
        let vstart = at + "\"request_id\":\"".len();
        if let Some(len) = s[vstart..].find('"') {
            s.replace_range(vstart..vstart + len, "");
        }
    }
    if let Some(at) = s.rfind(",\"timing\":{") {
        s.truncate(at);
        s.push('}');
    }
    s
}

/// What one load thread measured.
#[derive(Default)]
struct PathResult {
    out: Outcome,
    events: Vec<Event>,
    /// Fingerprints of normalized replies, in stream order.
    replies: Vec<u64>,
    // Traced runs only.
    client_us: Samples,
    queue_us: Samples,
    exec_us: Samples,
    write_us: Samples,
    residual_us: Samples,
    render_us: Samples,
    parse_us: Samples,
    request_bytes: Samples,
    predict_us: Samples,
    spans: Vec<Span>,
}

fn check(shape: &Shape, reply: &Value) -> Result<(), String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("not ok: {}", reply.render()));
    }
    match &shape.expect {
        Expect::Misses(want) => {
            let got = reply.get("misses").and_then(Value::as_u64);
            if got != Some(*want) {
                return Err(format!("{} misses {got:?} != {want}", shape.program));
            }
            if shape.program == "tiled_matmul" && shape.cache == 8192 {
                let n = shape.bindings.get(&Sym::new("Ni"));
                let t = shape.bindings.get(&Sym::new("Ti"));
                for (tile, anchor) in ANCHORS {
                    if n == Some(512) && t == Some(tile as i128) && got != Some(anchor) {
                        return Err(format!("Table 3 anchor T={tile}: {got:?} != {anchor}"));
                    }
                }
            }
        }
        Expect::Analyze {
            shape: h,
            components,
        } => {
            let got_h = reply.get("shape").and_then(Value::as_str);
            let got_c = reply
                .get("components")
                .and_then(Value::as_array)
                .map(<[Value]>::len);
            if got_h != Some(h.as_str()) || got_c != Some(*components) {
                return Err(format!("analyze {}: {got_h:?}/{got_c:?}", shape.program));
            }
        }
    }
    Ok(())
}

/// Drive one connection closed-loop until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    routed: bool,
    seed: u64,
    shapes: &[Shape],
    models: &[MissModel],
    start: Instant,
    deadline: Instant,
    mut rec: Recorder,
) -> PathResult {
    let mut r = PathResult::default();
    let mut stream = Stream::new(seed, shapes);
    let traced = rec.enabled();
    let tag = if routed { 'r' } else { 'd' };
    let mut n = 0u64;
    while Instant::now() < deadline {
        let shape = &shapes[stream.next()];
        let request_id = format!("{tag}-{n}");
        let req_no = n;
        n += 1;
        r.out.attempted += 1;
        let root = rec.reserve();
        let t0 = Instant::now();
        let line = shape.request(req_no, &request_id, traced).render();
        let t1 = Instant::now();
        let reply = client.request_line(&line);
        let t2 = Instant::now();
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                r.out.fail(format!("{tag}: transport: {e}"));
                break;
            }
        };
        let parsed = sdlo_wire::parse(&reply);
        let t3 = Instant::now();
        r.events.push(Event::new(start, t0, t3, 1.0));
        r.replies
            .push(fnv1a(normalize(&reply).as_bytes(), FNV_OFFSET));
        let parsed = match parsed {
            Ok(v) => v,
            Err(e) => {
                r.out.fail(format!("{tag}: unparseable reply: {e}"));
                continue;
            }
        };
        if let Err(e) = check(shape, &parsed) {
            r.out.fail(format!("{tag}: {e}"));
        }
        if !traced {
            continue;
        }
        rec.record("wire.render", Some(root), req_no, t0, t1);
        let client_span = if routed {
            "router.client"
        } else {
            "service.client"
        };
        rec.record(client_span, Some(root), req_no, t1, t2);
        rec.record("wire.parse", Some(root), req_no, t2, t3);
        rec.record_as(root, "bench.request", None, req_no, t0, t3);
        r.render_us.push_micros(t1 - t0);
        r.parse_us.push_micros(t3 - t2);
        r.request_bytes.push(line.len() as f64 + 1.0);
        let client_us = (t2 - t1).as_secs_f64() * 1e6;
        r.client_us.push(client_us);
        if let Some(timing) = parsed.get("timing") {
            let field = |k| timing.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
            let (q, e, w) = (
                field("queue_micros"),
                field("exec_micros"),
                field("write_micros"),
            );
            r.queue_us.push(q);
            r.exec_us.push(e);
            r.write_us.push(w);
            r.residual_us.push(client_us - (q + e + w));
        }
        if shape.op == "predict" {
            let p0 = Instant::now();
            let m = models[shape.model].predict_misses(&shape.bindings, shape.cache);
            let p1 = Instant::now();
            std::hint::black_box(m.ok());
            r.predict_us.push_micros(p1 - p0);
            rec.record("core.predict", None, req_no, p0, p1);
        }
    }
    r.spans = std::mem::take(&mut rec.spans);
    r
}

/// Router-side rollups: (latency sum µs, latency count, retries).
fn router_scrape(router: &RouterHandle) -> (f64, f64, f64) {
    let mut c = Client::connect(router.addr()).expect("loopback connect");
    let reply = c
        .request(&Value::obj(vec![("op", Value::from("metrics"))]))
        .expect("router metrics");
    let text = reply.get("text").and_then(Value::as_str).unwrap_or("");
    (
        prom_sum(text, "sdlo_router_backend_latency_micros_sum"),
        prom_sum(text, "sdlo_router_backend_latency_micros_count"),
        prom_sum(text, "sdlo_router_backend_retries_total"),
    )
}

/// One measured phase of both connections.
struct Phase {
    direct: PathResult,
    routed: PathResult,
    seconds: f64,
}

fn measure(
    fleet: &mut Fleet,
    seed: u64,
    shapes: &[Shape],
    models: &[MissModel],
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (direct, routed) = std::thread::scope(|s| {
        let d = s.spawn(|| {
            let rec = Recorder::new(epoch, 1, traced);
            drive(
                &mut fleet.direct,
                false,
                seed,
                shapes,
                models,
                start,
                deadline,
                rec,
            )
        });
        let r = s.spawn(|| {
            let rec = Recorder::new(epoch, 2, traced);
            drive(
                &mut fleet.routed,
                true,
                seed,
                shapes,
                models,
                start,
                deadline,
                rec,
            )
        });
        (
            d.join().expect("direct load thread"),
            r.join().expect("routed load thread"),
        )
    });
    Phase {
        direct,
        routed,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Direct and routed replies to the same stream position must match.
fn compare(phase: &Phase, out: &mut Outcome) {
    let n = phase.direct.replies.len().min(phase.routed.replies.len());
    for i in 0..n {
        if phase.direct.replies[i] != phase.routed.replies[i] {
            out.fail(format!("direct and routed replies differ at request {i}"));
        }
    }
}

fn store_scrape(server: &ServerHandle) -> String {
    let reply = server.engine().handle_line(r#"{"op":"metrics"}"#);
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
    spans: &mut Vec<Span>,
) -> Outcome {
    let models: Vec<MissModel> = BUILTIN_NAMES
        .iter()
        .map(|n| MissModel::build(&builtin(n).expect("builtin exists")))
        .collect();
    let shapes = shapes(&models);
    let (setup_s, mut fleet) = median_setup(SETUP_REPS, || start(&shapes), Fleet::stop);
    let mut out = Outcome::default();
    let m = &mut out.metrics;
    m.set("setup_s", setup_s, "s", SETUP_REPS);

    if !traced {
        let phase = measure(&mut fleet, seed, &shapes, &models, seconds, false, epoch);
        let (d, r) = (&phase.direct, &phase.routed);
        set_stream(m, "primary", &d.events, phase.seconds);
        set_stream(m, "secondary", &r.events, phase.seconds);
        compare(&phase, &mut out);
        let Phase { direct, routed, .. } = phase;
        out.absorb(direct.out);
        out.absorb(routed.out);
        fleet.stop();
        return out;
    }

    // Traced: half the time untraced (the overhead baseline), half traced.
    let half = seconds / 2.0;
    let base = measure(&mut fleet, seed, &shapes, &models, half, false, epoch);
    let store0 = store_scrape(&fleet.server);
    let router0 = router_scrape(&fleet.router);
    let phase = measure(&mut fleet, seed, &shapes, &models, half, true, epoch);
    let store1 = store_scrape(&fleet.server);
    let router1 = router_scrape(&fleet.router);
    compare(&base, &mut out);
    compare(&phase, &mut out);

    let base_rate = windowed(&base.direct.events, base.seconds).rate;
    let traced_rate = windowed(&phase.direct.events, phase.seconds).rate;
    let d = &phase.direct;
    let r = &phase.routed;
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_pct",
        100.0 * (base_rate - traced_rate) / base_rate.max(f64::MIN_POSITIVE),
        "%",
        base.direct.events.len() + d.events.len(),
    );
    m.p50_p90("service.client_us", &d.client_us, "us");
    m.p50_p90("service.queue_us", &d.queue_us, "us");
    m.p50_p90("service.exec_us", &d.exec_us, "us");
    m.set(
        "service.write_us.p50",
        d.write_us.p50(),
        "us",
        d.write_us.len(),
    );
    m.p50_p90("service.residual_us", &d.residual_us, "us");
    let (sum0, cnt0, retries0) = router0;
    let (sum1, cnt1, retries1) = router1;
    let rtt = (sum1 - sum0) / (cnt1 - cnt0).max(1.0);
    m.set(
        "router.backend_rtt_us.mean",
        rtt,
        "us",
        (cnt1 - cnt0) as usize,
    );
    m.set(
        "router.hop_us.mean",
        r.client_us.mean() - rtt,
        "us",
        r.client_us.len(),
    );
    m.set("router.retries", retries1 - retries0, "count", 1);
    let mut render = d.render_us.clone();
    render.extend(r.render_us.clone());
    let mut parse = d.parse_us.clone();
    parse.extend(r.parse_us.clone());
    let mut bytes = d.request_bytes.clone();
    bytes.extend(r.request_bytes.clone());
    m.set("wire.parse_us.p50", parse.p50(), "us", parse.len());
    m.set("wire.render_us.p50", render.p50(), "us", render.len());
    m.set(
        "wire.request_bytes.mean",
        bytes.mean(),
        "bytes",
        bytes.len(),
    );
    let mut predict = d.predict_us.clone();
    predict.extend(r.predict_us.clone());
    m.set("core.predict_us.p50", predict.p50(), "us", predict.len());
    crate::store_metrics(&store0, &store1, m);

    let Phase { direct, routed, .. } = phase;
    spans.extend(direct.spans);
    spans.extend(routed.spans);
    out.absorb(base.direct.out);
    out.absorb(base.routed.out);
    out.absorb(direct.out);
    out.absorb(routed.out);
    fleet.stop();
    out
}
