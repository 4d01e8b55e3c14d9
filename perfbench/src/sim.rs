//! `sim-validate`: the paper's Tables 2/3 loop as in-process library calls.
//! Each seeded program (builtins plus tensor contractions at small bounds;
//! tiles need not divide bounds) is compiled to a trace, replayed through
//! the LRU stack-distance simulator and compared with the model at several
//! cache sizes. Neither transport nor search runs.

use crate::common::{
    median_setup, set_stream, windowed, Event, Metrics, Outcome, Rng, Samples, SETUP_REPS,
};
use crate::gen;
use crate::trace::{Recorder, Span};
use sdlo_cachesim::{simulate_stack_distances, Granularity, StackDistHistogram};
use sdlo_core::MissModel;
use sdlo_ir::programs::{builtin, BUILTIN_NAMES};
use sdlo_ir::{CompiledProgram, Program};
use sdlo_symbolic::{Bindings, Sym};
use std::time::{Duration, Instant};

/// Programs generated and modelled during set-up.
const POOL: usize = 256;
/// Each program's bounds are the largest (up to `MAX_BOUND`) whose trace
/// stays within this many accesses, so programs cost about the same.
const TARGET_ACCESSES: u64 = 1 << 18;
const MAX_BOUND: i128 = 64;
/// Every `NAIVE_EVERY`-th program is tiny and is also replayed through the
/// benchmark's own naive LRU list.
const NAIVE_EVERY: u64 = 8;
/// Cache sizes, as fractions of the program's footprint.
const FRACTIONS: [f64; 4] = [0.125, 0.25, 0.5, 1.0];

struct Entry {
    program: Program,
    model: MissModel,
    syms: Vec<Sym>,
}

fn pool(seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed);
    let mut programs: Vec<Program> = BUILTIN_NAMES
        .iter()
        .map(|n| builtin(n).expect("builtin exists"))
        .collect();
    let sizes = Bindings::new().with("V", 24).with("N", 24);
    while programs.len() < POOL {
        if let Some(g) = gen::program(&mut rng, &sizes, 3) {
            programs.push(g.program);
        }
    }
    programs
        .into_iter()
        .map(|p| Entry {
            model: MissModel::build(&p),
            syms: p.free_symbols().into_iter().collect(),
            program: p,
        })
        .collect()
}

/// Seeded bindings: tiles in `2..=16` (not necessarily dividing the
/// bounds), bounds the largest in `lo..=hi` whose trace fits `budget`.
fn bindings(rng: &mut Rng, e: &Entry, lo: i128, hi: i128, budget: u64) -> Option<Bindings> {
    let tiles: Vec<i128> = e.syms.iter().map(|_| 2 + rng.below(15) as i128).collect();
    let at = |bound: i128| {
        let mut b = Bindings::new();
        for (s, t) in e.syms.iter().zip(&tiles) {
            let is_tile = s.name().starts_with('T');
            b.set(s.name(), if is_tile { (*t).min(bound) } else { bound });
        }
        let fits = e.model.total_instances(&b).is_ok_and(|n| n <= budget);
        (b, fits)
    };
    let (mut lo, mut hi) = (lo, hi);
    if !at(lo).1 {
        return None;
    }
    while lo < hi {
        let mid = (lo + hi + 1) / 2;
        if at(mid).1 {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(at(lo).0)
}

/// Independent reference: a plain LRU list, most recent last; an access's
/// stack distance is the number of distinct blocks touched since its last
/// use.
fn naive_misses(compiled: &CompiledProgram, caps: &[u64]) -> Vec<u64> {
    let mut stack: Vec<u64> = Vec::new();
    let mut misses = vec![0u64; caps.len()];
    compiled.walk(&mut |a| {
        let distance = match stack.iter().rposition(|&x| x == a.addr) {
            Some(p) => {
                stack.remove(p);
                Some((stack.len() - p) as u64)
            }
            None => None,
        };
        stack.push(a.addr);
        for (m, cap) in misses.iter_mut().zip(caps) {
            if distance.is_none_or(|d| d >= *cap) {
                *m += 1;
            }
        }
    });
    misses
}

#[derive(Default)]
struct Measured {
    out: Outcome,
    programs: Vec<Event>,
    /// Replays, weighted by their accesses.
    replays: Vec<Event>,
    max_error_pct: f64,
    comparisons: u64,
    // Traced runs only.
    compile_us: Samples,
    distance_us: Samples,
    predict_us: Samples,
    replay_rate: Samples,
    distinct: Samples,
}

/// Model-vs-simulator agreement band of the repository's own property
/// tests: within 30% of the simulated count, or within a quarter of the
/// trace.
fn within_band(predicted: u64, actual: u64, total: u64) -> bool {
    let diff = predicted.abs_diff(actual);
    diff as f64 <= 0.30 * actual.max(1) as f64 || diff * 4 <= total
}

#[allow(clippy::too_many_arguments)]
fn validate(
    e: &Entry,
    b: &Bindings,
    naive: bool,
    m: &mut Measured,
    rec: &mut Recorder,
    start: Instant,
    req: u64,
) {
    let root = rec.reserve();
    let t0 = Instant::now();
    m.out.attempted += 1;
    let compiled = match CompiledProgram::compile(&e.program, b) {
        Ok(c) => c,
        Err(err) => {
            m.out.fail(format!("{}: compile: {err:?}", e.program.name));
            return;
        }
    };
    let t1 = Instant::now();
    let hist: StackDistHistogram = simulate_stack_distances(&compiled, Granularity::Element);
    let t2 = Instant::now();
    let knees = e.model.distance_values(b).unwrap_or_default();
    let t3 = Instant::now();
    let footprint = compiled.total_elements();
    let caps: Vec<u64> = FRACTIONS
        .iter()
        .map(|f| ((footprint as f64 * f) as u64).max(16))
        .collect();
    let mut predicted = Vec::with_capacity(caps.len());
    for &cap in &caps {
        predicted.push(e.model.predict_misses(b, cap));
    }
    let t4 = Instant::now();
    let total = hist.total();
    if total != compiled.total_accesses() {
        m.out.fail(format!(
            "{}: histogram holds {total} of {} accesses",
            e.program.name,
            compiled.total_accesses()
        ));
    }
    for (&cap, p) in caps.iter().zip(&predicted) {
        let actual = hist.misses(cap);
        let Ok(p) = *p else {
            m.out
                .fail(format!("{}: model failed at C={cap}", e.program.name));
            continue;
        };
        // Capacities within a quarter of a model knee flip whole
        // components; the paper's capacities sit far from every knee.
        if knees.iter().any(|&k| cap.abs_diff(k) <= (k / 4).max(8)) {
            continue;
        }
        m.comparisons += 1;
        let err = 100.0 * p.abs_diff(actual) as f64 / actual.max(1) as f64;
        m.max_error_pct = m.max_error_pct.max(err);
        if !within_band(p, actual, total) {
            m.out.fail(format!(
                "{}: model {p} vs simulator {actual} at C={cap}",
                e.program.name
            ));
        }
    }
    let t5 = Instant::now();
    if naive {
        let reference = naive_misses(&compiled, &caps);
        for (cap, want) in caps.iter().zip(reference) {
            if hist.misses(*cap) != want {
                m.out.fail(format!(
                    "{}: simulator {} vs naive LRU {want} at C={cap}",
                    e.program.name,
                    hist.misses(*cap)
                ));
            }
        }
    }
    let t6 = Instant::now();
    m.programs.push(Event::new(start, t0, t6, 1.0));
    m.replays.push(Event::new(start, t1, t2, total as f64));
    if rec.enabled() {
        rec.record("ir.trace_compile", Some(root), req, t0, t1);
        rec.record("cachesim.replay", Some(root), req, t1, t2);
        rec.record("symbolic.distance_values", Some(root), req, t2, t3);
        rec.record("core.predict", Some(root), req, t3, t4);
        if naive {
            rec.record("bench.naive_lru", Some(root), req, t5, t6);
        }
        rec.record_as(root, "bench.program", None, req, t0, t6);
        m.compile_us.push_micros(t1 - t0);
        m.distance_us.push_micros(t3 - t2);
        m.predict_us
            .push((t4 - t3).as_secs_f64() * 1e6 / caps.len() as f64);
        let secs = (t2 - t1).as_secs_f64();
        if secs > 0.0 {
            m.replay_rate.push(total as f64 / secs);
        }
        m.distinct.push(hist.misses(u64::MAX) as f64);
    }
}

fn measure(entries: &[Entry], rng: &mut Rng, seconds: f64, rec: &mut Recorder) -> (Measured, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut m = Measured::default();
    // Programs in a seeded order, each pass over the whole pool.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    let mut n = 0u64;
    while Instant::now() < deadline {
        if (n as usize).is_multiple_of(order.len()) {
            rng.shuffle(&mut order);
        }
        let e = &entries[order[n as usize % order.len()]];
        n += 1;
        let naive = n.is_multiple_of(NAIVE_EVERY);
        let b = if naive {
            bindings(rng, e, 3, 8, TARGET_ACCESSES / 64)
        } else {
            bindings(rng, e, 8, MAX_BOUND, TARGET_ACCESSES)
        };
        let Some(b) = b else {
            m.out.attempted += 1;
            m.out.fail(format!(
                "{}: no bounds fit the trace budget",
                e.program.name
            ));
            continue;
        };
        validate(e, &b, naive, &mut m, rec, start, n);
    }
    (m, start.elapsed().as_secs_f64())
}

fn report(m: &Measured, secs: f64, out: &mut Metrics) {
    set_stream(out, "primary", &m.programs, secs);
    set_stream(out, "secondary", &m.replays, secs);
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> Outcome {
    let (setup_s, entries) = median_setup(SETUP_REPS, || pool(seed), drop);
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s, "s", SETUP_REPS);
    let inputs = || Rng::new(seed ^ 0x51b);

    if !traced {
        let mut rec = Recorder::new(epoch, 20, false);
        let (m, secs) = measure(&entries, &mut inputs(), seconds, &mut rec);
        report(&m, secs, &mut out.metrics);
        out.metrics.set(
            "model_max_error_pct",
            m.max_error_pct,
            "%",
            m.comparisons as usize,
        );
        out.absorb(m.out);
        return out;
    }

    let half = seconds / 2.0;
    let mut off = Recorder::new(epoch, 20, false);
    // Both halves replay the same inputs, so their rates compare.
    let (base, base_secs) = measure(&entries, &mut inputs(), half, &mut off);
    let mut rec = Recorder::new(epoch, 20, true);
    let (m, secs) = measure(&entries, &mut inputs(), half, &mut rec);
    let rate0 = windowed(&base.replays, base_secs).rate;
    let rate1 = windowed(&m.replays, secs).rate;
    let o = &mut out.metrics;
    o.set(
        "trace.overhead_pct",
        100.0 * (rate0 - rate1) / rate0.max(f64::MIN_POSITIVE),
        "%",
        2,
    );
    o.set(
        "ir.trace_compile_us.p50",
        m.compile_us.p50(),
        "us",
        m.compile_us.len(),
    );
    let replay = windowed(&m.replays, secs);
    o.set("cachesim.replay_us.p50", replay.p50, "us", replay.n);
    o.set(
        "cachesim.accesses_per_s",
        m.replay_rate.p50(),
        "1/s",
        m.replay_rate.len(),
    );
    o.set(
        "cachesim.distinct_blocks.mean",
        m.distinct.mean(),
        "count",
        m.distinct.len(),
    );
    o.set(
        "symbolic.distance_values_us.p50",
        m.distance_us.p50(),
        "us",
        m.distance_us.len(),
    );
    o.set(
        "core.predict_us.p50",
        m.predict_us.p50(),
        "us",
        m.predict_us.len(),
    );
    let max_err = base.max_error_pct.max(m.max_error_pct);
    o.set(
        "core.model_max_error_pct",
        max_err,
        "%",
        (base.comparisons + m.comparisons) as usize,
    );
    out.absorb(base.out);
    out.absorb(m.out);
    spans.append(&mut rec.spans);
    out
}
