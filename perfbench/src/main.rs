//! sdlo benchmark: one command, three workloads, every output checked.
//!
//! ```text
//! perfbench --workload <hot-predict|cold-explore|sim-validate> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, and the spans go to
//! `.bench_work/trace-<workload>-<seed>.json` as Chrome trace-event JSON.
//! See `perfbench/README.md` for the metric catalogue.

mod cold;
mod common;
mod gen;
mod hot;
mod sim;
mod trace;

use common::{fnv1a, peak_rss_mb, prom_sum, Metrics, Outcome, FNV_OFFSET};
use std::path::{Path, PathBuf};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["hot-predict", "cold-explore", "sim-validate"];

/// The end-to-end metrics every untraced run reports, whatever its
/// workload. What "primary" and "secondary" measure per workload is listed
/// in `ALIASES` and the README.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "ok_pct",
    "peak_rss_mb",
    "primary_per_s",
    "primary_p50_us",
    "primary_p90_us",
    "secondary_per_s",
    "secondary_p50_us",
    "secondary_p90_us",
];

/// Workload-specific names of the generic end-to-end metrics, printed in
/// the human report.
const ALIASES: [(&str, &str, &str); 10] = [
    ("hot-predict", "direct_rps", "primary_per_s"),
    ("hot-predict", "direct_p50_us", "primary_p50_us"),
    ("hot-predict", "direct_p90_us", "primary_p90_us"),
    ("hot-predict", "routed_rps", "secondary_per_s"),
    ("hot-predict", "routed_p50_us", "secondary_p50_us"),
    ("hot-predict", "routed_p90_us", "secondary_p90_us"),
    ("cold-explore", "sessions_per_s", "primary_per_s"),
    ("cold-explore", "session_p50_us", "primary_p50_us"),
    ("cold-explore", "session_p90_us", "primary_p90_us"),
    ("sim-validate", "sim_accesses_per_s", "secondary_per_s"),
];

/// Every per-layer metric a traced run reports, with its unit. A layer the
/// workload does not exercise reports 0 over 0 samples.
const PER_LAYER: [(&str, &str); 57] = [
    ("trace.overhead_pct", "%"),
    ("service.client_us.p50", "us"),
    ("service.client_us.p90", "us"),
    ("service.queue_us.p50", "us"),
    ("service.queue_us.p90", "us"),
    ("service.exec_us.p50", "us"),
    ("service.exec_us.p90", "us"),
    ("service.write_us.p50", "us"),
    ("service.residual_us.p50", "us"),
    ("service.residual_us.p90", "us"),
    ("router.backend_rtt_us.mean", "us"),
    ("router.hop_us.mean", "us"),
    ("router.retries", "count"),
    ("engine.lint_us.p50", "us"),
    ("engine.analyze_us.p50", "us"),
    ("engine.advise_us.p50", "us"),
    ("engine.revise_us.p50", "us"),
    ("engine.predict_us.p50", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.models_built", "count"),
    ("store.disk_writes", "count"),
    ("store.evictions", "count"),
    ("revise.warm_ratio", "ratio"),
    ("revise.nodes_reevaluated.mean", "count"),
    ("wire.parse_us.p50", "us"),
    ("wire.render_us.p50", "us"),
    ("wire.request_bytes.mean", "bytes"),
    ("ir.canonicalize_us.p50", "us"),
    ("ir.trace_compile_us.p50", "us"),
    ("core.model_build_us.p50", "us"),
    ("core.components.mean", "count"),
    ("core.dag_build_us.p50", "us"),
    ("core.revise_us.p50", "us"),
    ("core.predict_us.p50", "us"),
    ("core.model_max_error_pct", "%"),
    ("symbolic.distance_values_us.p50", "us"),
    ("tilesearch.pruned_us.p50", "us"),
    ("tilesearch.pruned_us.p90", "us"),
    ("tilesearch.evaluations.mean", "count"),
    ("tilesearch.eval_ratio", "ratio"),
    ("analysis.lint_us.p50", "us"),
    ("deps.analyze_us.p50", "us"),
    ("cachesim.replay_us.p50", "us"),
    ("cachesim.accesses_per_s", "1/s"),
    ("cachesim.distinct_blocks.mean", "count"),
    ("self_pct.bench", "%"),
    ("self_pct.service", "%"),
    ("self_pct.router", "%"),
    ("self_pct.engine", "%"),
    ("self_pct.wire", "%"),
    ("self_pct.ir", "%"),
    ("self_pct.core", "%"),
    ("self_pct.symbolic", "%"),
    ("self_pct.tilesearch", "%"),
    ("self_pct.analysis", "%"),
    ("self_pct.deps", "%"),
    ("self_pct.cachesim", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("missing or unknown --workload")),
        seed: seed.unwrap_or_else(|| usage("missing or bad --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing or bad --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing or bad --trace")),
    }
}

/// Model-store metrics between two Prometheus scrapes of one engine. The
/// hit ratio's base is memory-store lookups; evictions are memory-store
/// inserts (models built plus disk loads) minus the growth of resident
/// shapes.
pub fn store_metrics(before: &str, after: &str, m: &mut Metrics) {
    let delta = |name: &str| prom_sum(after, name) - prom_sum(before, name);
    let hits = delta("sdlo_model_cache_hits_total");
    let misses = delta("sdlo_model_cache_misses_total");
    let built = delta("sdlo_models_built_total");
    let lookups = (hits + misses) as usize;
    m.set(
        "store.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        lookups,
    );
    m.set("store.models_built", built, "count", lookups);
    m.set(
        "store.disk_writes",
        delta("sdlo_model_cache_disk_writes_total"),
        "count",
        lookups,
    );
    let inserts = built + delta("sdlo_model_cache_disk_hits_total");
    m.set(
        "store.evictions",
        inserts - delta("sdlo_cached_shapes"),
        "count",
        lookups,
    );
}

/// Revision of the measured code: the git commit when the checkout is a
/// repository, and always a digest of the crates' sources.
fn revision() -> (String, String) {
    let cwd = std::env::current_dir().unwrap_or_default();
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        h = fnv1a(f.to_string_lossy().as_bytes(), h);
        h = fnv1a(&std::fs::read(f).unwrap_or_default(), h);
    }
    (git, format!("{h:016x}"))
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args();
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let work = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&work).expect("create .bench_work");
    let epoch = Instant::now();
    let mut spans = Vec::new();
    let mut out: Outcome = match args.workload.as_str() {
        "hot-predict" => hot::run(args.seed, args.seconds, args.trace, epoch, &mut spans),
        "cold-explore" => cold::run(
            args.seed,
            args.seconds,
            args.trace,
            epoch,
            &work,
            &mut spans,
        ),
        _ => sim::run(args.seed, args.seconds, args.trace, epoch, &mut spans),
    };
    let attempted = out.attempted.max(1);
    let m = &mut out.metrics;
    m.set(
        "ok_pct",
        100.0 * (attempted - out.failed.min(attempted)) as f64 / attempted as f64,
        "%",
        attempted as usize,
    );
    m.set(
        "error_rate",
        out.failed as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    );
    m.set("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    for (w, alias, generic) in ALIASES {
        if w == args.workload {
            if let Some(g) = m.0.iter().find(|x| x.name == generic).cloned() {
                m.set(alias, g.value, g.unit, g.samples);
            }
        }
    }
    if args.trace {
        trace::self_time_pct(&spans, m);
        let path = work.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, trace::chrome_json(&spans)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let (git, digest) = revision();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} available_parallelism={cores} git={git} source_digest={digest} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        rustc_version()
    );
    println!("# attempted={} failed={}", out.attempted, out.failed);
    for x in &out.metrics.0 {
        println!(
            "# {:<34} {:>16.3} {:<6} n={}",
            x.name, x.value, x.unit, x.samples
        );
    }

    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|n| {
                (
                    *n,
                    out.metrics
                        .0
                        .iter()
                        .find(|x| x.name == *n)
                        .map_or("", |x| x.unit),
                )
            })
            .collect()
    };
    let mut fields = Vec::new();
    let mut samples = Vec::new();
    for (name, unit) in declared {
        let (value, n) = out
            .metrics
            .0
            .iter()
            .find(|x| x.name == name)
            .map_or((0.0, 0), |x| (x.value, x.samples));
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(value)
        ));
        samples.push(format!("\"{name}\":{n}"));
    }
    println!(
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{},\"available_parallelism\":{cores},\"git_revision\":\"{git}\",\"source_digest\":\"{digest}\",\"rustc\":\"{}\"}},\"samples\":{{{}}}}}",
        args.workload,
        args.seed,
        rustc_version(),
        samples.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(",")
    );
}
