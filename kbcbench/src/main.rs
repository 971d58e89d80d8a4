//! End-to-end KBC benchmark: cold, upsert and LF-edit runs of the whole
//! pipeline (ingest → candidates → features → supervision → train → infer
//! → evaluate) on three workloads, with per-layer stage spans.
//!
//! ```text
//! cargo run --release --offline --manifest-path kbcbench/Cargo.toml -- \
//!     --workload elec512_logreg --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run is one process and one workload. `--trace 0` measures the
//! end-to-end metrics with one `output()` call per session per op;
//! `--trace 1` calls each stage under its own span and reports per-layer
//! metrics, writing the spans to `kbcbench/out/`. The last stdout line is
//! a JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Workload reasons and layer predictions: `kbcbench/PREDICTIONS.md`.

mod bench;
mod metrics;
mod trace;

use bench::{OpKind, Outcome};
use metrics::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: kbcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Unset every `FONDUER_*` variable (threads, SIMD opt-out, tracing, the
/// debug server, provenance, ...) before any crate reads one, so measured
/// runs see only the benchmark's own configuration. Returns their names.
fn pin_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FONDUER_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn env_json(args: &Args, pinned: &[String]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned: Vec<String> = pinned.iter().map(|p| json_str(p)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"simd_level\":{},\"available_parallelism\":{cores},\"n_threads\":{},\"unset_env\":[{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(fonduer_tensor::simd_level()),
        bench::N_THREADS,
        pinned.join(","),
    )
}

/// Write the run header, every span and every op to
/// `kbcbench/out/trace-<workload>-seed<n>.jsonl`.
fn write_trace(o: &Outcome, views: &[metrics::View], env: &str, args: &Args) -> PathBuf {
    let mut text = format!("{{\"type\":\"run\",\"env\":{env}}}\n");
    text.push_str(&o.tracer.render_spans());
    for op in &o.ops {
        let _ = write!(
            text,
            "{{\"type\":\"op\",\"op\":{},\"kind\":\"{}\",\"traced\":{},\"wall_ms\":{},\"f1\":{},\"recomputed\":{:?},\"failure\":{}",
            op.id,
            op.kind.name(),
            op.traced,
            json_num(op.wall.as_secs_f64() * 1e3),
            json_num(op.f1),
            op.recomputed,
            op.failure.as_deref().map_or("null".to_string(), json_str),
        );
        if let Some(v) = views.iter().find(|v| v.op.id == op.id) {
            let self_ms: Vec<String> = v
                .self_ms
                .iter()
                .map(|(k, ms)| format!("{}:{}", json_str(k), json_num(*ms)))
                .collect();
            let counters: Vec<String> =
                v.d.counters
                    .iter()
                    .map(|(k, n)| format!("{}:{n}", json_str(k)))
                    .collect();
            let report: Vec<String> =
                v.d.report_last_us
                    .iter()
                    .map(|(k, us)| format!("{}:{us}", json_str(k)))
                    .collect();
            let _ = write!(
                text,
                ",\"coverage\":{},\"self_ms\":{{{}}},\"report_last_us\":{{{}}},\"counters\":{{{}}}",
                json_num(o.tracer.coverage(op.id)),
                self_ms.join(","),
                report.join(","),
                counters.join(","),
            );
        }
        text.push_str("}\n");
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("kbcbench: cannot write {}: {e}", path.display());
    }
    path
}

fn main() -> ExitCode {
    let pinned = pin_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = bench::find(&args.workload) else {
        let names: Vec<&str> = bench::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "kbcbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let env = env_json(&args, &pinned);
    println!("env {env}");
    let o = bench::run(wl, args.seed, args.seconds, args.trace);

    let metrics: Vec<Metric> = if args.trace {
        let views = metrics::views(&o);
        let metrics = metrics::per_layer(&o, &views);
        for (stage, span, report) in metrics::report_gaps(&views) {
            let gap = span - report;
            if gap.abs() > 1.0 && gap.abs() > 0.05 * span {
                println!(
                    "report gap: {stage} span {span:.1} ms vs RunReport last_us {report:.1} ms"
                );
            }
        }
        let coverage = metrics.iter().find(|m| m.name == "trace.coverage");
        if coverage.is_some_and(|m| m.value < 0.95) {
            println!("trace check failed: trace.coverage below 0.95");
        }
        let path = write_trace(&o, &views, &env, &args);
        println!("spans written to {}", path.display());
        metrics
    } else {
        metrics::end_to_end(&o)
    };

    for kind in [OpKind::Cold, OpKind::Upsert, OpKind::LfEdit] {
        let n = o.ops.iter().filter(|op| op.kind == kind).count();
        println!("ops {}: {n} samples", kind.name());
    }
    for op in &o.ops {
        if let Some(f) = &op.failure {
            println!("failed op {} ({}): {f}", op.id, op.kind.name());
        }
    }
    let attempted = o.ops.len();
    let failed = o.ops.iter().filter(|op| op.failure.is_some()).count();
    let coverage_ok = !args.trace
        || metrics
            .iter()
            .any(|m| m.name == "trace.coverage" && m.value >= 0.95);
    let correct = failed == 0 && attempted > 0 && coverage_ok;
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
