//! Turning op records into the benchmark's named metrics.

use crate::bench::{OpKind, OpRecord, Outcome, Traced};
use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn walls(o: &Outcome, kind: OpKind, traced: bool) -> Vec<f64> {
    o.ops
        .iter()
        .filter(|op| op.kind == kind && op.traced == traced)
        .map(|op| op.wall.as_secs_f64())
        .collect()
}

/// The user-facing metrics, from the untraced ops.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    // The cold op's F1 depends only on the seed; a later op's would also
    // depend on how many ops fit in the run.
    let f1 = median(
        o.ops
            .iter()
            .filter(|op| op.kind == OpKind::Cold)
            .map(|op| op.f1)
            .collect(),
    );
    vec![
        Metric {
            name: "setup_s",
            value: median(o.setup_s.clone()),
            unit: "s",
        },
        Metric {
            name: "cold_run_s",
            value: median(walls(o, OpKind::Cold, false)),
            unit: "s",
        },
        Metric {
            name: "upsert_p50_ms",
            value: median(walls(o, OpKind::Upsert, false)) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "lf_edit_p50_ms",
            value: median(walls(o, OpKind::LfEdit, false)) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "f1",
            value: f1,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One traced op, as the per-layer metrics read it.
pub struct View<'a> {
    pub op: &'a OpRecord,
    pub d: &'a Traced,
    /// Self time per benchmark span name, in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl View<'_> {
    fn ms(&self, span: &str) -> f64 {
        self.self_ms.get(span).copied().unwrap_or(0.0)
    }

    fn count(&self, counter: &str) -> f64 {
        self.d.counters.get(counter).copied().unwrap_or(0) as f64
    }

    fn prefixed(&self, prefix: &str) -> f64 {
        self.d
            .counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v as f64)
            .sum()
    }

    fn ratio(num: f64, den: f64) -> f64 {
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

type Probe = fn(&View) -> f64;

/// Per-layer metrics: `(name, unit, op kind, probe)`; each value is the
/// median of the probe over the traced ops of that kind.
const LAYER: &[(&str, &str, OpKind, Probe)] = &[
    ("ingest.ms", "ms", OpKind::Cold, |v| v.ms("ingest")),
    ("parser.documents", "count", OpKind::Cold, |v| {
        v.count("parser.documents")
    }),
    ("nlp.tokens", "count", OpKind::Cold, |v| {
        v.count("nlp.tokens")
    }),
    ("core.open_ms", "ms", OpKind::Cold, |v| v.ms("open")),
    ("candidates.ms", "ms", OpKind::Cold, |v| v.ms("candidates")),
    ("candidates.kept", "count", OpKind::Cold, |v| {
        v.count("candgen.candidates")
    }),
    ("candidates.keep_ratio", "ratio", OpKind::Cold, |v| {
        let kept = v.count("candgen.candidates");
        View::ratio(kept, kept + v.prefixed("candgen.throttled."))
    }),
    ("features.ms", "ms", OpKind::Cold, |v| v.ms("featurize")),
    ("features.n_features", "count", OpKind::Cold, |v| {
        v.d.n_features as f64
    }),
    ("features.cache_hit_ratio", "ratio", OpKind::Cold, |v| {
        let hits = v.count("features.cache.hits");
        View::ratio(hits, hits + v.count("features.cache.misses"))
    }),
    ("supervision.ms", "ms", OpKind::Cold, |v| v.ms("supervise")),
    ("supervision.label_coverage", "ratio", OpKind::Cold, |v| {
        v.d.label_coverage
    }),
    ("supervision.votes", "count", OpKind::Cold, votes),
    ("learning.train_ms", "ms", OpKind::Cold, |v| v.ms("train")),
    ("learning.train_steps", "count", OpKind::Cold, |v| {
        v.count("train.steps")
    }),
    ("learning.adam_steps", "count", OpKind::Cold, |v| {
        v.count("nn.adam_steps")
    }),
    ("learning.infer_ms", "ms", OpKind::Cold, |v| v.ms("infer")),
    ("tensor.gemm_calls", "count", OpKind::Cold, |v| {
        v.d.tensor.gemm_calls as f64
    }),
    ("tensor.gemv_calls", "count", OpKind::Cold, |v| {
        v.d.tensor.gemv_calls as f64
    }),
    ("tensor.axpy_calls", "count", OpKind::Cold, |v| {
        v.d.tensor.axpy_calls as f64
    }),
    ("tensor.sparse_dot_calls", "count", OpKind::Cold, |v| {
        v.d.tensor.sparse_dot_calls as f64
    }),
    ("core.evaluate_ms", "ms", OpKind::Cold, |v| v.ms("evaluate")),
    ("core.output_ms", "ms", OpKind::Cold, |v| v.ms("output")),
    ("par.utilization", "ratio", OpKind::Cold, |v| {
        v.d.utilization
    }),
    ("par.steals", "count", OpKind::Cold, |v| {
        v.count("par.steals")
    }),
    ("par.tasks", "count", OpKind::Cold, |v| v.count("par.tasks")),
    ("upsert.core.mutate_ms", "ms", OpKind::Upsert, |v| {
        v.ms("mutate")
    }),
    ("upsert.candidates.ms", "ms", OpKind::Upsert, |v| {
        v.ms("candidates")
    }),
    ("upsert.features.ms", "ms", OpKind::Upsert, |v| {
        v.ms("featurize")
    }),
    ("upsert.supervision.ms", "ms", OpKind::Upsert, |v| {
        v.ms("supervise")
    }),
    ("upsert.learning.train_ms", "ms", OpKind::Upsert, |v| {
        v.ms("train")
    }),
    (
        "upsert.learning.train_steps",
        "count",
        OpKind::Upsert,
        |v| v.count("train.steps"),
    ),
    ("upsert.learning.infer_ms", "ms", OpKind::Upsert, |v| {
        v.ms("infer")
    }),
    ("upsert.core.output_ms", "ms", OpKind::Upsert, |v| {
        v.ms("output")
    }),
    (
        "upsert.session.shard_hit_ratio",
        "ratio",
        OpKind::Upsert,
        shard_hit_ratio,
    ),
    (
        "upsert.session.recomputed_docs",
        "count",
        OpKind::Upsert,
        recomputed,
    ),
    (
        "upsert.session.stage_hit_ratio",
        "ratio",
        OpKind::Upsert,
        |v| v.d.stage_hit_ratio,
    ),
    ("lf_edit.supervision.ms", "ms", OpKind::LfEdit, |v| {
        v.ms("supervise")
    }),
    ("lf_edit.supervision.votes", "count", OpKind::LfEdit, votes),
    ("lf_edit.learning.train_ms", "ms", OpKind::LfEdit, |v| {
        v.ms("train")
    }),
    (
        "lf_edit.learning.train_steps",
        "count",
        OpKind::LfEdit,
        |v| v.count("train.steps"),
    ),
    ("lf_edit.core.output_ms", "ms", OpKind::LfEdit, |v| {
        v.ms("output")
    }),
    (
        "lf_edit.session.shard_hit_ratio",
        "ratio",
        OpKind::LfEdit,
        shard_hit_ratio,
    ),
    (
        "lf_edit.session.recomputed_docs",
        "count",
        OpKind::LfEdit,
        recomputed,
    ),
    (
        "lf_edit.session.stage_hit_ratio",
        "ratio",
        OpKind::LfEdit,
        |v| v.d.stage_hit_ratio,
    ),
];

/// Non-abstain LF votes.
fn votes(v: &View) -> f64 {
    v.count("supervision.votes.positive") + v.count("supervision.votes.negative")
}

fn shard_hit_ratio(v: &View) -> f64 {
    let hits = v.d.shard_hits as f64;
    View::ratio(hits, hits + v.d.shard_misses as f64)
}

fn recomputed(v: &View) -> f64 {
    v.op.recomputed.iter().copied().max().unwrap_or(0) as f64
}

/// The stages `RunReport` times, by benchmark span name.
pub const REPORT_STAGES: [&str; 5] = ["candidates", "featurize", "supervise", "train", "infer"];

/// Per stage: `(span ms, RunReport last_us in ms)` summed over traced ops.
pub fn report_gaps(views: &[View]) -> Vec<(&'static str, f64, f64)> {
    REPORT_STAGES
        .iter()
        .map(|&stage| {
            let span: f64 = views.iter().map(|v| v.ms(stage)).sum();
            let report: f64 = views
                .iter()
                .map(|v| v.d.report_last_us.get(stage).copied().unwrap_or(0) as f64 / 1e3)
                .sum();
            (stage, span, report)
        })
        .collect()
}

pub fn views(o: &Outcome) -> Vec<View<'_>> {
    o.ops
        .iter()
        .filter_map(|op| {
            let d = op.detail.as_ref()?;
            let self_ms = o
                .tracer
                .self_ns(op.id)
                .into_iter()
                .map(|(name, ns)| (name, ns as f64 / 1e6))
                .collect();
            Some(View { op, d, self_ms })
        })
        .collect()
}

/// Per-layer metrics plus the benchmark's checks on its own trace.
pub fn per_layer(o: &Outcome, views: &[View]) -> Vec<Metric> {
    let mut out: Vec<Metric> = LAYER
        .iter()
        .map(|&(name, unit, kind, probe)| Metric {
            name,
            unit,
            value: median(
                views
                    .iter()
                    .filter(|v| v.op.kind == kind)
                    .map(probe)
                    .collect(),
            ),
        })
        .collect();
    let coverage = views
        .iter()
        .map(|v| o.tracer.coverage(v.op.id))
        .fold(f64::INFINITY, f64::min);
    let traced_cold = median(walls(o, OpKind::Cold, true));
    let plain_cold = median(walls(o, OpKind::Cold, false));
    let gaps = report_gaps(views);
    let span_total: f64 = gaps.iter().map(|g| g.1).sum();
    let report_total: f64 = gaps.iter().map(|g| g.2).sum();
    out.extend([
        Metric {
            name: "trace.coverage",
            value: if coverage.is_finite() { coverage } else { 0.0 },
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_pct",
            value: View::ratio(traced_cold - plain_cold, plain_cold) * 100.0,
            unit: "%",
        },
        Metric {
            name: "trace.report_gap_pct",
            value: View::ratio(span_total - report_total, span_total) * 100.0,
            unit: "%",
        },
    ]);
    out
}
