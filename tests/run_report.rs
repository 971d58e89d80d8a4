//! [`RunReport`] end-to-end: run a real session over a synthetic corpus
//! and check that the report's per-document stage timings reconcile with
//! the span registry, the critical path points at a stage that actually
//! ran, and both renderings stay well-formed.
//!
//! These tests mutate process-global observe state, so they serialize on
//! a file-local lock.

use fonduer::observe;
use fonduer::prelude::*;
use fonduer_core::domains::electronics;
use fonduer_core::{PipelineSession, StageId};
use std::sync::Mutex;
use std::time::Instant;

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pin `FONDUER_THREADS` for the duration of one test (the CI matrix runs
/// the whole suite under 1 and 4, which would override the width these
/// tests assert on). Safe because all tests here hold the file lock.
struct EnvThreads(Option<String>);

impl EnvThreads {
    fn pin(n: usize) -> Self {
        let prev = std::env::var("FONDUER_THREADS").ok();
        std::env::set_var("FONDUER_THREADS", n.to_string());
        EnvThreads(prev)
    }
}

impl Drop for EnvThreads {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var("FONDUER_THREADS", v),
            None => std::env::remove_var("FONDUER_THREADS"),
        }
    }
}

fn run_session(n_threads: usize) -> fonduer_core::RunReport {
    let ds = Domain::Electronics.generate(24, 7);
    let relation = "has_collector_current";
    let extractor = electronics::extractor(&ds, relation, ContextScope::Document)
        .with_throttler(electronics::default_throttler(relation));
    let lfs = electronics::lfs(relation);
    let cfg = PipelineConfig::builder()
        .n_threads(n_threads)
        .build()
        .expect("config is valid");
    let mut session = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &lfs, cfg)
        .expect("session inputs are valid");
    session.output().expect("pipeline runs");
    session.run_report()
}

#[test]
fn report_joins_stages_cache_pool_and_docs() {
    let _g = lock();
    observe::reset();
    let report = run_session(1);

    // Every doc-timed stage produced per-document rows; top-K is ordered.
    let top = report.top_slowest_docs(5);
    assert!(!top.is_empty(), "no documents timed");
    assert!(top.len() <= 5);
    for pair in top.windows(2) {
        assert!(pair[0].total_ns >= pair[1].total_ns, "top-K not sorted");
    }
    for d in top {
        assert!(d.total_ns > 0);
        assert!(!d.stage_ns.is_empty());
    }

    // The report's stage rows cover the five timed stages and the cold run
    // computed (not cache-hit) each of them.
    let names: Vec<&str> = report.stages.iter().map(|s| s.stage).collect();
    assert_eq!(
        names,
        ["candgen", "featurize", "supervise", "train", "infer"]
    );
    for s in &report.stages {
        assert!(s.span_count >= 1, "{} never ran a span", s.stage);
    }
    assert_eq!(report.cache.stage(StageId::Candidates).misses, 1);
    assert_eq!(report.cache.stage(StageId::Featurize).misses, 1);

    // Critical path names a stage with non-zero wall time.
    let cp = report.critical_path();
    assert!(cp.total_us > 0);
    assert!(cp.stage_us > 0);
    assert!(cp.fraction > 0.0 && cp.fraction <= 1.0);

    // Renderings: text mentions the critical path; JSONL parses per line.
    let text = report.render_text();
    assert!(text.contains("critical path:"));
    assert!(text.contains("slowest documents"));
    for line in report.render_jsonl().lines() {
        observe::json::parse(line).unwrap_or_else(|e| panic!("bad report line ({e}): {line}"));
    }
}

/// Acceptance: at one thread the per-document stage sums must land within
/// 10% of the stage's aggregate span time (the doc table is carved out of
/// exactly that span, minus per-candidate bookkeeping between documents).
#[test]
fn doc_sums_match_stage_spans_sequential() {
    let _g = lock();
    let _env = EnvThreads::pin(1);
    observe::reset();
    let report = run_session(1);

    for cov in report.stage_coverage() {
        assert!(
            cov.doc_sum_ns > 0,
            "{}: no per-doc time recorded",
            cov.stage
        );
        assert_eq!(cov.worker_ns, 0, "{}: no pool at 1 thread", cov.stage);
        assert!(cov.span_total_ns > 0, "{}: leaf span missing", cov.stage);
        let ratio = cov.ratio();
        assert!(
            (0.9..=1.02).contains(&ratio),
            "{}: doc sum {}ns vs span {}ns (ratio {ratio:.3}) outside 10%",
            cov.stage,
            cov.doc_sum_ns,
            cov.span_total_ns
        );
    }
}

/// At higher thread counts per-document time is measured inside workers,
/// so the universal bound is: doc sums never exceed the measured worker
/// time (plus timer noise) and still account for most of it.
#[test]
fn doc_sums_bounded_by_worker_spans_parallel() {
    let _g = lock();
    let _env = EnvThreads::pin(4);
    observe::reset();
    let report = run_session(4);

    for cov in report.stage_coverage() {
        assert!(
            cov.doc_sum_ns > 0,
            "{}: no per-doc time recorded",
            cov.stage
        );
        let denom = cov.worker_ns.max(cov.span_total_ns);
        assert!(denom > 0, "{}: no span time at all", cov.stage);
        let ratio = cov.ratio();
        assert!(
            ratio <= 1.05,
            "{}: doc sum {}ns exceeds measured work {}ns (ratio {ratio:.3})",
            cov.stage,
            cov.doc_sum_ns,
            denom
        );
        assert!(
            ratio >= 0.5,
            "{}: doc sum {}ns accounts for under half of {}ns",
            cov.stage,
            cov.doc_sum_ns,
            denom
        );
    }
}

/// Each stage's `RunReport` time is the whole of its public call, cache
/// miss to stored artifact: timed from the caller, no stage may do more
/// than 5% (plus 1 ms of timer slack) of its work outside its own timer.
#[test]
fn stage_timers_cover_each_public_stage_call() {
    let _g = lock();
    observe::reset();
    let ds = Domain::Electronics.generate(48, 7);
    let relation = "has_collector_current";
    let extractor = electronics::extractor(&ds, relation, ContextScope::Document)
        .with_throttler(electronics::default_throttler(relation));
    let lfs = electronics::lfs(relation);
    let cfg = PipelineConfig::builder()
        .learner(Learner::LogReg)
        .build()
        .expect("config is valid");
    let mut session = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &lfs, cfg)
        .expect("session inputs are valid");
    // The report is read right after each call: a later call's cache hit
    // on an upstream stage zeroes that stage's last-run time.
    let mut check = |stage: StageId, call: &mut dyn FnMut(&mut PipelineSession)| {
        let t = Instant::now();
        call(&mut session);
        let call_us = t.elapsed().as_micros() as u64;
        let last_us = session
            .run_report()
            .stages
            .iter()
            .find(|s| s.stage == stage.name())
            .unwrap_or_else(|| panic!("{}: no RunReport row", stage.name()))
            .last_us;
        assert!(
            last_us as f64 >= 0.95 * call_us as f64 - 1000.0,
            "{}: RunReport last_us {last_us} µs vs {call_us} µs for the call",
            stage.name()
        );
    };
    check(StageId::Candidates, &mut |s| {
        s.candidates().unwrap();
    });
    check(StageId::Featurize, &mut |s| {
        s.featurize().unwrap();
    });
    check(StageId::Supervise, &mut |s| {
        s.supervise().unwrap();
    });
    check(StageId::Train, &mut |s| s.train().unwrap());
    check(StageId::Infer, &mut |s| {
        s.infer().unwrap();
    });
}
