//! Workloads and the ops a user waits for: `cold`, `upsert`, `lf_edit`.
//!
//! The benchmark drives only public APIs of the pipeline: `Domain::generate`,
//! `PipelineSession` stage calls and mutations, `run_report`,
//! `fonduer_observe::snapshot` and `fonduer_tensor::stats::snapshot`.

use crate::trace::{Tracer, BOOKKEEPING};
use fonduer_candidates::ContextScope;
use fonduer_core::domains::{electronics, paleo};
use fonduer_core::{
    Error, Learner, PipelineConfig, PipelineOutput, PipelineSession, StageId, Task,
};
use fonduer_datamodel::{DocId, Document};
use fonduer_features::FeatureConfig;
use fonduer_observe as observe;
use fonduer_supervision::LabelingFunction;
use fonduer_synth::{Domain, SynthDataset};
use fonduer_tensor::stats as tensor_stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Worker threads for every session (the benchmark adds none of its own).
pub const N_THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

pub struct Workload {
    pub name: &'static str,
    domain: Domain,
    n_docs: usize,
    relations: &'static [&'static str],
    /// Hashed feature space (`Some(bits)`, all modalities) or the default
    /// unhashed feature library.
    hashing_bits: Option<u8>,
    /// Warm ops after each cold op: `None` runs warm ops until the deadline
    /// after a single cold op; `Some(k)` repeats cold + `k` warm ops.
    warm_per_cold: Option<usize>,
    /// Lowest acceptable held-out F1 (mean over relations) of any op.
    f1_floor: f64,
}

/// Both workloads train LogReg. A multimodal Bi-LSTM workload (128 ELEC
/// docs, default config) was measured and left out: on a shared 2-vCPU
/// host its op times swung by up to 30% between runs of one seed, so its
/// spread across seeds exceeded the 25% bound.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "elec512_logreg",
        domain: Domain::Electronics,
        n_docs: 512,
        relations: &["has_collector_current"],
        hashing_bits: Some(12),
        warm_per_cold: None,
        f1_floor: 0.90,
    },
    Workload {
        name: "paleo192_extract",
        domain: Domain::Paleo,
        n_docs: 192,
        relations: &["formation_period", "taxon_formation"],
        hashing_bits: None,
        warm_per_cold: Some(6),
        f1_floor: 0.70,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn config(&self) -> PipelineConfig {
        let mut b = PipelineConfig::builder()
            .learner(Learner::LogReg)
            .n_threads(N_THREADS);
        if let Some(bits) = self.hashing_bits {
            b = b.features(FeatureConfig::all().with_hashing(bits));
        }
        b.build().expect("benchmark configuration is valid")
    }

    fn lfs(&self, rel: &str) -> Vec<LabelingFunction> {
        match self.domain {
            Domain::Electronics => electronics::lfs(rel),
            Domain::Paleo => paleo::lfs(rel),
            other => unreachable!("no benchmark workload uses {other:?}"),
        }
    }

    fn tasks(&self, ds: &SynthDataset) -> Vec<Task> {
        self.relations
            .iter()
            .map(|&rel| {
                let extractor = match self.domain {
                    Domain::Electronics => electronics::extractor(ds, rel, ContextScope::Document)
                        .with_throttler(electronics::default_throttler(rel)),
                    Domain::Paleo => paleo::extractor(ds, rel, ContextScope::Document),
                    other => unreachable!("no benchmark workload uses {other:?}"),
                };
                Task {
                    extractor,
                    lfs: self.lfs(rel),
                }
            })
            .collect()
    }

    /// The LF library with every name suffixed `_v{k}`, one slice per
    /// relation. Label shards are keyed by LF name, so installing it costs
    /// what editing an LF costs. Leaked: sessions borrow their LFs, and a
    /// version is a few hundred bytes.
    fn lf_version(&self, k: usize) -> Vec<&'static [LabelingFunction]> {
        self.relations
            .iter()
            .map(|rel| {
                let mut lfs = self.lfs(rel);
                for lf in &mut lfs {
                    lf.name = format!("{}_v{k}", lf.name);
                }
                &*Box::leak(lfs.into_boxed_slice())
            })
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    Cold,
    Upsert,
    LfEdit,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Cold => "cold",
            OpKind::Upsert => "upsert",
            OpKind::LfEdit => "lf_edit",
        }
    }
}

/// What a traced op measured besides its spans.
#[derive(Default)]
pub struct Traced {
    /// Per-op deltas of every program counter that moved.
    pub counters: BTreeMap<String, u64>,
    /// Per-op deltas of the tensor crate's kernel-call counters (read
    /// directly: only the LSTM learner flushes them into `observe`).
    pub tensor: tensor_stats::Stats,
    /// `par.utilization` after the op.
    pub utilization: f64,
    /// `RunReport.stages[].last_us` read right after each stage call,
    /// summed over the op's sessions, keyed by the benchmark span name.
    pub report_last_us: BTreeMap<&'static str, u64>,
    pub n_features: usize,
    /// Mean over the op's sessions.
    pub label_coverage: f64,
    pub shard_hits: u64,
    pub shard_misses: u64,
    /// Stages served from cache ÷ all stages, mean over sessions.
    pub stage_hit_ratio: f64,
}

pub struct OpRecord {
    pub id: u64,
    pub kind: OpKind,
    /// Traced ops ran one call per stage under benchmark spans; untraced
    /// ops ran one `output()` per session.
    pub traced: bool,
    pub wall: Duration,
    pub f1: f64,
    /// Documents recomputed per session (the largest value any stage call
    /// of the op saw).
    pub recomputed: Vec<usize>,
    pub failure: Option<String>,
    pub detail: Option<Traced>,
}

pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpRecord>,
    pub tracer: Tracer,
}

/// Program state a traced op diffs against.
struct Before {
    snap: observe::Snapshot,
    tensor: tensor_stats::Stats,
    caches: Vec<(u64, u64, [u64; 6])>,
}

/// An op in flight: its id, start, and (traced) the state it diffs against.
struct OpStart {
    id: u64,
    kind: OpKind,
    traced: bool,
    before: Option<Before>,
    start: Instant,
}

struct Runner {
    wl: &'static Workload,
    seed: u64,
    traced: bool,
    cfg: PipelineConfig,
    rev: SynthDataset,
    deadline: Instant,
    tracer: Tracer,
    ops: Vec<OpRecord>,
    /// Per-op scratch filled by the traced stage walk.
    cur: Traced,
    cur_recomputed: Vec<usize>,
    /// LF versions installed so far (`lf_edit` ops).
    versions: usize,
    upserts: usize,
    /// Per session: the LF version installed, or `None` for the library.
    installed: Option<Vec<&'static [LabelingFunction]>>,
    last_outputs: Vec<PipelineOutput>,
}

/// Run `wl` on inputs made from `seed`, measuring ops for `seconds`.
pub fn run(wl: &'static Workload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    // Set-up: the second corpus every upsert draws its revisions from.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut rev = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let ds = wl.domain.generate(wl.n_docs, seed.wrapping_add(1));
        setup_s.push(t.elapsed().as_secs_f64());
        rev = Some(ds);
    }
    let mut r = Runner {
        wl,
        seed,
        traced,
        cfg: wl.config(),
        rev: rev.expect("at least one set-up repetition"),
        deadline: Instant::now() + Duration::from_secs(seconds),
        tracer: Tracer::new(),
        ops: Vec::new(),
        cur: Traced::default(),
        cur_recomputed: Vec::new(),
        versions: 0,
        upserts: 0,
        installed: None,
        last_outputs: Vec::new(),
    };
    while r.cycle() {}
    Outcome {
        setup_s,
        ops: r.ops,
        tracer: r.tracer,
    }
}

impl Runner {
    /// One cold op and its warm ops. Returns whether to run another cycle.
    fn cycle(&mut self) -> bool {
        if self.traced {
            // Untraced reference for `trace.overhead_pct`.
            if self.cold_then(false, |_, _, _, _| ()).is_none() {
                return false;
            }
        }
        let traced = self.traced;
        self.cold_then(traced, |r, ds, tasks, sessions| {
            let mut n_warm = 0usize;
            let mut ok = true;
            loop {
                let seen_all = n_warm >= 2;
                match r.wl.warm_per_cold {
                    Some(k) if n_warm >= k => break,
                    None if seen_all && Instant::now() >= r.deadline => break,
                    _ => {}
                }
                ok = if n_warm.is_multiple_of(2) {
                    r.upsert(ds, sessions)
                } else {
                    r.lf_edit(sessions)
                };
                n_warm += 1;
                if !ok {
                    break;
                }
            }
            if !ok {
                return false;
            }
            if Instant::now() < r.deadline {
                return true;
            }
            // Outside timing: the shard-assembled state must equal a fresh
            // cold session over the same corpus and LFs, bit for bit.
            if let Err(msg) = r.verify(ds, tasks, sessions) {
                let last = r.ops.last_mut().expect("a cycle runs ops");
                last.failure.get_or_insert(msg);
            }
            false
        })
        .unwrap_or(false)
    }

    fn begin(&mut self, kind: OpKind, traced: bool, sessions: &[PipelineSession]) -> OpStart {
        let id = self.tracer.open_op();
        self.cur = Traced::default();
        self.cur_recomputed = Vec::new();
        let before = traced.then(|| Before {
            snap: observe::snapshot(),
            tensor: tensor_stats::snapshot(),
            caches: cache_state(sessions),
        });
        OpStart {
            id,
            kind,
            traced,
            before,
            start: Instant::now(),
        }
    }

    /// Run `f` as a child span when the op is traced.
    fn step<T>(&mut self, op: &OpStart, name: &'static str, f: impl FnOnce() -> T) -> T {
        if op.traced {
            self.tracer.span(op.id, name, f)
        } else {
            f()
        }
    }

    /// The cold op: generate the corpus, open one session per relation and
    /// run it to `output()`. On success, hands the live sessions to `rest`.
    fn cold_then<R>(
        &mut self,
        traced: bool,
        rest: impl FnOnce(&mut Self, &SynthDataset, &[Task], &mut [PipelineSession]) -> R,
    ) -> Option<R> {
        let (wl, seed, cfg) = (self.wl, self.seed, self.cfg.clone());
        self.installed = None;
        let op = self.begin(OpKind::Cold, traced, &[]);
        let ds = self.step(&op, "ingest", || wl.domain.generate(wl.n_docs, seed));
        let tasks = self.step(&op, "open", || wl.tasks(&ds));
        let sessions = self.step(&op, "open", || {
            tasks
                .iter()
                .map(|t| PipelineSession::new(&ds.corpus, &ds.gold, t, cfg.clone()))
                .collect::<Result<Vec<_>, Error>>()
        });
        let mut sessions = match sessions {
            Ok(s) => s,
            Err(e) => {
                let end = Instant::now();
                self.finish(op, end, Err(fail(e)), &[]);
                return None;
            }
        };
        let res = self.walk(&op, &mut sessions);
        let end = Instant::now();
        if !self.finish(op, end, res, &sessions) {
            return None;
        }
        Some(rest(self, &ds, &tasks, &mut sessions))
    }

    /// `upsert_document(rev)` + `output()`. Each upsert replaces a
    /// different document with its revision from the seed+1 corpus (or, on
    /// a second pass over the corpus, back with the original), so every
    /// upsert changes content and misses the shard cache.
    fn upsert(&mut self, ds: &SynthDataset, sessions: &mut [PipelineSession]) -> bool {
        let i = self.upserts % self.wl.n_docs;
        self.upserts += 1;
        let id = DocId::from_usize(i);
        let current = sessions[0].corpus().doc(id).content_hash();
        let revised = self.rev.corpus.doc(id);
        let src = if current == revised.content_hash() {
            ds.corpus.doc(id)
        } else {
            revised
        };
        let docs: Vec<Document> = sessions.iter().map(|_| src.clone()).collect();
        let op = self.begin(OpKind::Upsert, self.traced, sessions);
        let mutated = self.step(&op, "mutate", || {
            for (s, doc) in sessions.iter_mut().zip(docs) {
                let at = s.upsert_document(doc).map_err(fail)?;
                if at != id {
                    return Err(format!("upsert landed at {at:?}, expected {id:?}"));
                }
            }
            Ok(())
        });
        let res = match mutated {
            Ok(()) => self.walk(&op, sessions),
            Err(msg) => Err(msg),
        };
        let end = Instant::now();
        self.finish(op, end, res, sessions)
    }

    /// `set_lfs(v_k)` + `output()`: full LF re-application while candidates
    /// and features stay cached.
    fn lf_edit(&mut self, sessions: &mut [PipelineSession]) -> bool {
        self.versions += 1;
        let version = self.wl.lf_version(self.versions);
        let op = self.begin(OpKind::LfEdit, self.traced, sessions);
        self.step(&op, "mutate", || {
            for (s, lfs) in sessions.iter_mut().zip(&version) {
                s.set_lfs(lfs);
            }
        });
        self.installed = Some(version);
        let res = self.walk(&op, sessions);
        let end = Instant::now();
        self.finish(op, end, res, sessions)
    }

    /// Run every session to `output()`: one call when untraced, one call
    /// per public stage under its own span when traced.
    fn walk(
        &mut self,
        op: &OpStart,
        sessions: &mut [PipelineSession],
    ) -> Result<Vec<PipelineOutput>, String> {
        let mut outs = Vec::with_capacity(sessions.len());
        for s in sessions.iter_mut() {
            if !op.traced {
                outs.push(s.output().map_err(fail)?);
                self.cur_recomputed.push(s.recomputed_docs());
                continue;
            }
            self.cur_recomputed.push(0);
            self.tracer
                .span(op.id, "candidates", || s.candidates().map(|_| ()))
                .map_err(fail)?;
            self.note(op, s, "candidates", StageId::Candidates);
            let nf = self
                .tracer
                .span(op.id, "featurize", || s.featurize().map(|f| f.n_features()))
                .map_err(fail)?;
            self.cur.n_features += nf;
            self.note(op, s, "featurize", StageId::Featurize);
            let cov = self
                .tracer
                .span(op.id, "supervise", || {
                    s.supervise().map(|a| a.label_coverage)
                })
                .map_err(fail)?;
            self.cur.label_coverage += cov;
            self.note(op, s, "supervise", StageId::Supervise);
            self.tracer
                .span(op.id, "train", || s.train())
                .map_err(fail)?;
            self.note(op, s, "train", StageId::Train);
            self.tracer
                .span(op.id, "infer", || s.infer().map(|_| ()))
                .map_err(fail)?;
            self.note(op, s, "infer", StageId::Infer);
            self.tracer
                .span(op.id, "evaluate", || s.evaluate().map(|_| ()))
                .map_err(fail)?;
            outs.push(
                self.tracer
                    .span(op.id, "output", || s.output())
                    .map_err(fail)?,
            );
        }
        Ok(outs)
    }

    /// After a traced stage call: read the stage's `RunReport` timing and
    /// the session's recomputed-document count (benchmark bookkeeping).
    fn note(&mut self, op: &OpStart, s: &PipelineSession, span: &'static str, stage: StageId) {
        let (last_us, recomputed) = self.tracer.span(op.id, BOOKKEEPING, || {
            let report = s.run_report();
            let last = report
                .stages
                .iter()
                .find(|t| t.stage == stage.name())
                .map_or(0, |t| t.last_us);
            (last, s.recomputed_docs())
        });
        *self.cur.report_last_us.entry(span).or_default() += last_us;
        let r = self.cur_recomputed.last_mut().expect("walk pushed a slot");
        *r = (*r).max(recomputed);
    }

    /// Close the op: check its outputs, record it, and return whether the
    /// run may go on.
    fn finish(
        &mut self,
        op: OpStart,
        end: Instant,
        res: Result<Vec<PipelineOutput>, String>,
        sessions: &[PipelineSession],
    ) -> bool {
        let wall = end - op.start;
        let recomputed = std::mem::take(&mut self.cur_recomputed);
        let mut f1 = 0.0;
        let failure = match res {
            Err(e) => Some(e),
            Ok(outs) => {
                f1 = outs.iter().map(|o| o.metrics.f1).sum::<f64>() / outs.len() as f64;
                self.last_outputs = outs;
                if f1 < self.wl.f1_floor {
                    Some(format!(
                        "F1 {f1:.4} below the workload floor {}",
                        self.wl.f1_floor
                    ))
                } else if op.kind == OpKind::Upsert && recomputed.iter().any(|&n| n != 1) {
                    Some(format!(
                        "upsert recomputed {recomputed:?} documents, expected 1"
                    ))
                } else {
                    None
                }
            }
        };
        let detail = op.before.map(|before| {
            self.tracer.close_op(op.id, op.kind.name(), op.start, end);
            let mut t = std::mem::take(&mut self.cur);
            let after = observe::snapshot();
            for (name, &v) in &after.counters {
                let d = v.saturating_sub(before.snap.counter(name));
                if d > 0 {
                    t.counters.insert(name.clone(), d);
                }
            }
            t.tensor = tensor_stats::delta(before.tensor, tensor_stats::snapshot());
            t.utilization = after.gauges.get("par.utilization").copied().unwrap_or(0.0);
            let n = sessions.len().max(1) as f64;
            t.label_coverage /= n;
            let now = cache_state(sessions);
            let mut hit_ratio = 0.0;
            for (i, (hits, misses, stage_misses)) in now.iter().enumerate() {
                let (h0, m0, s0) = before.caches.get(i).copied().unwrap_or((0, 0, [0; 6]));
                t.shard_hits += hits - h0;
                t.shard_misses += misses - m0;
                let served = (0..6).filter(|&k| stage_misses[k] == s0[k]).count();
                hit_ratio += served as f64 / 6.0;
            }
            t.stage_hit_ratio = hit_ratio / n;
            t
        });
        let ok = failure.is_none();
        self.ops.push(OpRecord {
            id: op.id,
            kind: op.kind,
            traced: op.traced,
            wall,
            f1,
            recomputed,
            failure,
            detail,
        });
        ok
    }

    fn verify(
        &self,
        ds: &SynthDataset,
        tasks: &[Task],
        sessions: &[PipelineSession],
    ) -> Result<(), String> {
        for (i, s) in sessions.iter().enumerate() {
            let lfs = match &self.installed {
                Some(v) => v[i],
                None => &tasks[i].lfs[..],
            };
            let fresh = PipelineSession::from_parts(
                s.corpus(),
                &ds.gold,
                &tasks[i].extractor,
                lfs,
                self.cfg.clone(),
            )
            .and_then(|mut f| f.output())
            .map_err(fail)?;
            let last = &self.last_outputs[i];
            if fresh.candidates != last.candidates {
                return Err(format!(
                    "relation {}: shard-assembled candidates differ from a cold session",
                    self.wl.relations[i]
                ));
            }
            let bits = |m: &[f32]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(&fresh.marginals) != bits(&last.marginals) {
                return Err(format!(
                    "relation {}: marginals differ from a cold session",
                    self.wl.relations[i]
                ));
            }
        }
        Ok(())
    }
}

fn fail(e: Error) -> String {
    format!("session call failed: {e}")
}

/// Per session: lifetime shard hits, shard misses, and per-stage misses.
fn cache_state(sessions: &[PipelineSession]) -> Vec<(u64, u64, [u64; 6])> {
    sessions
        .iter()
        .map(|s| {
            let shards = s.shard_stats();
            let cache = s.run_report().cache;
            let mut misses = [0u64; 6];
            for (k, id) in StageId::ALL.iter().enumerate() {
                misses[k] = cache.stage(*id).misses;
            }
            (shards.hits, shards.misses, misses)
        })
        .collect()
}
