//! Golden equivalence for the ingest front end (mirrors
//! `tests/feature_equivalence.rs`, but across *refactors* rather than
//! across code paths).
//!
//! The arena document model must be a pure layout change: every logical
//! artifact the pipeline produces — parsed document content, candidate
//! sets, feature matrices, and held-out PrF1 — must be byte-identical to
//! what the pre-refactor `Vec<String>`-per-sentence model produced. This
//! test hashes the *resolved* (string-level) form of each artifact, so the
//! hashes are independent of how the document stores its text, and
//! compares against `tests/golden_ingest.txt`, which was generated by this
//! same harness **before** the arena rewrite landed.
//!
//! CI runs the suite at `FONDUER_THREADS=1` and `4`, so the goldens also
//! pin the any-thread-count determinism contract.
//!
//! The per-domain `features_hashed` and `labels` lines pin the hashed-mode
//! feature matrix and the LF label matrix the same way.
//!
//! Regenerate (only when intentionally changing pipeline *semantics*):
//! `GOLDEN_WRITE=1 cargo test --test ingest_equivalence`.

use fonduer::prelude::*;
use fonduer_core::domains;
use fonduer_synth::Domain;

/// FNV-1a over raw bytes, chainable.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_str(h: &mut u64, s: &str) {
    fnv(h, s.as_bytes());
    fnv(h, &[0xff]); // length delimiter
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

/// Layout-independent hash of one document's logical content: every string
/// a consumer could observe, in document order, plus the structural DAG.
fn doc_logical_hash(d: &Document) -> u64 {
    let mut h = FNV_SEED;
    fnv_str(&mut h, &d.name);
    fnv_str(&mut h, d.format.label());
    // Structure arenas: these types are unchanged by the layout refactor,
    // so their Debug rendering is a stable serialization.
    fnv_str(&mut h, &format!("{:?}", d.sections));
    fnv_str(&mut h, &format!("{:?}", d.text_blocks));
    fnv_str(&mut h, &format!("{:?}", d.tables));
    fnv_str(&mut h, &format!("{:?}", d.figures));
    fnv_str(&mut h, &format!("{:?}", d.captions));
    fnv_str(&mut h, &format!("{:?}", d.rows));
    fnv_str(&mut h, &format!("{:?}", d.columns));
    fnv_str(&mut h, &format!("{:?}", d.cells));
    fnv_str(&mut h, &format!("{:?}", d.paragraphs));
    // Sentences: resolve every token attribute to its string form.
    for sid in d.sentence_ids() {
        let s = d.sentence(sid);
        fnv_u64(&mut h, s.parent.index() as u64);
        fnv_u64(&mut h, u64::from(s.abs_position));
        fnv_str(&mut h, s.text(d));
        for i in 0..s.len() {
            let (a, b) = s.char_offsets(d)[i];
            fnv_u64(&mut h, u64::from(a));
            fnv_u64(&mut h, u64::from(b));
            fnv_str(&mut h, s.word(d, i));
            fnv_str(&mut h, s.lemma(d, i));
            fnv_str(&mut h, s.pos(d, i));
            fnv_str(&mut h, s.ner(d, i));
        }
        fnv_str(&mut h, &format!("{:?}", s.visual));
        fnv_str(&mut h, &format!("{:?}", s.structural));
    }
    h
}

/// Hash of an extracted candidate set: document names, mention coordinates
/// and their resolved span texts.
fn candidates_hash(corpus: &Corpus, cands: &CandidateSet) -> u64 {
    let mut h = FNV_SEED;
    fnv_str(&mut h, &cands.schema.name);
    for c in &cands.candidates {
        let doc = corpus.doc(c.doc);
        fnv_str(&mut h, &doc.name);
        for m in &c.mentions {
            fnv_u64(&mut h, m.sentence.index() as u64);
            fnv_u64(&mut h, u64::from(m.start));
            fnv_u64(&mut h, u64::from(m.end));
            fnv_str(&mut h, &m.text(doc));
            fnv_str(&mut h, &m.normalized_text(doc));
        }
    }
    h
}

/// Hash of a feature matrix in resolved-name form: per row, the sorted
/// feature strings (independent of vocabulary id assignment).
fn features_hash(fast: &fonduer_features::FeatureSet, n_rows: usize) -> u64 {
    let mut h = FNV_SEED;
    for row in 0..n_rows {
        let mut names = fast.feature_names(row);
        names.sort_unstable();
        fnv_u64(&mut h, names.len() as u64);
        for n in &names {
            fnv_str(&mut h, n);
        }
    }
    h
}

/// Hash of a hashed-mode feature matrix: per row, the bucket ids and the
/// per-modality tallies recorded at featurization time.
fn hashed_features_hash(fs: &fonduer_features::FeatureSet, n_rows: usize) -> u64 {
    let mut h = FNV_SEED;
    fnv_u64(&mut h, fs.n_features() as u64);
    for row in 0..n_rows {
        let ids = fs.matrix.row_ids(row);
        fnv_u64(&mut h, ids.len() as u64);
        for &id in ids {
            fnv_u64(&mut h, u64::from(id));
        }
        for c in fs.modality_counts(row) {
            fnv_u64(&mut h, u64::from(c));
        }
    }
    h
}

/// Hash of a label matrix: LF names, then every vote in row-major order.
fn labels_hash(lfs: &[&LabelingFunction], lm: &LabelMatrix) -> u64 {
    let mut h = FNV_SEED;
    for lf in lfs {
        fnv_str(&mut h, &lf.name);
    }
    for i in 0..lm.n_rows() {
        fnv(
            &mut h,
            &lm.row(i).iter().map(|&v| v as u8).collect::<Vec<_>>(),
        );
    }
    h
}

fn domain_lines(domain: Domain, n_docs: usize, seed: u64, out: &mut Vec<String>) {
    let ds = domain.generate(n_docs, seed);
    let label = domain.label();
    let mut h = FNV_SEED;
    for (_, doc) in ds.corpus.iter() {
        fnv_u64(&mut h, doc_logical_hash(doc));
    }
    out.push(format!("{label} docs {h:#018x}"));

    let tasks = match domain {
        Domain::Electronics => domains::electronics::tasks(&ds),
        Domain::Ads => domains::ads::tasks(&ds),
        Domain::Paleo => domains::paleo::tasks(&ds),
        Domain::Genomics => domains::genomics::tasks(&ds),
    };
    let task = &tasks[0];
    let cands = task.extractor.extract(&ds.corpus);
    out.push(format!(
        "{label} candidates n={} {:#018x}",
        cands.len(),
        candidates_hash(&ds.corpus, &cands)
    ));
    let fz = Featurizer::new(FeatureConfig::all());
    let fast = fz.featurize(&ds.corpus, &cands);
    out.push(format!(
        "{label} features {:#018x}",
        features_hash(&fast, cands.len())
    ));
    let hashed =
        Featurizer::new(FeatureConfig::all().with_hashing(12)).featurize(&ds.corpus, &cands);
    out.push(format!(
        "{label} features_hashed {:#018x}",
        hashed_features_hash(&hashed, cands.len())
    ));
    let lfs: Vec<&LabelingFunction> = task.lfs.iter().collect();
    let lm = LabelMatrix::apply(&lfs, &ds.corpus, &cands);
    out.push(format!(
        "{label} labels {}x{} {:#018x}",
        lm.n_rows(),
        lm.n_cols(),
        labels_hash(&lfs, &lm)
    ));
}

fn pipeline_lines(out: &mut Vec<String>) {
    // Full-pipeline PrF1 on the electronics corpus with a deterministic
    // LogReg learner: pins supervision + training + inference end to end.
    let ds = Domain::Electronics.generate(12, 7);
    let task = &domains::electronics::tasks(&ds)[0];
    let cfg = PipelineConfig::builder()
        .learner(Learner::LogReg)
        .seed(7)
        .build()
        .expect("valid config");
    let outp = run_task(&ds.corpus, &ds.gold, task, &cfg);
    let m = outp.metrics;
    out.push(format!(
        "ELEC. prf1 tp={} fp={} fn={} p={:.6} r={:.6} f1={:.6} cov={:.6}",
        m.tp, m.fp, m.fn_, m.precision, m.recall, m.f1, outp.label_coverage
    ));
    let kb = outp.kb.tuple_set();
    let mut kh = FNV_SEED;
    for (doc, args) in &kb {
        fnv_str(&mut kh, doc);
        for a in args {
            fnv_str(&mut kh, a);
        }
    }
    out.push(format!("ELEC. kb n={} {kh:#018x}", kb.len()));
}

#[test]
fn arena_ingest_matches_pre_refactor_goldens() {
    let mut lines: Vec<String> = Vec::new();
    domain_lines(Domain::Electronics, 12, 7, &mut lines);
    domain_lines(Domain::Ads, 8, 11, &mut lines);
    domain_lines(Domain::Paleo, 3, 13, &mut lines);
    domain_lines(Domain::Genomics, 8, 17, &mut lines);
    pipeline_lines(&mut lines);
    let rendered = lines.join("\n") + "\n";

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_ingest.txt");
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(path, &rendered).expect("write goldens");
        eprintln!("wrote {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("tests/golden_ingest.txt missing");
    assert_eq!(
        rendered, golden,
        "pipeline artifacts diverged from the pre-refactor goldens"
    );
}
