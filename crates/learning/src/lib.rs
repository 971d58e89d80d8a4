//! # fonduer-learning
//!
//! Fonduer's deep-learning stage and every learner the paper compares
//! against:
//!
//! * [`model::FonduerModel`] — the multimodal LSTM (Bi-LSTM + attention per
//!   mention, extended feature library joined at the last layer; §4.2,
//!   Figure 5). Ablation switches reproduce the "Bi-LSTM w/ Attn." column
//!   of Table 4 (`use_features = false`) and the no-textual rows of
//!   Figure 7 (`use_lstm = false`).
//! * [`baselines::LogRegModel`] — sparse logistic regression standing in
//!   for the human-tuned feature library (Table 4) and SRV (Table 5).
//! * [`baselines::DocRnnModel`] — the document-level RNN of Table 6.
//! * [`input`] — candidate → token/feature preparation with candidate
//!   markers.

#![warn(missing_docs)]

pub mod baselines;
pub mod input;
pub mod model;

pub use baselines::{DocRnnModel, LogRegModel};
pub use input::{
    doc_token_ids, mention_token_ids, prepare, CandidateInput, PreparedDataset, MAX_ARITY,
};
pub use model::{FonduerModel, ModelConfig, ProbClassifier};
