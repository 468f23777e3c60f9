//! # wqe-datagen
//!
//! Synthetic datasets, benchmark queries, and why-question generation for
//! the WQE reproduction — the stand-ins for the paper's experimental
//! setting (§7): DBpedia/IMDB/Offshore/WatDiv-shaped graphs, DBPSB/WatDiv-
//! style ground-truth query instantiation, and the "disturb Q* with up to
//! k operators, set T = Q*(G) \ Q(G)" why-question construction.
//!
//! [`stream`] generates paper-scale graphs block by block and hands them to
//! `wqe-store`'s one snapshot encoder ([`wqe_store::write_source`]) without
//! building them in memory; this crate owns generation only, never the
//! snapshot format.

#![warn(missing_docs)]

pub mod plant;
pub mod queries;
pub mod stream;
pub mod synth;
pub mod whygen;

pub use plant::{generate_planted, PlantSpoke, PlantTemplate, PlantedWorkload};
pub use queries::{generate_query, GeneratedQuery, QueryGenConfig, TopologyKind};
pub use stream::{materialize, stream_snapshot, ScaleConfig, StreamReport};
pub use synth::{
    all_datasets, dbpedia_like, emit_snapshot, generate, imdb_like, offshore_like, watdiv_like,
    SynthConfig,
};
pub use whygen::{
    exemplar_from, generate_why, generate_why_empty, generate_why_many, load_suite, save_suite,
    GeneratedWhy, WhyGenConfig,
};
