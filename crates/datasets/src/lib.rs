//! Seeded synthetic stand-ins for the paper's ten datasets, plus the worked
//! examples of Figures 1–3.
//!
//! The real corpora (Facebook … Freebase, up to 265 M edges, with
//! web-crawled attributes) are not redistributable here, so each dataset is
//! replaced by a generator that reproduces the *shape* the algorithms care
//! about: planted community structure (doubling as the ground truth used
//! for F1 scoring), power-law-ish degrees, per-community textual topics,
//! and per-community numerical attribute centers. [`standins`] says how
//! each corpus is scaled down.
//!
//! Everything is deterministic under an explicit seed.

pub mod ego;
pub mod generator;
pub mod hetero_gen;
pub mod paper_examples;
pub mod queries;
pub mod standins;

pub use generator::{generate, SyntheticConfig};
pub use hetero_gen::{generate_hetero, HeteroConfig};
pub use queries::{hetero_queries, random_queries, random_updates, ChurnMix};
pub use standins::{all_homogeneous, Dataset};

pub use hetero_gen::HeteroDataset;
