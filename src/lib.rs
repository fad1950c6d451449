//! # csag — Community Search on Attributed Graphs with Accuracy Guarantees
//!
//! A from-scratch Rust reproduction of *"Scalable Community Search with
//! Accuracy Guarantee on Attributed Graphs"* (ICDE 2024). The facade crate
//! ships the unified query engine and re-exports the whole workspace:
//!
//! * [`engine`] — **the public entry point**: a reusable, `Send + Sync`
//!   [`engine::Engine`] per graph, the unified [`engine::CommunityQuery`]
//!   builder covering every method, typed [`engine::CsagError`] failures,
//!   parallel batch execution, the evolving-graph
//!   [`engine::GraphStore`] (epoch-stamped snapshots over
//!   [`engine::GraphUpdate`] batches, with incremental decomposition
//!   maintenance and selective cache invalidation), and the
//!   [`engine::HeteroEngine`] meta-path projection seam,
//! * [`service`] — **the serving layer over the engine**: an
//!   admission-controlled [`service::Service`] with bounded queueing
//!   (overload sheds with typed `Overloaded` errors), priorities,
//!   per-request deadlines that *stop* a search at its best answer so
//!   far instead of timing out, coalescing of identical in-flight queries, serving metrics,
//!   the `csag-wire` JSON-lines protocol behind `csag serve`, and the
//!   pipelined socket transport ([`service::Transport`], csag-wire v2
//!   over TCP / unix-domain sockets — see `docs/wire-protocol.md`),
//! * [`durability`] — **crash safety**: a segmented, checksummed
//!   write-ahead log of update batches with configurable fsync policy,
//!   periodic checkpoints bounding replay, torn-tail tolerant recovery
//!   to the exact pre-crash epoch
//!   (`GraphStore::with_wal` / `GraphStore::recover`,
//!   `csag serve --wal <dir>`), graceful read-only degradation when the
//!   disk fails, and a deterministic fault-injection harness
//!   ([`durability::FaultPlan`]) — see `docs/durability.md`,
//! * [`cluster`] — **scale-out**: a [`cluster::Router`] that applies
//!   update batches to a primary [`engine::GraphStore`] and fans them
//!   out to N replica stores over a `csag-updates v1` replication log,
//!   load-balancing reads with epoch-consistency guarantees (a client
//!   may pin an epoch; pinned reads are only served by a store that has
//!   published it), plus replica health tracking with automatic
//!   reseed-from-primary recovery (`csag serve --replicas N`),
//! * [`json`] — the one JSON writer and the one strict reader behind
//!   every serializer, the wire parser and the smoke client,
//! * [`graph`] — attributed homogeneous & heterogeneous graph storage,
//! * [`decomp`] — k-core / k-truss decomposition and maintenance,
//! * [`stats`] — Hoeffding bounds, bootstrap, Bag of Little Bootstraps,
//! * [`core`] — the paper's algorithms: the q-centric metric, the exact
//!   enumeration with three pruning strategies, and the SEA
//!   sampling-estimation pipeline with its extensions,
//! * [`baselines`] — ACQ / ATC(LocATC) / VAC / E-VAC comparators,
//! * [`datasets`] — seeded synthetic stand-ins for the paper's datasets,
//! * [`eval`] — cross-method cohesiveness metrics and F1 scoring.
//!
//! ## Quick start
//!
//! Build an [`engine::Engine`] once per graph, then run any number of
//! queries — exact, SEA (with its accuracy certificate), or a baseline —
//! through the same builder:
//!
//! ```
//! use csag::datasets::paper_examples::figure1_imdb;
//! use csag::engine::{CommunityQuery, Engine, Method};
//!
//! let (graph, q) = figure1_imdb();
//! let engine = Engine::new(graph);
//!
//! let result = engine
//!     .run(&CommunityQuery::new(Method::Sea, q).with_k(3).with_seed(42))
//!     .expect("a 3-core containing The Godfather exists");
//! assert!(result.community.contains(&q));
//! let cert = result.certificate.expect("SEA always reports its accuracy");
//! assert!(cert.moe >= 0.0);
//!
//! // The same engine serves batches (and concurrent callers):
//! let queries: Vec<_> = result.community[..2]
//!     .iter()
//!     .map(|&v| CommunityQuery::new(Method::Exact, v).with_k(3))
//!     .collect();
//! for outcome in engine.run_batch(&queries) {
//!     assert!(outcome.is_ok());
//! }
//! ```
//!
//! Failures are typed ([`engine::CsagError`]): invalid parameters,
//! unknown query nodes, a definitive "no community exists", and E-VAC's
//! root-size refusal are four distinct cases instead of one `None`; a
//! budget-stopped search answers with its best community so far.

// Every public item of the facade crate must carry docs; CI promotes
// this (and every other rustdoc warning) to an error via
// RUSTDOCFLAGS="-D warnings".
#![warn(missing_docs)]

pub mod cluster;
pub mod durability;
pub mod engine;
pub mod json;
pub mod service;

pub use csag_baselines as baselines;
pub use csag_core as core;
pub use csag_datasets as datasets;
pub use csag_decomp as decomp;
pub use csag_eval as eval;
pub use csag_graph as graph;
pub use csag_stats as stats;
