//! `csag::cluster::shard` — partitioned graph stores behind a
//! per-query routing planner.
//!
//! A [`ShardedRouter`] splits one logical graph across `N` shard
//! stores and presents them through the same [`ReadSource`] seam the
//! single store and the replicated [`Router`]
//! implement — the scheduler never learns that shards exist. The
//! guarantee is the one the rest of the codebase is built on, extended
//! across partitions: **a sharded cluster answers every query
//! byte-identical to a single store at the same epoch** — results,
//! certificates, and error messages alike.
//!
//! The moving parts, each in its own module:
//!
//! * [`partition`] — the deterministic edge-cut partitioner: BFS-block
//!   vertex ownership, per-shard ghost halos of configurable radius,
//!   and the per-update routing table ([`ShardPlan`]).
//! * [`planner`] — per-query routing: runs a query shard-local only
//!   under a coverage *certificate* proving the method's whole read
//!   footprint is resident; everything else spills to the journal
//!   snapshot the view pins, the whole graph at the same epoch.
//!
//! # The write path and the cluster epoch
//!
//! Writes go through [`ShardedRouter::apply`], which keeps a
//! **journal** — a full [`GraphStore`] of the global graph (and the
//! WAL carrier under `--wal`). Each batch is routed into per-shard
//! sub-batches along the plan (`ShardPlan::route`), applied to the
//! journal (which owns validation, durability, and epoch numbering),
//! then fanned out to every shard's own [`Router`] — reusing the
//! replication log fan-out, so `--shards` composes with `--replicas`.
//! Every shard receives every batch (possibly empty), keeping all
//! shard stores in **epoch lockstep** with the journal.
//!
//! The **cluster epoch** is published last, on a separate watermark,
//! only once every touched shard has applied the batch. Pinned reads
//! gate on this cluster watermark — never on the journal's own (which
//! necessarily advances first) — so a read pinned to `E` can only see
//! a view whose *every* shard snapshot is at `E`.
//!
//! # Reads
//!
//! A routed read hands the scheduler an immutable [`ClusterView`]: the
//! per-shard snapshots and the journal snapshot, all pinned at one
//! cluster epoch, plus the ownership and coverage tables that were
//! current when it published. Queries then run through the planner
//! against that view: at the home shard under a coverage certificate,
//! else on the journal snapshot, with its global tables and its own
//! distance cache. Epoch consistency is by construction, not by
//! coordination.

pub mod partition;
pub mod planner;

pub use partition::ShardPlan;

use crate::cluster::router::{ReadSource, RoutedSnapshot, Router};
use crate::cluster::{ClusterMetrics, ShardSectionMetrics};
use crate::engine::store::{EpochCell, ReadCounters, Snapshot};
use crate::engine::{ApplyError, CsagError, GraphStore, GraphUpdate, UpdateReport};
use csag_graph::{AttributedGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// One published cluster epoch: the journal snapshot (the global graph
/// and tables the planner routes with, and the engine a spilled read
/// runs on), every shard's snapshot pinned at the same epoch, and the
/// ownership/coverage tables that were current at publish. Immutable;
/// readers hold it for the lifetime of a query.
pub struct ClusterView {
    epoch: u64,
    journal: Snapshot,
    shards: Vec<Snapshot>,
    owner: Arc<Vec<u32>>,
    covered: Vec<Arc<Vec<bool>>>,
}

impl ClusterView {
    /// The cluster epoch this view pins (every shard snapshot agrees).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The journal's snapshot: the global graph and decompositions the
    /// planner routes with, and the engine a spilled read runs on.
    pub fn journal(&self) -> &Snapshot {
        &self.journal
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s pinned snapshot.
    pub fn shard(&self, s: usize) -> &Snapshot {
        &self.shards[s]
    }

    /// The shard owning vertex `v`.
    pub fn owner(&self, v: NodeId) -> usize {
        self.owner[v as usize] as usize
    }

    /// Whether shard `s` covers `v` (holds all of `v`'s edges).
    pub fn covers(&self, s: usize, v: NodeId) -> bool {
        self.covered[s][v as usize]
    }

    /// Shard `s`'s coverage bitmap.
    pub(crate) fn coverage(&self, s: usize) -> &[bool] {
        &self.covered[s]
    }

    /// Vertices shard `s` owns.
    fn owned_count(&self, s: usize) -> usize {
        self.owner.iter().filter(|&&o| o == s as u32).count()
    }

    /// Ghost vertices shard `s` covers beyond its owned block.
    fn halo_count(&self, s: usize) -> usize {
        self.covered[s]
            .iter()
            .enumerate()
            .filter(|&(v, &c)| c && self.owner[v] != s as u32)
            .count()
    }
}

/// Per-shard routing counters, shared between the router and every
/// routed read it hands out.
pub(crate) struct ShardStats {
    local_hits: Vec<AtomicU64>,
    gathers: Vec<AtomicU64>,
    merge_nanos: Vec<AtomicU64>,
}

impl ShardStats {
    fn new(shards: usize) -> Arc<ShardStats> {
        Arc::new(ShardStats {
            local_hits: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            gathers: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            merge_nanos: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    pub(crate) fn record_local(&self, shard: usize) {
        self.local_hits[shard].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_gather(&self, home: usize, elapsed: Duration) {
        self.gathers[home].fetch_add(1, Ordering::Relaxed);
        self.merge_nanos[home].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Partitioned graph stores behind one write path and one
/// [`ReadSource`]. See the [module docs](self).
pub struct ShardedRouter {
    /// The global store: validation, durability (WAL), and epoch
    /// numbering live here. Apply through [`ShardedRouter::apply`],
    /// never directly.
    journal: Arc<GraphStore>,
    /// One replication router per shard (so `--shards` composes with
    /// `--replicas`: each shard primary fans its log to its replicas).
    shards: Vec<Router>,
    /// The evolving partition/routing table.
    plan: Mutex<ShardPlan>,
    /// The last published view.
    view: RwLock<Arc<ClusterView>>,
    /// The cluster-epoch watermark: published only after every shard
    /// applied. Pinned reads gate here.
    watch: Arc<EpochCell>,
    /// Serializes route + journal-apply + fan-out + publish.
    write: Mutex<()>,
    stats: Arc<ShardStats>,
    records: AtomicU64,
    reads: ReadCounters,
}

impl ShardedRouter {
    /// Partitions `graph` into `shards` shard stores (ghost halo of
    /// `halo` hops), each fronted by a [`Router`] with
    /// `replicas_per_shard` replicas.
    pub fn over_graph(
        graph: AttributedGraph,
        shards: usize,
        halo: u32,
        replicas_per_shard: usize,
    ) -> Self {
        ShardedRouter::from_journal(
            Arc::new(GraphStore::new(graph)),
            shards,
            halo,
            replicas_per_shard,
        )
    }

    /// Fronts an existing journal store with freshly carved shards.
    pub fn from_journal(
        journal: Arc<GraphStore>,
        shards: usize,
        halo: u32,
        replicas_per_shard: usize,
    ) -> Self {
        let snap = journal.snapshot();
        let g = snap.engine().graph();
        let plan = ShardPlan::partition(g, shards, halo);
        let shard_routers: Vec<Router> = (0..shards)
            .map(|s| {
                let store = GraphStore::from_arc_at(Arc::new(plan.shard_graph(g, s)), snap.epoch());
                Router::new(Arc::new(store), replicas_per_shard)
            })
            .collect();
        let view = ShardedRouter::build_view(&snap, &plan, &shard_routers);
        let watch = EpochCell::new(snap.epoch());
        let stats = ShardStats::new(shards);
        ShardedRouter {
            journal,
            shards: shard_routers,
            plan: Mutex::new(plan),
            view: RwLock::new(Arc::new(view)),
            watch,
            write: Mutex::new(()),
            stats,
            records: AtomicU64::new(0),
            reads: ReadCounters::default(),
        }
    }

    fn build_view(journal: &Snapshot, plan: &ShardPlan, shards: &[Router]) -> ClusterView {
        ClusterView {
            epoch: journal.epoch(),
            journal: journal.clone(),
            shards: shards.iter().map(|r| r.primary().snapshot()).collect(),
            owner: plan.owners(),
            covered: (0..plan.shards()).map(|s| plan.coverage(s)).collect(),
        }
    }

    /// The journal store (the global graph; reads through it bypass
    /// the shards entirely — apply through [`ShardedRouter::apply`],
    /// never directly, or the shards will permanently lag).
    pub fn journal(&self) -> &Arc<GraphStore> {
        &self.journal
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured halo radius, in hops.
    pub fn halo(&self) -> u32 {
        self.plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .halo()
    }

    /// The published **cluster** epoch: the highest epoch every shard
    /// has applied. Trails the journal's own watermark by exactly the
    /// in-flight fan-out.
    pub fn epoch(&self) -> u64 {
        self.watch.current()
    }

    /// The last published view.
    pub fn view(&self) -> Arc<ClusterView> {
        Arc::clone(&self.view.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The cluster write path: routes the batch along the plan, applies
    /// it to the journal (which owns validation, durability, and epoch
    /// numbering), fans the per-shard sub-batches out through every
    /// shard's router, and only then publishes the cluster epoch and
    /// the new [`ClusterView`].
    ///
    /// # Errors
    /// Exactly [`GraphStore::apply`]'s errors, byte-for-byte. An
    /// erroneous batch ([`ApplyError::Graph`]) still publishes its
    /// applied prefix — the routing pre-simulates the journal's
    /// validity checks so each shard receives exactly that prefix's
    /// sub-batch. A refused batch ([`ApplyError::refused_batch`])
    /// applied nothing anywhere: no fan-out, no cluster epoch.
    pub fn apply(&self, updates: &[GraphUpdate]) -> Result<UpdateReport, ApplyError> {
        let _guard = self.write.lock().unwrap_or_else(PoisonError::into_inner);
        let mut plan = self.plan.lock().unwrap_or_else(PoisonError::into_inner);
        let routed = plan.route(updates);
        let outcome = self.journal.apply(updates);
        if matches!(&outcome, Err(e) if e.refused_batch()) {
            // Nothing was applied or logged: the plan is untouched and
            // no shard may hear about the batch.
            return outcome;
        }
        debug_assert!(
            match &outcome {
                Ok(_) => routed.valid_prefix == updates.len(),
                Err(_) => routed.valid_prefix < updates.len(),
            },
            "routing's validity simulation must agree with the journal's checks"
        );
        plan.commit(&routed);
        self.records.fetch_add(1, Ordering::Relaxed);
        let snap = self.journal.snapshot();
        for (router, sub) in self.shards.iter().zip(&routed.per_shard) {
            // Sub-batches carry only the journal-validated prefix, and
            // shard stores are WAL-less, so a rejection here is an
            // invariant violation — fail loudly over diverging quietly.
            let _ = router
                .apply(sub)
                .unwrap_or_else(|e| panic!("routed sub-batch must apply cleanly: {e:?}"));
            debug_assert_eq!(
                router.epoch(),
                snap.epoch(),
                "shards advance in epoch lockstep with the journal"
            );
        }
        let view = Arc::new(ShardedRouter::build_view(&snap, &plan, &self.shards));
        *self.view.write().unwrap_or_else(PoisonError::into_inner) = view;
        drop(plan);
        // Publish last: a pinned read woken by this sees a view whose
        // every shard snapshot is at the published epoch.
        self.watch.publish(snap.epoch());
        outcome
    }

    /// Point-in-time cluster metrics: the shared schema with a
    /// populated per-shard section (and no member section —
    /// each shard's own router tracks those).
    pub fn metrics(&self) -> ClusterMetrics {
        let view = self.view();
        ClusterMetrics {
            primary_epoch: self.epoch(),
            records: self.records.load(Ordering::Relaxed),
            pinned_reads: self.reads.pinned_reads.load(Ordering::Relaxed),
            unpinned_reads: self.reads.unpinned_reads.load(Ordering::Relaxed),
            primary_reads: 0,
            pinned_waits: self.reads.pinned_waits.load(Ordering::Relaxed),
            pinned_rejects: self.reads.pinned_rejects.load(Ordering::Relaxed),
            members: Vec::new(),
            shards: (0..self.shards.len())
                .map(|s| ShardSectionMetrics {
                    id: s,
                    owned: view.owned_count(s) as u64,
                    halo: view.halo_count(s) as u64,
                    watermark: self.shards[s].epoch(),
                    local_hits: self.stats.local_hits[s].load(Ordering::Relaxed),
                    gathers: self.stats.gathers[s].load(Ordering::Relaxed),
                    merge_ms: self.stats.merge_nanos[s].load(Ordering::Relaxed) as f64 / 1e6,
                })
                .collect(),
        }
    }
}

impl ReadSource for ShardedRouter {
    /// Sharded routing: every read gets the last published
    /// [`ClusterView`] (all shard snapshots at one cluster epoch). A
    /// read pinned to an unpublished epoch waits on the **cluster**
    /// watermark — the journal publishing first is not enough; every
    /// shard must have applied.
    fn route_read(&self, pin: Option<u64>, wait: Duration) -> Result<RoutedSnapshot, CsagError> {
        self.watch.admit_read(pin, wait, &self.reads)?;
        // The view is swapped in before its epoch publishes, so the one
        // read here is at least as new as the epoch just admitted.
        Ok(RoutedSnapshot::sharded(
            self.view(),
            Arc::clone(&self.stats),
        ))
    }
}

// Shared across transport connections and writer threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedRouter>();
    assert_send_sync::<ClusterView>();
};
