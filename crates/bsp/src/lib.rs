//! # vcsql-bsp — a vertex-centric bulk-synchronous-parallel engine
//!
//! A from-scratch, shared-memory Pregel-style engine (the substrate the paper
//! assumes in Section 2): vertices execute a user program in supersteps,
//! communicate only by messages, and synchronize at a barrier between
//! supersteps. The engine provides
//!
//! * a labelled, immutable [`Graph`] (CSR adjacency, interned labels),
//! * per-vertex user state and one pending-message table per superstep
//!   (messages grouped by target vertex),
//! * thread parallelism over shards of the active vertex set, driven by a
//!   persistent [`WorkerPool`] (workers park between supersteps; small
//!   supersteps fall back to sequential execution automatically),
//! * global aggregators (the paper's "aggregation vertex" mechanism),
//! * per-superstep and total statistics: messages, bytes, active vertices —
//!   the paper's *communication cost* measure, and
//! * optional machine [`Partitioning`] so a distributed cluster can be
//!   simulated by counting cross-machine traffic (used by `vcsql-dist`),
//!   with pluggable placement strategies ([`PartitionStrategy`]: hash
//!   baseline, anchor co-location, label-propagation refinement) and
//!   edge-cut/balance [`PartitionDiagnostics`].
//!
//! The API is [`Computation`], a driver-controlled superstep loop. Each call
//! to [`Computation::superstep`] runs one BSP superstep; the host decides
//! what each superstep does (exactly how the paper's Algorithm 2 is "driven
//! by" a stack of edge labels, and how TigerGraph queries are sequences of
//! one-hop traversals). Fault tolerance is a layer around that loop, not part
//! of it: a driver that wants checkpoint/rollback/replay wraps its supersteps
//! in [`Computation::run_phase`] ([`recovery`]) and arms a [`FaultInjector`].

pub mod engine;
pub mod fault;
pub mod graph;
pub mod interner;
pub mod partition;
pub mod pool;
pub mod program;
pub mod recovery;
pub mod stats;
pub mod sync;

pub use engine::{Computation, EngineConfig, Outbox, VertexCtx, DEFAULT_PARALLEL_THRESHOLD};
pub use fault::{Fault, FaultError, FaultInjector, FaultPlan};
pub use graph::{Edge, Graph, GraphBuilder, VertexId};
pub use interner::{Interner, LabelId};
pub use partition::{
    balance_cap, PartitionDiagnostics, PartitionStrategy, Partitioning, DEFAULT_BALANCE_SLACK,
};
pub use pool::WorkerPool;
pub use program::{Aggregator, Message};
pub use stats::{FaultTraffic, LabelTraffic, RunStats, StepStats, TrafficProfile};
