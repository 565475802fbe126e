//! The five named workloads: what each generates from the seed, which
//! standing queries it registers and how its session is configured.
//!
//! Sizes are fixed here (not on the command line) so that two commits are
//! always compared on the same inputs; only the seed varies. Every workload
//! also has a `Check` scale — the same generator at ≈ 20 000 events with the
//! vertex count scaled to keep the density — small enough for the
//! from-scratch oracle ([`NaiveMatcher`](mnemonic::baselines::recompute::NaiveMatcher)).

use mnemonic::core::api::{EdgeMatcher, LabelEdgeMatcher, MatchSemantics};
use mnemonic::core::session::{MnemonicSession, QueryHandle, SessionBuilder};
use mnemonic::core::shard::{ShardedSession, ShardedSessionBuilder};
use mnemonic::core::variants::Isomorphism;
use mnemonic::core::MnemonicError;
use mnemonic::datagen::{
    lanl_like, lsbench_like, netflow_like, LanlConfig, LsbenchConfig, NetflowConfig,
};
use mnemonic::graph::ids::WILDCARD_VERTEX_LABEL;
use mnemonic::graph::spill::SpillConfig;
use mnemonic::graph::storage::StorageConfig;
use mnemonic::query::patterns;
use mnemonic::query::query_graph::QueryGraph;
use mnemonic::stream::config::StreamConfig;
use mnemonic::stream::event::StreamEvent;

/// Delta-batch size of the four replay workloads.
pub const REPLAY_BATCH: usize = 512;
/// Delta-batch size of `serve_netflow`.
pub const SERVE_BATCH: usize = 256;
/// Shard lanes of `serve_netflow`.
pub const SERVE_SHARDS: usize = 2;
/// Ring capacity of `serve_netflow`.
pub const SERVE_RING: usize = 1024;
/// Bootstrap events of `serve_netflow`, loaded before the clock starts.
pub const SERVE_BOOTSTRAP: usize = 100_000;
/// Served events per phase of `serve_netflow`; a multiple of
/// [`SERVE_BATCH`], so no phase ends on a partial batch.
pub const SERVE_EVENTS: usize = 480 * SERVE_BATCH;
/// Sliding window of `lanl_window_paged`: 6 h window, 600 s stride.
pub const LANL_WINDOW_S: u64 = 6 * 3600;
/// Stride of the `lanl_window_paged` window.
pub const LANL_STRIDE_S: u64 = 600;

/// One of the five workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Label-selective paths over a NetFlow-like stream, sequential.
    NetflowSelect,
    /// Wildcard cyclic patterns over a NetFlow-like stream, 2 pool threads.
    NetflowCyclic,
    /// LSBench-like stream whose second half is 50 % deletions.
    LsbenchChurn,
    /// LANL-like sliding window with the paged spill tier switched on.
    LanlWindowPaged,
    /// Bounded ring → 2 shard lanes → sinks, closed and open loop.
    ServeNetflow,
}

/// Input size: the measured size, or the oracle-checkable miniature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size every metric is measured at.
    Full,
    /// ≈ 20 000 events, same density, for the recompute oracle.
    Check,
}

/// Which configuration of a replay workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The configuration the end-to-end metrics are measured on.
    Standard,
    /// The comparison twin of the traced run (sequential, in-memory).
    Twin,
}

/// The generated input of one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Loaded before the clock starts (empty for the replay workloads).
    pub bootstrap: Vec<StreamEvent>,
    /// The timed stream.
    pub stream: Vec<StreamEvent>,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::NetflowSelect,
        Workload::NetflowCyclic,
        Workload::LsbenchChurn,
        Workload::LanlWindowPaged,
        Workload::ServeNetflow,
    ];

    /// The name used in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetflowSelect => "netflow_select",
            Workload::NetflowCyclic => "netflow_cyclic",
            Workload::LsbenchChurn => "lsbench_churn",
            Workload::LanlWindowPaged => "lanl_window_paged",
            Workload::ServeNetflow => "serve_netflow",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the workload's input from the seed. The same seed always
    /// gives the same events.
    pub fn inputs(self, seed: u64, scale: Scale) -> Inputs {
        let full = scale == Scale::Full;
        let replay = |stream| Inputs {
            bootstrap: Vec::new(),
            stream,
        };
        match self {
            Workload::NetflowSelect => replay(netflow_like(NetflowConfig {
                vertices: if full { 80_000 } else { 4_000 },
                events: if full { 400_000 } else { 20_000 },
                edge_labels: 8,
                seed,
            })),
            Workload::NetflowCyclic => replay(netflow_like(NetflowConfig {
                vertices: if full { 20_000 } else { 4_000 },
                events: if full { 200 * REPLAY_BATCH } else { 20_000 },
                edge_labels: 8,
                seed,
            })),
            Workload::LsbenchChurn => replay(lsbench_like(LsbenchConfig {
                vertices: if full { 50_000 } else { 3_333 },
                insertions: if full { 150_000 } else { 10_000 },
                updates: if full { 150_000 } else { 10_000 },
                deletion_fraction: 0.5,
                edge_labels: 45,
                seed,
            })),
            Workload::LanlWindowPaged => replay(lanl_like(LanlConfig {
                vertices: if full { 40_000 } else { 2_500 },
                events: if full { 320_000 } else { 20_000 },
                days: 3,
                vertex_labels: 6,
                edge_labels: 3,
                seed,
            })),
            Workload::ServeNetflow => {
                let (bootstrap, served) = if full {
                    (SERVE_BOOTSTRAP, SERVE_EVENTS)
                } else {
                    (10_000, 10_240)
                };
                let mut all = netflow_like(NetflowConfig {
                    vertices: if full { 60_000 } else { 4_000 },
                    events: bootstrap + served,
                    edge_labels: 8,
                    seed,
                });
                let stream = all.split_off(bootstrap);
                Inputs {
                    bootstrap: all,
                    stream,
                }
            }
        }
    }

    /// The standing queries, in registration order.
    pub fn queries(self) -> Vec<QueryGraph> {
        let w = WILDCARD_VERTEX_LABEL.0;
        let select = || {
            [
                patterns::labelled_path(&[w, w, w], &[0, 1]),
                patterns::labelled_path(&[w, w, w, w], &[2, 3, 4]),
            ]
        };
        match self {
            Workload::NetflowSelect => select().into(),
            Workload::NetflowCyclic => vec![
                patterns::triangle(),
                patterns::rectangle(),
                patterns::dual_triangle(),
            ],
            Workload::LsbenchChurn => {
                let mut q = vec![patterns::triangle(), patterns::path(3)];
                q.extend(select());
                q
            }
            Workload::LanlWindowPaged => vec![patterns::triangle(), patterns::path(3)],
            Workload::ServeNetflow => (0..8u16)
                .map(|l| patterns::labelled_path(&[w, w, w], &[l, (l + 1) % 8]))
                .collect(),
        }
    }

    /// Whether the replay is cut into time-based sliding-window snapshots
    /// (by [`mnemonic::stream::generator::SnapshotGenerator`]) instead of
    /// fixed-size `push_event` batches.
    pub fn stream_config(self) -> Option<StreamConfig> {
        (self == Workload::LanlWindowPaged)
            .then(|| StreamConfig::sliding_window(LANL_WINDOW_S, LANL_STRIDE_S))
    }

    /// Delta-batch size of the workload.
    pub fn batch_size(self) -> usize {
        if self == Workload::ServeNetflow {
            SERVE_BATCH
        } else {
            REPLAY_BATCH
        }
    }

    /// The builder of the workload's single (unsharded) session. `variant`
    /// selects the twin configurations the traced run compares against.
    pub fn session_builder(self, variant: Variant) -> SessionBuilder {
        let base = MnemonicSession::builder().batch_size(self.batch_size());
        match (self, variant) {
            (Workload::NetflowCyclic, Variant::Standard) => base.threads(2),
            (Workload::LanlWindowPaged, Variant::Standard) => base
                .sequential()
                .storage(StorageConfig::paged().page_size(4096).cache_pages(16))
                .spill(SpillConfig {
                    in_memory_window: 4096,
                    buffer_capacity: 256,
                }),
            // One lane of `serve_netflow` holding all eight queries: the
            // synchronous reference and the source of its stage spans.
            (Workload::ServeNetflow, _) => base.sequential().recycle_edge_ids(false),
            // The twins: `netflow_cyclic` without the pool, and
            // `lanl_window_paged` without the storage tier.
            _ => base.sequential(),
        }
    }

    /// Register the workload's queries through `register_query` of either
    /// session type.
    pub fn register(
        self,
        mut register_query: impl FnMut(
            QueryGraph,
            Box<dyn EdgeMatcher>,
            Box<dyn MatchSemantics>,
        ) -> Result<QueryHandle, MnemonicError>,
    ) -> Result<Vec<QueryHandle>, MnemonicError> {
        self.queries()
            .into_iter()
            .map(|q| register_query(q, Box::new(LabelEdgeMatcher), Box::new(Isomorphism)))
            .collect()
    }

    /// The sharded session builder of `serve_netflow` with `shards` lanes.
    pub fn sharded_builder(shards: usize) -> ShardedSessionBuilder {
        ShardedSession::builder()
            .shards(shards)
            .batch_size(SERVE_BATCH)
            .recycle_edge_ids(false)
    }
}
