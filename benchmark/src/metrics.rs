//! The metric catalogue: every metric the harness reports, with its unit,
//! which direction is better and — for the per-layer metrics — which
//! end-to-end metric it is expected to move on which workload.
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// `<layer>.<metric>` for per-layer metrics, a bare name end to end.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Per-layer: the end-to-end metric and workload it should move.
    /// End-to-end: what it measures.
    pub note: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, note: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        note,
    }
}

const fn higher(name: &'static str, unit: &'static str, note: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        note,
    }
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// Their regression bounds live in `BENCHMARK.json` alone.
pub const END_TO_END: &[MetricDef] = &[
    higher(
        "events_per_s",
        "1/s",
        "closed loop: events from first push to finish() returned and every handle drained, median over repetitions",
    ),
    lower(
        "batch_p50_ms",
        "ms",
        "replays: wall time of each flushing push_event/apply_snapshot call including the drain; serve_netflow: producer-to-done time of each batch at the open-loop mid rate; per batch the median over repetitions, then the median over batches",
    ),
    lower("batch_p95_ms", "ms", "as batch_p50_ms, 95th percentile (nearest rank)"),
    lower("peak_rss_mb", "MB", "VmHWM of the workload's process"),
    lower(
        "setup_s",
        "s",
        "generation + session build + query registration + bootstrap, median over repetitions",
    ),
];

const SELECT: &str = "events_per_s on netflow_select";
const TOP_DOWN: &str = "pipeline.top_down_ms, through it events_per_s on netflow_select";
const GRAPH_UPDATE: &str = "pipeline.graph_update_ms; peak_rss_mb on lsbench_churn";
const LANL: &str = "events_per_s and peak_rss_mb on lanl_window_paged only";
const SERVE_LATENCY: &str =
    "batch_p50_ms / batch_p95_ms on serve_netflow; no effect on the replays";
const SERVE_THROUGHPUT: &str = "events_per_s and batch_p50_ms on serve_netflow";
const INFORMATIONAL: &str = "informational: the paper's batching-beats-edge-at-a-time claim";

/// The per-layer metrics, reported by every workload with `--trace 1`; 0
/// where the layer does not run in a workload.
pub const PER_LAYER: &[MetricDef] = &[
    // stream
    lower(
        "stream.snapshot_ns_per_event",
        "ns",
        "events_per_s on lanl_window_paged",
    ),
    lower(
        "stream.snapshots",
        "count",
        "events_per_s on lanl_window_paged",
    ),
    // core::ingest
    lower("ingest.ring_push_ns", "ns", SERVE_LATENCY),
    higher("ingest.ring_transfer_eps", "1/s", SERVE_LATENCY),
    lower("ingest.queue_wait_p50_ms", "ms", SERVE_LATENCY),
    lower("ingest.queue_wait_p99_ms", "ms", SERVE_LATENCY),
    higher("ingest.pushed", "count", SERVE_LATENCY),
    lower(
        "ingest.rejected",
        "count",
        "failed operations on serve_netflow",
    ),
    lower("ingest.shed", "count", "failed operations on serve_netflow"),
    lower(
        "ingest.stranded",
        "count",
        "failed operations on serve_netflow",
    ),
    lower(
        "ingest.gen_late_p99_ms",
        "ms",
        "validity of the open-loop phases of serve_netflow",
    ),
    higher(
        "ingest.delivered_ratio_hi",
        "ratio",
        "serve.sustained_eps on serve_netflow",
    ),
    // core::pipeline stages
    lower(
        "pipeline.graph_update_ms",
        "ms",
        "events_per_s on lanl_window_paged",
    ),
    lower("pipeline.frontier_build_ms", "ms", SELECT),
    lower(
        "pipeline.top_down_ms",
        "ms",
        "events_per_s and batch_p95_ms on netflow_select",
    ),
    lower(
        "pipeline.bottom_up_ms",
        "ms",
        "events_per_s on lsbench_churn only",
    ),
    lower(
        "pipeline.deletion_resolve_ms",
        "ms",
        "events_per_s on lsbench_churn only",
    ),
    lower(
        "pipeline.enumerate_pos_ms",
        "ms",
        "events_per_s and batch_p95_ms on netflow_cyclic",
    ),
    lower(
        "pipeline.enumerate_neg_ms",
        "ms",
        "events_per_s on lsbench_churn only",
    ),
    lower(
        "pipeline.orchestration_ms",
        "ms",
        "events_per_s on every replay",
    ),
    lower(
        "pipeline.edges_inserted",
        "count",
        "fixed per seed: the input size",
    ),
    lower(
        "pipeline.edges_deleted",
        "count",
        "fixed per seed: the input size",
    ),
    lower("pipeline.edges_traversed_top_down", "count", TOP_DOWN),
    lower(
        "pipeline.edges_traversed_bottom_up",
        "count",
        "pipeline.bottom_up_ms on lsbench_churn",
    ),
    lower("pipeline.debi_writes", "count", TOP_DOWN),
    lower(
        "pipeline.candidates_scanned",
        "count",
        "pipeline.enumerate_pos_ms on netflow_cyclic",
    ),
    lower(
        "pipeline.work_units",
        "count",
        "pipeline.enumerate_pos_ms on netflow_cyclic",
    ),
    higher(
        "pipeline.embeddings_emitted",
        "count",
        "fixed per seed: the output size",
    ),
    higher(
        "pipeline.embeddings_per_candidate",
        "ratio",
        "pipeline.enumerate_pos_ms on netflow_cyclic",
    ),
    lower("pipeline.traversals_per_update", "ratio", TOP_DOWN),
    // core::session
    lower("session.register_ms", "ms", "setup_s on every workload"),
    lower("session.drain_ms", "ms", "batch_p50_ms on lsbench_churn"),
    lower("session.finish_ms", "ms", "events_per_s on every replay"),
    // core::shard
    higher("shard.lane_busy_share", "ratio", SERVE_THROUGHPUT),
    lower("shard.lane_skew", "ratio", SERVE_THROUGHPUT),
    lower("shard.pipeline_p50_ms", "ms", SERVE_THROUGHPUT),
    lower("shard.pipeline_p99_ms", "ms", SERVE_THROUGHPUT),
    higher("shard.measured_speedup_2v1", "ratio", SERVE_THROUGHPUT),
    // core::parallel + the vendored pool
    higher(
        "parallel.enumerate_speedup_2v1",
        "ratio",
        "events_per_s on netflow_cyclic only",
    ),
    // core::debi and graph::bitset
    lower("debi.recompute_rows_ns_per_row", "ns", TOP_DOWN),
    lower("debi.set_clear_ns", "ns", TOP_DOWN),
    lower("debi.bytes", "bytes", "peak_rss_mb on every workload"),
    lower("debi.set_bits", "count", TOP_DOWN),
    lower("bitset.intersect_ns_per_word", "ns", TOP_DOWN),
    lower("bitset.iter_ns_per_bit", "ns", TOP_DOWN),
    // graph::multigraph
    lower("graph.insert_ns", "ns", GRAPH_UPDATE),
    lower("graph.delete_ns", "ns", GRAPH_UPDATE),
    lower("graph.live_edges", "count", GRAPH_UPDATE),
    lower("graph.edge_placeholders", "count", GRAPH_UPDATE),
    higher("graph.recycled_insertions", "count", GRAPH_UPDATE),
    // graph::storage / spill
    lower("storage.append_ns_per_record", "ns", LANL),
    lower("storage.flush_ms", "ms", LANL),
    lower("storage.fetch_outgoing_us", "us", LANL),
    lower("storage.scan_ns_per_record", "ns", LANL),
    lower("storage.varint_ns_per_u64", "ns", LANL),
    higher("storage.cache_hit_ratio", "ratio", LANL),
    lower("storage.cache_evictions", "count", LANL),
    higher("storage.compression_ratio", "ratio", LANL),
    lower("storage.edges_on_disk", "count", LANL),
    lower(
        "storage.io_errors",
        "count",
        "failed operations on lanl_window_paged",
    ),
    lower("storage.io_retries", "count", LANL),
    lower(
        "storage.overhead_share",
        "ratio",
        "events_per_s on lanl_window_paged",
    ),
    // baselines
    higher("baselines.turboflux_eps", "1/s", INFORMATIONAL),
    higher("baselines.mnemonic_per_edge_eps", "1/s", INFORMATIONAL),
    higher("baselines.mnemonic_batched_eps", "1/s", INFORMATIONAL),
    lower("baselines.recompute_verify_ms", "ms", INFORMATIONAL),
    // the whole serve path, open loop (serve_netflow only)
    lower(
        "serve.emit_p50_ms_lo",
        "ms",
        "what a subscriber of serve_netflow sees at the lo rate",
    ),
    lower(
        "serve.emit_p99_ms_lo",
        "ms",
        "what a subscriber of serve_netflow sees at the lo rate",
    ),
    lower(
        "serve.emit_p50_ms_mid",
        "ms",
        "batch_p50_ms on serve_netflow, seen per embedding",
    ),
    lower(
        "serve.emit_p99_ms_mid",
        "ms",
        "batch_p95_ms on serve_netflow, seen per embedding",
    ),
    higher(
        "serve.sustained_eps",
        "1/s",
        "the highest frozen rate serve_netflow holds",
    ),
    // the harness itself
    lower(
        "trace.overhead_share",
        "ratio",
        "none: the cost of recording, per workload",
    ),
];

/// Look a metric up by name in both lists.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` names exactly the catalogue's metrics and the five
    /// workloads, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            let mut names: Vec<&str> = Vec::new();
            for entry in listed {
                let name = entry.get("name").and_then(|v| v.as_str()).unwrap();
                let def = defs.iter().find(|d| d.name == name).unwrap_or_else(|| {
                    panic!("{name} is in BENCHMARK.json {key} but not in the catalogue")
                });
                assert_eq!(
                    entry.get("unit").and_then(|v| v.as_str()),
                    Some(def.unit),
                    "{name}"
                );
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    entry.get("better").and_then(|v| v.as_str()),
                    Some(better),
                    "{name}"
                );
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(|v| v.as_f64()).unwrap();
                    assert!((0.0..=0.25).contains(&bound), "{name}");
                }
                names.push(name);
            }
            let mut wanted: Vec<&str> = defs.iter().map(|d| d.name).collect();
            names.sort_unstable();
            wanted.sort_unstable();
            assert_eq!(names, wanted, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let wanted: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, wanted);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
