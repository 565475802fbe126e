//! Layer probes: each calls one layer's public functions alone, on data
//! derived from the workload's own events, and reports time per operation.
//! They run only in traced runs and never feed an end-to-end metric.

use crate::workloads::Workload;
use mnemonic::baselines::recompute::{NaiveMatcher, OracleSemantics};
use mnemonic::baselines::turboflux::TurboFluxLike;
use mnemonic::core::api::LabelEdgeMatcher;
use mnemonic::core::debi::Debi;
use mnemonic::core::embedding::CountingSink;
use mnemonic::core::ingest::{BackpressurePolicy, IngestQueue};
use mnemonic::core::session::MnemonicSession;
use mnemonic::core::variants::Isomorphism;
use mnemonic::graph::bitset::DenseBitSet;
use mnemonic::graph::edge::{Edge, EdgeTriple};
use mnemonic::graph::edge_log::LogRecord;
use mnemonic::graph::ids::EdgeId;
use mnemonic::graph::multigraph::StreamingGraph;
use mnemonic::graph::storage::codec::{read_varint_u64, write_varint_u64};
use mnemonic::graph::storage::PagedEdgeLog;
use mnemonic::stream::event::StreamEvent;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Events a probe looks at: enough to leave the caches, small enough that
/// all probes together stay well under a second.
const PROBE_EVENTS: usize = 100_000;

/// `(metric name, value)` pairs; units live in the catalogue.
pub type Readings = Vec<(&'static str, f64)>;

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn insertions(events: &[StreamEvent]) -> impl Iterator<Item = &StreamEvent> {
    events.iter().filter(|e| e.is_insert()).take(PROBE_EVENTS)
}

/// `graph::multigraph`: insert then delete the workload's first edges.
pub fn graph(events: &[StreamEvent]) -> Readings {
    let mut graph = StreamingGraph::new();
    let triples: Vec<EdgeTriple> = insertions(events)
        .map(|e| EdgeTriple::with_timestamp(e.src, e.dst, e.label, e.timestamp))
        .collect();
    let mut ids = Vec::with_capacity(triples.len());
    let t = Instant::now();
    for &triple in &triples {
        ids.push(graph.insert_edge(triple));
    }
    let insert_ns = ns_per(t, triples.len());
    let t = Instant::now();
    for &id in &ids {
        let _ = black_box(graph.delete_edge(id));
    }
    let delete_ns = ns_per(t, ids.len());
    vec![
        ("graph.insert_ns", insert_ns),
        ("graph.delete_ns", delete_ns),
    ]
}

/// `core::debi`: bit set/clear and the blocked row recompute.
pub fn debi() -> Readings {
    let rows = PROBE_EVENTS;
    let mut debi = Debi::new(8);
    debi.ensure_rows(rows);
    // A fixed odd stride visits every row once in a cache-unfriendly order.
    let order: Vec<usize> = (0..rows).map(|i| (i * 7919) % rows).collect();
    let t = Instant::now();
    for &edge in &order {
        debi.set(edge, (edge % 8) as u16, true);
        debi.set(edge, (edge % 8) as u16, false);
    }
    let set_clear_ns = ns_per(t, rows);
    let mut sorted = order;
    sorted.sort_unstable();
    let t = Instant::now();
    debi.recompute_rows(&sorted, |edge| black_box(edge as u64 * 0x9E37_79B9));
    let recompute_ns = ns_per(t, rows);
    black_box(debi.stats());
    vec![
        ("debi.set_clear_ns", set_clear_ns),
        ("debi.recompute_rows_ns_per_row", recompute_ns),
    ]
}

/// `graph::bitset`: word-parallel intersection and set-bit iteration.
pub fn bitset() -> Readings {
    let bound = 64 * 16_384;
    let mut a = DenseBitSet::with_capacity(bound);
    let mut b = DenseBitSet::with_capacity(bound);
    for i in (0..bound).step_by(3) {
        a.insert(i);
    }
    for i in (0..bound).step_by(5) {
        b.insert(i);
    }
    let mut out = DenseBitSet::with_capacity(bound);
    let rounds = 64;
    let t = Instant::now();
    for _ in 0..rounds {
        a.intersect_into(&b, &mut out);
        black_box(out.len());
    }
    let intersect_ns = ns_per(t, rounds * bound / 64);
    let t = Instant::now();
    let mut sum = 0usize;
    for _ in 0..rounds {
        sum += out.iter().sum::<usize>();
    }
    black_box(sum);
    let iter_ns = ns_per(t, rounds * out.len());
    vec![
        ("bitset.intersect_ns_per_word", intersect_ns),
        ("bitset.iter_ns_per_bit", iter_ns),
    ]
}

/// `core::ingest`: the ring alone, one producer thread and one consumer,
/// no session behind it.
pub fn ring(events: &[StreamEvent]) -> Readings {
    let n = events.len().min(PROBE_EVENTS);
    // Uncontended push cost: fill a ring that is large enough, then drain.
    let (producer, mut consumer) = IngestQueue::bounded(n, BackpressurePolicy::Reject);
    let t = Instant::now();
    for &event in &events[..n] {
        let _ = black_box(producer.try_push(event));
    }
    let push_ns = ns_per(t, n);
    while consumer.try_pop().is_some() {}
    drop((producer, consumer));

    // Transfer through the serve-sized ring with blocking back-pressure.
    let (producer, mut consumer) =
        IngestQueue::bounded(crate::workloads::SERVE_RING, BackpressurePolicy::Block);
    let t = Instant::now();
    let received = std::thread::scope(|scope| {
        scope.spawn(move || {
            for &event in &events[..n] {
                if producer.push(event).is_err() {
                    break;
                }
            }
        });
        let mut received = 0usize;
        while consumer.recv().is_some() {
            received += 1;
        }
        received
    });
    let transfer_eps = received as f64 / t.elapsed().as_secs_f64();
    vec![
        ("ingest.ring_push_ns", push_ns),
        ("ingest.ring_transfer_eps", transfer_eps),
    ]
}

/// `graph::storage`: the paged log and codec on their own — append, flush,
/// adjacency fetch through the page cache, full scan, varints. Uses the
/// page size and cache of `lanl_window_paged`.
pub fn storage(events: &[StreamEvent]) -> std::io::Result<Readings> {
    let records: Vec<LogRecord> = insertions(events)
        .enumerate()
        .map(|(i, e)| LogRecord {
            edge: Edge {
                id: EdgeId(i as u32),
                src: e.src,
                dst: e.dst,
                label: e.label,
                timestamp: e.timestamp,
            },
            debi_row: i as u64 & 0xff,
        })
        .collect();
    let mut log = PagedEdgeLog::create_temp(4096, 16, "probe")?;
    let t = Instant::now();
    for chunk in records.chunks(256) {
        log.append_batch(chunk)?;
    }
    let append_ns = ns_per(t, records.len());
    let t = Instant::now();
    log.flush()?;
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;

    let fetches = 2_000.min(records.len());
    let t = Instant::now();
    for record in records.iter().step_by(records.len() / fetches.max(1) + 1) {
        black_box(log.fetch_outgoing(record.edge.src)?.len());
    }
    let fetch_us = ns_per(t, fetches) / 1e3;
    let t = Instant::now();
    let mut scanned = 0usize;
    for record in log.scan_iter() {
        black_box(record?);
        scanned += 1;
    }
    let scan_ns = ns_per(t, scanned);
    log.destroy()?;

    let values: Vec<u64> = (0..PROBE_EVENTS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 48))
        .collect();
    let mut buf = Vec::with_capacity(values.len() * 10);
    let t = Instant::now();
    for &v in &values {
        write_varint_u64(&mut buf, v);
    }
    let mut pos = 0;
    let mut sum = 0u64;
    while let Some(v) = read_varint_u64(&buf, &mut pos) {
        sum = sum.wrapping_add(v);
    }
    black_box(sum);
    // One write plus one read per value.
    let varint_ns = ns_per(t, 2 * values.len());
    Ok(vec![
        ("storage.append_ns_per_record", append_ns),
        ("storage.flush_ms", flush_ms),
        ("storage.fetch_outgoing_us", fetch_us),
        ("storage.scan_ns_per_record", scan_ns),
        ("storage.varint_ns_per_u64", varint_ns),
    ])
}

/// `baselines`: the paper's comparison on the first events of
/// `netflow_select` with one selective query — TurboFlux-style
/// edge-at-a-time against Mnemonic per edge and batched, plus the
/// from-scratch oracle on the final graph. Informational only.
///
/// Returns the readings and whether the three incremental counts agreed
/// with each other and with the oracle.
pub fn baselines(events: &[StreamEvent]) -> (Readings, bool) {
    let events = &events[..events.len().min(PROBE_EVENTS)];
    let query = Workload::NetflowSelect.queries().swap_remove(0);

    let mut turboflux = TurboFluxLike::new(query.clone());
    let t = Instant::now();
    for event in events {
        black_box(turboflux.process_event(event));
    }
    let turboflux_eps = events.len() as f64 / t.elapsed().as_secs_f64();
    let (turboflux_total, _) = turboflux.totals();

    let mnemonic = |batch: usize| {
        let mut session = MnemonicSession::builder()
            .sequential()
            .batch_size(batch)
            .build()
            .expect("in-memory session");
        let handle = session
            .register_query(
                query.clone(),
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .expect("connected query");
        let sink = Arc::new(CountingSink::new());
        handle.attach_sink(sink.clone());
        let t = Instant::now();
        for &event in events {
            session.push_event(event).expect("in-memory ingest");
        }
        session.flush_pending().expect("in-memory ingest");
        let eps = events.len() as f64 / t.elapsed().as_secs_f64();
        (eps, sink.positive(), session)
    };
    let (per_edge_eps, per_edge_total, _) = mnemonic(1);
    let (batched_eps, batched_total, session) = mnemonic(crate::workloads::REPLAY_BATCH);

    let t = Instant::now();
    let oracle =
        NaiveMatcher::new(OracleSemantics::Isomorphism).count(session.graph(), &query) as u64;
    let verify_ms = t.elapsed().as_secs_f64() * 1e3;
    let agree = turboflux_total == oracle && per_edge_total == oracle && batched_total == oracle;
    (
        vec![
            ("baselines.turboflux_eps", turboflux_eps),
            ("baselines.mnemonic_per_edge_eps", per_edge_eps),
            ("baselines.mnemonic_batched_eps", batched_eps),
            ("baselines.recompute_verify_ms", verify_ms),
        ],
        agree,
    )
}
