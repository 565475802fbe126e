//! Closed-loop replay of the four replay workloads, untraced and traced.
//!
//! *Untraced* drives the public session API the way a caller would:
//! `push_event` (or `apply_snapshot` for the windowed workload), every handle
//! drained after each flush, then a timed `finish()` that also counts the
//! trailing partial batch.
//!
//! *Traced* drives the same batches by hand through the public pipeline
//! stages, in the order `tests/sharding.rs` proves exact, with a span around
//! every call. The per-query totals of the two must agree.

use crate::trace::Tracer;
use crate::workloads::{Variant, Workload};
use mnemonic::core::embedding::EmbeddingPool;
use mnemonic::core::pipeline::{
    DeletionResolve, DeltaBatch, Enumerate, Filtering, FrontierBuild, GraphUpdate,
};
use mnemonic::core::session::{MnemonicSession, QueryHandle};
use mnemonic::core::stats::CounterSnapshot;
use mnemonic::core::MnemonicError;
use mnemonic::graph::spill::SpillStats;
use mnemonic::graph::stats::GraphStats;
use mnemonic::stream::event::StreamEvent;
use mnemonic::stream::generator::SnapshotGenerator;
use mnemonic::stream::snapshot::Snapshot;
use mnemonic::stream::source::VecSource;
use std::time::Instant;

/// Positive and negative embeddings of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTotals {
    /// Newly formed embeddings.
    pub positive: u64,
    /// Removed embeddings.
    pub negative: u64,
}

impl QueryTotals {
    /// Embeddings alive at the end: positive − negative.
    pub fn net(&self) -> i64 {
        self.positive as i64 - self.negative as i64
    }
}

/// What one replay produced and how long it took.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// First push to `finish()` returned and all handles drained.
    pub wall_s: f64,
    /// Events replayed.
    pub events: usize,
    /// Wall time of every flushing call including its drain, in ms.
    pub batch_ms: Vec<f64>,
    /// Per-query totals, registration order.
    pub totals: Vec<QueryTotals>,
    /// A flush happened on a push that should not flush, or did not happen
    /// on one that should.
    pub misplaced_flushes: u64,
    /// State read just before `finish()` (traced replays only).
    pub end_state: EndState,
}

/// Layer state read from the session at the end of a replay.
#[derive(Debug, Default)]
pub struct EndState {
    /// Graph-level counts.
    pub graph: GraphStats,
    /// Engine counters summed over the standing queries.
    pub counters: CounterSnapshot,
    /// DEBI size summed over the standing queries.
    pub debi_bytes: u64,
    /// DEBI set bits summed over the standing queries.
    pub debi_set_bits: u64,
    /// Spill tier statistics, when the workload has one.
    pub spill: Option<SpillStats>,
    /// Spill I/O failures absorbed during ingest.
    pub spill_io_errors: u64,
}

/// Drain every handle, recycle the embedding shells and add the counts.
pub fn drain_all(handles: &[QueryHandle], totals: &mut [QueryTotals]) {
    for (handle, total) in handles.iter().zip(totals.iter_mut()) {
        let batch = handle.drain();
        total.positive += batch.positive.len() as u64;
        total.negative += batch.negative.len() as u64;
        for embedding in batch.positive.into_iter().chain(batch.negative) {
            EmbeddingPool::release(embedding);
        }
    }
}

fn read_end_state(session: &MnemonicSession, handles: &[QueryHandle]) -> EndState {
    let mut state = EndState {
        graph: session.graph_stats(),
        spill: session.spill_stats(),
        spill_io_errors: session.spill_io_errors(),
        ..EndState::default()
    };
    for handle in handles {
        let c = handle.counters();
        let sum = &mut state.counters;
        sum.edges_traversed_top_down += c.edges_traversed_top_down;
        sum.edges_traversed_bottom_up += c.edges_traversed_bottom_up;
        sum.debi_writes += c.debi_writes;
        sum.candidates_scanned += c.candidates_scanned;
        sum.work_units += c.work_units;
        sum.embeddings_emitted += c.embeddings_emitted;
        // Graph-level counts are the same for every query: keep one copy.
        sum.insertions_applied = c.insertions_applied;
        sum.deletions_applied = c.deletions_applied;
        if let Ok(debi) = session.debi_stats(handle) {
            state.debi_bytes += debi.bytes as u64;
            state.debi_set_bits += debi.set_bits;
        }
    }
    state
}

/// Replay `events` through a freshly built session the way a caller would.
/// `before_finish` sees the session after the last push and before
/// `finish()`; the oracle check uses it to flush and read the final graph.
pub fn untraced(
    workload: Workload,
    mut session: MnemonicSession,
    handles: &[QueryHandle],
    events: Vec<StreamEvent>,
    before_finish: impl FnOnce(&mut MnemonicSession, &mut ReplayOutcome) -> Result<(), MnemonicError>,
) -> Result<ReplayOutcome, MnemonicError> {
    let mut out = ReplayOutcome {
        events: events.len(),
        totals: vec![QueryTotals::default(); handles.len()],
        ..ReplayOutcome::default()
    };
    let batch_size = workload.batch_size();
    out.batch_ms.reserve(events.len() / batch_size + 512);

    let start = Instant::now();
    if let Some(config) = workload.stream_config() {
        let mut generator = SnapshotGenerator::new(VecSource::new(events), config);
        while let Some(snapshot) = generator.next_snapshot() {
            let t = Instant::now();
            session.apply_snapshot(&snapshot)?;
            drain_all(handles, &mut out.totals);
            out.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    } else {
        for (i, event) in events.into_iter().enumerate() {
            // Only every `batch_size`-th push flushes; the clock is read
            // around those alone, so the other pushes stay unperturbed.
            if (i + 1) % batch_size == 0 {
                let t = Instant::now();
                let flushed = session.push_event(event)?.is_some();
                drain_all(handles, &mut out.totals);
                out.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.misplaced_flushes += u64::from(!flushed);
            } else {
                out.misplaced_flushes += u64::from(session.push_event(event)?.is_some());
            }
        }
    }
    before_finish(&mut session, &mut out)?;
    let t = Instant::now();
    let trailing = session.finish()?;
    drain_all(handles, &mut out.totals);
    if trailing.is_some() {
        out.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Push one batch through the public stages by hand, one span per call.
/// Mirrors `MnemonicSession::apply_snapshot` for a session without a
/// fairness budget (none of the workloads sets one).
fn staged_batch(
    session: &mut MnemonicSession,
    snapshot: &Snapshot,
    tracer: &mut Tracer,
    batch_id: u32,
    parent: u32,
) -> Result<(), MnemonicError> {
    let s = tracer.begin("delta_batch", batch_id, Some(parent));
    let mut batch = DeltaBatch::from_snapshot(snapshot);
    tracer.end(s);

    if !batch.insertions.is_empty() {
        let s = tracer.begin("graph_update", batch_id, Some(parent));
        GraphUpdate::apply_insertions(session, &mut batch)?;
        tracer.end(s);
        let s = tracer.begin("frontier_build", batch_id, Some(parent));
        FrontierBuild::for_insertions(session, &mut batch);
        tracer.end(s);
        let s = tracer.begin("top_down", batch_id, Some(parent));
        Filtering::insertions(session, &mut batch);
        tracer.end(s);
        let s = tracer.begin("enumerate_pos", batch_id, Some(parent));
        Enumerate::positive(session, &mut batch);
        tracer.end(s);
    }
    if batch.has_deletions() {
        let s = tracer.begin("deletion_resolve", batch_id, Some(parent));
        DeletionResolve::run(session, &mut batch);
        tracer.end(s);
        let s = tracer.begin("frontier_build", batch_id, Some(parent));
        FrontierBuild::for_deletions(session, &mut batch);
        tracer.end(s);
        if !batch.doomed_edges.is_empty() {
            let s = tracer.begin("enumerate_neg", batch_id, Some(parent));
            Enumerate::negative(session, &mut batch);
            tracer.end(s);
            let s = tracer.begin("graph_update", batch_id, Some(parent));
            GraphUpdate::apply_deletions(session, &mut batch);
            tracer.end(s);
            let s = tracer.begin("bottom_up", batch_id, Some(parent));
            Filtering::deletions(session, &mut batch);
            tracer.end(s);
        }
    }
    Ok(())
}

/// Replay `events` by hand through the public pipeline stages, recording a
/// span around every call into `tracer`.
pub fn traced(
    workload: Workload,
    mut session: MnemonicSession,
    handles: &[QueryHandle],
    events: Vec<StreamEvent>,
    tracer: &mut Tracer,
) -> Result<ReplayOutcome, MnemonicError> {
    let mut out = ReplayOutcome {
        events: events.len(),
        totals: vec![QueryTotals::default(); handles.len()],
        ..ReplayOutcome::default()
    };
    let start = Instant::now();
    // Both batch sources behind one `next`: the window generator, or
    // batch-sized chunks whose trailing partial chunk is the batch
    // `finish()` flushes in the untraced replay.
    let batch_size = workload.batch_size();
    let mut next_snapshot: Box<dyn FnMut(u64) -> Option<Snapshot>> =
        if let Some(config) = workload.stream_config() {
            let mut generator = SnapshotGenerator::new(VecSource::new(events), config);
            Box::new(move |_| generator.next_snapshot())
        } else {
            let mut offset = 0;
            Box::new(move |id| {
                let chunk = events.get(offset..(offset + batch_size).min(events.len()))?;
                offset += chunk.len();
                (!chunk.is_empty()).then(|| Snapshot::from_events(id, chunk.iter().copied()))
            })
        };
    let mut batch_id = 0u32;
    loop {
        let root = tracer.begin("batch", batch_id, None);
        let s = tracer.begin("snapshot", batch_id, Some(root));
        let snapshot = next_snapshot(u64::from(batch_id));
        tracer.end(s);
        let Some(snapshot) = snapshot else {
            tracer.cancel(root);
            break;
        };
        staged_batch(&mut session, &snapshot, tracer, batch_id, root)?;
        let s = tracer.begin("drain", batch_id, Some(root));
        drain_all(handles, &mut out.totals);
        tracer.end(s);
        tracer.end(root);
        out.batch_ms.push(tracer.duration_ms(root));
        batch_id += 1;
    }
    out.end_state = read_end_state(&session, handles);
    let s = tracer.begin("finish", batch_id, None);
    session.finish()?;
    drain_all(handles, &mut out.totals);
    tracer.end(s);
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Build a session of `workload` in `variant`, register its queries and
/// load `bootstrap`; the returned seconds are what registration took.
pub fn build(
    workload: Workload,
    variant: Variant,
    bootstrap: &[StreamEvent],
) -> Result<(MnemonicSession, Vec<QueryHandle>, f64), MnemonicError> {
    let mut session = workload.session_builder(variant).build()?;
    let r = Instant::now();
    let handles = workload.register(|q, m, s| session.register_query(q, m, s))?;
    let register_s = r.elapsed().as_secs_f64();
    if !bootstrap.is_empty() {
        session.bootstrap(bootstrap)?;
    }
    Ok((session, handles, register_s))
}
