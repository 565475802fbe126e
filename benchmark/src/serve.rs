//! `serve_netflow`: one generator thread → bounded ring →
//! `ShardedSession::serve` → shard lanes → sinks.
//!
//! A phase is either *closed loop* (the producer pushes as fast as
//! back-pressure allows) or *open loop* at a fixed rate: event *i* is due at
//! *i*/rate, the generator sleeps to ≥ 1 ms ticks and pushes everything due,
//! never spinning. Latency is taken from the due time of an embedding's
//! newest edge, so a stall charges every event that had to wait behind it.

use crate::replay::QueryTotals;
use crate::workloads::{Workload, SERVE_RING};
use mnemonic::core::embedding::{
    CompleteEmbedding, CountingSink, EmbeddingPool, EmbeddingSink, Sign,
};
use mnemonic::core::ingest::{BackpressurePolicy, IngestQueue, PipelinedRun};
use mnemonic::core::session::QueryHandle;
use mnemonic::core::shard::ShardedSession;
use mnemonic::core::MnemonicError;
use mnemonic::stream::event::StreamEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The frozen open-loop rates in events per second: ≈ 25 %, 50 % and 70 % of
/// the closed-loop `events_per_s` measured on the seed commit (see
/// README.md, "Calibration"). Constants, so that every later commit is
/// offered the same load.
pub const RATE_LO: f64 = 28_000.0;
/// See [`RATE_LO`].
pub const RATE_MID: f64 = 56_000.0;
/// See [`RATE_LO`].
pub const RATE_HI: f64 = 80_000.0;

/// A rate is sustained when all three hold.
pub const LIMIT_EMIT_P99_MS: f64 = 250.0;
/// Delivered ÷ offered must reach this share.
pub const LIMIT_DELIVERED: f64 = 0.98;
/// The generator itself may run at most this late at p99.
pub const LIMIT_GEN_LATE_P99_MS: f64 = 50.0;

/// The generator's tick: it never sleeps for less.
pub const TICK: Duration = Duration::from_millis(1);

/// How many of the first `total` events are due `elapsed_s` after the start
/// at `rate` events per second: event *i* is due at *i*/rate.
pub fn due_count(elapsed_s: f64, rate: f64, total: usize) -> usize {
    ((elapsed_s * rate).floor() as usize)
        .saturating_add(1)
        .min(total)
}

/// When the generator should wake next, as seconds since the start: the due
/// time of event `next`, but at least one tick from `now_s`.
pub fn next_wake_s(now_s: f64, next: usize, rate: f64) -> f64 {
    (next as f64 / rate).max(now_s + TICK.as_secs_f64())
}

/// A sink that stamps every embedding with its emit time and newest edge.
/// Each handle has its own sink and is served by one lane thread, so the
/// mutex is uncontended; the buffer is pre-sized so `accept` does not
/// allocate.
pub struct LatencySink {
    origin: Instant,
    records: Mutex<Vec<(u64, u32)>>,
    initial_capacity: usize,
    positive: AtomicU64,
    negative: AtomicU64,
}

impl LatencySink {
    /// A sink with room for `capacity` embeddings, stamping against `origin`.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        LatencySink {
            origin,
            records: Mutex::new(Vec::with_capacity(capacity)),
            initial_capacity: capacity,
            positive: AtomicU64::new(0),
            negative: AtomicU64::new(0),
        }
    }

    /// The `(emit ns since origin, newest edge id)` records, and whether the
    /// buffer had to grow.
    fn take(&self) -> (Vec<(u64, u32)>, bool) {
        let records = std::mem::take(&mut *self.records.lock().expect("sink mutex"));
        let grew = records.capacity() > self.initial_capacity;
        (records, grew)
    }
}

impl EmbeddingSink for LatencySink {
    fn accept(&self, embedding: CompleteEmbedding, sign: Sign) {
        let emit_ns = self.origin.elapsed().as_nanos() as u64;
        let newest = embedding.edges.iter().map(|e| e.0).max().unwrap_or(0);
        self.records
            .lock()
            .expect("sink mutex")
            .push((emit_ns, newest));
        match sign {
            Sign::Positive => self.positive.fetch_add(1, Ordering::Relaxed),
            Sign::Negative => self.negative.fetch_add(1, Ordering::Relaxed),
        };
        EmbeddingPool::release(embedding);
    }

    fn count(&self) -> u64 {
        self.positive.load(Ordering::Relaxed) + self.negative.load(Ordering::Relaxed)
    }
}

/// Which sinks a phase attaches to the handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sinks {
    /// `CountingSink`: the cheapest consumer.
    Counting,
    /// [`LatencySink`]: emit time and newest edge per embedding.
    Latency,
}

/// What one serve phase produced.
pub struct PhaseOutcome {
    /// Generator start to `serve` returned (every lane drained).
    pub wall_s: f64,
    /// Events offered.
    pub events: usize,
    /// Per-query totals, registration order.
    pub totals: Vec<QueryTotals>,
    /// The library's own report of the run.
    pub run: PipelinedRun,
    /// Pushes that returned an error (none with the `Block` policy while the
    /// server lives).
    pub push_errors: u64,
    /// Open loop: how late each push completed against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Open loop with [`Sinks::Latency`]: emit time minus the due time of
    /// the embedding's newest edge, ms.
    pub emit_ms: Vec<f64>,
    /// A sink buffer outgrew its reservation.
    pub sink_grew: bool,
    /// An embedding's newest edge id fell outside the served range.
    pub unattributed: u64,
}

enum AttachedSinks {
    Counting(Vec<Arc<CountingSink>>),
    Latency(Vec<Arc<LatencySink>>),
}

/// Serve `events` through `session` from one generator thread. `rate` is
/// `None` for the closed loop. `bootstrap_len` is the number of edges loaded
/// before the phase: with id recycling off and an insert-only stream, edge
/// id − `bootstrap_len` is the event's ordinal.
pub fn run_phase(
    session: &mut ShardedSession,
    handles: &[QueryHandle],
    events: &[StreamEvent],
    bootstrap_len: usize,
    rate: Option<f64>,
    sinks: Sinks,
) -> Result<PhaseOutcome, MnemonicError> {
    let origin = Instant::now();
    let attached = match sinks {
        Sinks::Counting => AttachedSinks::Counting(
            handles
                .iter()
                .map(|h| {
                    let sink = Arc::new(CountingSink::new());
                    h.attach_sink(sink.clone());
                    sink
                })
                .collect(),
        ),
        Sinks::Latency => AttachedSinks::Latency(
            handles
                .iter()
                .map(|h| {
                    let sink = Arc::new(LatencySink::new(origin, events.len()));
                    h.attach_sink(sink.clone());
                    sink
                })
                .collect(),
        ),
    };

    let (producer, consumer) = IngestQueue::bounded(SERVE_RING, BackpressurePolicy::Block);
    let n = events.len();
    let mut late_ms = Vec::with_capacity(if rate.is_some() { n } else { 0 });
    let mut push_errors = 0u64;

    let (run, start, wall_s) = std::thread::scope(|scope| {
        let (late_ms, push_errors) = (&mut late_ms, &mut push_errors);
        let generator = scope.spawn(move || {
            let start = Instant::now();
            let mut next = 0usize;
            while next < n {
                let due = match rate {
                    Some(rate) => due_count(start.elapsed().as_secs_f64(), rate, n),
                    None => n,
                };
                while next < due {
                    *push_errors += u64::from(producer.push(events[next]).is_err());
                    if let Some(rate) = rate {
                        let due_s = next as f64 / rate;
                        late_ms.push((start.elapsed().as_secs_f64() - due_s).max(0.0) * 1e3);
                    }
                    next += 1;
                }
                if let (Some(rate), true) = (rate, next < n) {
                    let now_s = start.elapsed().as_secs_f64();
                    let wake = next_wake_s(now_s, next, rate);
                    std::thread::sleep(Duration::from_secs_f64(wake - now_s));
                }
            }
            // Dropping the only producer closes the stream.
            drop(producer);
            start
        });
        let run = session.serve(consumer);
        let end = Instant::now();
        let start = generator.join().expect("generator thread panicked");
        (run, start, (end - start).as_secs_f64())
    });
    let run = run?;
    let start_ms = (start - origin).as_secs_f64() * 1e3;

    let mut out = PhaseOutcome {
        wall_s,
        events: n,
        totals: Vec::with_capacity(handles.len()),
        run,
        push_errors,
        late_ms,
        emit_ms: Vec::new(),
        sink_grew: false,
        unattributed: 0,
    };
    match attached {
        AttachedSinks::Counting(sinks) => {
            for sink in sinks {
                out.totals.push(QueryTotals {
                    positive: sink.positive(),
                    negative: sink.negative(),
                });
            }
        }
        AttachedSinks::Latency(sinks) => {
            for sink in sinks {
                out.totals.push(QueryTotals {
                    positive: sink.positive.load(Ordering::Relaxed),
                    negative: sink.negative.load(Ordering::Relaxed),
                });
                let (records, grew) = sink.take();
                out.sink_grew |= grew;
                out.emit_ms.reserve(records.len());
                for (emit_ns, newest) in records {
                    let ordinal = (newest as usize)
                        .checked_sub(bootstrap_len)
                        .filter(|&ordinal| ordinal < n);
                    match (ordinal, rate) {
                        (None, _) => out.unattributed += 1,
                        // Emit time minus the due time of the newest edge.
                        (Some(ordinal), Some(rate)) => out
                            .emit_ms
                            .push(emit_ns as f64 / 1e6 - (start_ms + ordinal as f64 / rate * 1e3)),
                        // The closed loop has no due times.
                        (Some(_), None) => {}
                    }
                }
            }
        }
    }
    for handle in handles {
        handle.detach_sink();
    }
    Ok(out)
}

/// Build the sharded session, register the queries and load the bootstrap
/// events; the returned seconds are this phase's share of `setup_s`.
pub fn build(
    shards: usize,
    bootstrap: &[StreamEvent],
) -> Result<(ShardedSession, Vec<QueryHandle>, f64), MnemonicError> {
    let t = Instant::now();
    let mut session = Workload::sharded_builder(shards).build()?;
    let handles = Workload::ServeNetflow.register(|q, m, s| session.register_query(q, m, s))?;
    session.bootstrap(bootstrap)?;
    Ok((session, handles, t.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_i_is_due_at_i_over_rate() {
        // At 1000 ev/s event 0 is due at once, event 5 after 5 ms.
        assert_eq!(due_count(0.0, 1000.0, 100), 1);
        assert_eq!(due_count(0.0049, 1000.0, 100), 5);
        assert_eq!(due_count(0.005, 1000.0, 100), 6);
        assert_eq!(due_count(10.0, 1000.0, 100), 100);
    }

    #[test]
    fn pacer_sleeps_at_least_one_tick_and_never_past_a_due_event() {
        // Slow stream: wake exactly when the next event is due.
        assert_eq!(next_wake_s(0.0, 1, 10.0), 0.1);
        // Fast stream: the next event is due within the tick, so sleep one
        // tick and push everything that became due meanwhile.
        let wake = next_wake_s(2.0, 80_001, 40_000.0);
        assert!((wake - 2.001).abs() < 1e-12);
        // Running late: still a full tick, never a spin.
        assert!((next_wake_s(5.0, 10, 1000.0) - 5.001).abs() < 1e-12);
    }
}
