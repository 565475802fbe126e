//! One run of one workload: generate the inputs from the seed, check the
//! outputs against a reference, measure, and return every metric by name.
//!
//! `--trace 0` measures the end-to-end metrics with nothing recorded;
//! `--trace 1` re-runs the same inputs with harness-side spans and the layer
//! probes and returns the per-layer metrics.

use crate::metrics::{self, MetricDef};
use crate::probes::{self, Readings};
use crate::replay::{self, QueryTotals, ReplayOutcome};
use crate::serve::{self, PhaseOutcome, Sinks};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Scale, Variant, Workload, SERVE_SHARDS};
use mnemonic::baselines::recompute::{NaiveMatcher, OracleSemantics};
use mnemonic::core::embedding::{CollectingSink, EmbeddingSink};
use mnemonic::core::ingest::{BackpressurePolicy, IngestQueue};
use mnemonic::core::MnemonicError;
use mnemonic::graph::multigraph::StreamingGraph;
use mnemonic::query::query_graph::QueryGraph;
use mnemonic::stream::event::StreamEvent;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue entry.
    pub def: &'static MetricDef,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// One correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunResult {
    /// The metrics of the requested kind, in catalogue order.
    pub metrics: Vec<Metric>,
    /// The correctness checks performed.
    pub checks: Vec<Check>,
    /// Things a reader should know before trusting a number.
    pub warnings: Vec<String>,
    /// Operations attempted: events offered to the system.
    pub attempted: u64,
    /// Operations failed: events rejected, shed, stranded or errored, every
    /// event of a phase whose backlog grew, and every event of a run whose
    /// correctness check failed.
    pub failed: u64,
}

impl RunResult {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Samples per metric name, reduced to medians at the end of a run.
#[derive(Default)]
struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Sample counts of the values that already summarise many samples.
    counts: BTreeMap<&'static str, usize>,
}

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// A value that already summarises `count` samples (a percentile).
    fn set(&mut self, name: &'static str, value: f64, count: usize) {
        self.values.insert(name, vec![value]);
        self.counts.insert(name, count);
    }

    fn extend(&mut self, readings: Readings) {
        for (name, value) in readings {
            self.push(name, value);
        }
    }

    /// One [`Metric`] per catalogue entry of `defs`: the median of its
    /// samples, 0 when the workload never runs the layer.
    fn into_metrics(self, defs: &'static [MetricDef]) -> Vec<Metric> {
        for name in self.values.keys() {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "{name} is not in the catalogue"
            );
        }
        defs.iter()
            .map(|def| {
                let samples = self.values.get(def.name).map_or(&[][..], Vec::as_slice);
                Metric {
                    def,
                    value: stats::median(samples).unwrap_or(0.0),
                    samples: self.counts.get(def.name).copied().unwrap_or(samples.len()),
                }
            })
            .collect()
    }
}

struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    samples: Samples,
    checks: Vec<Check>,
    warnings: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    fn finish(mut self, defs: &'static [MetricDef]) -> RunResult {
        if self.checks.iter().any(|c| !c.ok) {
            self.failed = self.attempted;
        }
        RunResult {
            metrics: self.samples.into_metrics(defs),
            checks: self.checks,
            warnings: self.warnings,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// Set-ups performed and discarded before the measured repetitions, so that
/// `setup_s` is the median of at least this many samples.
const EXTRA_SETUPS: usize = 7;

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn oracle_counts(graph: &StreamingGraph, queries: &[QueryGraph]) -> Vec<i64> {
    let matcher = NaiveMatcher::new(OracleSemantics::Isomorphism);
    queries
        .iter()
        .map(|q| matcher.count(graph, q) as i64)
        .collect()
}

fn nets(totals: &[QueryTotals]) -> Vec<i64> {
    totals.iter().map(QueryTotals::net).collect()
}

/// Run one workload once.
///
/// # Errors
/// Any error the system under test returns; the caller reports it as a
/// failed run.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<RunResult, Box<dyn std::error::Error>> {
    let mut run = Run {
        workload,
        seed,
        seconds,
        samples: Samples::default(),
        checks: Vec::new(),
        warnings: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    match (workload, traced) {
        (Workload::ServeNetflow, false) => {
            run.serve_oracle_check()?;
            run.serve_end_to_end()?;
        }
        (Workload::ServeNetflow, true) => run.serve_per_layer(out_dir)?,
        (_, false) => {
            run.replay_oracle_check()?;
            run.replay_end_to_end()?;
        }
        (_, true) => run.replay_per_layer(out_dir)?,
    }
    Ok(if traced {
        run.finish(metrics::PER_LAYER)
    } else {
        if let Some(mb) = peak_rss_mb() {
            run.samples.push("peak_rss_mb", mb);
        }
        run.finish(metrics::END_TO_END)
    })
}

// ---- the four replay workloads ---------------------------------------------

impl Run {
    /// The workload's miniature against the from-scratch oracle: per-query
    /// net counts (positive − negative) must equal what `NaiveMatcher` finds
    /// in the session's final graph.
    fn replay_oracle_check(&mut self) -> Result<(), MnemonicError> {
        let w = self.workload;
        let inputs = w.inputs(self.seed, Scale::Check);
        let (session, handles, ..) = replay::build(w, Variant::Standard, &[])?;
        let queries = w.queries();
        let mut oracle = Vec::new();
        let out = replay::untraced(w, session, &handles, inputs.stream, |session, out| {
            session.flush_pending()?;
            replay::drain_all(&handles, &mut out.totals);
            oracle = oracle_counts(session.graph(), &queries);
            Ok(())
        })?;
        self.attempted += out.events as u64;
        let got = nets(&out.totals);
        self.check(
            format!(
                "oracle: net counts {got:?} of the {}-event miniature equal NaiveMatcher {oracle:?}",
                out.events
            ),
            got == oracle,
        );
        Ok(())
    }

    /// Closed-loop replays until `seconds` have been measured.
    fn replay_end_to_end(&mut self) -> Result<(), MnemonicError> {
        let w = self.workload;
        let mut batch_ms = Vec::new();
        let mut reference: Option<Vec<QueryTotals>> = None;
        let mut same = true;
        // Set-up is short, so its median needs more samples than there are
        // repetitions: set up a few extra times and throw the result away.
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            let inputs = w.inputs(self.seed, Scale::Full);
            let built = replay::build(w, Variant::Standard, &inputs.bootstrap)?;
            self.samples.push("setup_s", t.elapsed().as_secs_f64());
            drop((inputs, built));
        }
        let clock = Instant::now();
        while clock.elapsed().as_secs_f64() < self.seconds {
            let t = Instant::now();
            let inputs = w.inputs(self.seed, Scale::Full);
            let (session, handles, ..) = replay::build(w, Variant::Standard, &inputs.bootstrap)?;
            self.samples.push("setup_s", t.elapsed().as_secs_f64());

            let out = replay::untraced(w, session, &handles, inputs.stream, |_, _| Ok(()))?;
            self.samples
                .push("events_per_s", out.events as f64 / out.wall_s);
            self.attempted += out.events as u64;
            self.failed += out.misplaced_flushes;
            batch_ms.push(out.batch_ms);
            same &= *reference.get_or_insert_with(|| out.totals.clone()) == out.totals;
        }
        self.check(
            format!(
                "all {} repetitions produce the same per-query totals",
                batch_ms.len()
            ),
            same,
        );
        self.check(
            format!(
                "flushes happen exactly on every {}th push and in finish()",
                w.batch_size()
            ),
            self.failed == 0,
        );
        self.push_batch_percentiles(batch_ms);
        Ok(())
    }

    /// `batch_p50_ms` / `batch_p95_ms` from the batch times of every
    /// repetition. The repetitions replay identical batches, so batch *i* has
    /// one time per repetition: their median drops the stalls the host
    /// injects at random and keeps what the batch itself costs. The
    /// percentiles are taken over those per-batch medians.
    fn push_batch_percentiles(&mut self, repetitions: Vec<Vec<f64>>) {
        let batches = repetitions.first().map_or(0, Vec::len);
        if repetitions.iter().any(|r| r.len() != batches) {
            self.check(
                "every repetition cuts the stream into the same batches",
                false,
            );
            return;
        }
        let mut per_batch: Vec<f64> = (0..batches)
            .filter_map(|i| {
                let times: Vec<f64> = repetitions.iter().map(|r| r[i]).collect();
                stats::median(&times)
            })
            .collect();
        stats::sort(&mut per_batch);
        if !stats::supports_percentile(batches, 95.0) {
            self.warnings.push(format!(
                "batch_p95_ms rests on {batches} batches: fewer than ten lie beyond it"
            ));
        }
        for (name, p) in [("batch_p50_ms", 50.0), ("batch_p95_ms", 95.0)] {
            if let Some(v) = stats::percentile(&per_batch, p) {
                self.samples.set(name, v, batches);
            }
        }
        // The raw tail, hiccups included, for the reader; not a metric.
        let mut pooled = repetitions.concat();
        stats::sort(&mut pooled);
        if let Some(p99) = stats::percentile(&pooled, 99.0) {
            self.warnings.push(format!(
                "pooled batch p99 {p99:.3} ms over {} samples of {} repetitions",
                pooled.len(),
                repetitions.len()
            ));
        }
    }

    /// Pairs of an untraced and a hand-driven traced replay of the same
    /// input until `seconds` have been measured, then the workload's twin and
    /// the layer probes.
    fn replay_per_layer(&mut self, out_dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
        let w = self.workload;
        let inputs = w.inputs(self.seed, Scale::Full);
        let mut last_tracer = None;
        let mut reference: Option<Vec<QueryTotals>> = None;
        let mut walls = Vec::new();
        let mut same = true;
        let plain_replay = || {
            let (session, handles, ..) = replay::build(w, Variant::Standard, &[])?;
            replay::untraced(w, session, &handles, inputs.stream.clone(), |_, _| Ok(()))
        };
        // The first replay of a process pays for first-touch page faults;
        // keep that out of the untraced/traced comparison.
        self.attempted += plain_replay()?.events as u64;
        let clock = Instant::now();
        while clock.elapsed().as_secs_f64() < self.seconds {
            let plain = plain_replay()?;
            let (traced, tracer, readings) =
                self.traced_replay(Variant::Standard, &inputs.stream, &[])?;
            self.samples.extend(readings);
            self.samples
                .push("trace.overhead_share", traced.wall_s / plain.wall_s - 1.0);
            self.attempted += (plain.events + traced.events) as u64;
            same &= plain.totals == traced.totals
                && *reference.get_or_insert_with(|| plain.totals.clone()) == plain.totals;
            walls.push(plain.wall_s);
            last_tracer = Some(tracer);
        }
        self.check(
            format!(
                "untraced and traced per-query totals are identical over {} pairs: {:?}",
                walls.len(),
                reference.as_deref().unwrap_or_default()
            ),
            same,
        );

        match w {
            Workload::NetflowCyclic => {
                // The same stream without the pool: does `.threads(2)` pay?
                const ENUMERATE: &str = "pipeline.enumerate_pos_ms";
                let parallel_ms = stats::median(&self.samples.values[ENUMERATE]);
                let (out, _, twin) = self.traced_replay(Variant::Twin, &inputs.stream, &[])?;
                let sequential_ms = twin.iter().find(|r| r.0 == ENUMERATE).map(|r| r.1);
                if let (Some(seq), Some(par)) = (sequential_ms, parallel_ms) {
                    self.samples
                        .push("parallel.enumerate_speedup_2v1", seq / par);
                }
                self.attempted += out.events as u64;
                self.check(
                    "the sequential twin produces the same per-query totals",
                    Some(&out.totals) == reference.as_ref(),
                );
            }
            Workload::LanlWindowPaged => {
                // The same stream without the storage tier: what does it cost?
                let (session, handles, ..) = replay::build(w, Variant::Twin, &[])?;
                let out =
                    replay::untraced(w, session, &handles, inputs.stream.clone(), |_, _| Ok(()))?;
                if let Some(paged) = stats::median(&walls) {
                    self.samples
                        .push("storage.overhead_share", paged / out.wall_s - 1.0);
                }
                self.attempted += out.events as u64;
                self.check(
                    "the in-memory twin produces the same per-query totals",
                    Some(&out.totals) == reference.as_ref(),
                );
            }
            _ => {}
        }

        self.run_probes(&inputs.stream)?;
        if let Some(tracer) = last_tracer {
            self.write_trace(&tracer, out_dir)?;
        }
        Ok(())
    }

    /// One hand-driven traced replay and the per-layer readings it gives.
    fn traced_replay(
        &mut self,
        variant: Variant,
        stream: &[StreamEvent],
        bootstrap: &[StreamEvent],
    ) -> Result<(ReplayOutcome, Tracer, Readings), MnemonicError> {
        let w = self.workload;
        let (session, handles, register_s) = replay::build(w, variant, bootstrap)?;
        // Spans per batch: the root, snapshot, delta_batch, up to nine stage
        // calls and the drain.
        let batches = stream.len() / w.batch_size() + 512;
        let mut tracer = Tracer::with_capacity(batches * 14 + 16);
        let out = replay::traced(w, session, &handles, stream.to_vec(), &mut tracer)?;

        let own = tracer.self_time_ms();
        let ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let mut readings = Readings::new();
        let mut push = |name, value| readings.push((name, value));
        push("pipeline.graph_update_ms", ms("graph_update"));
        push("pipeline.frontier_build_ms", ms("frontier_build"));
        push("pipeline.top_down_ms", ms("top_down"));
        push("pipeline.bottom_up_ms", ms("bottom_up"));
        push("pipeline.deletion_resolve_ms", ms("deletion_resolve"));
        push("pipeline.enumerate_pos_ms", ms("enumerate_pos"));
        push("pipeline.enumerate_neg_ms", ms("enumerate_neg"));
        // Batch self time plus the batch's own construction.
        push("pipeline.orchestration_ms", ms("batch") + ms("delta_batch"));
        push(
            "stream.snapshot_ns_per_event",
            ms("snapshot") * 1e6 / out.events.max(1) as f64,
        );
        push("stream.snapshots", out.batch_ms.len() as f64);
        push("session.register_ms", register_s * 1e3);
        push("session.drain_ms", ms("drain"));
        push("session.finish_ms", ms("finish"));

        let e = &out.end_state;
        let c = &e.counters;
        push("pipeline.edges_inserted", e.graph.total_insertions as f64);
        push("pipeline.edges_deleted", e.graph.total_deletions as f64);
        push(
            "pipeline.edges_traversed_top_down",
            c.edges_traversed_top_down as f64,
        );
        push(
            "pipeline.edges_traversed_bottom_up",
            c.edges_traversed_bottom_up as f64,
        );
        push("pipeline.debi_writes", c.debi_writes as f64);
        push("pipeline.candidates_scanned", c.candidates_scanned as f64);
        push("pipeline.work_units", c.work_units as f64);
        push("pipeline.embeddings_emitted", c.embeddings_emitted as f64);
        push(
            "pipeline.embeddings_per_candidate",
            c.embeddings_emitted as f64 / (c.candidates_scanned.max(1)) as f64,
        );
        push("pipeline.traversals_per_update", c.traversals_per_update());
        push("debi.bytes", e.debi_bytes as f64);
        push("debi.set_bits", e.debi_set_bits as f64);
        push("graph.live_edges", e.graph.live_edges as f64);
        push("graph.edge_placeholders", e.graph.edge_placeholders as f64);
        push(
            "graph.recycled_insertions",
            e.graph.recycled_insertions as f64,
        );
        if let Some(paged) = e.spill.and_then(|spill| spill.paged) {
            push("storage.cache_hit_ratio", paged.cache.hit_ratio());
            push("storage.cache_evictions", paged.cache.evictions as f64);
            push("storage.compression_ratio", paged.compression_ratio());
            push("storage.io_retries", paged.io_retries as f64);
            push(
                "storage.io_errors",
                (paged.io_errors + e.spill_io_errors) as f64,
            );
        }
        if let Some(spill) = e.spill {
            push("storage.edges_on_disk", spill.edges_on_disk as f64);
        }

        // Stage self times plus orchestration must account for the batch
        // spans; anything else would mean time the trace cannot see.
        let accounted: f64 = own
            .iter()
            .filter(|(name, _)| **name != "finish")
            .map(|(_, ms)| ms)
            .sum();
        let batch_total = tracer.total_ms("batch");
        let share = accounted / batch_total;
        if !(0.95..=1.0001).contains(&share) {
            self.check(
                format!("span self times cover {share:.4} of the summed batch spans"),
                false,
            );
        }
        Ok((out, tracer, readings))
    }

    /// The layer probes every traced run takes, on the workload's own events.
    fn run_probes(&mut self, stream: &[StreamEvent]) -> std::io::Result<()> {
        self.samples.extend(probes::graph(stream));
        self.samples.extend(probes::debi());
        self.samples.extend(probes::bitset());
        self.samples.extend(probes::ring(stream));
        self.samples.extend(probes::storage(stream)?);
        if self.workload == Workload::NetflowSelect {
            let (readings, agree) = probes::baselines(stream);
            self.samples.extend(readings);
            self.check(
                "TurboFlux-style, per-edge and batched counts equal the oracle's",
                agree,
            );
        }
        Ok(())
    }

    fn write_trace(&mut self, tracer: &Tracer, out_dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!(
            "trace-{}-{}.jsonl",
            self.workload.name(),
            self.seed
        ));
        std::fs::write(&path, tracer.to_jsonl())?;
        self.warnings.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        Ok(())
    }
}

// ---- serve_netflow ------------------------------------------------------------

/// Events of the `lo` phase: half the stream, so it lasts as long as `mid`.
const LO_EVENTS: usize = crate::workloads::SERVE_EVENTS / 2;

fn ms_percentiles(values: &mut [f64]) -> (f64, f64) {
    stats::sort(values);
    (
        stats::percentile(values, 50.0).unwrap_or(0.0),
        stats::percentile(values, 99.0).unwrap_or(0.0),
    )
}

/// Achieved ÷ offered rate of an open-loop phase, capped at 1.
fn delivered_ratio(phase: &PhaseOutcome, rate: f64) -> f64 {
    (phase.events as f64 / phase.wall_s / rate).min(1.0)
}

impl Run {
    /// Operations that failed inside one serve phase.
    fn count_phase(&mut self, phase: &PhaseOutcome, rate: Option<f64>) {
        self.attempted += phase.events as u64;
        let queue = phase.run.queue_stats().copied().unwrap_or_default();
        let lost = phase.push_errors + queue.rejected + queue.shed + queue.queued_at_disconnect;
        let emitted: u64 = phase.totals.iter().map(|t| t.positive + t.negative).sum();
        let mut failed = lost;
        if phase.run.total_new_embeddings() != emitted || phase.unattributed > 0 {
            failed = phase.events as u64;
        }
        // The backlog of a phase offered a rate it must hold may not grow.
        if let Some(rate) = rate.filter(|&r| r <= serve::RATE_MID) {
            if delivered_ratio(phase, rate) < serve::LIMIT_DELIVERED {
                failed = phase.events as u64;
                self.warnings.push(format!(
                    "backlog grew at {rate} ev/s: delivered {:.3} of offered",
                    delivered_ratio(phase, rate)
                ));
            }
        }
        self.failed += failed;
        if phase.sink_grew {
            self.warnings
                .push("a latency sink outgrew its reserved buffer".to_string());
        }
    }

    /// The miniature through the real serve path, against three references:
    /// the synchronous `run_events` replay, the from-scratch oracle, and the
    /// edge-id → event-ordinal mapping latency attribution rests on.
    fn serve_oracle_check(&mut self) -> Result<(), MnemonicError> {
        let w = self.workload;
        let inputs = w.inputs(self.seed, Scale::Check);
        let queries = w.queries();
        let (mut session, handles, _) = serve::build(SERVE_SHARDS, &inputs.bootstrap)?;
        let before = oracle_counts(session.shard(0).expect("shard 0 exists").graph(), &queries);
        let sinks: Vec<Arc<CollectingSink>> = handles
            .iter()
            .map(|h| {
                let sink = Arc::new(CollectingSink::new());
                h.attach_sink(sink.clone());
                sink
            })
            .collect();
        let (producer, consumer) =
            IngestQueue::bounded(crate::workloads::SERVE_RING, BackpressurePolicy::Block);
        let stream = &inputs.stream;
        let run = std::thread::scope(|scope| {
            scope.spawn(move || {
                for &event in stream {
                    if producer.push(event).is_err() {
                        break;
                    }
                }
            });
            session.serve(consumer)
        })?;
        self.attempted += stream.len() as u64;

        let after = oracle_counts(session.shard(0).expect("shard 0 exists").graph(), &queries);
        let oracle: Vec<i64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let served: Vec<i64> = sinks.iter().map(|s| s.count() as i64).collect();
        self.check(
            format!(
                "oracle: served counts {served:?} equal NaiveMatcher after − before {oracle:?}"
            ),
            served == oracle && run.total_new_embeddings() as i64 == served.iter().sum::<i64>(),
        );

        // Every embedding's newest edge must be the event at ordinal
        // (edge id − bootstrap length): same endpoints, in path position.
        let bootstrap_len = inputs.bootstrap.len();
        let mut mapped = 0u64;
        let mut embeddings = 0u64;
        for sink in &sinks {
            for embedding in sink.take_positive() {
                embeddings += 1;
                let Some((position, newest)) =
                    embedding.edges.iter().enumerate().max_by_key(|(_, e)| e.0)
                else {
                    continue;
                };
                let event = (newest.0 as usize)
                    .checked_sub(bootstrap_len)
                    .and_then(|ordinal| stream.get(ordinal));
                mapped += u64::from(event.is_some_and(|e| {
                    e.src == embedding.vertices[position]
                        && e.dst == embedding.vertices[position + 1]
                }));
            }
        }
        self.check(
            format!("edge id − bootstrap length is the event ordinal for {mapped} of {embeddings} embeddings"),
            mapped == embeddings,
        );

        let (mut reference, reference_handles, ..) =
            replay::build(w, Variant::Standard, &inputs.bootstrap)?;
        reference.run_events(stream.iter().copied())?;
        let mut totals = vec![QueryTotals::default(); reference_handles.len()];
        replay::drain_all(&reference_handles, &mut totals);
        let synchronous = nets(&totals);
        self.check(
            format!("served counts equal the synchronous run_events replay {synchronous:?}"),
            served == synchronous,
        );
        Ok(())
    }

    /// Closed loop for `events_per_s`, then the open-loop `mid` rate for the
    /// batch latencies, each on a fresh session, until `seconds` have been
    /// measured.
    fn serve_end_to_end(&mut self) -> Result<(), MnemonicError> {
        let w = self.workload;
        let mut batch_ms = Vec::new();
        let mut same = true;
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            let inputs = w.inputs(self.seed, Scale::Full);
            let built = serve::build(SERVE_SHARDS, &inputs.bootstrap)?;
            self.samples.push("setup_s", t.elapsed().as_secs_f64());
            drop((inputs, built));
        }
        let clock = Instant::now();
        while clock.elapsed().as_secs_f64() < self.seconds {
            let t = Instant::now();
            let inputs = w.inputs(self.seed, Scale::Full);
            let generate_s = t.elapsed().as_secs_f64();
            let bootstrap_len = inputs.bootstrap.len();

            let (mut session, handles, build_s) = serve::build(SERVE_SHARDS, &inputs.bootstrap)?;
            self.samples.push("setup_s", generate_s + build_s);
            let closed = serve::run_phase(
                &mut session,
                &handles,
                &inputs.stream,
                bootstrap_len,
                None,
                Sinks::Counting,
            )?;
            self.count_phase(&closed, None);
            self.samples
                .push("events_per_s", closed.events as f64 / closed.wall_s);
            drop((session, handles));

            let (mut session, handles, build_s) = serve::build(SERVE_SHARDS, &inputs.bootstrap)?;
            self.samples.push("setup_s", generate_s + build_s);
            let mid = serve::run_phase(
                &mut session,
                &handles,
                &inputs.stream,
                bootstrap_len,
                Some(serve::RATE_MID),
                Sinks::Counting,
            )?;
            self.count_phase(&mid, Some(serve::RATE_MID));
            batch_ms.push(
                mid.run
                    .batches()
                    .iter()
                    .map(|b| (b.queue_wait + b.latency).as_secs_f64() * 1e3)
                    .collect(),
            );
            let (_, late_p99) = ms_percentiles(&mut mid.late_ms.clone());
            if late_p99 > serve::LIMIT_GEN_LATE_P99_MS {
                self.warnings.push(format!(
                    "generator ran late: p99 {late_p99:.1} ms at the mid rate"
                ));
            }
            same &= closed.totals == mid.totals;
        }
        self.check(
            "closed- and open-loop phases produce the same per-query totals",
            same,
        );
        self.check(
            "no event was rejected, shed, stranded or errored, and no backlog grew at the mid rate",
            self.failed == 0,
        );
        self.push_batch_percentiles(batch_ms);
        Ok(())
    }

    /// The serve path layer by layer: closed loop with counting and with
    /// recording sinks, one lane against two, the three frozen open-loop
    /// rates, and one lane's stage spans from a hand-driven replay of the
    /// same stream.
    fn serve_per_layer(&mut self, out_dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
        let w = self.workload;
        let inputs = w.inputs(self.seed, Scale::Full);
        let bootstrap_len = inputs.bootstrap.len();
        let phase = |run: &mut Run,
                     shards: usize,
                     events: usize,
                     rate: Option<f64>,
                     sinks: Sinks|
         -> Result<PhaseOutcome, MnemonicError> {
            let (mut session, handles, _) = serve::build(shards, &inputs.bootstrap)?;
            let out = serve::run_phase(
                &mut session,
                &handles,
                &inputs.stream[..events],
                bootstrap_len,
                rate,
                sinks,
            )?;
            run.count_phase(&out, rate);
            Ok(out)
        };
        let all = inputs.stream.len();

        // The first phase of a process pays for first-touch page faults;
        // keep that out of the comparisons below.
        phase(self, SERVE_SHARDS, all, None, Sinks::Counting)?;
        let counting = phase(self, SERVE_SHARDS, all, None, Sinks::Counting)?;
        let recording = phase(self, SERVE_SHARDS, all, None, Sinks::Latency)?;
        let one_lane = phase(self, 1, all, None, Sinks::Counting)?;
        // The recording sinks are this workload's tracing.
        self.samples.push(
            "trace.overhead_share",
            recording.wall_s / counting.wall_s - 1.0,
        );
        self.samples.push(
            "shard.measured_speedup_2v1",
            one_lane.wall_s / counting.wall_s,
        );

        let mut lo = phase(
            self,
            SERVE_SHARDS,
            LO_EVENTS,
            Some(serve::RATE_LO),
            Sinks::Latency,
        )?;
        let mut mid = phase(
            self,
            SERVE_SHARDS,
            all,
            Some(serve::RATE_MID),
            Sinks::Latency,
        )?;
        let mut hi = phase(
            self,
            SERVE_SHARDS,
            all,
            Some(serve::RATE_HI),
            Sinks::Latency,
        )?;
        self.check(
            "every full-stream phase produces the same per-query totals",
            [&recording, &one_lane, &mid, &hi]
                .iter()
                .all(|p| p.totals == counting.totals),
        );

        let mut sustained = 0.0;
        let mut holds_so_far = true;
        for (name, rate, phase) in [
            ("lo", serve::RATE_LO, &mut lo),
            ("mid", serve::RATE_MID, &mut mid),
            ("hi", serve::RATE_HI, &mut hi),
        ] {
            let (emit_p50, emit_p99) = ms_percentiles(&mut phase.emit_ms);
            let (_, late_p99) = ms_percentiles(&mut phase.late_ms);
            let delivered = delivered_ratio(phase, rate);
            match name {
                "lo" => {
                    self.samples.push("serve.emit_p50_ms_lo", emit_p50);
                    self.samples.push("serve.emit_p99_ms_lo", emit_p99);
                }
                "mid" => {
                    self.samples.push("serve.emit_p50_ms_mid", emit_p50);
                    self.samples.push("serve.emit_p99_ms_mid", emit_p99);
                    self.samples.push("ingest.gen_late_p99_ms", late_p99);
                }
                _ => self.samples.push("ingest.delivered_ratio_hi", delivered),
            }
            holds_so_far &= emit_p99 <= serve::LIMIT_EMIT_P99_MS
                && delivered >= serve::LIMIT_DELIVERED
                && late_p99 <= serve::LIMIT_GEN_LATE_P99_MS;
            if holds_so_far {
                sustained = rate;
            }
            self.warnings.push(format!(
                "{name} ({rate} ev/s): emit p50 {emit_p50:.2} ms, p99 {emit_p99:.2} ms over {} embeddings, delivered {delivered:.3}, generator late p99 {late_p99:.2} ms",
                phase.emit_ms.len()
            ));
        }
        self.samples.push("serve.sustained_eps", sustained);

        // Ring, batch log and lanes at the mid rate, from the library's own
        // report of the run.
        let run = &mid.run;
        let mut waits: Vec<f64> = run
            .batches()
            .iter()
            .map(|b| b.queue_wait.as_secs_f64() * 1e3)
            .collect();
        let (wait_p50, wait_p99) = ms_percentiles(&mut waits);
        let mut pipeline: Vec<f64> = run
            .batches()
            .iter()
            .map(|b| b.latency.as_secs_f64() * 1e3)
            .collect();
        let (pipe_p50, pipe_p99) = ms_percentiles(&mut pipeline);
        let lanes = run.lanes().len();
        let lane_busy: Vec<f64> = (0..lanes)
            .map(|l| {
                run.batches()
                    .iter()
                    .map(|b| b.lane_times[l].as_secs_f64())
                    .sum()
            })
            .collect();
        let busy_total: f64 = lane_busy.iter().sum();
        let busy_max = lane_busy.iter().copied().fold(0.0, f64::max);
        let queue = run.queue_stats().copied().unwrap_or_default();
        let s = &mut self.samples;
        s.push("ingest.queue_wait_p50_ms", wait_p50);
        s.push("ingest.queue_wait_p99_ms", wait_p99);
        s.push("shard.pipeline_p50_ms", pipe_p50);
        s.push("shard.pipeline_p99_ms", pipe_p99);
        s.push(
            "shard.lane_busy_share",
            busy_total / (lanes as f64 * mid.wall_s),
        );
        s.push("shard.lane_skew", busy_max * lanes as f64 / busy_total);
        s.push("ingest.pushed", queue.pushed as f64);
        s.push("ingest.rejected", queue.rejected as f64);
        s.push("ingest.shed", queue.shed as f64);
        s.push("ingest.stranded", queue.queued_at_disconnect as f64);

        // One lane holding all eight queries, driven by hand: the stage
        // spans of this workload and its synchronous reference.
        let (reference, tracer, readings) =
            self.traced_replay(Variant::Standard, &inputs.stream, &inputs.bootstrap)?;
        self.samples.extend(readings);
        self.attempted += reference.events as u64;
        self.check(
            format!(
                "served per-query totals equal the synchronous single-session replay {:?}",
                nets(&reference.totals)
            ),
            reference.totals == counting.totals,
        );

        self.run_probes(&inputs.stream)?;
        self.write_trace(&tracer, out_dir)?;
        Ok(())
    }
}
