//! Multi-producer ingest: what the three-stage pipeline (queue →
//! publisher → generations) buys over a single producer, and what
//! concurrent ingest costs the readers.
//!
//! Producers do the work a real ingest edge does: each one *decodes and
//! validates* its labels from the delta wire form (`wf_snapshot::read_label`
//! — every edge checked against the grammar, every port against its
//! module's arity) before submitting the chunk as an
//! `IngestOp::InsertLabels`. That per-label parse cost is the
//! parallelizable part; the pipeline's job is to keep the serialized part
//! (staging, publishing, the op-log append) off the producers' backs. The
//! sweep measures, per fleet width 1/2/4/8 over the *same total label
//! count*:
//!
//! * `labels_per_s` — end-to-end wall throughput: decode + submit +
//!   publish + op-log append, until every ticket resolved and the
//!   pipeline drained.
//! * `labels_per_cpu_s` — the same run normalized by process CPU time
//!   (`CLOCK_PROCESS_CPUTIME_ID`, every thread). On a box with fewer
//!   cores than producers wall time cannot show scaling, but CPU-second
//!   throughput still exposes whether the queue/publisher add per-label
//!   overhead as the fleet grows — the component the *code* controls.
//! * `publish_lag_ns` — push-to-publish latency as each producer saw it
//!   ([`wf_engine::Ticket::lag_ns`]), recorded into a per-producer
//!   histogram and folded with [`LatencyHistogram::merge`] — tail
//!   percentiles over the whole fleet without sharing while recording.
//! * `reader` — sustained reader throughput (batched queries through the
//!   lock-free `LiveEngine::read` fast path) over a pre-filled store,
//!   idle vs with the pipeline ingesting at a *paced* rate. Publishes are
//!   atomic swaps, so paced ingest must cost the readers approximately
//!   nothing (`qps_ratio_ingest_vs_idle`).
//!
//! The run writes `BENCH_ingest_throughput.txt` (workspace root); CI's
//! bench-smoke step regenerates it in `--test` mode and `bench_check`
//! gates the shape, the 4-producer scaling claim (wall ≥ 1.5× on hosts
//! with ≥ 4 cores, bounded CPU-overhead ratio elsewhere) and the reader
//! ratio.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_bench::report::{host_cores, Report};
use wf_bench::{process_cpu_ns, Bench, LatencyHistogram};
use wf_bitio::{BitReader, BitVec, BitWriter};
use wf_core::{DataLabel, Fvl, VariantKind};
use wf_engine::{
    shared_durable, DurableEngine, EngineWriter, IngestOp, IngestPipeline, IngestQueue, ItemId,
    LabelStore, LiveEngine, PipelineOptions, PublishPolicy, ViewRef, WorkerScratch,
};
use wf_snapshot::{read_label, write_label, MemStorage};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Labels per submitted `InsertLabels` op.
const CHUNK: usize = 16;
/// Query pairs per reader batch.
const BATCH: usize = 1024;
/// Fleet widths swept (same total labels at every width).
const FLEETS: [usize; 4] = [1, 2, 4, 8];

/// One fleet-width measurement.
struct FleetRow {
    producers: usize,
    labels: usize,
    wall_s: f64,
    cpu_s: Option<f64>,
    publishes: u64,
    lag: LatencyHistogram,
}

/// Decodes one pre-encoded label (the producer-side parse/validate work).
fn decode(bits: &BitVec, fvl: &Fvl<'_>) -> DataLabel {
    let cycles = fvl.prod_graph().cycles().expect("bench spec has cycle tables");
    let mut r = BitReader::new(bits);
    read_label(&mut r, fvl.codec(), &fvl.spec().grammar, cycles).expect("pool labels decode")
}

/// Runs `producers` threads over disjoint slices of `encoded` (same total
/// across widths), each decoding chunks and feeding the pipeline, then
/// waits out every ticket and drains. Returns the row with wall/CPU time
/// and the fleet-merged publish-lag histogram.
fn fleet_run(fvl: &Arc<Fvl<'static>>, encoded: &[BitVec], producers: usize) -> FleetRow {
    // The op-log is framed into an in-memory store: the append path is the
    // real one, without a disk's fsync latency in the measurement.
    let storage = Box::new(MemStorage::new());
    let (durable, gen0, _) =
        DurableEngine::open(fvl.clone(), storage, LabelStore::DEFAULT_SHARD_CAPACITY)
            .expect("a fresh in-memory store opens");
    let writer = EngineWriter::new(gen0);
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    let pipeline = IngestPipeline::spawn_with(
        writer,
        live,
        PublishPolicy::default(),
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );

    let per = encoded.len() / producers;
    let cpu0 = process_cpu_ns();
    let t = Instant::now();
    let mut hists: Vec<LatencyHistogram> = Vec::with_capacity(producers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = pipeline.queue().clone();
                let slice = &encoded[p * per..(p + 1) * per];
                s.spawn(move || {
                    let mut lag = LatencyHistogram::new();
                    let mut tickets = Vec::with_capacity(slice.len() / CHUNK + 1);
                    for chunk in slice.chunks(CHUNK) {
                        let labels: Vec<DataLabel> =
                            chunk.iter().map(|bits| decode(bits, fvl)).collect();
                        tickets.push(
                            q.push(IngestOp::InsertLabels(labels)).expect("queue stays open"),
                        );
                    }
                    for ticket in &tickets {
                        ticket.wait().expect("bench ops never fail");
                        lag.record(ticket.lag_ns().expect("resolved tickets carry lag"));
                    }
                    lag
                })
            })
            .collect();
        for h in handles {
            hists.push(h.join().expect("producer thread panicked"));
        }
    });
    let report = pipeline.shutdown();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, process_cpu_ns()) {
        (Some(a), Some(b)) => Some((b - a) as f64 / 1e9),
        _ => None,
    };

    let mut lag = LatencyHistogram::new();
    for h in &hists {
        lag.merge(h);
    }
    assert_eq!(report.stats.labels_ingested as usize, per * producers);
    FleetRow {
        producers,
        labels: per * producers,
        wall_s,
        cpu_s,
        publishes: report.stats.publishes,
        lag,
    }
}

/// Hot-key query pairs over a population of `items`.
fn reader_pairs(rng: &mut StdRng, items: usize) -> Vec<(ItemId, ItemId)> {
    let population = items as u32;
    let hot = population.min(64);
    (0..BATCH)
        .map(|_| {
            let draw = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..population)
                }
            };
            (ItemId(draw(rng)), ItemId(draw(rng)))
        })
        .collect()
}

/// Sustained reader qps over `window` (after a warm batch), best of
/// `trials`.
fn reader_qps(
    live: &LiveEngine,
    vref: ViewRef,
    pairs: &[(ItemId, ItemId)],
    window: Duration,
    trials: usize,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..trials {
        let mut ws = WorkerScratch::new();
        let mut out = Vec::new();
        live.read().core().try_query_batch_into(&mut ws, vref, pairs, &mut out).unwrap();
        let t = Instant::now();
        let mut answered = 0u64;
        while t.elapsed() < window {
            let gen = live.read();
            gen.core().try_query_batch_into(&mut ws, vref, pairs, &mut out).unwrap();
            std::hint::black_box(&out);
            answered += pairs.len() as u64;
        }
        best = best.max(answered as f64 / t.elapsed().as_secs_f64());
    }
    best
}

/// Paces decoded chunks into the queue at `rate` chunks/s for `window` —
/// the steady background ingest the readers are measured against.
fn pace_ingest(
    q: &IngestQueue,
    fvl: &Fvl<'static>,
    encoded: &[BitVec],
    rate: u64,
    window: Duration,
) {
    let period = Duration::from_nanos(1_000_000_000 / rate.max(1));
    let t = Instant::now();
    let mut next = Duration::ZERO;
    let mut cursor = 0usize;
    loop {
        let now = t.elapsed();
        if now >= window {
            break;
        }
        if now >= next {
            let end = (cursor + CHUNK).min(encoded.len());
            let labels: Vec<DataLabel> =
                encoded[cursor..end].iter().map(|bits| decode(bits, fvl)).collect();
            cursor = if end == encoded.len() { 0 } else { end };
            // Tickets are dropped unwaited: pacing must not block on the
            // publish cadence.
            let _ = q.push(IngestOp::InsertLabels(labels)).expect("queue stays open");
            next += period;
        } else {
            std::thread::sleep(next.min(window) - now);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    // Same total at every fleet width, divisible by every width × chunk.
    let total_labels = if quick { 24_576 } else { 98_304 };
    let reader_items = if quick { 32_768 } else { 131_072 };
    let window = if quick { Duration::from_millis(150) } else { Duration::from_millis(500) };
    let trials = if quick { 3 } else { 6 };
    let paced_rate = 50u64; // chunks/s under the reader — paced, not saturating

    let bench = Bench::fine(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(bench.workload.spec.clone())).unwrap());
    let run = bench.run_of(42, 5_000);
    let pool = fvl.labeler(&run).labels().to_vec();
    let view = bench.safe_view(7, 8);

    // Pre-encode the pool once into per-label wire images; producers pay
    // the decode, not the encode.
    let encoded: Vec<BitVec> = pool
        .iter()
        .cycle()
        .take(total_labels)
        .map(|d| {
            let mut w = BitWriter::new();
            write_label(&mut w, fvl.codec(), d.to_ref());
            w.finish()
        })
        .collect();

    // --- The fleet sweep. -----------------------------------------------
    let rows: Vec<FleetRow> = FLEETS.iter().map(|&p| fleet_run(&fvl, &encoded, p)).collect();

    // --- Readers, idle vs under paced ingest. ---------------------------
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let mut pool_iter = pool.iter().cycle();
    for _ in 0..reader_items {
        writer.try_insert_label(pool_iter.next().expect("pool cycles forever")).unwrap();
    }
    let vref = writer.register_view(view, VariantKind::Default).unwrap();
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    writer.publish(&live);
    let pairs = reader_pairs(&mut StdRng::seed_from_u64(9), reader_items);

    // Warm, then the quiet baseline.
    let _ = reader_qps(&live, vref, &pairs, window / 2, 1);
    let idle_qps = reader_qps(&live, vref, &pairs, window, trials);

    // The same reader while the pipeline ingests at a paced rate.
    let pipeline = IngestPipeline::spawn_with(
        writer,
        live.clone(),
        PublishPolicy::default(),
        PipelineOptions::default(),
    );
    let mut ingest_qps = 0.0f64;
    std::thread::scope(|s| {
        let (live, pairs) = (&live, &pairs);
        let reader = s.spawn(move || reader_qps(live, vref, pairs, window, trials));
        pace_ingest(
            pipeline.queue(),
            &fvl,
            &encoded,
            paced_rate,
            window * trials as u32 + window / 2,
        );
        ingest_qps = reader.join().expect("reader thread panicked");
    });
    let load_report = pipeline.shutdown();
    let ratio = ingest_qps / idle_qps;

    let mut rep = Report::new("ingest_throughput");
    rep.metric("host_cores", host_cores() as f64);
    rep.metric("chunk", CHUNK as f64);
    rep.metric("total_labels", total_labels as f64);
    rep.metric("queue_capacity", PublishPolicy::default().queue_capacity as f64);
    rep.metric("max_batch_ops", PublishPolicy::default().max_batch_ops as f64);
    rep.info(
        "metric_note",
        format!(
            "Per fleet width (same {total_labels} labels at every width): producers \
             decode+validate labels from the delta wire form ({CHUNK}/op) and feed the ingest \
             pipeline; labels_per_s is end-to-end wall throughput until every ticket resolved \
             and the pipeline drained; labels_per_cpu_s divides by process CPU time (the \
             per-label overhead axis — meaningful even when host_cores < producers, where wall \
             cannot scale); publish_lag_ns is push-to-publish latency as producers saw it, \
             per-producer histograms folded with LatencyHistogram::merge. reader: one thread, \
             batched hot-key queries over a {reader_items}-item store via the lock-free read \
             path, idle vs the pipeline ingesting {paced_rate} chunks/s — publishes are atomic \
             swaps, so the ratio should be ~1."
        ),
    );
    for (i, row) in rows.iter().enumerate() {
        let at = |field: &str| format!("fleet.{i}.{field}");
        rep.metric(&at("producers"), row.producers as f64);
        rep.metric(&at("labels"), row.labels as f64);
        rep.metric(&at("wall_ms"), row.wall_s * 1e3);
        rep.metric(&at("labels_per_s"), row.labels as f64 / row.wall_s);
        if let Some(cpu) = row.cpu_s {
            rep.metric(&at("cpu_ms"), cpu * 1e3);
            rep.metric(&at("labels_per_cpu_s"), row.labels as f64 / cpu);
        }
        rep.metric(&at("publishes"), row.publishes as f64);
        rep.hist(&at("publish_lag_ns"), &row.lag);
    }
    let one = rows.iter().find(|r| r.producers == 1).expect("fleet sweep covers 1");
    let four = rows.iter().find(|r| r.producers == 4).expect("fleet sweep covers 4");
    rep.metric("scaling.wall_speedup_4v1", one.wall_s / four.wall_s);
    if let (Some(a), Some(b)) = (one.cpu_s, four.cpu_s) {
        if a > 0.0 && b > 0.0 {
            let cpu_ratio = (four.labels as f64 / b) / (one.labels as f64 / a);
            rep.metric("scaling.labels_per_cpu_s_ratio_4v1", cpu_ratio);
        }
    }
    rep.metric("reader.batch", BATCH as f64);
    rep.metric("reader.items", reader_items as f64);
    rep.metric("reader.idle_qps", idle_qps);
    rep.metric("reader.ingest_qps", ingest_qps);
    rep.metric("reader.paced_chunks_per_s", paced_rate as f64);
    rep.metric("reader.publishes_under_load", load_report.stats.publishes as f64);
    rep.metric("reader.qps_ratio_ingest_vs_idle", ratio);
    rep.write();
}
