//! The multi-producer ingest pipeline: queue → publisher → generations.
//!
//! [`crate::EngineWriter`] is single-producer by construction — one thread
//! staging against one copy-on-write clone. This module turns that writer
//! into the *back end* of a three-stage pipeline so any number of producer
//! threads can feed the same generation chain:
//!
//! 1. **[`IngestQueue`]** — a bounded MPSC queue (a `VecDeque` under one
//!    `Mutex`, two `Condvar`s). Producers submit typed [`IngestOp`]s and
//!    get back a [`Ticket`] that resolves to the seqno of the generation
//!    that published their op. A full queue is *backpressure*, never
//!    silent loss: [`IngestQueue::try_push`]
//!    returns [`EngineError::IngestBackpressure`] and
//!    [`IngestQueue::push`] blocks until a slot frees.
//! 2. **Publisher** — one background thread ([`IngestPipeline`]) draining
//!    the queue in batches and applying ops to the staging core in arrival
//!    order. Ops coalesce while staged: adjacent label inserts fuse into
//!    one id-range (and un-share each copy-on-write shard once per cycle,
//!    however many ops landed in it), duplicate view registrations and
//!    compilations collapse to no-ops. Publishes fire on a configurable
//!    cadence ([`PublishPolicy`]: op count or deadline) and each one
//!    atomically swaps the next generation into the [`LiveEngine`] —
//!    readers never block, exactly as with a direct writer.
//! 3. **Op-log persistence** — with durable storage attached, every
//!    publish goes through [`crate::EngineWriter::publish_durable`]: its
//!    delta record (the op-log wire form, [`wf_snapshot::oplog`]) is
//!    framed, appended and fsynced before the swap, so recovery from
//!    `base ‖ frames` lands on byte-identical generations no matter how
//!    many producers raced. A transient storage error (`Interrupted`,
//!    `WouldBlock`, `TimedOut`) is retried up to five attempts in all,
//!    sleeping 0.5, 1, 2 and 4 ms before the four retries; any other error
//!    is fatal.
//!
//! Ordering and atomicity guarantees, precisely:
//!
//! * Ops are applied in queue (FIFO) order — one producer's ops happen in
//!   its submission order; ops of different producers interleave in their
//!   arrival order. [`Ticket::apply_index`] exposes the global position.
//! * A published generation contains a *prefix* of the applied op
//!   sequence: nothing is reordered across a publish, and no op is ever
//!   half-visible (staging is invisible to readers until the swap).
//! * An op that fails (store full, compile error) resolves its ticket with
//!   the typed error and the pipeline keeps going; a batch insert's stored
//!   prefix stays (ids remain dense) exactly like
//!   [`crate::EngineWriter::try_insert_labels`].
//! * Shutdown drains: ops enqueued before [`IngestQueue::close`] are
//!   applied and published; pushes after it fail with
//!   [`EngineError::IngestClosed`].

use crate::durability::{
    lock_durable, CompactionDriver, CompactionPolicy, CompactionTotals, SharedDurable,
};
use crate::error::EngineError;
use crate::generation::{EngineGeneration, EngineWriter, LiveEngine};
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wf_core::{DataLabel, VariantKind};
use wf_model::View;

/// One typed mutation submitted to the pipeline.
///
/// Views are identified *structurally* (the registry dedups), so a
/// producer never needs to know whether another producer already
/// registered the view it compiles — both get the same [`crate::ViewId`]
/// in the published generation.
pub enum IngestOp {
    /// Intern a batch of data labels at the store tail.
    InsertLabels(Vec<DataLabel>),
    /// Register a view (no compilation).
    AddView(View),
    /// Register (dedup) and compile one `(view, kind)` variant.
    CompileView(View, VariantKind),
}

/// Why a submitted op did not make it into a generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The writer rejected the op: the store is full (for batch inserts
    /// the stored prefix stands, per the writer's contract) or view
    /// compilation failed ([`EngineError::Compile`]; the registration half
    /// of a [`IngestOp::CompileView`] may still have staged — dedup makes
    /// the retry cheap).
    Engine(EngineError),
    /// The publish that would have covered this op could not persist its
    /// delta record; the pipeline stops rather than let the live chain
    /// outrun the op-log.
    Persist(String),
    /// The pipeline stopped (after a persist failure) before this op could
    /// be applied; nothing of it is staged.
    Shutdown,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Engine(e) => write!(f, "ingest op rejected: {e}"),
            IngestError::Persist(e) => write!(f, "publish could not persist its delta: {e}"),
            IngestError::Shutdown => write!(f, "pipeline stopped before the op was applied"),
        }
    }
}

impl std::error::Error for IngestError {}

/// What a ticket resolves to: the seqno of the generation that made the
/// op visible, or the typed reason it never will be.
pub type IngestOutcome = Result<u64, IngestError>;

struct TicketState {
    outcome: Option<IngestOutcome>,
    /// Global application order (queue drain order), set when the
    /// publisher picks the op up — also on error outcomes.
    apply_index: Option<u64>,
    /// Push → resolution, nanoseconds (publish lag as the producer saw it).
    lag_ns: Option<u64>,
}

struct TicketCell {
    created: Instant,
    state: Mutex<TicketState>,
    cv: Condvar,
}

/// A producer's receipt for one submitted op.
///
/// Cheap to clone (it is an `Arc` handle); resolved exactly once by the
/// publisher. [`Ticket::wait`] blocks until the op's fate is known — for
/// an `Ok(seqno)`, the generation with that seqno (and every later one)
/// contains the op.
#[derive(Clone)]
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    fn new() -> Self {
        Self {
            cell: Arc::new(TicketCell {
                created: Instant::now(),
                state: Mutex::new(TicketState { outcome: None, apply_index: None, lag_ns: None }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Ticket state is resolve-once plain data — a panicking holder
    /// cannot leave it half-updated in any way that matters, so poisoned
    /// locks are recovered rather than propagated (a wedged producer
    /// waiting on a ticket is strictly worse).
    fn lock(&self) -> std::sync::MutexGuard<'_, TicketState> {
        self.cell.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn resolve(&self, outcome: IngestOutcome) {
        let lag = self.cell.created.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        if st.outcome.is_none() {
            st.outcome = Some(outcome);
            st.lag_ns = Some(lag);
            self.cell.cv.notify_all();
        }
    }

    fn mark_applied(&self, index: u64) {
        let mut st = self.lock();
        st.apply_index = Some(index);
    }

    /// Blocks until the publisher resolves this ticket.
    pub fn wait(&self) -> IngestOutcome {
        let mut st = self.lock();
        loop {
            if let Some(outcome) = &st.outcome {
                return outcome.clone();
            }
            st = self.cell.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// [`Ticket::wait`] bounded by `timeout`: `None` if the ticket is
    /// still unresolved when it elapses. The op stays in flight — a
    /// healthy pipeline resolves it later; a stalled or stopped one
    /// resolves it `Err` (persist failures and shutdown resolve every
    /// outstanding ticket), so `None` is purely "not yet", never "lost".
    pub fn wait_timeout(&self, timeout: Duration) -> Option<IngestOutcome> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            if let Some(outcome) = &st.outcome {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) =
                self.cell.cv.wait_timeout(st, deadline - now).unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Push-to-resolution latency in nanoseconds (after resolution).
    pub fn lag_ns(&self) -> Option<u64> {
        self.lock().lag_ns
    }

    /// The op's position in the global application order (after the
    /// publisher picked it up). Sorting `(ticket, op)` pairs by this index
    /// reconstructs the exact sequence a sequential writer would have to
    /// apply to reproduce the published generations.
    pub fn apply_index(&self) -> Option<u64> {
        self.lock().apply_index
    }
}

/// How the publisher drained (publisher-side status of one wait).
enum Drained {
    /// At least one op was moved into the batch.
    Ops,
    /// The wait deadline passed: it had already expired on entry, or the
    /// queue stayed empty until it did.
    TimedOut,
    /// Queue closed and empty — the pipeline can finish.
    Closed,
}

struct QueueState {
    ops: VecDeque<(IngestOp, Ticket)>,
    closed: bool,
}

/// The bounded MPSC hand-off between producers and the publisher.
///
/// A `VecDeque` under one `Mutex`, never longer than `capacity`;
/// `not_full` parks producers while it is full, `not_empty` parks the
/// publisher while it is empty. Capacity is the backpressure contract: the
/// queue holds at most `capacity` in-flight ops, and what it accepts it
/// never drops — every accepted op is eventually applied (or its ticket
/// resolved with a typed error), even across [`IngestQueue::close`].
pub struct IngestQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl IngestQueue {
    /// A queue of at most `capacity` in-flight ops (`capacity ≥ 1`).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState { ops: VecDeque::new(), closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("ingest queue mutex poisoned")
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`EngineError::IngestClosed`]; already-queued ops still drain.
    pub fn close(&self) {
        self.lock().closed = true;
        // Parked producers must re-check and fail; the publisher must see
        // closed-and-empty to finish.
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Blocking submit: parks while the queue is full, fails only if the
    /// queue is (or becomes) closed. Never drops an op.
    pub fn push(&self, op: IngestOp) -> Result<Ticket, EngineError> {
        let st = self
            .not_full
            .wait_while(self.lock(), |st| !st.closed && st.ops.len() >= self.capacity)
            .expect("ingest queue mutex poisoned");
        self.enqueue(st, op)
    }

    /// Non-blocking submit: a full queue surfaces
    /// [`EngineError::IngestBackpressure`] with the queued count — the op
    /// was **not** accepted, so the producer can retry, shed, or fall back
    /// to the blocking [`IngestQueue::push`].
    pub fn try_push(&self, op: IngestOp) -> Result<Ticket, EngineError> {
        let st = self.lock();
        if !st.closed && st.ops.len() >= self.capacity {
            return Err(EngineError::IngestBackpressure { queued: st.ops.len() });
        }
        self.enqueue(st, op)
    }

    /// Appends `op` under a lock its caller found not full.
    fn enqueue(
        &self,
        mut st: MutexGuard<'_, QueueState>,
        op: IngestOp,
    ) -> Result<Ticket, EngineError> {
        if st.closed {
            return Err(EngineError::IngestClosed);
        }
        let ticket = Ticket::new();
        st.ops.push_back((op, ticket.clone()));
        self.not_empty.notify_one();
        Ok(ticket)
    }

    /// Publisher side: moves up to `max` ops into `out`, waiting (bounded
    /// by `timeout`, unbounded without one) while the queue is empty. An
    /// expired `timeout` (zero) moves nothing, so a due publish goes out
    /// before more work is taken, however busy the queue.
    fn drain_into(
        &self,
        out: &mut Vec<(IngestOp, Ticket)>,
        max: usize,
        timeout: Option<Duration>,
    ) -> Drained {
        let idle = |st: &mut QueueState| st.ops.is_empty() && !st.closed;
        let mut st = match timeout {
            Some(t) if t.is_zero() => return Drained::TimedOut,
            None => {
                self.not_empty.wait_while(self.lock(), idle).expect("ingest queue mutex poisoned")
            }
            Some(t) => {
                let waited = self.not_empty.wait_timeout_while(self.lock(), t, idle);
                waited.expect("ingest queue mutex poisoned").0
            }
        };
        if st.ops.is_empty() {
            return if st.closed { Drained::Closed } else { Drained::TimedOut };
        }
        let n = st.ops.len().min(max.max(1));
        out.extend(st.ops.drain(..n));
        self.not_full.notify_all();
        Drained::Ops
    }
}

/// When the publisher freezes staged ops into the next generation.
///
/// A publish fires as soon as *either* trigger is met — ops applied since
/// the last publish, or time since the first unpublished op — and always
/// on shutdown. Small deadlines bound publish lag; large op budgets
/// amortize the per-cycle copy-on-write and container costs.
#[derive(Clone, Copy, Debug)]
pub struct PublishPolicy {
    /// Queue capacity (in-flight ops) — the backpressure bound.
    pub queue_capacity: usize,
    /// Publish after this many applied ops.
    pub max_batch_ops: usize,
    /// Publish when the oldest unpublished op has waited this long.
    pub max_delay: Duration,
}

impl Default for PublishPolicy {
    fn default() -> Self {
        Self { queue_capacity: 1024, max_batch_ops: 256, max_delay: Duration::from_millis(2) }
    }
}

/// Attempts at one durable publish before a transient failure is fatal.
const PERSIST_ATTEMPTS: u32 = 5;
/// Sleep before the first retry; each later retry doubles it.
const FIRST_BACKOFF: Duration = Duration::from_micros(500);

/// Whether a storage failure is worth retrying: the `io::Error` kinds that
/// mean "the world was busy", not "the world is broken".
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Publish-notification callback, invoked with each published generation.
pub type PublishHook = Box<dyn FnMut(&Arc<EngineGeneration>) + Send>;

/// Optional pipeline attachments.
#[derive(Default)]
pub struct PipelineOptions {
    /// Called with each published generation, after the swap — test and
    /// monitoring hook (runs on the publisher thread; keep it cheap).
    pub on_publish: Option<PublishHook>,
    /// Crash-safe storage ([`crate::DurableEngine`], usually from
    /// [`crate::DurableEngine::open`] recovery): every publish's delta is
    /// framed, appended and fsynced here before the swap, making the
    /// fsync the acknowledgement barrier.
    pub durable: Option<SharedDurable>,
    /// With [`PipelineOptions::durable`] set, run a background compaction
    /// thread and trigger it whenever the op-log exceeds these bounds.
    /// Ignored without durable storage.
    pub compaction: Option<CompactionPolicy>,
}

/// Publisher-side counters, returned in the [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestStats {
    /// Ops applied to the staging core (ticket resolved `Ok`).
    pub ops_applied: u64,
    /// Ops whose ticket resolved with an error.
    pub op_errors: u64,
    /// Generations published.
    pub publishes: u64,
    /// Data labels interned.
    pub labels_ingested: u64,
    /// Transient persistence failures absorbed by retrying the append.
    pub persist_retries: u64,
}

/// What [`IngestPipeline::shutdown`] hands back: the writer (now based on
/// the final published generation and ready for direct single-producer
/// use or a new pipeline) and the run's counters.
pub struct PipelineReport {
    pub writer: EngineWriter,
    pub stats: IngestStats,
    /// `Some` if a publish failed to persist its delta (the pipeline
    /// stopped there; tickets after that point resolved `Shutdown`).
    pub persist_error: Option<String>,
    /// Background compaction totals (`Some` iff a driver ran).
    pub compaction: Option<CompactionTotals>,
}

/// The running pipeline: one publisher thread behind an [`IngestQueue`].
///
/// ```
/// use std::sync::Arc;
/// use wf_core::{Fvl, VariantKind};
/// use wf_engine::{
///     EngineWriter, IngestOp, IngestPipeline, LiveEngine, PipelineOptions, PublishPolicy,
/// };
/// use wf_model::fixtures::paper_example;
/// use wf_run::fixtures::figure3_run;
///
/// let ex = paper_example();
/// let fvl = Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap());
/// let labels = fvl.labeler(&figure3_run(&ex).0).labels().to_vec();
///
/// let writer = EngineWriter::from_fvl(fvl);
/// let live = Arc::new(LiveEngine::new(writer.base().clone()));
/// let pipeline = IngestPipeline::spawn_with(
///     writer,
///     live.clone(),
///     PublishPolicy::default(),
///     PipelineOptions::default(),
/// );
///
/// // Any thread with a queue handle is a producer:
/// let q = pipeline.queue().clone();
/// let t1 = q.push(IngestOp::InsertLabels(labels)).unwrap();
/// let t2 = q.push(IngestOp::CompileView(ex.view_u2(), VariantKind::Default)).unwrap();
/// let seq = t1.wait().unwrap();
/// assert!(live.snapshot().seqno() >= seq, "the op's generation is live");
///
/// let report = pipeline.shutdown();
/// assert_eq!(report.stats.op_errors, 0);
/// # drop(t2);
/// ```
pub struct IngestPipeline {
    queue: Arc<IngestQueue>,
    handle: JoinHandle<PipelineReport>,
}

impl IngestPipeline {
    /// Spawns the publisher thread over `writer`, publishing into `live`
    /// with whatever durable storage, compaction and publish hook
    /// `options` attaches.
    pub fn spawn_with(
        writer: EngineWriter,
        live: Arc<LiveEngine>,
        policy: PublishPolicy,
        options: PipelineOptions,
    ) -> Self {
        let queue = Arc::new(IngestQueue::with_capacity(policy.queue_capacity));
        let q = queue.clone();
        let handle = std::thread::Builder::new()
            .name("wf-ingest-publisher".into())
            .spawn(move || publisher_loop(writer, live, q, policy, options))
            .expect("spawning the publisher thread failed");
        Self { queue, handle }
    }

    /// The producer-facing handle; clone it into as many threads as you
    /// have producers.
    pub fn queue(&self) -> &Arc<IngestQueue> {
        &self.queue
    }

    /// Graceful shutdown: closes the queue, lets the publisher drain and
    /// publish everything already accepted, and joins it.
    pub fn shutdown(self) -> PipelineReport {
        self.queue.close();
        self.handle.join().expect("publisher thread panicked")
    }
}

fn publisher_loop(
    mut writer: EngineWriter,
    live: Arc<LiveEngine>,
    queue: Arc<IngestQueue>,
    policy: PublishPolicy,
    mut options: PipelineOptions,
) -> PipelineReport {
    let mut stats = IngestStats::default();
    let mut batch: Vec<(IngestOp, Ticket)> = Vec::new();
    let mut pending: Vec<Ticket> = Vec::new();
    let mut staged_ops = 0usize;
    let mut deadline: Option<Instant> = None;
    let mut apply_index = 0u64;
    let mut persist_error: Option<String> = None;
    let driver = match (&options.durable, options.compaction) {
        (Some(durable), Some(policy)) => {
            Some(CompactionDriver::spawn(durable.clone(), live.clone(), policy))
        }
        _ => None,
    };

    'run: loop {
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let room = policy.max_batch_ops.saturating_sub(staged_ops).max(1);
        batch.clear();
        let status = queue.drain_into(&mut batch, room, timeout);

        for (op, ticket) in batch.drain(..) {
            ticket.mark_applied(apply_index);
            apply_index += 1;
            staged_ops += 1;
            match apply_op(&mut writer, op, &mut stats) {
                Ok(()) => {
                    stats.ops_applied += 1;
                    pending.push(ticket);
                }
                Err(e) => {
                    // A failed op can still have staged a prefix (batch
                    // inserts) — the publish below carries it; only the
                    // ticket reports the failure.
                    stats.op_errors += 1;
                    ticket.resolve(Err(e));
                }
            }
        }
        if deadline.is_none() && staged_ops > 0 {
            deadline = Some(Instant::now() + policy.max_delay);
        }

        let closing = matches!(status, Drained::Closed);
        let due =
            closing || matches!(status, Drained::TimedOut) || staged_ops >= policy.max_batch_ops;

        if due && staged_ops > 0 {
            if writer.has_staged_changes() {
                let durable = options.durable.as_ref();
                let published =
                    publish_batch(&mut writer, &live, durable, driver.as_ref(), &mut stats);
                match published {
                    Ok(gen) => {
                        stats.publishes += 1;
                        for t in pending.drain(..) {
                            t.resolve(Ok(gen.seqno()));
                        }
                        if let Some(hook) = options.on_publish.as_mut() {
                            hook(&gen);
                        }
                    }
                    Err(msg) => {
                        // The op-log could not record this publish (the
                        // retry budget included); fail the covered tickets
                        // and stop instead of letting the live chain
                        // diverge from the stream.
                        for t in pending.drain(..) {
                            t.resolve(Err(IngestError::Persist(msg.clone())));
                        }
                        persist_error = Some(msg);
                        break 'run;
                    }
                }
            } else {
                // Every op in the window was a no-op (dedup'd views,
                // empty inserts): their effects are already visible.
                let seq = writer.base().seqno();
                for t in pending.drain(..) {
                    t.resolve(Ok(seq));
                }
            }
            staged_ops = 0;
            deadline = None;
        } else if matches!(status, Drained::TimedOut) {
            deadline = None;
        }

        if closing {
            break;
        }
    }

    // A persist failure aborts mid-stream: resolve everything still queued
    // (and anything applied but unpublished) so no producer blocks forever.
    queue.close();
    loop {
        batch.clear();
        if matches!(queue.drain_into(&mut batch, usize::MAX, None), Drained::Closed) {
            break;
        }
        for (_, ticket) in batch.drain(..) {
            stats.op_errors += 1;
            ticket.resolve(Err(IngestError::Shutdown));
        }
    }
    for t in pending.drain(..) {
        t.resolve(Err(IngestError::Shutdown));
    }

    let compaction = driver.map(CompactionDriver::shutdown);
    PipelineReport { writer, stats, persist_error, compaction }
}

/// Publish one staged batch. With durable storage this is
/// [`EngineWriter::publish_durable`] (frame + append + fsync, then swap),
/// retried with a doubling backoff while the failure is transient, and the
/// resulting log size may trigger a compaction. `Err` consumes nothing:
/// the staged state survives for the caller's persist-failure path.
fn publish_batch(
    writer: &mut EngineWriter,
    live: &LiveEngine,
    durable: Option<&SharedDurable>,
    driver: Option<&CompactionDriver>,
    stats: &mut IngestStats,
) -> Result<Arc<EngineGeneration>, String> {
    let Some(durable) = durable else {
        return Ok(writer.publish(live));
    };
    let (mut attempt, mut backoff) = (1, FIRST_BACKOFF);
    let (gen, log) = loop {
        let published = {
            let mut durable = lock_durable(durable);
            writer.publish_durable(live, &mut durable).map(|gen| (gen, durable.status()))
        };
        match published {
            Ok(done) => break done,
            Err(e) if is_transient(&e) && attempt < PERSIST_ATTEMPTS => {
                stats.persist_retries += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
                attempt += 1;
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    if let Some(driver) = driver {
        driver.after_append(log);
    }
    Ok(gen)
}

fn apply_op(
    writer: &mut EngineWriter,
    op: IngestOp,
    stats: &mut IngestStats,
) -> Result<(), IngestError> {
    match op {
        IngestOp::InsertLabels(labels) => {
            let r = writer.try_insert_labels(&labels);
            stats.labels_ingested += match &r {
                Ok(ids) => ids.len() as u64,
                Err(EngineError::BatchStoreFull { index, .. }) => *index as u64,
                Err(_) => 0,
            };
            r.map(|_| ()).map_err(IngestError::Engine)
        }
        IngestOp::AddView(view) => {
            writer.add_view(view);
            Ok(())
        }
        IngestOp::CompileView(view, kind) => {
            writer.register_view(view, kind).map(|_| ()).map_err(IngestError::Engine)
        }
    }
}

// Producers hand ops across threads and the publisher owns the writer on
// its own thread — compile-checked, like the generation types.
const _: () = {
    const fn send<T: Send>() {}
    const fn send_sync<T: Send + Sync>() {}
    send::<EngineWriter>();
    send::<Ticket>();
    send::<IngestOp>();
    send_sync::<IngestQueue>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::WorkerScratch;
    use wf_core::Fvl;
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    fn shared_fvl() -> Arc<Fvl<'static>> {
        let ex = paper_example();
        Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap())
    }

    #[test]
    fn try_push_surfaces_backpressure_and_push_blocks_without_dropping() {
        let q = Arc::new(IngestQueue::with_capacity(2));
        let fill = |q: &IngestQueue| {
            q.try_push(IngestOp::InsertLabels(Vec::new())).unwrap();
            q.try_push(IngestOp::AddView(paper_example().view_u1())).unwrap();
        };
        fill(&q);
        // Full: the typed error reports the depth and accepts nothing.
        match q.try_push(IngestOp::InsertLabels(Vec::new())) {
            Err(EngineError::IngestBackpressure { queued }) => assert_eq!(queued, 2),
            Err(other) => panic!("expected backpressure, got {other:?}"),
            Ok(_) => panic!("a full queue must not accept ops"),
        }
        let mut out = Vec::new();
        assert!(matches!(q.drain_into(&mut out, usize::MAX, None), Drained::Ops));
        assert_eq!(out.len(), 2, "a rejected try_push must not consume a slot");

        // The blocking push parks until the publisher side makes room,
        // then lands its op — nothing is dropped on either path.
        fill(&q);
        let q2 = q.clone();
        let blocked = std::thread::spawn(move || {
            q2.push(IngestOp::InsertLabels(Vec::new())).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!blocked.is_finished(), "push on a full queue must block, not drop");
        assert!(matches!(q.drain_into(&mut out, 1, None), Drained::Ops));
        blocked.join().unwrap();

        // Closing fails producers but keeps queued ops drainable.
        q.close();
        assert!(matches!(
            q.push(IngestOp::InsertLabels(Vec::new())),
            Err(EngineError::IngestClosed)
        ));
        assert!(matches!(
            q.try_push(IngestOp::InsertLabels(Vec::new())),
            Err(EngineError::IngestClosed)
        ));
        out.clear();
        assert!(matches!(q.drain_into(&mut out, usize::MAX, None), Drained::Ops));
        assert_eq!(out.len(), 2, "the parked push claimed the freed slot");
        assert!(matches!(q.drain_into(&mut out, usize::MAX, None), Drained::Closed));
    }

    #[test]
    fn expired_deadline_drains_nothing() {
        let q = IngestQueue::with_capacity(4);
        q.push(IngestOp::InsertLabels(Vec::new())).unwrap();
        let mut out = Vec::new();
        let expired = q.drain_into(&mut out, usize::MAX, Some(Duration::ZERO));
        assert!(matches!(expired, Drained::TimedOut), "a due publish goes before more work");
        assert!(out.is_empty());
        assert!(matches!(q.drain_into(&mut out, usize::MAX, None), Drained::Ops));
        assert_eq!(out.len(), 1, "the op stayed queued");
    }

    #[test]
    fn pipeline_applies_ops_and_resolves_tickets_in_order() {
        let ex = paper_example();
        let fvl = shared_fvl();
        let (run, ids) = figure3_run(&ex);
        let labels = Fvl::new(&ex.spec).unwrap().labeler(&run).labels().to_vec();

        let writer = EngineWriter::from_fvl(fvl);
        let live = Arc::new(LiveEngine::new(writer.base().clone()));
        let pipeline = IngestPipeline::spawn_with(
            writer,
            live.clone(),
            PublishPolicy::default(),
            PipelineOptions::default(),
        );
        let q = pipeline.queue().clone();

        let t1 = q.push(IngestOp::InsertLabels(labels.clone())).unwrap();
        let t2 = q.push(IngestOp::CompileView(ex.view_u2(), VariantKind::Default)).unwrap();
        // A structurally identical view from "another producer" dedups.
        let t3 = q.push(IngestOp::CompileView(ex.view_u2(), VariantKind::Default)).unwrap();
        let (s1, s2, s3) = (t1.wait().unwrap(), t2.wait().unwrap(), t3.wait().unwrap());
        assert!(s1 >= 1 && s2 >= s1 && s3 >= s2, "seqnos follow queue order");
        assert!(t1.apply_index().unwrap() < t2.apply_index().unwrap());
        assert!(t1.lag_ns().is_some());

        // The published generation answers Example 8.
        let gen = live.snapshot();
        assert!(gen.seqno() >= s3);
        let u2 =
            crate::registry::ViewRef { id: crate::registry::ViewId(0), kind: VariantKind::Default };
        let mut ws = WorkerScratch::new();
        let (a, b) = (crate::store::ItemId(ids.d17.0), crate::store::ItemId(ids.d31.0));
        assert_eq!(gen.core().try_query(&mut ws, u2, a, b).unwrap(), Some(true));

        let report = pipeline.shutdown();
        assert_eq!(report.stats.op_errors, 0);
        assert_eq!(report.stats.labels_ingested, labels.len() as u64);
        assert_eq!(report.writer.base().seqno(), live.snapshot().seqno());
        assert!(report.persist_error.is_none());
    }

    #[test]
    fn deadline_trigger_publishes_without_more_traffic() {
        let ex = paper_example();
        let fvl = shared_fvl();
        let writer = EngineWriter::from_fvl(fvl);
        let live = Arc::new(LiveEngine::new(writer.base().clone()));
        // The op budget far out of reach: only the deadline can fire.
        let policy = PublishPolicy {
            max_batch_ops: 1_000_000,
            max_delay: Duration::from_millis(5),
            ..PublishPolicy::default()
        };
        let pipeline =
            IngestPipeline::spawn_with(writer, live.clone(), policy, PipelineOptions::default());
        let t = pipeline.queue().push(IngestOp::AddView(ex.view_u1())).unwrap();
        let seq = t.wait().expect("deadline publish resolves the ticket");
        assert_eq!(live.seqno(), seq);
        pipeline.shutdown();
    }

    #[test]
    fn failed_ops_resolve_with_typed_errors_and_do_not_stall_the_pipeline() {
        let ex = paper_example();
        let fvl = shared_fvl();
        let writer = EngineWriter::from_fvl(fvl);
        let live = Arc::new(LiveEngine::new(writer.base().clone()));
        let pipeline = IngestPipeline::spawn_with(
            writer,
            live.clone(),
            PublishPolicy::default(),
            PipelineOptions::default(),
        );
        let q = pipeline.queue().clone();

        // An unsafe compile fails its ticket with the compile error…
        let bad = q.push(IngestOp::CompileView(ex.view_u1(), VariantKind::SpaceEfficient));
        // …while a later valid op still lands.
        let good = q.push(IngestOp::AddView(ex.view_u2())).unwrap();
        let outcome = bad.unwrap().wait();
        match outcome {
            Ok(_) => {
                // If the workload's U1 is safe for SpaceEfficient this arm
                // is legal; the pipeline-liveness half is what matters.
            }
            Err(IngestError::Engine(EngineError::Compile(_))) => {}
            Err(other) => panic!("expected a compile error, got {other:?}"),
        }
        good.wait().unwrap();
        let report = pipeline.shutdown();
        assert!(report.persist_error.is_none());
    }
}
