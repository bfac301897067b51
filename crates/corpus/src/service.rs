//! The concurrent query service: a fixed worker pool executing
//! `(prepared plan, shard)` work items with admission control, deadlines,
//! and latency accounting.
//!
//! # Lifecycle of a request
//!
//! 1. [`QueryService::submit`] compiles the query once through
//!    [`Engine::prepare_in`], read-only against the corpus catalog — a
//!    repeat query text is a plan-cache lookup, and a text naming a label
//!    the catalog lacks fails with [`ServiceError::Engine`] before it is
//!    counted as submitted — and fans the `Arc<Prepared>` plan into one
//!    work item per shard.
//! 2. **Admission** is all-or-nothing and non-blocking: if the bounded
//!    queue cannot take the whole fan-out, the request is rejected with
//!    [`ServiceError::Overloaded`] (counted as `corpus_rejected`) rather
//!    than queueing without bound.
//! 3. Workers pop items, evaluate the plan over every document of the
//!    shard from its root, and check the request **deadline** between
//!    documents: on expiry the rest of the shard is skipped and the
//!    answer is marked partial (counted as `corpus_timeouts`).
//! 4. The caller blocks on [`Ticket::wait`], which assembles the
//!    [`CorpusAnswer`]: per-document node sets in `DocId` order,
//!    per-shard timings (queue wait, eval time), and the merged
//!    observability counters of every worker — drained on the worker
//!    threads and folded into the waiting thread via
//!    [`obs::merge_local`], so a `snapshot`/`delta_since` window around
//!    a corpus query sees the whole distributed cost.
//!
//! **Shutdown** is graceful: [`QueryService::shutdown`] (or drop) closes
//! the queue — further submissions fail with [`ServiceError::ShutDown`]
//! — and joins the workers, which first drain every admitted item, so
//! every issued [`Ticket`] still completes.

use crate::queue::{BoundedQueue, PushError};
use crate::slowlog::{SlowLog, SlowLogEntry};
use crate::store::{Corpus, CorpusSnapshot, DocId, UpdateError, UpdateReceipt};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use treewalk::{Engine, EngineError, Prepared, ResultCache, ResultCacheStats};
use twx_obs::metrics::Gauge;
use twx_obs::{self as obs, AtomicHistogram, Counter, Counters, SpanNode, SpanTree, TraceId};
use twx_xtree::edit::{DocVersion, Edit};
use twx_xtree::NodeSet;

/// Tuning knobs for a [`QueryService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads. `0` is a test-only "manual" mode: submissions are
    /// admitted (or rejected) but nothing executes, so tickets never
    /// complete — useful for deterministic admission-control tests.
    pub workers: usize,
    /// Maximum queued work items (shard tasks, not requests). A request
    /// over an `N`-shard corpus needs `N` free slots to be admitted, so
    /// keep `queue_capacity >= n_shards`.
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without an explicit
    /// timeout. `None` means no deadline.
    pub default_timeout: Option<Duration>,
    /// Worst requests retained by the slow-query log (0 disables it).
    pub slowlog_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_capacity: 256,
            default_timeout: None,
            slowlog_capacity: 16,
        }
    }
}

/// Returns 1: evaluation is single-threaded.
#[doc(hidden)]
#[deprecated(note = "evaluation is single-threaded; kept for perfbench/src/stack.rs")]
pub fn default_eval_threads(_host_cores: usize, _workers: usize) -> usize {
    1
}

/// An error from [`QueryService::submit`].
#[derive(Debug)]
pub enum ServiceError {
    /// Admission control refused the request: the queue cannot take the
    /// request's shard fan-out. Back off and retry; nothing was queued.
    Overloaded {
        /// Work items queued at the time of refusal.
        queued: usize,
        /// The queue capacity bound.
        capacity: usize,
    },
    /// The service is shutting down (or has shut down).
    ShutDown,
    /// The query did not compile.
    Engine(EngineError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { queued, capacity } => write!(
                f,
                "overloaded: admission queue at {queued}/{capacity} cannot take the request"
            ),
            ServiceError::ShutDown => write!(f, "service is shut down"),
            ServiceError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> ServiceError {
        ServiceError::Engine(e)
    }
}

/// Where one shard's time went, as measured by the worker that ran it.
#[derive(Clone, Debug)]
pub struct ShardTiming {
    /// Shard index.
    pub shard: usize,
    /// Documents evaluated (excludes documents skipped by the deadline).
    pub docs: usize,
    /// Documents skipped because the deadline expired.
    pub skipped_docs: usize,
    /// Time the work item sat in the queue before a worker picked it up.
    pub queue_wait: Duration,
    /// Time the worker spent evaluating the shard.
    pub eval: Duration,
    /// Whether the deadline expired inside this shard.
    pub timed_out: bool,
}

/// The aggregated answer to a corpus query.
#[derive(Debug)]
pub struct CorpusAnswer {
    /// The query text as submitted.
    pub query: String,
    /// Per-document answers in `DocId` order, each with the
    /// [`DocVersion`] it was evaluated against (the version pinned in
    /// the request's snapshot). On a timed-out request this holds only
    /// the documents evaluated before the deadline.
    pub per_doc: Vec<(DocId, DocVersion, NodeSet)>,
    /// Total matched nodes across all documents.
    pub total_matches: u64,
    /// Per-shard timings (index order).
    pub shards: Vec<ShardTiming>,
    /// Whether any shard hit the deadline (the answer is partial).
    pub timed_out: bool,
    /// The commit sequence number of the snapshot this answer was
    /// evaluated against.
    pub snapshot_seq: u64,
    /// **Stale**: at least one commit landed after this request pinned
    /// its snapshot, so the answer — while exact for its snapshot — no
    /// longer reflects the newest corpus state.
    pub stale: bool,
    /// Submit-to-completion latency as seen by the waiter.
    pub latency: Duration,
    /// Observability counters accumulated by the workers for this
    /// request (also merged into the waiting thread's live counters).
    pub counters: Counters,
    /// The request's trace id — every answer carries one (it also tags
    /// the slow-query log entry), whether or not a trace was collected.
    pub trace_id: TraceId,
    /// The span tree of the request, present only when submitted
    /// through a traced entry point ([`QueryService::submit_traced`] /
    /// [`QueryService::query_traced`]) with instrumentation enabled.
    pub trace: Option<SpanTree>,
}

/// Point-in-time service statistics (atomics, no locks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests whose query compiled, admitted or not.
    pub submitted: u64,
    /// Requests fully aggregated by a waiter.
    pub completed: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests that completed with a partial (timed-out) answer.
    pub timeouts: u64,
    /// Edits committed through [`QueryService::update`].
    pub updates: u64,
    /// Answers flagged stale (a commit landed after their snapshot).
    pub stale_answers: u64,
    /// Total submit-to-completion latency of completed requests, in
    /// nanoseconds (divide by `completed` for the mean).
    pub latency_nanos_total: u64,
    /// Work items currently queued.
    pub queued: usize,
    /// The admission bound.
    pub queue_capacity: usize,
    /// Worker threads serving the queue.
    pub workers: usize,
}

#[derive(Default)]
struct StatsInner {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    updates: AtomicU64,
    stale_answers: AtomicU64,
    latency_nanos_total: AtomicU64,
}

/// What a worker produced for one shard.
struct ShardOutcome {
    per_doc: Vec<(DocId, DocVersion, NodeSet)>,
    timing: ShardTiming,
    counters: Counters,
    /// The worker's span subtree for this shard (traced requests only).
    trace: Option<SpanNode>,
}

struct RequestState {
    remaining: usize,
    outcomes: Vec<Option<ShardOutcome>>,
}

struct RequestShared {
    state: Mutex<RequestState>,
    done: Condvar,
}

impl RequestShared {
    fn new(n_shards: usize) -> RequestShared {
        RequestShared {
            state: Mutex::new(RequestState {
                remaining: n_shards,
                outcomes: (0..n_shards).map(|_| None).collect(),
            }),
            done: Condvar::new(),
        }
    }
}

struct WorkItem {
    prepared: Arc<Prepared>,
    // the consistent read view this request evaluates against — shared
    // by every shard item of the request, pinned at submit time
    snapshot: Arc<CorpusSnapshot>,
    shard: usize,
    deadline: Option<Instant>,
    enqueued: Instant,
    request: Arc<RequestShared>,
    /// `Some` iff the request wants a span tree: the worker collects a
    /// per-shard trace rooted at the carried origin instant (the submit
    /// time, so its offsets share the submit thread's clock) and ships
    /// it back in the outcome.
    trace: Option<(TraceId, Instant)>,
}

/// A handle to an admitted request; [`Ticket::wait`] blocks until every
/// shard has reported and returns the aggregated answer.
#[must_use = "an admitted request completes regardless; wait() collects it"]
pub struct Ticket {
    request: Arc<RequestShared>,
    query: String,
    submitted: Instant,
    stats: Arc<StatsInner>,
    corpus: Arc<Corpus>,
    snapshot_seq: u64,
    trace_id: TraceId,
    /// The submit thread's compile-side span (`prepare` with its parse/
    /// simplify/plan_cache children) — `Some` iff the request is traced
    /// and instrumentation is on.
    prepare_span: Option<SpanNode>,
    traced: bool,
    hist_request: Arc<AtomicHistogram>,
    axis_closures: Arc<Gauge>,
    slowlog: Arc<SlowLog>,
}

impl Ticket {
    /// The trace id the eventual [`CorpusAnswer`] will carry.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Blocks until the request completes and aggregates the answer.
    pub fn wait(self) -> CorpusAnswer {
        let mut st = self.request.state.lock().expect("request poisoned");
        while st.remaining > 0 {
            st = self.request.done.wait(st).expect("request poisoned");
        }
        let merge_started = self.submitted.elapsed().as_nanos() as u64;
        let merge_clock = obs::Clock::start();
        let mut per_doc = Vec::new();
        let mut shards = Vec::with_capacity(st.outcomes.len());
        let mut counters = Counters::default();
        let mut shard_traces = Vec::new();
        let mut timed_out = false;
        for outcome in st.outcomes.iter_mut() {
            let o = outcome.take().expect("completed shard has an outcome");
            per_doc.extend(o.per_doc);
            counters.merge(&o.counters);
            timed_out |= o.timing.timed_out;
            shards.push(o.timing);
            shard_traces.extend(o.trace);
        }
        drop(st);
        per_doc.sort_by_key(|(id, _, _)| *id);
        shards.sort_by_key(|t| t.shard);
        shard_traces.sort_by_key(|n| n.start_ns);
        // fold worker costs into the waiting thread's live counters so
        // they show up in any open snapshot window
        obs::merge_local(&counters);
        if timed_out {
            obs::incr(Counter::CorpusTimeouts);
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let latency = self.submitted.elapsed();
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.stats
            .latency_nanos_total
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        self.hist_request.record(latency.as_nanos() as u64);
        self.axis_closures
            .add(counters.get(Counter::VmAxisClosures));
        // a commit after our pin makes this answer stale (still exact
        // for the snapshot it was computed against)
        let stale = self.corpus.seq() > self.snapshot_seq;
        if stale {
            obs::incr(Counter::CorpusStaleAnswers);
            self.stats.stale_answers.fetch_add(1, Ordering::Relaxed);
        }
        let total_matches = per_doc.iter().map(|(_, _, s)| s.count() as u64).sum();
        // the span tree: submit-side prepare, per-shard worker subtrees
        // (all on the submit instant's clock), and this merge pass
        let trace = if self.traced && obs::ENABLED {
            let mut root = SpanNode {
                name: "request".to_string(),
                start_ns: 0,
                dur_ns: latency.as_nanos() as u64,
                counters: counters.clone(),
                children: Vec::new(),
            };
            root.children.extend(self.prepare_span.clone());
            root.children.extend(shard_traces);
            root.push_child(SpanNode::leaf(
                "merge",
                merge_started,
                merge_clock.elapsed_nanos(),
            ));
            Some(SpanTree {
                trace_id: self.trace_id,
                root,
            })
        } else {
            None
        };
        self.slowlog.record(SlowLogEntry {
            trace_id: self.trace_id,
            query: self.query.clone(),
            latency,
            timed_out,
            stale,
            total_matches,
            counters: counters.clone(),
        });
        CorpusAnswer {
            query: self.query,
            total_matches,
            per_doc,
            shards,
            timed_out,
            snapshot_seq: self.snapshot_seq,
            stale,
            latency,
            counters,
            trace_id: self.trace_id,
            trace,
        }
    }
}

/// The per-service latency series, shared by workers and waiters and
/// registered in the global [`obs::metrics`] registry (a re-constructed
/// service re-binds the registry keys to its fresh handles).
struct LatencySeries {
    /// Submit-to-completion, recorded by the waiter.
    request: Arc<AtomicHistogram>,
    /// Admission-to-pickup per shard item, recorded by workers.
    queue_wait: Arc<AtomicHistogram>,
    /// Per-shard evaluation time, recorded by workers.
    shard_eval: Arc<AtomicHistogram>,
    /// The VM's axis-closure kernel runs (`vm_axis_closures`), summed by
    /// the waiter over each request's merged counters.
    axis_closures: Arc<Gauge>,
}

impl LatencySeries {
    fn registered() -> LatencySeries {
        let reg = obs::metrics::global();
        LatencySeries {
            request: reg.histogram("twx_service_request_ns", &[]),
            queue_wait: reg.histogram("twx_service_queue_wait_ns", &[]),
            shard_eval: reg.histogram("twx_service_shard_eval_ns", &[]),
            axis_closures: reg.gauge("twx_vm_axis_closures_total", &[]),
        }
    }
}

/// The concurrent corpus query service (see the [module docs](self)).
pub struct QueryService {
    corpus: Arc<Corpus>,
    engine: Engine,
    results: Arc<ResultCache>,
    queue: Arc<BoundedQueue<WorkItem>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<StatsInner>,
    series: LatencySeries,
    slowlog: Arc<SlowLog>,
    config: ServiceConfig,
}

impl QueryService {
    /// Starts a service over `corpus`, compiling through `engine` (whose
    /// plan cache the service shares).
    pub fn new(corpus: Arc<Corpus>, engine: Engine, config: ServiceConfig) -> QueryService {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let results = Arc::new(ResultCache::default());
        let series = LatencySeries::registered();
        let slowlog = Arc::new(SlowLog::new(config.slowlog_capacity));
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let results = Arc::clone(&results);
                let queue_wait = Arc::clone(&series.queue_wait);
                let shard_eval = Arc::clone(&series.shard_eval);
                std::thread::Builder::new()
                    .name(format!("twx-corpus-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &results, &queue_wait, &shard_eval))
                    .expect("spawn worker")
            })
            .collect();
        QueryService {
            corpus,
            engine,
            results,
            queue,
            workers,
            stats: Arc::new(StatsInner::default()),
            series,
            slowlog,
            config,
        }
    }

    /// The corpus being served.
    pub fn corpus(&self) -> &Arc<Corpus> {
        &self.corpus
    }

    /// Submits a query with the configured default timeout.
    pub fn submit(&self, query: &str) -> Result<Ticket, ServiceError> {
        self.submit_inner(query, self.config.default_timeout, false)
    }

    /// Submits a query with an explicit deadline (`None` = none),
    /// returning a [`Ticket`] if admitted.
    pub fn submit_with_timeout(
        &self,
        query: &str,
        timeout: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        self.submit_inner(query, timeout, false)
    }

    /// Like [`submit`](Self::submit), but the answer carries a full
    /// [`SpanTree`]: the submit thread's compile stages, each worker's
    /// per-shard subtree, and the merge pass, all on one clock. The
    /// answer's node sets are identical to an untraced submission.
    pub fn submit_traced(&self, query: &str) -> Result<Ticket, ServiceError> {
        self.submit_inner(query, self.config.default_timeout, true)
    }

    /// Traced submission with an explicit deadline (`None` = none).
    pub fn submit_traced_with_timeout(
        &self,
        query: &str,
        timeout: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        self.submit_inner(query, timeout, true)
    }

    fn submit_inner(
        &self,
        query: &str,
        timeout: Option<Duration>,
        traced: bool,
    ) -> Result<Ticket, ServiceError> {
        let trace_id = TraceId::next();
        // capture the compile side of the pipeline as its own subtree;
        // its offsets (and the workers') are all relative to this instant
        let submitted = Instant::now();
        let collecting = traced && obs::trace::begin_at("prepare", trace_id, submitted);
        let prepared = match self.engine.prepare_in(self.corpus.catalog(), query) {
            Ok(p) => Arc::new(p),
            Err(e) => {
                if collecting {
                    obs::trace::take();
                }
                return Err(ServiceError::Engine(e));
            }
        };
        let prepare_span = if collecting {
            obs::trace::take().map(|t| t.root)
        } else {
            None
        };
        obs::incr(Counter::CorpusRequests);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let deadline = timeout.map(|t| now + t);
        let n = self.corpus.n_shards();
        // one consistent read view for the whole request: every shard
        // item evaluates against this pin, never the live corpus
        let snapshot = Arc::new(self.corpus.snapshot());
        let snapshot_seq = snapshot.seq();
        let request = Arc::new(RequestShared::new(n));
        let items: Vec<WorkItem> = (0..n)
            .map(|shard| WorkItem {
                prepared: Arc::clone(&prepared),
                snapshot: Arc::clone(&snapshot),
                shard,
                deadline,
                enqueued: now,
                request: Arc::clone(&request),
                trace: traced.then_some((trace_id, submitted)),
            })
            .collect();
        match self.queue.try_push_all(items) {
            Ok(()) => Ok(Ticket {
                request,
                query: query.to_string(),
                submitted,
                stats: Arc::clone(&self.stats),
                corpus: Arc::clone(&self.corpus),
                snapshot_seq,
                trace_id,
                prepare_span,
                traced,
                hist_request: Arc::clone(&self.series.request),
                axis_closures: Arc::clone(&self.series.axis_closures),
                slowlog: Arc::clone(&self.slowlog),
            }),
            Err((PushError::Full { queued, capacity }, _)) => {
                obs::incr(Counter::CorpusRejected);
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded { queued, capacity })
            }
            Err((PushError::Closed, _)) => Err(ServiceError::ShutDown),
        }
    }

    /// Commits one typed edit to document `id` and invalidates the
    /// result cache **precisely**: cached answers whose touched span is
    /// disjoint from the edit's affected span survive into the new
    /// version; overlapping ones are dropped. In-flight queries keep
    /// reading their pinned snapshots; their answers come back flagged
    /// [`CorpusAnswer::stale`].
    pub fn update(&self, id: DocId, edit: &Edit) -> Result<UpdateReceipt, UpdateError> {
        let receipt = self.corpus.update(id, edit)?;
        self.results
            .invalidate(u64::from(id.0), receipt.affected, receipt.version);
        obs::incr(Counter::CorpusUpdates);
        self.stats.updates.fetch_add(1, Ordering::Relaxed);
        Ok(receipt)
    }

    /// Submit + wait in one call.
    pub fn query(&self, query: &str) -> Result<CorpusAnswer, ServiceError> {
        Ok(self.submit(query)?.wait())
    }

    /// Submit + wait with an explicit deadline.
    pub fn query_with_timeout(
        &self,
        query: &str,
        timeout: Option<Duration>,
    ) -> Result<CorpusAnswer, ServiceError> {
        Ok(self.submit_with_timeout(query, timeout)?.wait())
    }

    /// Traced submit + wait in one call (see
    /// [`submit_traced`](Self::submit_traced)).
    pub fn query_traced(&self, query: &str) -> Result<CorpusAnswer, ServiceError> {
        Ok(self.submit_traced(query)?.wait())
    }

    /// Traced submit + wait with an explicit deadline.
    pub fn query_traced_with_timeout(
        &self,
        query: &str,
        timeout: Option<Duration>,
    ) -> Result<CorpusAnswer, ServiceError> {
        Ok(self.submit_traced_with_timeout(query, timeout)?.wait())
    }

    /// Point-in-time view of the end-to-end request latency
    /// distribution (submit to aggregation, nanoseconds).
    pub fn request_latency_histogram(&self) -> obs::Histogram {
        self.series.request.load()
    }

    /// Point-in-time view of the shard queue-wait distribution
    /// (admission to worker pickup, nanoseconds).
    pub fn queue_wait_histogram(&self) -> obs::Histogram {
        self.series.queue_wait.load()
    }

    /// Point-in-time view of the per-shard evaluation latency
    /// distribution (nanoseconds).
    pub fn shard_eval_histogram(&self) -> obs::Histogram {
        self.series.shard_eval.load()
    }

    /// The retained slow-query log entries, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowLogEntry> {
        self.slowlog.snapshot()
    }

    /// Current service statistics.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            updates: self.stats.updates.load(Ordering::Relaxed),
            stale_answers: self.stats.stale_answers.load(Ordering::Relaxed),
            latency_nanos_total: self.stats.latency_nanos_total.load(Ordering::Relaxed),
            queued: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers: self.workers.len(),
        }
    }

    /// Plan-cache statistics of the engine the service compiles through.
    pub fn cache_stats(&self) -> treewalk::CacheStats {
        self.engine.cache_stats()
    }

    /// Statistics of the shared result cache the workers answer through.
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.results.stats()
    }

    /// Graceful shutdown: refuses new submissions, lets the workers
    /// drain every admitted work item, joins them, and returns the final
    /// statistics. Every previously-issued [`Ticket`] completes.
    pub fn shutdown(mut self) -> ServiceStats {
        self.queue.close();
        for h in self.workers.drain(..) {
            h.join().expect("worker panicked");
        }
        self.stats()
    }
}

impl Drop for QueryService {
    /// Same contract as [`QueryService::shutdown`] (drop is idempotent
    /// after an explicit shutdown).
    fn drop(&mut self) {
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for QueryService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryService")
            .field("shards", &self.corpus.n_shards())
            .field("docs", &self.corpus.n_docs())
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.queue.capacity())
            .finish()
    }
}

/// The worker loop: pop → evaluate shard (deadline-checked per document)
/// against the item's **pinned snapshot**, answering through the shared
/// result cache → drain thread-local counters into the outcome → report.
///
/// Latency accounting per item: queue wait and shard eval go to the
/// thread-local nanosecond counters (per-request profiles) *and* the
/// service's shared histograms (the process-lifetime distributions the
/// `metrics`/`stats` ops expose). Traced items additionally collect a
/// per-shard span subtree on this thread and ship it in the outcome —
/// the span-tree analogue of the counter drain.
fn worker_loop(
    queue: &BoundedQueue<WorkItem>,
    results: &ResultCache,
    hist_queue_wait: &AtomicHistogram,
    hist_shard_eval: &AtomicHistogram,
) {
    // stray counters from a previous item must not leak into this one
    let _ = obs::drain();
    while let Some(item) = queue.pop() {
        let picked = Instant::now();
        let queue_wait = picked.duration_since(item.enqueued);
        obs::add(Counter::CorpusQueueWaitNanos, queue_wait.as_nanos() as u64);
        hist_queue_wait.record(queue_wait.as_nanos() as u64);
        let tracing = item.trace.is_some_and(|(id, origin)| {
            obs::trace::begin_at(&format!("shard{}", item.shard), id, origin)
        });
        if tracing {
            // queue wait as an explicitly-timed leaf: it ended when this
            // worker picked the item up
            let end = picked.duration_since(item.trace.expect("tracing").1);
            let wait = queue_wait.as_nanos() as u64;
            obs::trace::attach(SpanNode::leaf(
                "queue_wait",
                (end.as_nanos() as u64).saturating_sub(wait),
                wait,
            ));
        }
        let shard = item.snapshot.shard(item.shard);
        let mut per_doc = Vec::with_capacity(shard.len());
        let mut timed_out = false;
        {
            let _span = obs::span(Counter::CorpusShardEvalNanos);
            let clock = obs::Clock::start();
            for entry in shard.entries() {
                if item.deadline.is_some_and(|d| Instant::now() >= d) {
                    timed_out = true;
                    break;
                }
                let root = entry.doc.tree.root();
                let answer = item.prepared.eval_cached(
                    results,
                    u64::from(entry.id.0),
                    entry.version,
                    &entry.doc,
                    root,
                );
                per_doc.push((entry.id, entry.version, (*answer).clone()));
            }
            hist_shard_eval.record(clock.elapsed_nanos());
        }
        let timing = ShardTiming {
            shard: item.shard,
            docs: per_doc.len(),
            skipped_docs: shard.len() - per_doc.len(),
            queue_wait,
            eval: picked.elapsed(),
            timed_out,
        };
        let trace = if tracing {
            obs::trace::take().map(|t| t.root)
        } else {
            None
        };
        let outcome = ShardOutcome {
            per_doc,
            timing,
            counters: obs::drain(),
            trace,
        };
        let mut st = item.request.state.lock().expect("request poisoned");
        st.outcomes[item.shard] = Some(outcome);
        st.remaining -= 1;
        if st.remaining == 0 {
            item.request.done.notify_all();
        }
    }
}
