//! A document-level query engine over the bytecode VM.
//!
//! [`Engine`] compiles Regular XPath(W) queries through a staged pipeline
//! — plan-cache probe → parse → simplify → VM compile — and evaluates
//! the resulting [`twx_vm::Program`]. The paper's three equivalent
//! constructions (the NFA-product evaluator, the nested tree walking
//! automaton, and the FO(MTC) model checker) are not serving options:
//! they are the reference translations the conformance harness checks
//! the VM against, reachable from any [`Prepared::path`].
//!
//! Compilation is decoupled from documents: queries resolve **read-only**
//! against a document's alphabet or a shared, append-only [`Catalog`]
//! (an unknown label is [`EngineError::UnknownLabel`], never an intern),
//! a plan cache keyed by query text is shared by every clone of the
//! engine, and [`Engine`]/[`Prepared`] are `Send + Sync`, so one
//! prepared query can serve many threads and many documents over the
//! same label space.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use twx_obs::{self as obs, AtomicHistogram, CompiledSizes, Counter, QueryProfile, SpanTree};
use twx_regxpath::parser::{parse_rpath_bound, ResolveError};
use twx_regxpath::{simplify_rpath, RPath};
use twx_vm::Program;
use twx_xtree::edit::{DocVersion, Span};
use twx_xtree::{Alphabet, Catalog, Document, Label, NodeId, NodeSet};

/// The process-wide eval-latency histogram, registered in the global
/// [`obs::metrics`] registry as `twx_engine_eval_ns`. Every [`Prepared`]
/// records into the same handle, so the `metrics` exposition shows the
/// full eval-latency distribution.
fn eval_histogram() -> &'static AtomicHistogram {
    static HANDLE: OnceLock<Arc<AtomicHistogram>> = OnceLock::new();
    HANDLE.get_or_init(|| obs::metrics::global().histogram("twx_engine_eval_ns", &[]))
}

/// An error from [`Engine::query`].
#[derive(Debug)]
pub enum EngineError {
    /// The query text did not parse.
    Syntax(twx_regxpath::parser::SyntaxError),
    /// The query mentions a label that is not in the document's alphabet
    /// (or shared catalog). Compilation never mutates the label space, so
    /// unknown labels surface as typed errors instead of silent interns.
    UnknownLabel {
        /// The label name as written in the query.
        label: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Syntax(e) => write!(f, "{e}"),
            EngineError::UnknownLabel { label } => {
                write!(f, "unknown label '{label}': not in the label space")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ResolveError> for EngineError {
    fn from(e: ResolveError) -> EngineError {
        match e {
            ResolveError::Syntax(e) => EngineError::Syntax(e),
            ResolveError::UnknownLabel { label, .. } => EngineError::UnknownLabel { label },
        }
    }
}

/// Point-in-time statistics of an engine's plan cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prepares answered from the cache: nothing parsed or compiled.
    pub hits: u64,
    /// Prepares that had to compile.
    pub misses: u64,
    /// Texts displaced by the FIFO capacity bound.
    pub evictions: u64,
    /// Texts currently resident.
    pub entries: usize,
    /// Maximum resident texts before eviction.
    pub capacity: usize,
}

/// Default number of resident texts before FIFO eviction.
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// What one query text prepared to. Every [`Prepared`] served from the
/// text shares it, so a cache hit copies no AST and no string.
#[derive(Debug)]
struct Parts {
    text: String,
    /// Each label name the text mentions, with the label it resolved to
    /// (see [`parse_rpath_bound`]).
    bindings: Vec<(String, Label)>,
    raw_size: usize,
    path: RPath,
    plan: Arc<Program>,
}

/// A concurrent plan cache: one map from query text to its [`Parts`],
/// holding at most `capacity` texts with FIFO eviction.
///
/// A query shares only its label tests with a document, so a plan is
/// exact in every label space — a document's alphabet or a catalog —
/// that binds the names its text mentions alike: a probe hits when each
/// binding resolves the same way there. A text whose bindings differ
/// misses, and its new parts replace the entry in place. Evictions never
/// invalidate a live [`Prepared`]. Hit/miss/eviction totals are kept in
/// atomics ([`Engine::cache_stats`]) and tick the thread-local
/// `plan_cache_*` counters.
#[derive(Debug)]
struct PlanCache {
    inner: RwLock<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<String, Arc<Parts>>,
    order: VecDeque<String>,
    capacity: usize,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: RwLock::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The parts `query` prepared to, if each of its bindings resolves to
    /// the same label in `labels`. Counts a hit; a miss is counted when
    /// the text compiles.
    fn get(&self, query: &str, labels: &Alphabet) -> Option<Arc<Parts>> {
        let inner = self.inner.read().expect("plan cache poisoned");
        let parts = inner.map.get(query)?;
        if !parts
            .bindings
            .iter()
            .all(|(name, l)| labels.lookup(name) == Some(*l))
        {
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        obs::incr(Counter::PlanCacheHits);
        Some(Arc::clone(parts))
    }

    /// Compiles `path` and caches the parts under `text`.
    ///
    /// Compilation runs outside any lock: concurrent misses on one text
    /// may compile twice, but compilation is pure, so when their bindings
    /// agree the duplicates are identical and the first insert wins.
    fn compile(
        &self,
        text: &str,
        bindings: Vec<(String, Label)>,
        raw_size: usize,
        path: RPath,
    ) -> Arc<Parts> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::incr(Counter::PlanCacheMisses);
        let plan = {
            let _t = obs::span(Counter::CompileNanos);
            Arc::new(twx_vm::compile_path(&path))
        };
        let parts = Arc::new(Parts {
            text: text.to_string(),
            bindings,
            raw_size,
            path,
            plan,
        });
        let mut inner = self.inner.write().expect("plan cache poisoned");
        if let Some(entry) = inner.map.get_mut(text) {
            if entry.bindings != parts.bindings {
                // the same text in a label space that numbers its names
                // differently: the entry keeps its place in the FIFO
                *entry = Arc::clone(&parts);
            }
            return Arc::clone(entry);
        }
        inner.map.insert(parts.text.clone(), Arc::clone(&parts));
        inner.order.push_back(parts.text.clone());
        while inner.map.len() > inner.capacity {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs::incr(Counter::PlanCacheEvictions);
        }
        parts
    }

    fn stats(&self) -> CacheStats {
        let inner = self.inner.read().expect("plan cache poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            capacity: inner.capacity,
        }
    }
}

/// What a plan-cache probe found for a query text.
enum Probe {
    /// The text is cached with bindings the label space agrees with.
    Hit(Arc<Parts>),
    /// It is not: the text's read-only parse and its bindings.
    Miss(RPath, Vec<(String, Label)>),
}

/// Default number of resident answers before the result cache evicts.
const DEFAULT_RESULT_CACHE_CAPACITY: usize = 1024;

/// Point-in-time statistics of a [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered from a cached node set.
    pub hits: u64,
    /// Lookups that found nothing (or a stale version).
    pub misses: u64,
    /// Answers inserted after an evaluation.
    pub insertions: u64,
    /// Entries kept across an edit (touched span disjoint from the
    /// edit's affected span).
    pub carried: u64,
    /// Entries dropped by an edit (spans overlapped).
    pub invalidated: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Answers currently resident (across all documents).
    pub entries: usize,
    /// Maximum resident answers before eviction.
    pub capacity: usize,
}

/// One cached answer: the node set, the preorder span the query actually
/// depends on, and an insertion tick for capacity eviction.
#[derive(Debug)]
struct CachedAnswer {
    touched: Span,
    result: Arc<NodeSet>,
    tick: u64,
}

/// Per-document slice of the result cache. All resident answers for a
/// document are for **one** version — its latest seen — so the version
/// lives here rather than in every key.
#[derive(Debug, Default)]
struct DocResults {
    version: DocVersion,
    answers: HashMap<u64, CachedAnswer>,
}

#[derive(Debug)]
struct ResultInner {
    docs: HashMap<u64, DocResults>,
    len: usize,
    tick: u64,
    capacity: usize,
}

/// A concurrent, bounded cache of **evaluated answers**, keyed by
/// `(plan-and-context fingerprint, document id, DocVersion)`.
///
/// The cache is the read-side half of the live-corpus story: queries on
/// unchanged documents are answered without touching the tree, and edits
/// invalidate **precisely** — [`ResultCache::invalidate`] is told the
/// edit's affected span (from [`twx_xtree::edit::apply_edit`]) and keeps
/// every entry whose touched span ends before it. Subtree-local queries
/// (see [`RPath::is_downward`]) record a touched span of just their
/// context subtree, so edits elsewhere in the document carry them across
/// versions; everything else records the whole document and drops on any
/// edit.
///
/// Capacity eviction removes the globally oldest entry (smallest
/// insertion tick). Totals are kept in atomics and mirrored to the
/// thread-local `result_cache_*` observability counters.
#[derive(Debug)]
pub struct ResultCache {
    inner: RwLock<ResultInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    carried: AtomicU64,
    invalidated: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new(DEFAULT_RESULT_CACHE_CAPACITY)
    }
}

impl ResultCache {
    /// A cache bounded to `capacity` resident answers (min 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: RwLock::new(ResultInner {
                docs: HashMap::new(),
                len: 0,
                tick: 0,
                capacity: capacity.max(1),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            carried: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a cached answer. A hit requires the document slice to be
    /// at exactly `version` — answers cached against other versions never
    /// leak across.
    pub fn get(&self, fingerprint: u64, doc: u64, version: DocVersion) -> Option<Arc<NodeSet>> {
        let inner = self.inner.read().expect("result cache poisoned");
        let hit = inner
            .docs
            .get(&doc)
            .filter(|d| d.version == version)
            .and_then(|d| d.answers.get(&fingerprint))
            .map(|a| Arc::clone(&a.result));
        drop(inner);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::incr(Counter::ResultCacheHits);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            obs::incr(Counter::ResultCacheMisses);
        }
        hit
    }

    /// Inserts an evaluated answer with the span it depends on. An
    /// answer computed against an **older** version than the cache has
    /// seen for the document (a reader on a pinned snapshot racing a
    /// writer) is silently dropped; a **newer** version resets the
    /// document's slice first.
    pub fn insert(
        &self,
        fingerprint: u64,
        doc: u64,
        version: DocVersion,
        touched: Span,
        result: Arc<NodeSet>,
    ) {
        let mut inner = self.inner.write().expect("result cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let (dropped, fresh) = {
            let slice = inner.docs.entry(doc).or_default();
            if slice.version > version {
                return; // stale snapshot's answer; don't pollute
            }
            let dropped = if slice.version != version {
                let d = slice.answers.len();
                slice.answers.clear();
                slice.version = version;
                d
            } else {
                0
            };
            let fresh = slice
                .answers
                .insert(
                    fingerprint,
                    CachedAnswer {
                        touched,
                        result,
                        tick,
                    },
                )
                .is_none();
            (dropped, fresh)
        };
        inner.len -= dropped;
        inner.len += usize::from(fresh);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        obs::incr(Counter::ResultCacheInsertions);
        while inner.len > inner.capacity {
            // Evict the globally oldest entry. O(n) scan: invalidation
            // re-homes surviving entries under new versions, which would
            // orphan any FIFO queue of keys, and n is small.
            let victim = inner
                .docs
                .iter()
                .flat_map(|(d, s)| s.answers.iter().map(move |(f, a)| (a.tick, *d, *f)))
                .min()
                .map(|(_, d, f)| (d, f));
            let Some((d, f)) = victim else { break };
            if let Some(slice) = inner.docs.get_mut(&d) {
                slice.answers.remove(&f);
            }
            inner.len -= 1;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs::incr(Counter::ResultCacheEvictions);
        }
    }

    /// Applies an edit to the cache: document `doc` moved to
    /// `new_version` with `affected` as the edit's span (in the pre-edit
    /// numbering). Entries whose touched span ends at or before
    /// `affected.start` are **carried** to the new version — nodes
    /// strictly before the edit point keep their preorder ids and their
    /// subtrees are untouched, so the cached answers remain exact.
    /// Overlapping entries are dropped. Returns `(carried, invalidated)`.
    pub fn invalidate(&self, doc: u64, affected: Span, new_version: DocVersion) -> (u64, u64) {
        let mut inner = self.inner.write().expect("result cache poisoned");
        let (carried, invalidated) = {
            let Some(slice) = inner.docs.get_mut(&doc) else {
                return (0, 0);
            };
            let before = slice.answers.len();
            if slice.version.bump() == new_version {
                slice.answers.retain(|_, a| a.touched.end <= affected.start);
            } else {
                // Not the edit immediately following the cached version
                // (e.g. racing writers delivered invalidations out of
                // order): carrying anything would skip an edit's span
                // check, so drop the whole slice.
                slice.answers.clear();
            }
            let kept = slice.answers.len();
            slice.version = new_version;
            (kept as u64, (before - kept) as u64)
        };
        inner.len -= invalidated as usize;
        self.carried.fetch_add(carried, Ordering::Relaxed);
        self.invalidated.fetch_add(invalidated, Ordering::Relaxed);
        obs::add(Counter::ResultCacheCarried, carried);
        obs::add(Counter::ResultCacheInvalidated, invalidated);
        (carried, invalidated)
    }

    /// **Deliberately unsound** fault-injection hook: moves a document
    /// slice to `new_version` while keeping every entry, skipping the
    /// span check entirely. Exists so the mutation fuzzer's
    /// `--fault cache=skip-invalidate` self-test can prove the harness
    /// detects a broken invalidation path; never call it otherwise.
    pub fn skip_invalidate(&self, doc: u64, new_version: DocVersion) {
        let mut inner = self.inner.write().expect("result cache poisoned");
        if let Some(slice) = inner.docs.get_mut(&doc) {
            slice.version = new_version;
        }
    }

    /// Point-in-time totals.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.inner.read().expect("result cache poisoned");
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            carried: self.carried.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.len,
            capacity: inner.capacity,
        }
    }
}

/// A compiled query: the product of the full pipeline (parse → simplify →
/// VM compile), reusable across context nodes, threads, and every
/// document sharing the label space it was compiled against.
///
/// `Prepared` is `Send + Sync` and shares its parts with the engine's
/// plan cache behind an [`Arc`], so it stays valid even after the text is
/// evicted from the cache.
#[derive(Debug)]
pub struct Prepared {
    /// The parts' program, held directly so an eval reaches it in one
    /// load.
    plan: Arc<Program>,
    parts: Arc<Parts>,
}

impl From<Arc<Parts>> for Prepared {
    fn from(parts: Arc<Parts>) -> Prepared {
        let plan = Arc::clone(&parts.plan);
        Prepared { plan, parts }
    }
}

impl Prepared {
    /// Evaluates from a single context node.
    ///
    /// Evaluation time is sampled ([`obs::Sample`]): a thread times one
    /// eval per interval, and each sample, weighted by the evals it
    /// stands for, feeds the thread-local `eval_nanos` counter (per-query
    /// profiles) and the process-wide latency histogram (the `metrics`
    /// exposition). Evals of 50 µs or more are all timed, shorter ones
    /// one in up to 64. When a trace is being collected on this thread,
    /// the eval also gets an `eval` span.
    pub fn eval(&self, doc: &Document, ctx: NodeId) -> NodeSet {
        let sample = obs::Sample::start();
        let result = self.run(doc, ctx);
        if let Some(sample) = sample {
            let (nanos, weight) = sample.finish();
            obs::add(Counter::EvalNanos, nanos.saturating_mul(weight));
            eval_histogram().record_n(nanos, weight);
        }
        result
    }

    fn run(&self, doc: &Document, ctx: NodeId) -> NodeSet {
        let t = &doc.tree;
        let ctx_set = NodeSet::singleton(t.len(), ctx);
        let _stage = obs::trace::stage("eval");
        twx_vm::eval_image(t, &self.plan, &ctx_set)
    }

    /// A stable-within-this-process fingerprint of the compiled plan:
    /// the simplified AST plus the program's instruction fingerprint. Two
    /// `Prepared` values that would answer identically over the same
    /// label space fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.parts.path.hash(&mut h);
        // VM programs carry their own process-independent instruction
        // fingerprint; folding it in ties the cache key to the exact
        // bytecode that will answer.
        self.plan.fingerprint().hash(&mut h);
        h.finish()
    }

    /// The preorder span of `doc` this query's answer from `ctx` can
    /// depend on: the context subtree for subtree-local (downward-only)
    /// queries, the whole document otherwise. This is the span recorded
    /// with cached answers and tested against edit spans at
    /// invalidation.
    pub fn touched_span(&self, doc: &Document, ctx: NodeId) -> Span {
        if self.parts.path.is_downward() {
            Span {
                start: ctx.0,
                end: doc.tree.subtree_end(ctx),
            }
        } else {
            Span {
                start: 0,
                end: doc.tree.len() as u32,
            }
        }
    }

    /// Evaluates through a [`ResultCache`]: answers from the cache when
    /// it holds this `(plan, ctx)` on this exact `(doc_id, version)`,
    /// evaluating and inserting otherwise.
    ///
    /// A carried entry may predate structural edits elsewhere in the
    /// document, leaving its node-set **universe** (bit width) at the
    /// old document length even though every id in it is still exact; in
    /// that case the set is re-based onto the current length before
    /// being returned.
    pub fn eval_cached(
        &self,
        cache: &ResultCache,
        doc_id: u64,
        version: DocVersion,
        doc: &Document,
        ctx: NodeId,
    ) -> Arc<NodeSet> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint().hash(&mut h);
        ctx.0.hash(&mut h);
        let key = h.finish();
        let lookup = {
            let _stage = obs::trace::stage("result_cache");
            cache.get(key, doc_id, version)
        };
        if let Some(hit) = lookup {
            if hit.universe() == doc.tree.len() {
                return hit;
            }
            // Ids at or past the current length can only appear when an
            // invalidation was (deliberately, in tests) skipped after a
            // shrinking edit; dropping them keeps the rebase total.
            let len = doc.tree.len();
            let rebased = Arc::new(NodeSet::from_iter(
                len,
                hit.iter().filter(|v| (v.0 as usize) < len),
            ));
            // re-insert at the current width so later hits skip the remap
            cache.insert(
                key,
                doc_id,
                version,
                self.touched_span(doc, ctx),
                Arc::clone(&rebased),
            );
            return rebased;
        }
        let result = Arc::new(self.eval(doc, ctx));
        cache.insert(
            key,
            doc_id,
            version,
            self.touched_span(doc, ctx),
            Arc::clone(&result),
        );
        result
    }

    /// Evaluates from `ctx` and returns the full cost profile of doing so
    /// (the EXPLAIN view), including the answer size, compiled-artifact
    /// sizes, and every counter the evaluation incremented.
    ///
    /// Counters are thread-local; the profile reflects only this
    /// evaluation (compilation happened at prepare time — use
    /// [`Engine::explain`] for a profile that includes the compile stage).
    /// With the `obs` feature disabled the structural counters are all
    /// zero but artifact sizes are still reported.
    pub fn explain(&self, doc: &Document, ctx: NodeId) -> QueryProfile {
        let before = obs::snapshot();
        // timed exactly, outside the sampling schedule: the profile
        // reports this eval's own time
        let clock = obs::Clock::start();
        let result = self.run(doc, ctx);
        let nanos = clock.elapsed_nanos();
        obs::add(Counter::EvalNanos, nanos);
        eval_histogram().record(nanos);
        let counters = obs::delta_since(&before);
        self.profile(doc, &result, counters)
    }

    fn profile(&self, doc: &Document, result: &NodeSet, counters: obs::Counters) -> QueryProfile {
        QueryProfile {
            query: self.parts.text.clone(),
            tree_size: doc.tree.len(),
            result_count: result.count(),
            eval_nanos: counters.get(Counter::EvalNanos),
            compile_nanos: counters.get(Counter::CompileNanos),
            compiled: CompiledSizes {
                query_size: self.parts.path.size(),
                vm_instrs: self.plan.n_instrs(),
                vm_regs: self.plan.n_regs_total(),
            },
            counters,
        }
    }

    /// The compiled VM program, shared with the plan cache.
    pub fn program(&self) -> &Arc<Program> {
        &self.plan
    }

    /// The simplified query AST the plan was compiled from.
    pub fn path(&self) -> &RPath {
        &self.parts.path
    }

    /// AST size as parsed, before the mandatory simplify stage.
    pub fn raw_size(&self) -> usize {
        self.parts.raw_size
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.parts.text
    }
}

/// The query engine: a shared, concurrent plan cache of VM programs.
/// Cloning is cheap and clones share the cache; the engine is
/// `Send + Sync`.
#[derive(Clone, Debug)]
pub struct Engine {
    cache: Arc<PlanCache>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the default plan-cache capacity.
    pub fn new() -> Engine {
        Engine::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Bounds the plan cache to `capacity` resident plans (FIFO eviction).
    pub fn with_cache_capacity(capacity: usize) -> Engine {
        Engine {
            cache: Arc::new(PlanCache::new(capacity)),
        }
    }

    /// Returns the engine unchanged: evaluation is single-threaded.
    #[doc(hidden)]
    #[deprecated(note = "evaluation is single-threaded; kept for perfbench/src/stack.rs")]
    pub fn with_parallelism(self, _threads: usize) -> Engine {
        self
    }

    /// Prepares `query` against the document's (immutable) alphabet: a
    /// text cached with the same label bindings is a hit; otherwise it
    /// is parsed, simplified and compiled, and the plan cached.
    ///
    /// Labels the alphabet does not know yield
    /// [`EngineError::UnknownLabel`]; the document is never mutated.
    pub fn prepare(&self, doc: &Document, query: &str) -> Result<Prepared, EngineError> {
        let probe = self.probe(&doc.alphabet, query)?;
        Ok(self.finish(query, probe))
    }

    /// Like [`prepare`](Engine::prepare), but resolves the query against a
    /// shared [`Catalog`], read-only: an unknown label is
    /// [`EngineError::UnknownLabel`], and the catalog never grows. The
    /// plan then serves every document built from the catalog.
    pub fn prepare_in(&self, catalog: &Catalog, query: &str) -> Result<Prepared, EngineError> {
        let probe = catalog.with_read(|labels| self.probe(labels, query))?;
        Ok(self.finish(query, probe))
    }

    /// The read-only head of the one prepare path, run while the label
    /// space is read: the plan-cache probe and, on a miss, the parse.
    fn probe(&self, labels: &Alphabet, query: &str) -> Result<Probe, EngineError> {
        if let Some(parts) = self.cache.get(query, labels) {
            return Ok(Probe::Hit(parts));
        }
        let _stage = obs::trace::stage("parse");
        let (raw, bindings) = parse_rpath_bound(query, labels)?;
        Ok(Probe::Miss(raw, bindings))
    }

    /// The rest of the pipeline on a miss: simplify, then compile and
    /// cache.
    fn finish(&self, query: &str, probe: Probe) -> Prepared {
        let (raw, bindings) = match probe {
            Probe::Hit(parts) => return parts.into(),
            Probe::Miss(raw, bindings) => (raw, bindings),
        };
        let path = {
            let _stage = obs::trace::stage("simplify");
            simplify_rpath(&raw)
        };
        let _stage = obs::trace::stage("plan_cache");
        self.cache.compile(query, bindings, raw.size(), path).into()
    }

    /// Compiles and evaluates in one step from `ctx`.
    pub fn query(&self, doc: &Document, query: &str, ctx: NodeId) -> Result<NodeSet, EngineError> {
        let prepared = self.prepare(doc, query)?;
        Ok(prepared.eval(doc, ctx))
    }

    /// Like [`query`](Engine::query), but collects a span tree of the
    /// pipeline (`parse` → `simplify` → `plan_cache` on a plan-cache
    /// miss, then `eval`, each with nanosecond timings and counter
    /// deltas) alongside the answer.
    ///
    /// The answer is **identical** to an untraced [`query`](Engine::query) —
    /// instrumentation never perturbs evaluation. The trace is `None`
    /// when the `obs` feature is disabled, or when a trace is already
    /// being collected on this thread (traces do not nest).
    pub fn query_traced(
        &self,
        doc: &Document,
        query: &str,
        ctx: NodeId,
    ) -> Result<(NodeSet, Option<SpanTree>), EngineError> {
        let began = obs::trace::begin("query", obs::TraceId::next());
        let result = (|| {
            let prepared = self.prepare(doc, query)?;
            Ok(prepared.eval(doc, ctx))
        })();
        let tree = if began { obs::trace::take() } else { None };
        result.map(|r| (r, tree))
    }

    /// Compiles once, then evaluates across all `(document, context)` jobs
    /// concurrently with [`std::thread::scope`], returning answers in job
    /// order. All documents must share the label space of `jobs[0].0`
    /// (e.g. via a [`Catalog`]).
    ///
    /// Observability counters are thread-local, so each worker drains its
    /// slots when its chunk completes and the deltas are merged back into
    /// the calling thread ([`obs::merge_local`]): a `snapshot`/
    /// `delta_since` window around this call sees the full fan-out cost,
    /// not just the compile.
    pub fn query_batch(
        &self,
        jobs: &[(&Document, NodeId)],
        query: &str,
    ) -> Result<Vec<NodeSet>, EngineError> {
        let Some((first, _)) = jobs.first() else {
            return Ok(Vec::new());
        };
        let prepared = self.prepare(first, query)?;
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(jobs.len());
        let chunk = jobs.len().div_ceil(threads);
        let mut out = Vec::with_capacity(jobs.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|part| {
                    let p = &prepared;
                    s.spawn(move || {
                        let answers = part
                            .iter()
                            .map(|(d, ctx)| p.eval(d, *ctx))
                            .collect::<Vec<_>>();
                        (answers, obs::drain())
                    })
                })
                .collect();
            for h in handles {
                let (answers, counters) = h.join().expect("batch worker panicked");
                obs::merge_local(&counters);
                out.extend(answers);
            }
        });
        Ok(out)
    }

    /// Compiles, evaluates, and profiles a query in one step: the EXPLAIN
    /// entry point. The counter snapshot is taken **before** the pipeline
    /// runs, so the profile includes compile time and the plan-cache
    /// hit/miss for this query.
    ///
    /// ```
    /// use treewalk::Engine;
    /// use twx_xtree::parse::parse_xml;
    ///
    /// let doc = parse_xml("<a><b><c/></b><c/></a>").unwrap();
    /// let root = doc.tree.root();
    /// let profile = Engine::new().explain(&doc, "down*[c]", root).unwrap();
    /// assert_eq!(profile.result_count, 2);
    /// println!("{profile}"); // the text EXPLAIN view
    /// ```
    pub fn explain(
        &self,
        doc: &Document,
        query: &str,
        ctx: NodeId,
    ) -> Result<QueryProfile, EngineError> {
        let before = obs::snapshot();
        let prepared = self.prepare(doc, query)?;
        let result = prepared.eval(doc, ctx);
        let counters = obs::delta_since(&before);
        Ok(prepared.profile(doc, &result, counters))
    }

    /// Global statistics of the plan cache shared by all clones of this
    /// engine.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_xtree::parse::parse_xml;

    fn doc() -> Document {
        parse_xml("<a><b><c/></b><c><b/></c></a>").unwrap()
    }

    /// The VM agrees with the paper's three reference translations of
    /// the simplified AST it was compiled from.
    #[test]
    fn backends_agree() {
        let queries = ["down*[c]", "(down[b] | right)*", "down[<?(true)/down>]"];
        let d = doc();
        let t = &d.tree;
        let ctx = NodeSet::singleton(t.len(), t.root());
        for q in queries {
            let p = Engine::new().prepare(&d, q).unwrap();
            let vm = p.eval(&d, t.root());
            let path = p.path();
            let product = twx_regxpath::eval::Compiled::new(path).image(t, &ctx);
            let automaton = twx_twa::eval_image(t, &twx_core::rpath_to_ntwa(path), &ctx);
            let formula = twx_core::rpath_to_formula(path, 0, 1, 2);
            let logic = twx_fotc::eval_binary(t, &formula, 0, 1).image(&ctx);
            assert_eq!(vm, product, "{q}: vm vs product");
            assert_eq!(vm, automaton, "{q}: vm vs automaton");
            assert_eq!(vm, logic, "{q}: vm vs logic");
        }
    }

    #[test]
    fn vm_backend_profiles_and_caches() {
        let d = doc();
        let engine = Engine::new();
        let root = d.tree.root();
        let profile = engine.explain(&d, "down*[c]", root).unwrap();
        assert_eq!(profile.result_count, 2);
        assert!(profile.compiled.vm_instrs > 0, "vm sizes in the profile");
        assert!(profile.compiled.vm_regs > 0);
        // plan-cache round trip and the eval latency series
        engine.explain(&d, "down*[c]", root).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        #[cfg(feature = "obs")]
        {
            assert!(profile.counters.get(Counter::VmInstructions) > 0);
            assert!(obs::metrics::global()
                .histogram_snapshot("twx_engine_eval_ns", &[])
                .is_some());
        }
        // the result cache keys on the plan fingerprint: identical VM
        // plans fingerprint identically, distinct programs differ
        let p1 = engine.prepare(&d, "down*[c]").unwrap();
        let p2 = engine.prepare(&d, "down*[c]").unwrap();
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        let p3 = engine.prepare(&d, "down*[b]").unwrap();
        assert_ne!(p1.fingerprint(), p3.fingerprint());
    }

    #[test]
    fn prepared_queries_are_reusable() {
        let d = doc();
        let engine = Engine::new();
        let p = engine.prepare(&d, "down+[b]").unwrap();
        let from_root = p.eval(&d, d.tree.root());
        assert_eq!(from_root.count(), 2);
        let from_c = p.eval(&d, twx_xtree::NodeId(3));
        assert_eq!(from_c.count(), 1);
        assert_eq!(p.path().size(), 6); // (down/down*)[b] after plus-desugaring
        assert_eq!(p.raw_size(), 6);
    }

    #[test]
    fn syntax_errors_surface() {
        let d = doc();
        let root = d.tree.root();
        let e = Engine::new().query(&d, "down[[", root);
        assert!(matches!(e, Err(EngineError::Syntax(_))));
        assert!(e.unwrap_err().to_string().contains("syntax error"));
    }

    #[test]
    fn unknown_labels_surface_without_interning() {
        let d = doc();
        let before = d.alphabet.len();
        let root = d.tree.root();
        let e = Engine::new().query(&d, "down*[zzz]", root);
        match e {
            Err(EngineError::UnknownLabel { label }) => assert_eq!(label, "zzz"),
            other => panic!("expected UnknownLabel, got {other:?}"),
        }
        assert_eq!(d.alphabet.len(), before);
    }

    #[test]
    fn plan_cache_hits_across_documents_and_clones() {
        let engine = Engine::new();
        let d1 = doc();
        let d2 = doc(); // same label space (same parse order)
        let p1 = engine.prepare(&d1, "down*[c]").unwrap();
        let clone = engine.clone();
        let p2 = clone.prepare(&d2, "down*[c]").unwrap();
        assert!(
            Arc::ptr_eq(p1.program(), p2.program()),
            "clones share the cache"
        );
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(p1.eval(&d1, d1.tree.root()), p2.eval(&d2, d2.tree.root()));
    }

    #[test]
    fn cache_evicts_fifo_at_capacity() {
        let engine = Engine::with_cache_capacity(2);
        let d = doc();
        for q in ["down", "down/down", "down*"] {
            engine.prepare(&d, q).unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // the first plan was evicted; re-preparing it misses again
        engine.prepare(&d, "down").unwrap();
        assert_eq!(engine.cache_stats().misses, 4);
        // evicted plans held by Prepared values stay usable (Arc-shared)
        let held = engine.prepare(&d, "down*").unwrap();
        engine.prepare(&d, "down/down/down").unwrap();
        assert_eq!(held.eval(&d, d.tree.root()).count(), 5); // ε + 4 descendants
    }

    #[test]
    fn result_cache_hits_and_versions() {
        use twx_xtree::edit::{apply_edit, Edit};
        let d = doc();
        let engine = Engine::new();
        let cache = ResultCache::new(64);
        let p = engine.prepare(&d, "down*[c]").unwrap();
        let root = d.tree.root();
        let v0 = DocVersion(0);
        let a = p.eval_cached(&cache, 7, v0, &d, root);
        let b = p.eval_cached(&cache, 7, v0, &d, root);
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a cache hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        // a different version misses
        let label = d.alphabet.lookup("b").unwrap();
        let (t2, affected) = apply_edit(
            &d.tree,
            &Edit::Relabel {
                node: NodeId(3),
                label,
            },
        )
        .unwrap();
        let d2 = Document::new(t2, d.alphabet.clone());
        let v1 = v0.bump();
        cache.invalidate(7, affected, v1);
        let c = p.eval_cached(&cache, 7, v1, &d2, root);
        assert_eq!(c.count(), 1, "relabeled c is gone from the answer");
        assert_ne!(a.to_vec(), c.to_vec());
    }

    #[test]
    fn result_cache_precise_invalidation_carries_disjoint_entries() {
        use twx_xtree::edit::{apply_edit, Edit};
        // (a (b (c)) (c (b))): subtree of node 1 is [1,3); node 3's is [3,5)
        let d = doc();
        let engine = Engine::new();
        let cache = ResultCache::new(64);
        let p = engine.prepare(&d, "down*[c]").unwrap();
        assert!(p.path().is_downward());
        // cache an answer scoped to the first subtree
        let early = p.eval_cached(&cache, 1, DocVersion(0), &d, NodeId(1));
        assert_eq!(p.touched_span(&d, NodeId(1)), Span { start: 1, end: 3 });
        // edit inside the *second* subtree: disjoint, entry must carry
        let label = d.alphabet.lookup("c").unwrap();
        let (t2, affected) = apply_edit(
            &d.tree,
            &Edit::Relabel {
                node: NodeId(4),
                label,
            },
        )
        .unwrap();
        assert_eq!(affected, Span { start: 4, end: 5 });
        let (carried, invalidated) = cache.invalidate(1, affected, DocVersion(1));
        assert_eq!((carried, invalidated), (1, 0));
        let d2 = Document::new(t2, d.alphabet.clone());
        let hit = p.eval_cached(&cache, 1, DocVersion(1), &d2, NodeId(1));
        assert!(Arc::ptr_eq(&early, &hit), "carried entry answers the hit");
        assert_eq!(hit.to_vec(), p.eval(&d2, NodeId(1)).to_vec());
        // an edit overlapping the cached subtree evicts it
        let (_, affected) = apply_edit(
            &d2.tree,
            &Edit::Relabel {
                node: NodeId(2),
                label,
            },
        )
        .unwrap();
        let (carried, invalidated) = cache.invalidate(1, affected, DocVersion(2));
        assert_eq!((carried, invalidated), (0, 1));
        let s = cache.stats();
        assert_eq!((s.carried, s.invalidated), (1, 1));
    }

    #[test]
    fn result_cache_rebases_universe_after_structural_carry() {
        use twx_xtree::edit::{apply_edit, Edit};
        let d = doc();
        let engine = Engine::new();
        let cache = ResultCache::new(64);
        let p = engine.prepare(&d, "down*[c]").unwrap();
        let cached = p.eval_cached(&cache, 1, DocVersion(0), &d, NodeId(1));
        assert_eq!(cached.universe(), 5);
        // append a leaf under the *last* subtree root (node 3): span [3,5)
        let label = d.alphabet.lookup("c").unwrap();
        let (t2, affected) = apply_edit(
            &d.tree,
            &Edit::InsertChild {
                parent: NodeId(3),
                position: 1,
                label,
            },
        )
        .unwrap();
        assert_eq!(affected, Span { start: 3, end: 5 });
        assert_eq!(cache.invalidate(1, affected, DocVersion(1)), (1, 0));
        let d2 = Document::new(t2, d.alphabet.clone());
        let hit = p.eval_cached(&cache, 1, DocVersion(1), &d2, NodeId(1));
        assert_eq!(hit.universe(), 6, "carried answer re-based to new width");
        assert_eq!(hit.to_vec(), p.eval(&d2, NodeId(1)).to_vec());
    }

    #[test]
    fn result_cache_capacity_evicts_oldest() {
        let d = doc();
        let engine = Engine::new();
        let cache = ResultCache::new(2);
        let root = d.tree.root();
        for (i, q) in ["down", "down/down", "down*"].iter().enumerate() {
            let p = engine.prepare(&d, q).unwrap();
            p.eval_cached(&cache, i as u64, DocVersion(0), &d, root);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // the oldest (doc 0) was evicted; the newest still hits
        let p = engine.prepare(&d, "down*").unwrap();
        p.eval_cached(&cache, 2, DocVersion(0), &d, root);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn skip_invalidate_serves_stale_answers() {
        use twx_xtree::edit::{apply_edit, Edit};
        let d = doc();
        let engine = Engine::new();
        let cache = ResultCache::new(64);
        let p = engine.prepare(&d, "down*[c]").unwrap();
        let root = d.tree.root();
        let stale = p.eval_cached(&cache, 3, DocVersion(0), &d, root);
        let label = d.alphabet.lookup("c").unwrap();
        let (t2, _) = apply_edit(
            &d.tree,
            &Edit::Relabel {
                node: NodeId(4),
                label,
            },
        )
        .unwrap();
        let d2 = Document::new(t2, d.alphabet.clone());
        cache.skip_invalidate(3, DocVersion(1)); // the injected fault
        let answer = p.eval_cached(&cache, 3, DocVersion(1), &d2, root);
        assert_eq!(answer.to_vec(), stale.to_vec());
        assert_ne!(
            answer.to_vec(),
            p.eval(&d2, root).to_vec(),
            "the fault visibly corrupts answers — what the mutation fuzzer must catch"
        );
    }

    #[test]
    fn query_traced_matches_untraced_and_names_stages() {
        let d = doc();
        let root = d.tree.root();
        let engine = Engine::new();
        let (traced, tree) = engine.query_traced(&d, "down*[c]", root).unwrap();
        let plain = engine.query(&d, "down*[c]", root).unwrap();
        assert_eq!(plain, traced, "tracing perturbed the answer");
        // the text is cached now: a repeat runs no prepare stage
        let (_, hit) = engine.query_traced(&d, "down*[c]", root).unwrap();
        #[cfg(feature = "obs")]
        for (tree, stages) in [
            (tree, &["parse", "simplify", "plan_cache", "eval"][..]),
            (hit, &["eval"][..]),
        ] {
            let tree = tree.expect("trace collected when obs is on");
            assert_ne!(tree.trace_id.0, 0);
            let names: Vec<&str> = tree.root.children.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, stages);
        }
        #[cfg(not(feature = "obs"))]
        assert!(tree.is_none() && hit.is_none());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn query_traced_cleans_up_on_error() {
        let d = doc();
        let root = d.tree.root();
        let engine = Engine::new();
        assert!(engine.query_traced(&d, "down[[", root).is_err());
        assert!(!obs::trace::active(), "failed trace left a collector");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn eval_feeds_the_backend_latency_histogram() {
        let d = doc();
        let engine = Engine::new();
        let p = engine.prepare(&d, "down*[b]").unwrap();
        let before = eval_histogram().load().count();
        p.eval(&d, d.tree.root());
        p.eval(&d, d.tree.root());
        // >=: other tests run in parallel and share the global series
        let after = eval_histogram().load();
        assert!(after.count() >= before + 2);
        assert!(obs::metrics::global()
            .histogram_snapshot("twx_engine_eval_ns", &[])
            .is_some());
    }

    #[test]
    fn query_batch_matches_sequential() {
        let engine = Engine::new();
        let docs: Vec<Document> = (0..8).map(|_| doc()).collect();
        let jobs: Vec<(&Document, NodeId)> = docs.iter().map(|d| (d, d.tree.root())).collect();
        let batch = engine.query_batch(&jobs, "down*[b]").unwrap();
        assert_eq!(batch.len(), jobs.len());
        for (i, (d, ctx)) in jobs.iter().enumerate() {
            assert_eq!(batch[i], engine.query(d, "down*[b]", *ctx).unwrap());
        }
        assert!(engine.query_batch(&[], "down").unwrap().is_empty());
    }
}
