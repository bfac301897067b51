//! # twx-obs — zero-dependency observability for the treewalk workspace
//!
//! The paper's contribution is an *effective* equivalence triangle
//! (Regular XPath(W) ≡ FO(MTC) ≡ nested TWA), and the repository's
//! experiments compare the **cost profiles** of the three pipelines.
//! Wall-clock alone cannot explain those costs; this crate provides the
//! structural metrics: how many product configurations an NFA run
//! expanded, how many fixpoint iterations a `TC` evaluation needed, how
//! many nested sub-automaton tests an NTWA run triggered, and how large
//! each compiled artifact (NFA, formula, automaton) came out.
//!
//! Design constraints, in order:
//!
//! 1. **Zero external dependencies** — the build environment is offline;
//!    `tracing`/`metrics` are not options. Everything here is `std`.
//! 2. **Feature-gated to nothing** — with the `enabled` feature off (the
//!    default is on), [`incr`]/[`add`] are empty `#[inline(always)]`
//!    functions and [`Span`] is a zero-sized type, so instrumented hot
//!    loops compile to exactly the uninstrumented code.
//! 3. **Cheap when on** — counters are thread-local `Cell<u64>` slots
//!    (no atomics on the hot path, no cross-test interference when the
//!    test harness runs threads in parallel), and a hot path too short
//!    to read the clock twice per call times a weighted [`Sample`].
//!
//! The usage pattern is *snapshot–run–delta*:
//!
//! ```
//! use twx_obs::{add, delta_since, snapshot, Counter};
//! let before = snapshot();
//! add(Counter::ProductConfigs, 3); // evaluator hot loop does this
//! let counters = delta_since(&before);
//! #[cfg(feature = "enabled")]
//! assert_eq!(counters.get(Counter::ProductConfigs), 3);
//! ```

pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use hist::{AtomicHistogram, Histogram};
pub use profile::{CompiledSizes, QueryProfile};
pub use trace::{SpanNode, SpanTree, TraceId};

#[cfg(feature = "enabled")]
use std::cell::Cell;

/// Whether instrumentation is compiled in.
pub const ENABLED: bool = cfg!(feature = "enabled");

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Every structural metric the workspace records.
        ///
        /// The taxonomy follows the paper's constructions — see the
        /// variant docs and `DESIGN.md` ("Counter taxonomy") for what
        /// each one measures.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        /// Number of counter slots.
        pub const N_COUNTERS: usize = [$(Counter::$variant),*].len();

        /// All counters, in slot order.
        pub const ALL_COUNTERS: [Counter; N_COUNTERS] = [$(Counter::$variant),*];

        impl Counter {
            /// The stable snake_case name used in text and JSON exports.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Product configurations `(node, NFA state)` newly expanded by the
    /// Regular XPath(W) product evaluator (the `O(|T|·|A|)` bound of the
    /// paper is a bound on exactly this number).
    ProductConfigs => "product_configs",
    /// Node-set materialisations of NFA test labels (one per distinct
    /// test per evaluation).
    ProductTestEvals => "product_test_evals",
    /// Single-pass axis image/preimage computations in the Core XPath
    /// evaluator (each is one `O(|T|)` scan).
    CoreStepImages => "core_step_images",
    /// Nodes scanned by those Core XPath passes.
    CoreNodesScanned => "core_nodes_scanned",
    /// Subformula evaluations performed by the FO(MTC) model checker.
    FoEvalSteps => "fo_eval_steps",
    /// Nodes bound by `∃`/`∀` during FO(MTC) evaluation (the `O(n^k)`
    /// quantifier cost).
    FoQuantifierBindings => "fo_quantifier_bindings",
    /// Frontier nodes popped by the `TC` fixpoint search.
    TcIterations => "tc_iterations",
    /// Candidate edges `(a, b)` decided (by recursive evaluation) inside
    /// `TC` fixpoints.
    TcEdgeTests => "tc_edge_tests",
    /// NTWA configurations `(node, state)` newly expanded by the walking
    /// evaluator.
    TwaSteps => "twa_steps",
    /// Nested sub-automaton acceptance evaluations (the "nested" in
    /// nested TWA: one per sub-automaton per scope actually resolved).
    TwaSubtestInvocations => "twa_subtest_invocations",
    /// Subtree copies extracted for `W` (within) semantics or
    /// subtree-scoped nested tests.
    SubtreeExtractions => "subtree_extractions",
    /// `BitMatrix` cells written while materialising binary relations.
    BitMatrixCells => "bitmatrix_cells",
    /// Fixpoint passes performed by the mandatory `simplify_rpath` /
    /// `simplify_rnode` pipeline stage.
    SimplifyPasses => "simplify_passes",
    /// AST nodes removed by simplification (input size − output size;
    /// the rules are size-non-increasing, so this never underflows).
    SimplifyShrunkNodes => "simplify_shrunk_nodes",
    /// Corpus query requests submitted to a `QueryService`.
    CorpusRequests => "corpus_requests",
    /// Corpus requests rejected by admission control (`Overloaded`).
    CorpusRejected => "corpus_rejected",
    /// Corpus requests whose deadline expired before every shard
    /// finished (the answer is partial).
    CorpusTimeouts => "corpus_timeouts",
    /// Nanoseconds service workers spent evaluating shard tasks (span
    /// timer; merged into the requester's profile on aggregation).
    CorpusShardEvalNanos => "corpus_shard_eval_nanos",
    /// Nanoseconds shard tasks spent queued before a worker picked them
    /// up (admission-to-execution wait).
    CorpusQueueWaitNanos => "corpus_queue_wait_nanos",
    /// NFA states produced by Regular XPath(W) → NFA compilation.
    CompiledNfaStates => "compiled_nfa_states",
    /// FO(MTC) formula size produced by the logic translation.
    CompiledFormulaSize => "compiled_formula_size",
    /// Total NTWA states (top + nested) produced by the automaton
    /// translation.
    CompiledNtwaStates => "compiled_ntwa_states",
    /// Nested sub-automata produced by the automaton translation.
    CompiledNtwaSubtests => "compiled_ntwa_subtests",
    /// Query/document pairs checked by the differential conformance
    /// harness (one per fuzz iteration, all routes).
    ConformChecks => "conform_checks",
    /// Divergences the conformance harness detected (routes disagreeing
    /// on an answer set).
    ConformDivergences => "conform_divergences",
    /// Accepted shrink steps while minimising a divergent repro (query
    /// and document steps both count).
    ConformShrinkSteps => "conform_shrink_steps",
    /// Result-cache lookups answered from a cached node set.
    ResultCacheHits => "result_cache_hits",
    /// Result-cache lookups that had to evaluate.
    ResultCacheMisses => "result_cache_misses",
    /// Result-cache entries inserted after an evaluation.
    ResultCacheInsertions => "result_cache_insertions",
    /// Cached entries carried across an edit because their touched span
    /// was disjoint from the edit's affected span (precision wins).
    ResultCacheCarried => "result_cache_carried",
    /// Cached entries evicted because an edit's affected span overlapped
    /// their touched span.
    ResultCacheInvalidated => "result_cache_invalidated",
    /// Result-cache entries evicted by the capacity bound.
    ResultCacheEvictions => "result_cache_evictions",
    /// Edits committed to a corpus (`Corpus::update`).
    CorpusUpdates => "corpus_updates",
    /// Corpus answers flagged stale (a commit landed after the answer's
    /// snapshot was pinned).
    CorpusStaleAnswers => "corpus_stale_answers",
    /// Nanoseconds spent evaluating (span timer).
    EvalNanos => "eval_nanos",
    /// Nanoseconds spent compiling/translating (span timer).
    CompileNanos => "compile_nanos",
    /// Bytecode instructions dispatched by the twx-vm interpreter
    /// (accumulated locally, flushed once per evaluation).
    VmInstructions => "vm_instructions",
    /// Kleene-closure rounds executed by the VM (one per frontier pass,
    /// summed over every `Star` instruction). Closures of bare-axis
    /// unions and of one-way bodies run no rounds and count in
    /// `VmAxisClosures` and `VmOneWayPasses` instead.
    VmClosureIters => "vm_closure_iters",
    /// Closures of bare-axis unions (`down*`, `(left | up)*`, …) the VM
    /// ran as one preorder-interval or link-walk kernel
    /// (`Instr::AxisClosure`), one per instruction executed.
    VmAxisClosures => "vm_axis_closures",
    /// Closures of one-way bodies (every axis step `down`/`right`, or
    /// every one `up`/`left`) the VM ran as one pass of the star's
    /// automaton (`Instr::OneWayClosure`), one per instruction executed.
    VmOneWayPasses => "vm_one_way_passes",
    /// Register buffers the VM arena had to allocate fresh because the
    /// thread-local pool was empty — zero in a warmed-up serving loop.
    VmArenaAllocs => "vm_arena_allocs",
    /// Instructions in compiled VM programs (compile-time size metric,
    /// the VM analogue of `CompiledNfaStates`).
    CompiledVmInstrs => "compiled_vm_instrs",
    /// Sparse↔dense switches between consecutive rounds of a VM `Star`
    /// closure (hysteresis band crossings).
    FrontierSwitches => "frontier_switches",
}

#[cfg(feature = "enabled")]
thread_local! {
    static COUNTERS: [Cell<u64>; N_COUNTERS] =
        const { [const { Cell::new(0) }; N_COUNTERS] };
}

/// Adds `n` to a counter. No-op without the `enabled` feature.
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    COUNTERS.with(|s| {
        let cell = &s[c as usize];
        cell.set(cell.get().wrapping_add(n));
    });
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (c, n);
    }
}

/// Increments a counter by one. No-op without the `enabled` feature.
#[inline(always)]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// A point-in-time copy of this thread's counters.
///
/// Without the `enabled` feature this is a zero-sized token and every
/// delta is all-zero.
#[derive(Clone, Debug)]
#[cfg_attr(not(feature = "enabled"), derive(Default))]
pub struct Snapshot {
    #[cfg(feature = "enabled")]
    values: [u64; N_COUNTERS],
}

// `[u64; N]: Default` only holds for N ≤ 32, so spell it out when the
// slots exist (without them the struct is empty and derives it).
#[cfg(feature = "enabled")]
impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot {
            values: [0; N_COUNTERS],
        }
    }
}

/// Captures the current counter values of this thread.
#[inline]
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        Snapshot {
            values: COUNTERS.with(|s| std::array::from_fn(|i| s[i].get())),
        }
    }
    #[cfg(not(feature = "enabled"))]
    Snapshot::default()
}

/// The counters accumulated since `before` was taken (on this thread).
#[inline]
pub fn delta_since(before: &Snapshot) -> Counters {
    #[cfg(feature = "enabled")]
    {
        let now = snapshot();
        Counters {
            values: std::array::from_fn(|i| now.values[i].wrapping_sub(before.values[i])),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = before;
        Counters::default()
    }
}

/// Takes this thread's counters, **resetting them to zero**.
///
/// This is the worker-thread half of the cross-thread accounting
/// protocol: counters are thread-local, so probes fired on a worker
/// thread are invisible to the thread that spawned the work. A worker
/// calls [`drain`] (or [`drain_into`]) when its unit of work completes
/// and ships the bundle back with the result; the requester folds it
/// into its own slots with [`merge_local`], making the worker's costs
/// visible to `snapshot`/`delta_since` profiles on the requesting
/// thread.
///
/// Returns an all-zero bundle without the `enabled` feature.
#[inline]
pub fn drain() -> Counters {
    #[cfg(feature = "enabled")]
    {
        Counters {
            values: COUNTERS.with(|s| {
                std::array::from_fn(|i| {
                    let v = s[i].get();
                    s[i].set(0);
                    v
                })
            }),
        }
    }
    #[cfg(not(feature = "enabled"))]
    Counters::default()
}

/// Drains this thread's counters into an accumulator (see [`drain`]).
#[inline]
pub fn drain_into(acc: &mut Counters) {
    acc.merge(&drain());
}

/// Adds a counter bundle into **this thread's** live counters — the
/// requester-side half of the protocol described on [`drain`]. After the
/// merge, the bundle is part of any in-flight `snapshot`/`delta_since`
/// window on this thread. No-op without the `enabled` feature.
#[inline]
pub fn merge_local(delta: &Counters) {
    #[cfg(feature = "enabled")]
    COUNTERS.with(|s| {
        for (cell, add) in s.iter().zip(delta.values.iter()) {
            cell.set(cell.get().wrapping_add(*add));
        }
    });
    #[cfg(not(feature = "enabled"))]
    {
        let _ = delta;
    }
}

/// An immutable bundle of counter values (a delta or an absolute view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    values: [u64; N_COUNTERS],
}

impl Default for Counters {
    fn default() -> Counters {
        Counters {
            values: [0; N_COUNTERS],
        }
    }
}

impl Counters {
    /// The value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Sets one counter (used by collectors that post-process deltas).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c as usize] = v;
    }

    /// Iterates `(name, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ALL_COUNTERS.iter().map(|&c| (c.name(), self.get(c)))
    }

    /// True iff every slot is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Slot-wise sum (for aggregating across runs).
    pub fn merge(&mut self, other: &Counters) {
        for i in 0..N_COUNTERS {
            self.values[i] = self.values[i].wrapping_add(other.values[i]);
        }
    }
}

/// An RAII span timer: adds elapsed nanoseconds to `counter` on drop.
///
/// Without the `enabled` feature this is a zero-sized no-op.
#[must_use = "a span records time only while it is alive"]
pub struct Span {
    #[cfg(feature = "enabled")]
    counter: Counter,
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
}

/// Starts a span accumulating into `counter`.
#[inline(always)]
pub fn span(counter: Counter) -> Span {
    #[cfg(feature = "enabled")]
    {
        Span {
            counter,
            start: std::time::Instant::now(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = counter;
        Span {}
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        add(self.counter, self.start.elapsed().as_nanos() as u64);
    }
}

/// A manual stopwatch for code that needs one elapsed-time measurement
/// feeding **several** sinks (e.g. a counter *and* a histogram) —
/// [`Span`] can only feed one counter on drop.
///
/// Without the `enabled` feature this is a zero-sized type and
/// [`elapsed_nanos`](Clock::elapsed_nanos) is always 0, so callers can
/// unconditionally write `clock.elapsed_nanos()` into no-op sinks.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
}

impl Clock {
    /// Starts the stopwatch.
    #[inline(always)]
    pub fn start() -> Clock {
        Clock {
            #[cfg(feature = "enabled")]
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since [`start`](Clock::start) (0 when disabled).
    #[inline(always)]
    pub fn elapsed_nanos(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.start.elapsed().as_nanos() as u64
        }
        #[cfg(not(feature = "enabled"))]
        0
    }
}

/// The time one [`Sample`] aims to stand for. A thread times one call
/// per interval, sized so the interval's calls take about this long;
/// the sample's two clock reads (~100 ns) are then ~0.2% of it. Calls
/// at least this long are all timed.
pub const SAMPLE_SPAN_NANOS: u64 = 50_000;

/// The longest sampling interval, in calls.
pub const MAX_SAMPLE_INTERVAL: u32 = 64;

#[cfg(feature = "enabled")]
thread_local! {
    /// `(calls left to skip, length of the next interval)`.
    static SAMPLER: Cell<(u32, u32)> = const { Cell::new((0, 1)) };
}

/// A sampled stopwatch for hot paths too short to time on every call.
///
/// Each thread times the first call of each *interval* and records it
/// with a weight equal to the interval's length, so weighted counts and
/// sums estimate every call. A thread's first interval is one call;
/// each sample then sizes the next interval to
/// [`SAMPLE_SPAN_NANOS`]` / elapsed` calls (1 to
/// [`MAX_SAMPLE_INTERVAL`]). A sample's weight is fixed before its own
/// time is read, so a slow or fast call never sets its own weight.
///
/// Without the `enabled` feature [`start`](Sample::start) is always
/// `None` and no `Sample` can exist.
#[derive(Debug)]
pub struct Sample {
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
    #[cfg(feature = "enabled")]
    weight: u32,
    #[cfg(not(feature = "enabled"))]
    never: std::convert::Infallible,
}

impl Sample {
    /// Starts timing this call if it opens the thread's next interval;
    /// `None` for the calls in between.
    #[inline(always)]
    pub fn start() -> Option<Sample> {
        #[cfg(feature = "enabled")]
        {
            let (skip, next) = SAMPLER.with(Cell::get);
            if skip > 0 {
                SAMPLER.with(|s| s.set((skip - 1, next)));
                return None;
            }
            SAMPLER.with(|s| s.set((next - 1, next)));
            Some(Sample {
                start: std::time::Instant::now(),
                weight: next,
            })
        }
        #[cfg(not(feature = "enabled"))]
        None
    }

    /// `(elapsed nanoseconds, calls this sample stands for)`, and sizes
    /// the thread's next interval from the elapsed time.
    #[inline]
    pub fn finish(self) -> (u64, u64) {
        #[cfg(feature = "enabled")]
        {
            let nanos = self.start.elapsed().as_nanos() as u64;
            let next = (SAMPLE_SPAN_NANOS / nanos.max(1)).clamp(1, MAX_SAMPLE_INTERVAL as u64);
            SAMPLER.with(|s| s.set((s.get().0, next as u32)));
            (nanos, u64::from(self.weight))
        }
        #[cfg(not(feature = "enabled"))]
        match self.never {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = ALL_COUNTERS.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate counter names");
        for name in names {
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()),
                "{name} not snake_case"
            );
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn deltas_are_isolated_per_snapshot() {
        let s0 = snapshot();
        add(Counter::TcIterations, 5);
        let s1 = snapshot();
        incr(Counter::TcIterations);
        assert_eq!(delta_since(&s0).get(Counter::TcIterations), 6);
        assert_eq!(delta_since(&s1).get(Counter::TcIterations), 1);
        assert_eq!(delta_since(&s1).get(Counter::TwaSteps), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn counters_are_thread_local() {
        let s0 = snapshot();
        std::thread::spawn(|| add(Counter::FoEvalSteps, 100))
            .join()
            .unwrap();
        assert_eq!(delta_since(&s0).get(Counter::FoEvalSteps), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_accumulate_time() {
        let s0 = snapshot();
        {
            let _g = span(Counter::EvalNanos);
            std::hint::black_box((0..10_000).sum::<u64>());
        }
        assert!(delta_since(&s0).get(Counter::EvalNanos) > 0);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_is_zero_sized_and_silent() {
        // compile-time guarantee: the disabled Span carries no data
        assert_eq!(std::mem::size_of::<Span>(), 0);
        assert_eq!(std::mem::size_of::<Snapshot>(), 0);
        let s0 = snapshot();
        add(Counter::TcIterations, 5);
        assert!(delta_since(&s0).is_zero());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn drain_and_merge_carry_counters_across_threads() {
        let before = snapshot();
        // a worker thread does instrumented work and drains its slots
        let bundle = std::thread::spawn(|| {
            add(Counter::TwaSteps, 7);
            incr(Counter::CorpusRequests);
            let b = drain();
            // drain resets: a second drain on the same thread is empty
            assert!(drain().is_zero());
            b
        })
        .join()
        .unwrap();
        assert_eq!(bundle.get(Counter::TwaSteps), 7);
        // the requester folds the bundle into its own live counters, so
        // an open snapshot window sees the worker's costs
        merge_local(&bundle);
        let d = delta_since(&before);
        assert_eq!(d.get(Counter::TwaSteps), 7);
        assert_eq!(d.get(Counter::CorpusRequests), 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn drain_into_accumulates() {
        let mut acc = Counters::default();
        add(Counter::TcIterations, 2);
        drain_into(&mut acc);
        add(Counter::TcIterations, 3);
        drain_into(&mut acc);
        assert_eq!(acc.get(Counter::TcIterations), 5);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn samples_prepay_every_call_of_their_interval() {
        // a fresh thread starts on the schedule's first interval
        std::thread::spawn(|| {
            let (mut weights, mut samples) = (0u64, 0u64);
            for call in 1..=1_000u64 {
                if let Some(sample) = Sample::start() {
                    let (_, w) = sample.finish();
                    assert!((1..=u64::from(MAX_SAMPLE_INTERVAL)).contains(&w));
                    weights += w;
                    samples += 1;
                }
                // the sampled call paid for itself and the rest of its
                // interval, never for more
                assert!(weights >= call && weights - call < u64::from(MAX_SAMPLE_INTERVAL));
            }
            assert!(samples >= 1_000 / u64::from(MAX_SAMPLE_INTERVAL));
        })
        .join()
        .unwrap();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn calls_longer_than_the_span_are_all_timed() {
        std::thread::spawn(|| {
            for _ in 0..3 {
                let sample = Sample::start().expect("the call after a slow sample is timed");
                std::thread::sleep(std::time::Duration::from_millis(1));
                let (nanos, weight) = sample.finish();
                assert!(nanos >= 1_000_000 && weight == 1);
            }
        })
        .join()
        .unwrap();
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_samples_read_no_clock() {
        assert!(Sample::start().is_none());
    }

    #[test]
    fn merge_sums_slotwise() {
        let mut a = Counters::default();
        a.set(Counter::TwaSteps, 2);
        let mut b = Counters::default();
        b.set(Counter::TwaSteps, 3);
        b.set(Counter::SimplifyPasses, 1);
        a.merge(&b);
        assert_eq!(a.get(Counter::TwaSteps), 5);
        assert_eq!(a.get(Counter::SimplifyPasses), 1);
    }
}
