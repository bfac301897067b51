//! Structured per-request tracing: trace ids, named stage spans, and
//! capturable span trees.
//!
//! A [`TraceId`] is a process-unique 64-bit id (SplitMix64-finalised
//! sequence number) tagging one request end to end — it appears in the
//! serving tier's answers, slow-query log, and trace output, so a tail
//! latency seen in a histogram can be joined back to the exact request
//! that caused it.
//!
//! A [`SpanTree`] is the on-demand view of *where that request's time
//! went*: a tree of named [`SpanNode`]s (the pipeline stages — `parse`,
//! `simplify`, `compile`, `eval`, per-shard work, `merge`), each with
//! its start offset and duration in nanoseconds plus the
//! [`Counters`] delta the stage produced (inclusive of child stages,
//! like the thread-local counters it is derived from).
//!
//! # Collection model
//!
//! Instrumented code calls [`stage`] at every pipeline boundary; the
//! guard is an almost-free no-op (one thread-local check) unless a
//! collector is active on the thread. A caller that wants a trace
//! brackets the work with [`begin`]/[`take`]:
//!
//! ```
//! use twx_obs::trace;
//! let id = trace::TraceId::next();
//! trace::begin("request", id);
//! {
//!     let _g = trace::stage("parse"); // nested work...
//! }
//! let tree = trace::take();
//! #[cfg(feature = "enabled")]
//! assert_eq!(tree.unwrap().root.children[0].name, "parse");
//! ```
//!
//! Collectors are **per thread**. Work shipped to another thread is
//! traced there (the worker brackets its own slice with
//! [`begin_at`]/[`take`], using the request's origin instant so offsets
//! stay on one clock) and the resulting subtree is grafted into the
//! requester's tree with [`SpanNode::push_child`] — the exact analogue
//! of the counters' drain/merge protocol.
//!
//! Without the `enabled` feature every function here is an empty
//! inline no-op, [`stage`] returns a zero-sized guard, and [`take`]
//! returns `None`: instrumentation can never perturb an uninstrumented
//! build.

use crate::json::Json;
use crate::Counters;
use std::fmt;
#[cfg(feature = "enabled")]
use std::time::Instant;

/// A process-unique trace id (see the [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Allocates the next id: a SplitMix64 finalisation of a global
    /// sequence counter, so ids are unique within the process and
    /// well-mixed (no accidental ordering information leaks into
    /// sampled logs). Returns `TraceId(0)` without the `enabled`
    /// feature.
    pub fn next() -> TraceId {
        #[cfg(feature = "enabled")]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            // SplitMix64 finalizer (Steele et al.); bijective on u64
            let mut z = n.wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            TraceId((z ^ (z >> 31)) | 1) // never 0: 0 means "untraced"
        }
        #[cfg(not(feature = "enabled"))]
        TraceId(0)
    }

    /// The canonical 16-hex-digit rendering used in logs and JSON.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One named span: a stage of the pipeline with its timing, counter
/// delta, and nested child stages.
#[derive(Clone, Debug, Default)]
pub struct SpanNode {
    /// Stage name (`parse`, `simplify`, `compile`, `eval`, …).
    pub name: String,
    /// Start offset in nanoseconds from the trace origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Counter delta over the span (inclusive of children).
    pub counters: Counters,
    /// Nested stages, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A childless span built from explicit measurements (used to graft
    /// externally-timed stages such as queue waits into a tree).
    pub fn leaf(name: &str, start_ns: u64, dur_ns: u64) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            start_ns,
            dur_ns,
            counters: Counters::default(),
            children: Vec::new(),
        }
    }

    /// Grafts a subtree (e.g. a worker thread's capture) under this
    /// span.
    pub fn push_child(&mut self, child: SpanNode) {
        self.children.push(child);
    }

    /// Total spans in the subtree, this one included.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// JSON rendering: name, timings, non-zero counters, children.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, v) in self.counters.iter() {
            if v > 0 {
                counters = counters.field(name, v);
            }
        }
        Json::obj()
            .field("name", self.name.as_str())
            .field("start_ns", self.start_ns)
            .field("dur_ns", self.dur_ns)
            .field("counters", counters)
            .field(
                "children",
                self.children
                    .iter()
                    .map(SpanNode::to_json)
                    .collect::<Vec<_>>(),
            )
    }
}

/// A completed trace: the id plus the root span.
#[derive(Clone, Debug)]
pub struct SpanTree {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// The root span (its children are the pipeline stages).
    pub root: SpanNode,
}

impl SpanTree {
    /// JSON rendering (`trace_id` in hex plus the span tree).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("trace_id", self.trace_id.to_hex())
            .field("root", self.root.to_json())
    }
}

#[cfg(feature = "enabled")]
struct Pending {
    node: SpanNode,
    started: Instant,
    counters_at_start: crate::Snapshot,
}

#[cfg(feature = "enabled")]
struct Collector {
    trace_id: TraceId,
    origin: Instant,
    /// `stack[0]` is the pending root; deeper entries are open stages.
    stack: Vec<Pending>,
}

#[cfg(feature = "enabled")]
thread_local! {
    static ACTIVE: std::cell::RefCell<Option<Collector>> =
        const { std::cell::RefCell::new(None) };
    /// `ACTIVE.is_some()`, kept in a slot without a destructor so the
    /// no-trace check in [`stage`] is one load.
    static TRACING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Starts collecting a trace on this thread, rooted at a span called
/// `name` starting now. Returns `false` (and does nothing) if a trace
/// is already active — traces do not nest; use [`stage`] inside one.
/// No-op returning `false` without the `enabled` feature.
pub fn begin(name: &str, id: TraceId) -> bool {
    #[cfg(feature = "enabled")]
    {
        begin_at(name, id, Instant::now())
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, id);
        false
    }
}

/// Like [`begin`], but with an explicit origin instant: span offsets
/// are measured from `origin`, so subtrees collected on different
/// threads of one request share a clock (pass the request's submit
/// instant everywhere).
#[cfg_attr(not(feature = "enabled"), allow(unused_variables))]
pub fn begin_at(name: &str, id: TraceId, origin: std::time::Instant) -> bool {
    #[cfg(feature = "enabled")]
    {
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if slot.is_some() {
                return false;
            }
            let now = Instant::now();
            *slot = Some(Collector {
                trace_id: id,
                origin,
                stack: vec![Pending {
                    node: SpanNode {
                        name: name.to_string(),
                        start_ns: now.duration_since(origin).as_nanos() as u64,
                        ..SpanNode::default()
                    },
                    started: now,
                    counters_at_start: crate::snapshot(),
                }],
            });
            TRACING.with(|t| t.set(true));
            true
        })
    }
    #[cfg(not(feature = "enabled"))]
    false
}

/// True iff a trace is being collected on this thread.
pub fn active() -> bool {
    #[cfg(feature = "enabled")]
    {
        TRACING.with(std::cell::Cell::get)
    }
    #[cfg(not(feature = "enabled"))]
    false
}

/// Finishes the trace on this thread and returns it, or `None` if no
/// trace was active (always `None` without the `enabled` feature).
/// Stages still open (guards alive) are closed as of now.
pub fn take() -> Option<SpanTree> {
    #[cfg(feature = "enabled")]
    {
        ACTIVE.with(|a| {
            let collector = a.borrow_mut().take()?;
            TRACING.with(|t| t.set(false));
            let Collector {
                trace_id,
                mut stack,
                ..
            } = collector;
            // close any stages a leaked guard left open
            while stack.len() > 1 {
                let mut top = stack.pop().expect("non-empty stack");
                close(&mut top);
                let parent = stack.last_mut().expect("root remains");
                parent.node.children.push(top.node);
            }
            let mut root = stack.pop().expect("root span");
            close(&mut root);
            Some(SpanTree {
                trace_id,
                root: root.node,
            })
        })
    }
    #[cfg(not(feature = "enabled"))]
    None
}

#[cfg(feature = "enabled")]
fn close(p: &mut Pending) {
    p.node.dur_ns = p.started.elapsed().as_nanos() as u64;
    p.node.counters = crate::delta_since(&p.counters_at_start);
}

/// Grafts an externally-built span (e.g. a worker's subtree or an
/// explicitly-timed [`SpanNode::leaf`]) under the currently open span.
/// No-op when no trace is active.
#[cfg_attr(not(feature = "enabled"), allow(unused_variables))]
pub fn attach(node: SpanNode) {
    #[cfg(feature = "enabled")]
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            if let Some(open) = c.stack.last_mut() {
                open.node.children.push(node);
            }
        }
    });
}

/// Opens a named stage span; the returned guard closes it on drop.
/// When no trace is active on this thread (the overwhelmingly common
/// case on hot paths) this is one thread-local check; without the
/// `enabled` feature it is nothing at all.
#[must_use = "a stage span is recorded only while its guard is alive"]
#[inline]
pub fn stage(name: &'static str) -> StageGuard {
    #[cfg(feature = "enabled")]
    {
        let armed = TRACING.with(std::cell::Cell::get) && open_stage(name);
        StageGuard { armed }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        StageGuard {}
    }
}

#[cfg(feature = "enabled")]
#[cold]
fn open_stage(name: &'static str) -> bool {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(c) = slot.as_mut() else {
            return false;
        };
        let now = Instant::now();
        c.stack.push(Pending {
            node: SpanNode {
                name: name.to_string(),
                start_ns: now.duration_since(c.origin).as_nanos() as u64,
                ..SpanNode::default()
            },
            started: now,
            counters_at_start: crate::snapshot(),
        });
        true
    })
}

/// RAII guard for one [`stage`] span.
pub struct StageGuard {
    #[cfg(feature = "enabled")]
    armed: bool,
}

impl Drop for StageGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if self.armed {
            ACTIVE.with(|a| {
                if let Some(c) = a.borrow_mut().as_mut() {
                    // the root (index 0) is never a stage; a stage guard
                    // can only close an entry it pushed
                    if c.stack.len() > 1 {
                        let mut top = c.stack.pop().expect("stage entry");
                        close(&mut top);
                        let parent = c.stack.last_mut().expect("parent span");
                        parent.node.children.push(top.node);
                    }
                }
            });
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn trace_ids_are_unique_nonzero_and_hex() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        assert_eq!(a.to_hex().len(), 16);
        assert_eq!(format!("{a}"), a.to_hex());
    }

    #[test]
    fn stages_nest_and_record_counter_deltas() {
        assert!(!active());
        let id = TraceId::next();
        assert!(begin("request", id));
        {
            let _parse = stage("parse");
            crate::add(Counter::SimplifyPasses, 2);
        }
        {
            let _eval = stage("eval");
            crate::add(Counter::ProductConfigs, 7);
            {
                let _inner = stage("subtest");
                crate::add(Counter::TwaSteps, 1);
            }
        }
        let tree = take().expect("trace captured");
        assert!(!active());
        assert_eq!(tree.trace_id, id);
        let root = &tree.root;
        assert_eq!(root.name, "request");
        assert_eq!(root.children.len(), 2);
        let parse = &root.children[0];
        assert_eq!(parse.name, "parse");
        assert_eq!(parse.counters.get(Counter::SimplifyPasses), 2);
        let eval = &root.children[1];
        assert_eq!(eval.name, "eval");
        // inclusive counters: the nested stage's delta is inside eval's
        assert_eq!(eval.counters.get(Counter::ProductConfigs), 7);
        assert_eq!(eval.counters.get(Counter::TwaSteps), 1);
        assert_eq!(eval.children[0].name, "subtest");
        assert_eq!(eval.children[0].counters.get(Counter::TwaSteps), 1);
        // root delta includes everything
        assert_eq!(root.counters.get(Counter::ProductConfigs), 7);
        assert_eq!(root.span_count(), 4);
        // offsets are monotone within a thread
        assert!(eval.start_ns >= parse.start_ns);
    }

    #[test]
    fn stage_without_active_trace_is_inert() {
        {
            let _g = stage("orphan");
        }
        assert!(take().is_none());
    }

    #[test]
    fn traces_do_not_nest() {
        assert!(begin("outer", TraceId::next()));
        assert!(!begin("inner", TraceId::next()), "second begin refused");
        let tree = take().expect("outer trace survives");
        assert_eq!(tree.root.name, "outer");
        assert!(take().is_none());
    }

    #[test]
    fn attach_grafts_external_subtrees() {
        assert!(begin("request", TraceId::next()));
        attach(SpanNode::leaf("queue_wait", 10, 250));
        let mut shard = SpanNode::leaf("shard-0", 260, 1_000);
        shard.push_child(SpanNode::leaf("eval", 300, 900));
        attach(shard);
        let tree = take().unwrap();
        assert_eq!(tree.root.children.len(), 2);
        assert_eq!(tree.root.children[0].name, "queue_wait");
        assert_eq!(tree.root.children[0].dur_ns, 250);
        assert_eq!(tree.root.children[1].children[0].name, "eval");
    }

    #[test]
    fn json_rendering_parses_and_drops_zero_counters() {
        assert!(begin("request", TraceId::next()));
        {
            let _g = stage("eval");
            crate::add(Counter::TwaSteps, 3);
        }
        let tree = take().unwrap();
        let rendered = tree.to_json().render();
        let parsed = crate::json::parse(&rendered).expect("trace JSON parses");
        let Json::Obj(fields) = parsed else {
            panic!("not an object")
        };
        assert!(fields.iter().any(|(k, _)| k == "trace_id"));
        assert!(rendered.contains("twa_steps"));
        assert!(
            !rendered.contains("product_configs"),
            "zero counters omitted from trace JSON"
        );
    }

    #[test]
    fn leaked_guard_is_closed_by_take() {
        assert!(begin("request", TraceId::next()));
        let guard = stage("stuck");
        let tree = take().unwrap();
        assert_eq!(tree.root.children[0].name, "stuck");
        drop(guard); // guard after take: must not panic or corrupt
        assert!(!active());
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    use super::*;

    #[test]
    fn disabled_tracing_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<StageGuard>(), 0);
        assert_eq!(TraceId::next(), TraceId(0));
        assert!(!begin("request", TraceId::next()));
        {
            let _g = stage("eval");
        }
        assert!(!active());
        assert!(take().is_none());
    }
}
