//! # treewalk — XPath, transitive closure logic, and nested tree walking automata
//!
//! The query engine of a from-scratch reproduction of ten Cate &
//! Segoufin (PODS 2008 / JACM 2010): [`Engine`] parses a Regular
//! XPath(W) query, simplifies it, and compiles it to one VM program. The
//! facade is that engine plus the crates it is built on, re-exported:
//!
//! * [`xtree`] — sibling-ordered labelled trees (the XML data model);
//! * [`corexpath`] — Core XPath 1.0 with a linear-time evaluator;
//! * [`regxpath`] — Regular XPath(W): transitive closure + `within`;
//! * [`vm`] — the bytecode VM: plans compiled to a register machine over
//!   dense bitsets, the one evaluator [`Engine`] compiles to;
//! * [`obs`] — zero-dependency counters, span timers, and the per-query
//!   EXPLAIN profiles surfaced through [`Engine::explain`].
//!
//! The paper's other constructions are reference oracles, not serving
//! code, and are named directly as their own crates: `twx-fotc`
//! (first-order logic with monadic transitive closure), `twx-twa`
//! ((nested) tree walking automata), `twx-treeauto` (bottom-up tree
//! automata, the MSO/regular yardstick and its decision procedures) and
//! `twx-core` (the effective equivalence triangle between the
//! formalisms, plus deciders and differential-testing harnesses). The
//! tests, the examples and the `twx-conform` fuzzer check the VM against
//! them; neither this facade nor the serving build depends on them.
//!
//! The serving layer — sharded corpus store, concurrent query service
//! with admission control, and the `twx-serve` TCP binary — lives in the
//! `twx-corpus` crate, which builds *on top of* this facade.

pub mod engine;

pub use engine::{CacheStats, Engine, EngineError, Prepared, ResultCache, ResultCacheStats};
pub use twx_corexpath as corexpath;
pub use twx_obs as obs;
pub use twx_obs::{Histogram, QueryProfile, SpanTree, TraceId};
pub use twx_regxpath as regxpath;
pub use twx_vm as vm;
pub use twx_xtree as xtree;
