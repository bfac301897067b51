//! Per-layer attribution from the traced run.
//!
//! A traced query's spans nest as
//!
//! ```text
//! client round trip            (timed by the client)
//! └─ handle                    (BenchHandler around ProtoHandler::handle)
//!    └─ request                (service span tree, from the reply's `trace`)
//!       ├─ prepare ─ parse, simplify, plan_cache
//!       ├─ shardN  ─ queue_wait, result_cache…, eval…
//!       └─ merge
//! ```
//!
//! and each layer's self time is its span minus the child it encloses:
//! `netio` = round trip − handle, `proto` = handle − request. Updates
//! carry no service trace; their handle span is the corpus commit.

use crate::stack::Counters;
use crate::util::{get, get_arr, get_str, get_u64, pct_us, ratio};
use crate::Report;
use twx_obs::json::Json;

/// Span samples (ns) and eval counts gathered by one traced phase.
#[derive(Default)]
pub struct LayerSamples {
    pub netio_overhead: Vec<u64>,
    pub proto_self: Vec<u64>,
    pub queue_wait: Vec<u64>,
    pub merge: Vec<u64>,
    pub parse: Vec<u64>,
    pub simplify: Vec<u64>,
    pub prepare: Vec<u64>,
    pub rc_lookup: Vec<u64>,
    pub eval_self: Vec<u64>,
    pub commit: Vec<u64>,
    /// Ops whose eval counters were summed below.
    pub eval_ops: u64,
    pub steps: u64,
    pub closure_iters: u64,
    pub product_configs: u64,
}

fn dur(span: &Json) -> u64 {
    get_u64(span, "dur_ns").unwrap_or(0)
}

fn children(span: &Json) -> &[Json] {
    get_arr(span, "children")
}

/// Span duration minus the time its children cover.
fn self_ns(span: &Json) -> u64 {
    dur(span).saturating_sub(children(span).iter().map(dur).sum())
}

impl LayerSamples {
    pub fn merge(&mut self, o: LayerSamples) {
        self.netio_overhead.extend(o.netio_overhead);
        self.proto_self.extend(o.proto_self);
        self.queue_wait.extend(o.queue_wait);
        self.merge.extend(o.merge);
        self.parse.extend(o.parse);
        self.simplify.extend(o.simplify);
        self.prepare.extend(o.prepare);
        self.rc_lookup.extend(o.rc_lookup);
        self.eval_self.extend(o.eval_self);
        self.commit.extend(o.commit);
        self.eval_ops += o.eval_ops;
        self.steps += o.steps;
        self.closure_iters += o.closure_iters;
        self.product_configs += o.product_configs;
    }

    /// Adds one evaluation's counters: `steps` sums every backend's
    /// unit of work (product configurations, NTWA steps, FO(MTC)
    /// evaluation steps, VM instructions).
    pub fn add_eval_counts(&mut self, get: impl Fn(&str) -> u64) {
        self.eval_ops += 1;
        self.steps += [
            "product_configs",
            "twa_steps",
            "fo_eval_steps",
            "vm_instructions",
        ]
        .iter()
        .map(|c| get(c))
        .sum::<u64>();
        self.closure_iters += get("vm_closure_iters");
        self.product_configs += get("product_configs");
    }

    /// Grafts a traced query reply's service span tree under its handle
    /// span and the client's round trip. Returns whether a trace was
    /// present.
    pub fn absorb_query(&mut self, rtt: u64, handle: Option<u64>, reply: &Json) -> bool {
        let Some(root) = get(reply, "trace").and_then(|t| get(t, "root")) else {
            return false;
        };
        let request = dur(root);
        if let Some(h) = handle {
            self.netio_overhead.push(rtt.saturating_sub(h));
            self.proto_self.push(h.saturating_sub(request));
        }
        let mut queue_wait = 0;
        let mut eval = 0;
        for stage in children(root) {
            match get_str(stage, "name").unwrap_or("") {
                "prepare" => {
                    self.prepare.push(dur(stage));
                    for s in children(stage) {
                        match get_str(s, "name") {
                            Some("parse") => self.parse.push(dur(s)),
                            Some("simplify") => self.simplify.push(dur(s)),
                            _ => {}
                        }
                    }
                }
                "merge" => self.merge.push(dur(stage)),
                name if name.starts_with("shard") => {
                    for s in children(stage) {
                        match get_str(s, "name") {
                            // the request waits for its slowest shard item
                            Some("queue_wait") => queue_wait = queue_wait.max(dur(s)),
                            Some("result_cache") => self.rc_lookup.push(dur(s)),
                            Some("eval") => eval += self_ns(s),
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        self.queue_wait.push(queue_wait);
        self.eval_self.push(eval);
        let counters = get(root, "counters");
        self.add_eval_counts(|c| counters.and_then(|j| get_u64(j, c)).unwrap_or(0));
        true
    }

    /// An update's handle span: the corpus commit behind the wire.
    pub fn absorb_update(&mut self, rtt: u64, handle: Option<u64>) {
        if let Some(h) = handle {
            self.netio_overhead.push(rtt.saturating_sub(h));
            self.commit.push(h);
        }
    }

    /// Files every span- and count-derived per-layer metric. `c` is the
    /// counter difference over the traced phase.
    pub fn report(&self, c: &Counters, r: &mut Report) {
        r.set("netio.overhead_p50_us", pct_us(&self.netio_overhead, 0.5));
        r.set("netio.backpressure_stalls", c.stalls as f64);
        r.set("proto.self_p50_us", pct_us(&self.proto_self, 0.5));
        r.set("service.queue_wait_p50_us", pct_us(&self.queue_wait, 0.5));
        r.set("service.queue_wait_p99_us", pct_us(&self.queue_wait, 0.99));
        r.set("service.merge_p50_us", pct_us(&self.merge, 0.5));
        r.set("service.rejected", c.rejected as f64);
        r.set("engine.parse_p50_us", pct_us(&self.parse, 0.5));
        r.set("engine.simplify_p50_us", pct_us(&self.simplify, 0.5));
        r.set("engine.simplify_p99_us", pct_us(&self.simplify, 0.99));
        r.set("engine.prepare_p50_us", pct_us(&self.prepare, 0.5));
        r.set(
            "engine.plan_cache_hit_ratio",
            ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
        );
        let lookups = c.rc_hits + c.rc_misses;
        r.set(
            "result_cache.hit_ratio",
            ratio(c.rc_hits as f64, lookups as f64),
        );
        r.info("result_cache_lookups", lookups);
        r.set("result_cache.lookup_p50_us", pct_us(&self.rc_lookup, 0.5));
        r.set("result_cache.evictions", c.rc_evictions as f64);
        r.set(
            "result_cache.invalidated_per_update",
            ratio(c.rc_invalidated as f64, c.updates as f64),
        );
        r.set("eval.self_p50_us", pct_us(&self.eval_self, 0.5));
        let per_op = |n: u64| ratio(n as f64, self.eval_ops as f64);
        r.set("eval.steps_per_op", per_op(self.steps));
        r.set("eval.vm_closure_iters_per_op", per_op(self.closure_iters));
        r.set("eval.product_configs_per_op", per_op(self.product_configs));
        r.set("corpus.commit_p50_us", pct_us(&self.commit, 0.5));
        r.set("store.persists", c.persists as f64);
        r.info("traced_eval_ops", self.eval_ops);
        r.info("traced_commits", self.commit.len());
    }
}
