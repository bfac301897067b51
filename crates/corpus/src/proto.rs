//! The serve-tier protocol: JSON request routing over any transport.
//!
//! This module is the application half of `twx-serve`, factored out of
//! the binary so tests and benches can run in-process servers: a
//! [`ProtoHandler`] implements [`twx_netio::Handler`] and turns one
//! request payload (one NDJSON line or one binary frame, the transport
//! does not matter here) into one reply payload.
//!
//! Ops: `query` (with optional `trace`/`timeout_ms`), `update`,
//! `stats`, `metrics`, `slowlog`, `snapshot`, `shutdown`. Errors come
//! back typed — `{"ok":false,"error":K,...}` with `K` one of
//! `overloaded` | `shutdown` | `engine` | `protocol` — and never cost
//! the connection.
//!
//! Queries and edits resolve labels **read-only** against the corpus
//! label space, so a network client can never grow it: a query naming an
//! unknown label, like one that does not parse, gets a typed `engine`
//! error from the service's prepare and is not counted as submitted.

use crate::service::{CorpusAnswer, QueryService, ServiceError, ServiceStats};
use crate::store::{Corpus, DocId};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twx_netio::{NetStats, Reply};
use twx_obs::json::{parse as parse_json, Json};
use twx_obs::metrics::Gauge;
use twx_xtree::edit::Edit;
use twx_xtree::{Alphabet, NodeId};

/// Requests longer than this are refused with a typed `protocol` error
/// (the connection stays open). Applied to NDJSON lines and binary
/// frame payloads alike; far above any legitimate query, far below
/// anything that could pressure memory.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

// -- tiny accessors over the hand-rolled Json enum --

fn get<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    match get(obj, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn get_u64(obj: &Json, key: &str) -> Option<u64> {
    match get(obj, key)? {
        Json::Int(n) => Some(*n),
        Json::Num(x) if *x >= 0.0 => Some(*x as u64),
        _ => None,
    }
}

fn get_bool(obj: &Json, key: &str) -> bool {
    matches!(get(obj, key), Some(Json::Bool(true)))
}

fn err_line(kind: &str, detail: &str) -> String {
    Json::obj()
        .field("ok", false)
        .field("error", kind)
        .field("detail", detail)
        .render()
}

fn answer_line(a: &CorpusAnswer) -> String {
    let docs: Vec<Json> = a
        .per_doc
        .iter()
        .map(|(id, version, set)| {
            Json::obj()
                .field("doc", id.0)
                .field("version", version.0)
                .field("matches", set.count())
        })
        .collect();
    let shards: Vec<Json> = a
        .shards
        .iter()
        .map(|t| {
            Json::obj()
                .field("shard", t.shard)
                .field("docs", t.docs)
                .field("skipped_docs", t.skipped_docs)
                .field("queue_wait_us", t.queue_wait.as_micros() as u64)
                .field("eval_us", t.eval.as_micros() as u64)
                .field("timed_out", t.timed_out)
        })
        .collect();
    let mut reply = Json::obj()
        .field("ok", true)
        .field("matches", a.total_matches)
        .field("docs", docs)
        .field("timed_out", a.timed_out)
        .field("latency_us", a.latency.as_micros() as u64)
        .field("trace_id", a.trace_id.to_hex())
        .field("shards", shards);
    if let Some(tree) = &a.trace {
        reply = reply.field("trace", tree.to_json());
    }
    reply.render()
}

/// Parses the `edit` object of an `update` request into a typed
/// [`Edit`], resolving the label **read-only** against the corpus
/// label space (unknown labels are an error, never an intern).
fn parse_edit(req: &Json, alphabet: &Alphabet) -> Result<Edit, String> {
    let edit = get(req, "edit").ok_or("update op needs an `edit` object")?;
    let kind = get_str(edit, "op").ok_or("edit needs an `op` string")?;
    let label = |e: &Json| -> Result<_, String> {
        let name = get_str(e, "label").ok_or("edit needs a `label` string")?;
        alphabet
            .lookup(name)
            .ok_or_else(|| format!("unknown label '{name}': not in the corpus label space"))
    };
    match kind {
        "relabel" => Ok(Edit::Relabel {
            node: NodeId(get_u64(edit, "node").ok_or("relabel needs a `node` id")? as u32),
            label: label(edit)?,
        }),
        "insert-child" => Ok(Edit::InsertChild {
            parent: NodeId(
                get_u64(edit, "parent").ok_or("insert-child needs a `parent` id")? as u32,
            ),
            position: get_u64(edit, "position").unwrap_or(0) as usize,
            label: label(edit)?,
        }),
        "remove-subtree" => Ok(Edit::RemoveSubtree {
            node: NodeId(get_u64(edit, "node").ok_or("remove-subtree needs a `node` id")? as u32),
        }),
        other => Err(format!(
            "edit op must be relabel|insert-child|remove-subtree, got '{other}'"
        )),
    }
}

/// Handles one `snapshot` request: write a fresh snapshot generation of
/// every shard and compact the journal. Typed `engine` error when the
/// server runs without `--store`.
fn snapshot_line(corpus: &Corpus) -> String {
    match corpus.persist() {
        Ok(Some(r)) => Json::obj()
            .field("ok", true)
            .field("seq", r.seq)
            .field("snapshot_bytes", r.snapshot_bytes)
            .field("journal_reclaimed", r.journal_reclaimed)
            .render(),
        Ok(None) => err_line("engine", "server has no store (start with --store DIR)"),
        Err(e) => err_line("engine", &format!("snapshot failed: {e}")),
    }
}

fn slowlog_line(service: &QueryService) -> String {
    let entries: Vec<Json> = service.slow_queries().iter().map(|e| e.to_json()).collect();
    Json::obj()
        .field("ok", true)
        .field("entries", entries)
        .render()
}

/// The serve-tier request handler: routes parsed ops into the
/// [`QueryService`] and renders typed replies. Shared by the `twx-serve`
/// binary (over the `twx-netio` event loop) and in-process servers in
/// tests and benches.
pub struct ProtoHandler {
    service: QueryService,
    started: Instant,
    net: Arc<NetStats>,
    max_conns: usize,
    gauge_uptime: Arc<Gauge>,
    gauge_connections: Arc<Gauge>,
    gauge_conns_open: Arc<Gauge>,
    gauge_conns_rejected: Arc<Gauge>,
    gauge_frames_rx: Arc<Gauge>,
    gauge_frames_tx: Arc<Gauge>,
    gauge_backpressure: Arc<Gauge>,
}

impl ProtoHandler {
    /// Wraps a running service. `net` is the connection-tier counter
    /// block shared with the event loop; `max_conns` is reported in
    /// `stats` (admission itself lives in the loop).
    pub fn new(service: QueryService, net: Arc<NetStats>, max_conns: usize) -> ProtoHandler {
        let reg = twx_obs::metrics::global();
        ProtoHandler {
            service,
            started: Instant::now(),
            net,
            max_conns,
            gauge_uptime: reg.gauge("twx_serve_uptime_seconds", &[]),
            gauge_connections: reg.gauge("twx_serve_connections_total", &[]),
            gauge_conns_open: reg.gauge("twx_serve_conns_open", &[]),
            gauge_conns_rejected: reg.gauge("twx_serve_conns_rejected_total", &[]),
            gauge_frames_rx: reg.gauge("twx_serve_frames_rx_total", &[]),
            gauge_frames_tx: reg.gauge("twx_serve_frames_tx_total", &[]),
            gauge_backpressure: reg.gauge("twx_serve_backpressure_stalls_total", &[]),
        }
    }

    /// The service inside (corpus access for snapshotters etc.).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Tears the service down (drains workers) and returns the final
    /// counters. Call after the event loop has exited.
    pub fn finish(self) -> ServiceStats {
        self.service.shutdown()
    }

    fn uptime_s(&self) -> u64 {
        let s = self.started.elapsed().as_secs();
        self.gauge_uptime.set(s);
        s
    }

    /// Mirrors the event loop's counters into registry gauges so the
    /// Prometheus exposition carries them (called on `stats`/`metrics`).
    fn sync_net_gauges(&self) -> twx_netio::NetStatsSnapshot {
        let n = self.net.snapshot();
        self.gauge_connections.set(n.conns_total);
        self.gauge_conns_open.set(n.conns_open);
        self.gauge_conns_rejected.set(n.conns_rejected);
        self.gauge_frames_rx.set(n.frames_rx);
        self.gauge_frames_tx.set(n.frames_tx);
        self.gauge_backpressure.set(n.backpressure_stalls);
        n
    }

    fn stats_line(&self) -> String {
        let service = &self.service;
        let s = service.stats();
        let results = service.result_cache_stats();
        let n = self.sync_net_gauges();
        let mut reply = Json::obj()
            .field("ok", true)
            .field("uptime_s", self.uptime_s())
            .field("connections", n.conns_total)
            .field("conns_open", n.conns_open)
            .field("conns_rejected", n.conns_rejected)
            .field("max_conns", self.max_conns as u64)
            .field("frames_rx", n.frames_rx)
            .field("frames_tx", n.frames_tx)
            .field("backpressure_stalls", n.backpressure_stalls)
            .field("submitted", s.submitted)
            .field("completed", s.completed)
            .field("rejected", s.rejected)
            .field("timeouts", s.timeouts)
            .field("queued", s.queued)
            .field("queue_capacity", s.queue_capacity)
            .field("workers", s.workers)
            .field("updates", s.updates)
            .field("stale_answers", s.stale_answers)
            .field("result_cache_hits", results.hits)
            .field("result_cache_misses", results.misses)
            .field("result_cache_carried", results.carried)
            .field("result_cache_invalidated", results.invalidated)
            .field("result_cache_entries", results.entries);
        // end-to-end request latency percentiles, in microseconds
        let hist = service.request_latency_histogram();
        for (name, ns) in hist.quantiles() {
            reply = reply.field(&format!("latency_{name}_us"), ns / 1_000);
        }
        reply
            .field("latency_mean_us", (hist.mean() / 1_000.0) as u64)
            .field("latency_count", hist.count())
            .render()
    }

    fn metrics_line(&self) -> String {
        self.sync_net_gauges();
        Json::obj()
            .field("ok", true)
            .field("metrics", twx_obs::metrics::global().render_prometheus())
            .render()
    }

    fn update_line(&self, req: &Json) -> String {
        let Some(doc) = get_u64(req, "doc") else {
            return err_line("protocol", "update op needs a `doc` id");
        };
        let catalog = self.service.corpus().catalog();
        let edit = match catalog.with_read(|labels| parse_edit(req, labels)) {
            Ok(e) => e,
            Err(msg) => return err_line("protocol", &msg),
        };
        match self.service.update(DocId(doc as u32), &edit) {
            Ok(r) => Json::obj()
                .field("ok", true)
                .field("doc", r.id.0)
                .field("version", r.version.0)
                .field(
                    "affected",
                    vec![Json::from(r.affected.start), Json::from(r.affected.end)],
                )
                .field("nodes", r.new_len)
                .field("seq", r.seq)
                .render(),
            Err(e) => err_line("engine", &e.to_string()),
        }
    }

    fn query_line(&self, req: &Json) -> String {
        let Some(q) = get_str(req, "query") else {
            return err_line("protocol", "query op needs a `query` string");
        };
        let timeout = get_u64(req, "timeout_ms").map(Duration::from_millis);
        let outcome = if get_bool(req, "trace") {
            self.service.query_traced_with_timeout(q, timeout)
        } else {
            self.service.query_with_timeout(q, timeout)
        };
        match outcome {
            Ok(a) => answer_line(&a),
            Err(ServiceError::Overloaded { queued, capacity }) => Json::obj()
                .field("ok", false)
                .field("error", "overloaded")
                .field("queued", queued)
                .field("capacity", capacity)
                .render(),
            Err(ServiceError::ShutDown) => err_line("shutdown", "service closed"),
            Err(ServiceError::Engine(e)) => err_line("engine", &e.to_string()),
        }
    }

    /// Routes one request payload; the `bool` asks the transport to shut
    /// the server down after flushing the reply.
    fn route(&self, payload: &[u8]) -> (String, bool) {
        let Ok(text) = std::str::from_utf8(payload) else {
            return (err_line("protocol", "request is not valid utf-8"), false);
        };
        let req = match parse_json(text) {
            Err(e) => return (err_line("protocol", &format!("bad json: {e}")), false),
            Ok(req) => req,
        };
        match get_str(&req, "op") {
            Some("query") => (self.query_line(&req), false),
            Some("update") => (self.update_line(&req), false),
            Some("stats") => (self.stats_line(), false),
            Some("metrics") => (self.metrics_line(), false),
            Some("slowlog") => (slowlog_line(&self.service), false),
            Some("snapshot") => (snapshot_line(self.service.corpus()), false),
            Some("shutdown") => {
                let reply = Json::obj()
                    .field("ok", true)
                    .field("shutting_down", true)
                    .render();
                (reply, true)
            }
            _ => (
                err_line(
                    "protocol",
                    "op must be query|update|stats|metrics|slowlog|snapshot|shutdown",
                ),
                false,
            ),
        }
    }
}

impl twx_netio::Handler for ProtoHandler {
    fn handle(&self, payload: &[u8]) -> Reply {
        let (reply, shutdown) = self.route(payload);
        Reply {
            payload: reply.into_bytes(),
            shutdown,
        }
    }

    fn protocol_error(&self, detail: &str) -> Vec<u8> {
        err_line("protocol", detail).into_bytes()
    }

    fn overloaded(&self, open: usize, max_conns: usize) -> Vec<u8> {
        Json::obj()
            .field("ok", false)
            .field("error", "overloaded")
            .field("detail", "connection limit reached")
            .field("open", open as u64)
            .field("max_conns", max_conns as u64)
            .render()
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use treewalk::Engine;
    use twx_netio::Handler;
    use twx_xtree::parse::parse_xml_catalog;
    use twx_xtree::Catalog;

    fn reply(handler: &ProtoHandler, request: &str) -> String {
        String::from_utf8(handler.handle(request.as_bytes()).payload).unwrap()
    }

    /// Unknown labels are refused by the service's read-only prepare and
    /// never interned, however often they are sent, and only healthy
    /// queries count as submitted.
    #[test]
    fn unknown_labels_never_grow_the_catalog() {
        let catalog = Arc::new(Catalog::from_names(["a", "b"]));
        let mut builder = Corpus::builder(Arc::clone(&catalog), 1);
        builder.add_document(parse_xml_catalog("<a><b/><b/></a>", &catalog).unwrap());
        let service = QueryService::new(
            Arc::new(builder.build()),
            Engine::new(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let handler = ProtoHandler::new(service, Arc::new(NetStats::default()), 1);
        for _ in 0..2 {
            let r = reply(&handler, r#"{"op":"query","query":"down[ghost]"}"#);
            assert!(r.contains(r#""error":"engine""#), "{r}");
            let r = reply(&handler, r#"{"op":"query","query":"down[b]"}"#);
            assert!(r.contains(r#""matches":2"#), "{r}");
        }
        assert_eq!(catalog.len(), 2);
        assert_eq!(handler.service().stats().submitted, 2);
        handler.finish();
    }
}
