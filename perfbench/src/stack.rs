//! The serving stack under test, assembled the way `twx-serve` assembles
//! it with default flags, plus the benchmark's wire clients.
//!
//! The only piece the benchmark adds is [`BenchHandler`]: a
//! `twx_netio::Handler` around `ProtoHandler` that, while tracing is on,
//! times each `handle` call and files the span under the reply's
//! correlation key (`trace_id` for queries, `seq` for updates) for the
//! client to collect.

use crate::layers::LayerSamples;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use treewalk::Engine;
use twx_corpus::proto::ProtoHandler;
use twx_corpus::service::default_eval_threads;
use twx_corpus::{Corpus, QueryService, ServiceConfig, Snapshotter};
use twx_netio::frame::{encode_frame, HEADER_BYTES, MAGIC};
use twx_netio::{Handler, NetStats, Reply, ServerConfig};

/// Journal size at which `twx-serve`'s background snapshotter persists.
const SNAPSHOT_THRESHOLD_BYTES: u64 = 1 << 20;
/// How often that snapshotter polls.
const SNAPSHOT_POLL: Duration = Duration::from_millis(200);
/// A reply slower than this fails the op instead of hanging the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// `ProtoHandler` plus the benchmark's handle-span recorder.
pub struct BenchHandler {
    inner: ProtoHandler,
    tracing: AtomicBool,
    spans: Mutex<HashMap<String, u64>>,
}

impl BenchHandler {
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// The handle span (ns) recorded for `reply`, if tracing was on.
    pub fn take_span(&self, reply: &str) -> Option<u64> {
        let key = correlation_key(reply)?;
        self.spans.lock().expect("span map poisoned").remove(&key)
    }
}

/// `t<trace id>` for query replies, `s<commit seq>` for update receipts.
fn correlation_key(reply: &str) -> Option<String> {
    let field = |name: &str, end: fn(char) -> bool| {
        let at = reply.find(name)? + name.len();
        let rest = &reply[at..];
        Some(rest[..rest.find(end).unwrap_or(rest.len())].to_string())
    };
    if let Some(id) = field("\"trace_id\":\"", |c| c == '"') {
        Some(format!("t{id}"))
    } else {
        field("\"seq\":", |c| !c.is_ascii_digit()).map(|seq| format!("s{seq}"))
    }
}

impl Handler for BenchHandler {
    fn handle(&self, payload: &[u8]) -> Reply {
        if !self.tracing.load(Ordering::Relaxed) {
            return self.inner.handle(payload);
        }
        let started = Instant::now();
        let reply = self.inner.handle(payload);
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(key) = std::str::from_utf8(&reply.payload)
            .ok()
            .and_then(correlation_key)
        {
            self.spans
                .lock()
                .expect("span map poisoned")
                .insert(key, ns);
        }
        reply
    }

    fn protocol_error(&self, detail: &str) -> Vec<u8> {
        self.inner.protocol_error(detail)
    }

    fn overloaded(&self, open: usize, max_conns: usize) -> Vec<u8> {
        self.inner.overloaded(open, max_conns)
    }
}

/// Counter totals read from the stack's own stats surfaces; the
/// difference of two reads covers the ops between them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub rejected: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub rc_hits: u64,
    pub rc_misses: u64,
    pub rc_evictions: u64,
    pub rc_invalidated: u64,
    pub updates: u64,
    pub stalls: u64,
    pub persists: u64,
}

impl Counters {
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            rejected: self.rejected - before.rejected,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            rc_hits: self.rc_hits - before.rc_hits,
            rc_misses: self.rc_misses - before.rc_misses,
            rc_evictions: self.rc_evictions - before.rc_evictions,
            rc_invalidated: self.rc_invalidated - before.rc_invalidated,
            updates: self.updates - before.updates,
            stalls: self.stalls - before.stalls,
            persists: self.persists - before.persists,
        }
    }
}

/// A running in-process `twx-serve`: corpus, query service, protocol
/// handler, event loop, and (with a store) the background snapshotter.
pub struct Stack {
    corpus: Arc<Corpus>,
    handler: Arc<BenchHandler>,
    net: Arc<NetStats>,
    addr: SocketAddr,
    server: JoinHandle<io::Result<()>>,
    snapshotter: Option<Snapshotter>,
}

impl Stack {
    /// Serves `corpus` on an ephemeral localhost port.
    pub fn start(corpus: Corpus) -> Result<Stack, String> {
        let corpus = Arc::new(corpus);
        let service_cfg = ServiceConfig::default();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let engine =
            Engine::new().with_parallelism(default_eval_threads(cores, service_cfg.workers));
        let service = QueryService::new(Arc::clone(&corpus), engine, service_cfg);
        let snapshotter = corpus
            .store()
            .is_some()
            .then(|| corpus.spawn_snapshotter(SNAPSHOT_THRESHOLD_BYTES, SNAPSHOT_POLL));
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let net = Arc::new(NetStats::default());
        let server_cfg = ServerConfig::default();
        let handler = Arc::new(BenchHandler {
            inner: ProtoHandler::new(service, Arc::clone(&net), server_cfg.max_conns),
            tracing: AtomicBool::new(false),
            spans: Mutex::new(HashMap::new()),
        });
        let (loop_handler, loop_net) = (Arc::clone(&handler), Arc::clone(&net));
        let server = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || twx_netio::serve(listener, loop_handler, server_cfg, loop_net))
            .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Stack {
            corpus,
            handler,
            net,
            addr,
            server,
            snapshotter,
        })
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    pub fn handler(&self) -> &BenchHandler {
        &self.handler
    }

    pub fn service(&self) -> &QueryService {
        self.handler.inner.service()
    }

    pub fn connect(&self, wire: Wire) -> Result<Client, String> {
        Client::connect(self.addr, wire).map_err(|e| format!("connect: {e}"))
    }

    pub fn counters(&self) -> Counters {
        let service = self.service();
        let stats = service.stats();
        let plans = service.cache_stats();
        let results = service.result_cache_stats();
        Counters {
            rejected: stats.rejected,
            plan_hits: plans.hits,
            plan_misses: plans.misses,
            rc_hits: results.hits,
            rc_misses: results.misses,
            rc_evictions: results.evictions,
            rc_invalidated: results.invalidated,
            updates: stats.updates,
            stalls: self.net.snapshot().backpressure_stalls,
            persists: self.snapshotter.as_ref().map_or(0, Snapshotter::persists),
        }
    }

    /// Shuts the server down over the wire, joins the event loop, and
    /// drains the service. Clients should be dropped first.
    pub fn stop(self) -> Result<(), String> {
        let mut control = self.connect(Wire::Ndjson)?;
        control
            .call(r#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(control);
        self.server
            .join()
            .map_err(|_| "event loop panicked".to_string())?
            .map_err(|e| format!("event loop: {e}"))?;
        let handler = Arc::try_unwrap(self.handler)
            .map_err(|_| "handler still shared after the loop exited".to_string())?;
        handler.inner.finish();
        drop(self.snapshotter);
        Ok(())
    }
}

/// A window is measured in this many equal slices; throughput is the
/// median slice rate, so a burst of outside interference moves it little,
/// and update probes run between slices, sampling the whole run.
pub const SLICES: u32 = 10;

/// What closed loops produced over one window.
#[derive(Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    /// Every op's latency (ns), updates included.
    pub latency: Vec<u64>,
    /// Update latencies (ns).
    pub updates: Vec<u64>,
    /// `(ops, wall time)` of each slice.
    pub slices: Vec<(u64, Duration)>,
    pub layers: LayerSamples,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.latency.extend(o.latency);
        self.updates.extend(o.updates);
        self.slices.extend(o.slices);
        self.layers.merge(o.layers);
    }

    /// Mean throughput over the whole window (ops/s).
    pub fn rate(&self) -> f64 {
        let wall: Duration = self.slices.iter().map(|(_, w)| *w).sum();
        self.slices.iter().map(|(n, _)| *n).sum::<u64>() as f64 / wall.as_secs_f64()
    }
}

/// Runs one closed loop per connection state, each on its own thread,
/// issuing `op` (which returns `false` when its connection broke) for
/// `length`, in [`SLICES`] slices with `between` called in the pauses.
pub fn run_window<S: Send>(
    conns: &mut [S],
    length: Duration,
    op: impl Fn(&mut S, &mut Tally) -> bool + Sync,
    mut between: impl FnMut(&mut [S]),
) -> Tally {
    let op = &op;
    let mut total = Tally::default();
    for i in 0..SLICES {
        if i > 0 {
            between(conns);
        }
        let start = Instant::now();
        let deadline = start + length / SLICES;
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let loops: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        while Instant::now() < deadline && op(conn, &mut tally) {}
                        tally
                    })
                })
                .collect();
            loops
                .into_iter()
                .map(|l| l.join().expect("client loop panicked"))
                .collect()
        });
        let wall = start.elapsed();
        let ops = tallies.iter().map(|t| t.ops).sum();
        for t in tallies {
            total.merge(t);
        }
        total.slices.push((ops, wall));
    }
    total
}

/// The framing a client speaks (negotiated by its first byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    Ndjson,
    Binary,
}

/// One closed-loop connection: write a request, read its reply.
pub struct Client {
    wire: Wire,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr, wire: Wire) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            wire,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and returns its reply payload.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        let bytes = match self.wire {
            Wire::Ndjson => {
                let mut line = Vec::with_capacity(request.len() + 1);
                line.extend_from_slice(request.as_bytes());
                line.push(b'\n');
                line
            }
            Wire::Binary => encode_frame(request.as_bytes()),
        };
        self.reader.get_ref().write_all(&bytes)?;
        match self.wire {
            Wire::Ndjson => {
                let mut line = String::new();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ));
                }
                Ok(line)
            }
            Wire::Binary => {
                let mut header = [0u8; HEADER_BYTES];
                self.reader.read_exact(&mut header)?;
                if header[..4] != MAGIC {
                    return Err(io::Error::other("bad reply frame magic"));
                }
                let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
                let mut payload = vec![0u8; len];
                self.reader.read_exact(&mut payload)?;
                String::from_utf8(payload).map_err(|_| io::Error::other("reply is not utf-8"))
            }
        }
    }
}
