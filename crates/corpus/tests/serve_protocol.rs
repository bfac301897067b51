//! Protocol matrix for the `twx-serve` binary, run over **both wire
//! framings** — NDJSON lines and length-prefixed binary frames, which
//! share a port and are negotiated by the first byte of each
//! connection.
//!
//! Every protocol case (malformed JSON, unknown ops, missing fields,
//! unknown labels, oversized requests, on-the-wire garbage) must come
//! back as a typed `{"ok":false,"error":...}` reply **on the same
//! connection** — the socket survives every failure and still serves a
//! healthy query afterwards. On top of the per-op matrix: pipelining
//! (many requests written before any reply is read, replies in request
//! order) and slow-reader backpressure (a connection that refuses to
//! read its replies is parked without affecting other connections).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use twx_netio::frame::{encode_frame, HEADER_BYTES, MAGIC};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Framing {
    Ndjson,
    Binary,
}

impl Framing {
    fn other(self) -> Framing {
        match self {
            Framing::Ndjson => Framing::Binary,
            Framing::Binary => Framing::Ndjson,
        }
    }
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `twx-serve` on an ephemeral port with a small synthetic
    /// corpus and scrapes the bound address from its stdout.
    fn spawn() -> Server {
        Server::spawn_with(&[])
    }

    fn spawn_with(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_twx-serve"))
            .args([
                "--port",
                "0",
                "--shards",
                "2",
                "--workers",
                "2",
                "--synthetic",
                "4x12",
                "--seed",
                "7",
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn twx-serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut first = String::new();
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("read listen line");
        let addr = first
            .trim()
            .strip_prefix("twx-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
            .to_string();
        Server { child, addr }
    }

    fn connect(&self, framing: Framing) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn {
            stream,
            reader,
            framing,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // best effort: ask politely (reading the reply so the server's
        // write cannot race our hangup), then make sure it is gone
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            if writeln!(s, r#"{{"op":"shutdown"}}"#).is_ok() {
                let mut reply = String::new();
                let _ = BufReader::new(&s).read_line(&mut reply);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking a fixed framing.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    framing: Framing,
}

impl Conn {
    /// Sends one request payload, framed per the connection's framing.
    fn send(&mut self, payload: &str) {
        match self.framing {
            Framing::Ndjson => writeln!(self.stream, "{payload}").expect("send"),
            Framing::Binary => self
                .stream
                .write_all(&encode_frame(payload.as_bytes()))
                .expect("send"),
        }
        self.stream.flush().expect("flush");
    }

    /// Raw bytes, bypassing the framing (for garbage-injection cases).
    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send raw");
        self.stream.flush().expect("flush");
    }

    /// Reads one reply payload.
    fn recv(&mut self) -> String {
        match self.framing {
            Framing::Ndjson => {
                let mut reply = String::new();
                self.reader.read_line(&mut reply).expect("reply");
                assert!(reply.ends_with('\n'), "reply not newline-terminated");
                reply.trim().to_string()
            }
            Framing::Binary => {
                let mut header = [0u8; HEADER_BYTES];
                self.reader.read_exact(&mut header).expect("frame header");
                assert_eq!(&header[..4], &MAGIC, "reply frame magic");
                let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
                let mut payload = vec![0u8; len];
                self.reader.read_exact(&mut payload).expect("frame payload");
                String::from_utf8(payload).expect("utf-8 reply")
            }
        }
    }

    fn roundtrip(&mut self, payload: &str) -> String {
        self.send(payload);
        self.recv()
    }
}

fn protocol_errors_do_not_drop_the_connection(framing: Framing) {
    let server = Server::spawn();
    let mut conn = server.connect(framing);

    // 1. malformed JSON
    let r = conn.roundtrip("{this is not json");
    assert!(r.contains(r#""ok":false"#), "{r}");
    assert!(r.contains(r#""error":"protocol""#), "{r}");

    // 2. valid JSON, unknown op
    let r = conn.roundtrip(r#"{"op":"frobnicate"}"#);
    assert!(r.contains(r#""error":"protocol""#), "{r}");

    // 3. garbage on the wire: skipped (binary resyncs on the magic,
    //    NDJSON fails the line's JSON parse), answered typed, survived
    match framing {
        Framing::Ndjson => conn.send_raw(b"\x02\x07 utterly mangled\n"),
        Framing::Binary => conn.send_raw(b"\x02\x07 utterly mangled"),
    }
    let r = conn.recv();
    assert!(r.contains(r#""error":"protocol""#), "{r}");

    // 4. query op missing the query string
    let r = conn.roundtrip(r#"{"op":"query"}"#);
    assert!(r.contains(r#""error":"protocol""#), "{r}");

    // 5. unknown label: a typed engine error, not a dropped socket
    let r = conn.roundtrip(r#"{"op":"query","query":"down[ghost]"}"#);
    assert!(r.contains(r#""ok":false"#), "{r}");
    assert!(r.contains(r#""error":"engine""#), "{r}");
    assert!(r.contains("ghost"), "{r}");

    // 6. oversized request: > 64 KiB in one line / one frame
    let huge = format!(
        r#"{{"op":"query","query":"down[{}]"}}"#,
        "x".repeat(70 * 1024)
    );
    let r = conn.roundtrip(&huge);
    assert!(r.contains(r#""error":"protocol""#), "{r}");
    assert!(r.contains("exceeds"), "{r}");

    // after all six failures, the same connection still serves queries
    let r = conn.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");

    // and only the one healthy query ever reached the service — every
    // refused request was answered before submission
    let r = conn.roundtrip(r#"{"op":"stats"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains(r#""submitted":1"#), "{r}");
}

#[test]
fn protocol_errors_are_typed_ndjson() {
    protocol_errors_do_not_drop_the_connection(Framing::Ndjson);
}

#[test]
fn protocol_errors_are_typed_binary() {
    protocol_errors_do_not_drop_the_connection(Framing::Binary);
}

fn update_errors_and_commit_visibility(framing: Framing) {
    let server = Server::spawn();
    let mut conn = server.connect(framing);

    // 1. update without a doc id
    let r = conn.roundtrip(r#"{"op":"update"}"#);
    assert!(r.contains(r#""error":"protocol""#), "{r}");
    assert!(r.contains("doc"), "{r}");

    // 2. doc but no edit object
    let r = conn.roundtrip(r#"{"op":"update","doc":0}"#);
    assert!(r.contains(r#""error":"protocol""#), "{r}");
    assert!(r.contains("edit"), "{r}");

    // 3. unknown edit op
    let r = conn.roundtrip(r#"{"op":"update","doc":0,"edit":{"op":"swap","node":1}}"#);
    assert!(r.contains(r#""error":"protocol""#), "{r}");
    assert!(r.contains("relabel|insert-child|remove-subtree"), "{r}");

    // 4. unknown label: refused read-only, never interned into the
    //    corpus alphabet
    let r = conn
        .roundtrip(r#"{"op":"update","doc":0,"edit":{"op":"relabel","node":1,"label":"ghost"}}"#);
    assert!(r.contains(r#""error":"protocol""#), "{r}");
    assert!(r.contains("ghost"), "{r}");

    // 5. well-formed edit against a document that does not exist
    let r =
        conn.roundtrip(r#"{"op":"update","doc":99,"edit":{"op":"relabel","node":0,"label":"b"}}"#);
    assert!(r.contains(r#""error":"engine""#), "{r}");

    // 6. well-formed edit against a node outside the document
    let r = conn
        .roundtrip(r#"{"op":"update","doc":0,"edit":{"op":"relabel","node":10000,"label":"b"}}"#);
    assert!(r.contains(r#""error":"engine""#), "{r}");

    // after six failures the connection still commits a real edit, and
    // the receipt names the bumped version
    let r =
        conn.roundtrip(r#"{"op":"update","doc":0,"edit":{"op":"relabel","node":0,"label":"b"}}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains(r#""version":1"#), "{r}");
    assert!(r.contains(r#""seq":1"#), "{r}");
    assert!(r.contains(r#""affected":[0,1]"#), "{r}");

    // a query on the same connection reads the new version: the per-doc
    // breakdown pins doc 0 at version 1 and the others at version 0
    let r = conn.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains(r#""doc":0,"version":1"#), "{r}");
    assert!(r.contains(r#""doc":1,"version":0"#), "{r}");

    // none of the six rejected updates reached the service
    let r = conn.roundtrip(r#"{"op":"stats"}"#);
    assert!(r.contains(r#""updates":1"#), "{r}");
}

#[test]
fn update_errors_are_typed_ndjson() {
    update_errors_and_commit_visibility(Framing::Ndjson);
}

#[test]
fn update_errors_are_typed_binary() {
    update_errors_and_commit_visibility(Framing::Binary);
}

fn observability_ops(framing: Framing) {
    let server = Server::spawn();
    let mut conn = server.connect(framing);

    // an untraced query is tagged with a trace id but carries no tree
    let plain = conn.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    assert!(plain.contains(r#""ok":true"#), "{plain}");
    assert!(plain.contains(r#""trace_id":""#), "{plain}");
    assert!(!plain.contains(r#""trace":{"#), "{plain}");

    // the same query with "trace":true returns an inline span tree whose
    // root is the request and whose answer matches the untraced one
    let traced = conn.roundtrip(r#"{"op":"query","query":"down*[b]","trace":true}"#);
    assert!(traced.contains(r#""ok":true"#), "{traced}");
    assert!(traced.contains(r#""trace":{"#), "{traced}");
    assert!(traced.contains(r#""name":"request""#), "{traced}");
    assert!(traced.contains(r#""name":"merge""#), "{traced}");
    // first "matches" in the reply is the top-level total (per-doc
    // entries repeat the key later)
    let matches = |r: &str| {
        let at = r.find(r#""matches":"#).expect("matches");
        r[at + 10..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
    };
    assert_eq!(matches(&plain), matches(&traced), "traced answer differs");

    // stats carries uptime, connection counts, frame counters, and
    // latency percentiles
    let r = conn.roundtrip(r#"{"op":"stats"}"#);
    assert!(r.contains(r#""uptime_s":"#), "{r}");
    assert!(r.contains(r#""connections":"#), "{r}");
    assert!(r.contains(r#""conns_open":1"#), "{r}");
    assert!(r.contains(r#""conns_rejected":0"#), "{r}");
    assert!(r.contains(r#""max_conns":"#), "{r}");
    assert!(r.contains(r#""frames_rx":"#), "{r}");
    assert!(r.contains(r#""frames_tx":"#), "{r}");
    assert!(r.contains(r#""backpressure_stalls":"#), "{r}");
    for key in [
        "latency_p50_us",
        "latency_p90_us",
        "latency_p99_us",
        "latency_p999_us",
        "latency_mean_us",
        "latency_count",
    ] {
        assert!(r.contains(&format!(r#""{key}":"#)), "missing {key}: {r}");
    }
    assert!(r.contains(r#""latency_count":2"#), "{r}");

    // the metrics op renders a Prometheus text exposition with the
    // service histograms and the connection-tier gauges
    let r = conn.roundtrip(r#"{"op":"metrics"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains("# TYPE twx_service_request_ns histogram"), "{r}");
    assert!(r.contains("twx_service_request_ns_count 2"), "{r}");
    assert!(r.contains("le=\\\"+Inf\\\""), "{r}");
    assert!(r.contains("twx_serve_connections_total"), "{r}");
    assert!(r.contains("twx_serve_uptime_seconds"), "{r}");
    assert!(r.contains("twx_serve_conns_open"), "{r}");
    assert!(r.contains("twx_serve_frames_rx_total"), "{r}");
    assert!(r.contains("twx_serve_backpressure_stalls_total"), "{r}");
    // `down*[b]` ran the VM's axis-closure kernel, once per document
    let runs = r
        .match_indices("twx_vm_axis_closures_total ")
        .find_map(|(at, key)| {
            let digits: String = r[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().ok()
        });
    assert!(runs.is_some_and(|n| n > 0), "{r}");

    // the slow log retains both requests, slowest first, and its trace
    // ids join back to the replies above
    let r = conn.roundtrip(r#"{"op":"slowlog"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains(r#""entries":["#), "{r}");
    assert!(r.contains(r#""query":"down*[b]""#), "{r}");
    assert!(r.contains(r#""latency_us":"#), "{r}");
    assert!(r.contains(r#""profile":{"#), "{r}");
    let id_of = |reply: &str| {
        let at = reply.find(r#""trace_id":""#).expect("trace_id") + 12;
        reply[at..at + 16].to_string()
    };
    assert!(r.contains(&id_of(&plain)), "slowlog missing plain id: {r}");
    assert!(
        r.contains(&id_of(&traced)),
        "slowlog missing traced id: {r}"
    );
}

#[test]
fn observability_ops_ndjson() {
    observability_ops(Framing::Ndjson);
}

#[test]
fn observability_ops_binary() {
    observability_ops(Framing::Binary);
}

fn snapshot_and_kill_recovery(framing: Framing) {
    // storeless server: the op is understood but refused with a typed
    // engine error, and the connection survives
    let server = Server::spawn();
    let mut conn = server.connect(framing);
    let r = conn.roundtrip(r#"{"op":"snapshot"}"#);
    assert!(r.contains(r#""ok":false"#), "{r}");
    assert!(r.contains(r#""error":"engine""#), "{r}");
    assert!(r.contains("--store"), "{r}");
    let r = conn.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    drop(conn);
    drop(server);

    // store-backed server: commit an edit, snapshot, note the answer,
    // then kill -9 (no graceful shutdown) and restart on the same dir —
    // the recovered corpus must answer identically
    let dir = std::env::temp_dir().join(format!(
        "twx-serve-test-store-{}-{framing:?}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap().to_string();

    let mut server = Server::spawn_with(&["--store", &dir_arg]);
    let mut conn = server.connect(framing);
    let r =
        conn.roundtrip(r#"{"op":"update","doc":0,"edit":{"op":"relabel","node":0,"label":"b"}}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    let r = conn.roundtrip(r#"{"op":"snapshot"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains(r#""seq":1"#), "{r}");
    assert!(r.contains(r#""snapshot_bytes":"#), "{r}");
    let before = conn.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    assert!(before.contains(r#""ok":true"#), "{before}");
    drop(conn);
    server.child.kill().expect("kill");
    server.child.wait().expect("wait");

    let server = Server::spawn_with(&["--store", &dir_arg]);
    let mut conn = server.connect(framing);
    let after = conn.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    // the answer prefix (total matches + per-doc counts and versions) is
    // deterministic; latency and trace id legitimately differ
    let answer = |r: &str| r[..r.find(r#""timed_out""#).expect("timed_out")].to_string();
    assert_eq!(
        answer(&before),
        answer(&after),
        "recovered corpus answers differently"
    );
    drop(conn);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_and_kill_recovery_ndjson() {
    snapshot_and_kill_recovery(Framing::Ndjson);
}

#[test]
fn snapshot_and_kill_recovery_binary() {
    snapshot_and_kill_recovery(Framing::Binary);
}

/// Pipelining: N requests written before any reply is read; replies come
/// back in request order. Even-index requests use an unknown label that
/// echoes its index (a typed engine error handled off-service), odd ones
/// are healthy queries — so reply `i` is distinguishable and order
/// violations cannot cancel out.
fn pipelined_requests_reply_in_order(framing: Framing) {
    const N: usize = 64;
    let server = Server::spawn();
    let mut conn = server.connect(framing);

    // a control connection on the *other* framing proves the two wire
    // formats coexist on one server
    let mut control = server.connect(framing.other());

    let mut batch = Vec::new();
    for i in 0..N {
        let req = if i % 2 == 0 {
            format!(r#"{{"op":"query","query":"down[ghost{i}]"}}"#)
        } else {
            r#"{"op":"query","query":"down*[b]"}"#.to_string()
        };
        match framing {
            Framing::Ndjson => {
                batch.extend_from_slice(req.as_bytes());
                batch.push(b'\n');
            }
            Framing::Binary => batch.extend_from_slice(&encode_frame(req.as_bytes())),
        }
    }
    // the whole pipeline in one write, no reads in between
    conn.send_raw(&batch);

    let r = control.roundtrip(r#"{"op":"stats"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");

    for i in 0..N {
        let r = conn.recv();
        if i % 2 == 0 {
            assert!(r.contains(r#""error":"engine""#), "reply {i}: {r}");
            assert!(
                r.contains(&format!("ghost{i}")),
                "reply {i} out of order: {r}"
            );
        } else {
            assert!(r.contains(r#""ok":true"#), "reply {i}: {r}");
        }
    }

    // exactly the N/2 healthy queries reached the service
    let r = conn.roundtrip(r#"{"op":"stats"}"#);
    assert!(r.contains(&format!(r#""submitted":{}"#, N / 2)), "{r}");
}

#[test]
fn pipelined_requests_reply_in_order_ndjson() {
    pipelined_requests_reply_in_order(Framing::Ndjson);
}

#[test]
fn pipelined_requests_reply_in_order_binary() {
    pipelined_requests_reply_in_order(Framing::Binary);
}

/// Slow-reader backpressure: a client floods requests and refuses to
/// read replies. The server must park that connection (counted in
/// `backpressure_stalls`), keep serving other connections, and deliver
/// every reply in order once the slow reader finally drains.
fn slow_reader_is_parked_not_fatal(framing: Framing) {
    const N: usize = 600;
    // a tiny backpressure budget so reply buffering trips immediately
    let server = Server::spawn_with(&["--backpressure-bytes", "4096"]);
    let mut slow = server.connect(framing);
    // shrink the slow client's receive window so the kernel cannot mask
    // its refusal to read
    twx_netio::set_recv_buffer(&slow.stream, 4096).expect("rcvbuf");

    let mut batch = Vec::new();
    for i in 0..N {
        let req = format!(r#"{{"op":"query","query":"down[ghost{i}]"}}"#);
        match framing {
            Framing::Ndjson => {
                batch.extend_from_slice(req.as_bytes());
                batch.push(b'\n');
            }
            Framing::Binary => batch.extend_from_slice(&encode_frame(req.as_bytes())),
        }
    }
    slow.send_raw(&batch);
    // give the loop time to ingest the flood and park the connection
    std::thread::sleep(std::time::Duration::from_millis(300));

    // a second connection stays fully responsive while the flood sits
    let mut other = server.connect(framing);
    let r = other.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    let r = other.roundtrip(r#"{"op":"stats"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains(r#""conns_open":2"#), "{r}");
    let stalls: u64 = {
        let at = r.find(r#""backpressure_stalls":"#).expect("stalls field") + 22;
        r[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("stalls number")
    };
    assert!(stalls >= 1, "no backpressure stall recorded: {r}");

    // the slow reader finally drains: every reply present, in order
    for i in 0..N {
        let r = slow.recv();
        assert!(
            r.contains(&format!("ghost{i}")),
            "reply {i} out of order: {r}"
        );
    }
    // and the parked connection came back to life
    let r = slow.roundtrip(r#"{"op":"query","query":"down*[b]"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
}

#[test]
fn slow_reader_backpressure_ndjson() {
    slow_reader_is_parked_not_fatal(Framing::Ndjson);
}

#[test]
fn slow_reader_backpressure_binary() {
    slow_reader_is_parked_not_fatal(Framing::Binary);
}
