#!/usr/bin/env bash
# Offline CI gate: formatting, lints, both feature configurations, the
# full test suite, and a harness smoke run whose JSON export must parse.
set -euo pipefail
cd "$(dirname "$0")"

say() { printf '\n== %s ==\n' "$*"; }

say "cargo fmt --check"
cargo fmt --all -- --check

say "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

say "cargo clippy, instrumentation disabled (deny warnings)"
# the facade without default features compiles twx-obs without its
# counter slots; lint that configuration too (a workspace-wide run
# would re-enable the switch through other members' features)
cargo clippy --all-targets --no-default-features -- -D warnings

say "release build (default features)"
cargo build --release --workspace

say "release build (instrumentation disabled)"
cargo build --release --no-default-features

say "crate graph: serving links no reference construction, obs off stays off"
# the paper's product/NTWA/FO(MTC) constructions and the tree automata
# are reference oracles: the serving crate must not link them, even
# through the facade
corpus_deps="$(cargo tree -p twx-corpus -e normal --offline --prefix none)"
for crate in twx-core twx-fotc twx-twa twx-treeauto; do
  if grep -q "^$crate " <<<"$corpus_deps"; then
    echo "twx-corpus links the reference crate $crate" >&2
    exit 1
  fi
done
# the overhead gate's disabled side: no dependency path may turn the one
# instrumentation switch back on in a --no-default-features facade build
obs_features="$(cargo tree -p treewalk --no-default-features -e features -i twx-obs --offline)"
if grep -q 'twx-obs feature "enabled"' <<<"$obs_features"; then
  echo "a --no-default-features facade build enables twx-obs/enabled" >&2
  exit 1
fi
echo "twx-corpus links none of twx-core/twx-fotc/twx-twa/twx-treeauto;" \
  "--no-default-features leaves twx-obs/enabled off"

say "docs (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# the suite shrinks only with the code it tests; a silent drop below
# the floor means tests were lost, not fixed
TEST_FLOOR=591

say "test suite"
test_log="$(mktemp -t twx_tests.XXXXXX.log)"
cargo test -q --workspace 2>&1 | tee "$test_log"

say "test-count floor"
python3 - "$test_log" "$TEST_FLOOR" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
floor = int(sys.argv[2])
passed = sum(int(m) for m in re.findall(r"(\d+) passed", text))
assert "FAILED" not in text, "test suite reported failures"
assert passed >= floor, f"test count regressed: {passed} < {floor}"
print(f"test-count floor: {passed} tests passed (floor {floor})")
EOF
rm -f "$test_log"

say "test suite (release)"
# the whole suite again without debug assertions, the way the shipped
# binaries run
cargo test -q --release --workspace

say "perfbench build (the benchmark builds against the workspace crates)"
# perfbench is its own workspace, so nothing above compiles it; removing
# an API it calls must fail here, not in the benchmark. Cargo may refresh
# perfbench/Cargo.lock while resolving path crates: keep the committed one
perfbench_lock="$(mktemp -t twx_perfbench_lock.XXXXXX)"
cp perfbench/Cargo.lock "$perfbench_lock"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cp "$perfbench_lock" perfbench/Cargo.lock
rm -f "$perfbench_lock"

say "conformance fuzz gate"
cargo build --release -p twx-conform --bin twx-fuzz
fuzz_out="$(mktemp -t twx_fuzz.XXXXXX.json)"
./target/release/twx-fuzz --seed 42 --iters 300 \
  --replay tests/corpus/regressions.jsonl > "$fuzz_out"
python3 - "$fuzz_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "twx-fuzz/1", doc.get("schema")
assert doc["iterations"] == 300, doc["iterations"]
assert doc["divergences"] == 0, doc
assert doc["replayed"] > 0, "golden corpus was not replayed"
assert doc["replay_divergences"] == 0, doc
routes = [r["route"] for r in doc["routes"]]
assert routes == ["naive", "raw-product", "product", "automaton", "logic",
                  "vm-cold", "vm", "service"], routes
# the gate reaches both star kernels: closure rounds and the one-way pass
assert doc["vm_round_evals"] > 0, doc["vm_round_evals"]
assert doc["vm_one_way_evals"] > 0, doc["vm_one_way_evals"]
print("twx-fuzz: 300 iterations +", doc["replayed"],
      "golden repros, 0 divergences across", len(doc["routes"]), "routes;",
      doc["vm_round_evals"], "vm evals ran rounds,", doc["vm_one_way_evals"],
      "a one-way pass")
EOF
rm -f "$fuzz_out"

say "conformance fuzz gate (multi-word documents)"
# the default gate's documents (<= 12 nodes) fit in one 64-bit word, so
# they never cross the word boundaries of the VM's interval fills or a
# sparse/dense round switch; 130 nodes spans three words
big_fuzz_out="$(mktemp -t twx_fuzz_big.XXXXXX.json)"
./target/release/twx-fuzz --seed 42 --iters 100 --max-doc-nodes 130 > "$big_fuzz_out"
python3 - "$big_fuzz_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "twx-fuzz/1", doc.get("schema")
assert doc["iterations"] == 100, doc["iterations"]
assert doc["divergences"] == 0, doc
# the gate reaches both star kernels: closure rounds and the one-way pass
assert doc["vm_round_evals"] > 0, doc["vm_round_evals"]
assert doc["vm_one_way_evals"] > 0, doc["vm_one_way_evals"]
print("twx-fuzz --max-doc-nodes 130: 100 iterations, 0 divergences across",
      len(doc["routes"]), "routes;", doc["vm_round_evals"], "vm evals ran rounds,",
      doc["vm_one_way_evals"], "a one-way pass")
EOF
rm -f "$big_fuzz_out"

say "vm fault self-test (vm=drop-max must be caught and shrunk)"
vm_fault_out="$(mktemp -t twx_vm_fault.XXXXXX.json)"
if ./target/release/twx-fuzz --seed 42 --iters 300 \
    --fault vm=drop-max > "$vm_fault_out"; then
  echo "a broken VM route was NOT caught" >&2
  exit 1
fi
python3 - "$vm_fault_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["divergences"] > 0, "vm fault injected but no divergence found"
for d in doc["found"]:
    assert d["routes"] == ["vm"], d["routes"]
    assert d["query_size"] <= 6, f"shrunk query still has {d['query_size']} AST nodes"
    assert d["doc_nodes"] <= 8, f"shrunk document still has {d['doc_nodes']} nodes"
print("vm fault self-test:", doc["divergences"], "divergences caught, repros",
      "shrunk to <=", max(d["query_size"] for d in doc["found"]), "AST nodes /",
      max(d["doc_nodes"] for d in doc["found"]), "doc nodes")
EOF
rm -f "$vm_fault_out"

say "mutation fuzz gate (live corpus + result cache)"
mut_out="$(mktemp -t twx_mutate.XXXXXX.json)"
./target/release/twx-fuzz --mutate --seed 42 --iters 300 > "$mut_out"
python3 - "$mut_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "twx-fuzz-mutate/1", doc.get("schema")
assert doc["iterations"] == 300, doc["iterations"]
assert doc["divergences"] == 0, doc
print("twx-fuzz --mutate: 300 edit scripts through the result cache,",
      "0 divergences in", doc["elapsed_ms"], "ms")
EOF
rm -f "$mut_out"

say "mutation fault self-test (cache=skip-invalidate must be caught)"
fault_out="$(mktemp -t twx_mutate_fault.XXXXXX.json)"
if ./target/release/twx-fuzz --mutate --seed 42 --iters 300 \
    --fault cache=skip-invalidate > "$fault_out"; then
  echo "unsound invalidation was NOT caught" >&2
  exit 1
fi
python3 - "$fault_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["fault"] == "cache=skip-invalidate", doc.get("fault")
assert doc["divergences"] > 0, "fault injected but no divergence found"
for d in doc["found"]:
    assert d["edits"] <= 6, f"shrunk repro still has {d['edits']} edits"
print("fault self-test:", doc["divergences"], "divergences caught,",
      "max", max(d["edits"] for d in doc["found"]), "edit(s) after shrinking")
EOF
rm -f "$fault_out"

say "crash-recovery fuzz gate (store-backed corpus killed and recovered)"
crash_out="$(mktemp -t twx_crash.XXXXXX.json)"
./target/release/twx-fuzz --crash --seed 42 --iters 300 > "$crash_out"
python3 - "$crash_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "twx-fuzz-crash/1", doc.get("schema")
assert doc["iterations"] == 300, doc["iterations"]
assert doc["divergences"] == 0, doc
print("twx-fuzz --crash: 300 corpora killed at arbitrary points,",
      "0 recovery divergences in", doc["elapsed_ms"], "ms")
EOF
rm -f "$crash_out"

say "crash fault self-test (store=skip-fsync must be caught and shrunk)"
crash_fault_out="$(mktemp -t twx_crash_fault.XXXXXX.json)"
if ./target/release/twx-fuzz --crash --seed 42 --iters 300 \
    --fault store=skip-fsync > "$crash_fault_out"; then
  echo "a store that lies about fsync was NOT caught" >&2
  exit 1
fi
python3 - "$crash_fault_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["fault"] == "store=skip-fsync", doc.get("fault")
assert doc["divergences"] > 0, "fault injected but no divergence found"
for d in doc["found"]:
    assert len(d["ops"]) <= 3, f"shrunk repro still has {len(d['ops'])} ops: {d}"
print("crash fault self-test:", doc["divergences"], "divergences caught,",
      "max", max(len(d["ops"]) for d in doc["found"]), "op(s) after shrinking")
EOF
rm -f "$crash_fault_out"

say "harness smoke run"
out="$(mktemp -t bench_harness.XXXXXX.json)"
trap 'rm -f "$out"' EXIT
cargo run --release -p twx-bench --bin harness -- --quick --json "$out" > /dev/null
python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "twx-bench/1", doc.get("schema")
assert doc["obs_enabled"] is True
assert len(doc["experiments"]) == 13, len(doc["experiments"])
assert len(doc["quickstart_profiles"]) == 1, doc["quickstart_profiles"]
vm_profile = doc["quickstart_profiles"][0]
assert vm_profile["result_count"] == 2, vm_profile
assert vm_profile["counters"]["plan_cache_misses"] == 1, vm_profile
assert vm_profile["compiled"]["vm_instrs"] > 0, vm_profile
cache = doc["plan_cache"]
assert cache["misses"] == 1 and cache["hits"] == 1, cache
e10 = doc["e10"]
assert len(e10["shards"]) >= 2, e10
for point in e10["shards"]:
    assert point["throughput_qps"] > 0, point
    for field in ("p50_us", "p95_us", "p99_us"):
        assert field in point, (field, point)
sat = e10["saturation"]
assert sat["rejected"] > 0, sat
assert sat["admitted"] + sat["rejected"] == sat["submitted"], sat
cs = e10["conn_sweep"]
assert len(cs) == 6 and {p["framing"] for p in cs} == {"ndjson", "binary"}, cs
for p in cs:
    assert p["accept_failures"] == 0 and p["io_errors"] == 0, p
    assert p["requests"] > 0 and p["throughput_qps"] > 0, p
    assert p["connect_p99_us"] > 0 and p["p99_us"] > 0, p
adm = e10["admission"]
assert adm["rejected"] > 0, adm
assert adm["admitted"] + adm["rejected"] == adm["attempted"], adm
assert adm["rejected"] == adm["server_rejected"], adm
e11 = doc["e11"]
assert e11["speedup"] > 1, e11["speedup"]
rc = e11["result_cache"]
assert rc["hit_rate"] > 0.5, rc
assert rc["carried"] > 0 and rc["invalidated"] > 0, rc
prec = e11["precision"]
assert prec["hit_after_disjoint_edit"] is True, prec
assert prec["miss_after_overlapping_edit"] is True, prec
e12 = doc["e12"]
assert e12["pool"] >= 5, e12["pool"]
assert e12["geomean_speedup_hot"] >= 2, (
    f"vm hot geomean speedup {e12['geomean_speedup_hot']:.2f}x below the 2x bar")
deep = e12["deep"]
assert deep["doc_size"] >= 20000, deep
assert len(deep["queries"]) == e12["pool"], deep
assert deep["geomean_speedup_hot"] >= 1, (
    f"vm slower than product on the deep doc: {deep['geomean_speedup_hot']:.2f}x")
one_way = [q for q in deep["queries"] if q["one_way"]]
assert {q["name"] for q in one_way} == {"filtered-closure", "even-depths",
                                        "even-depths-some"}, one_way
slow = [q for q in one_way if q["speedup_hot"] < 1]
assert not slow, f"vm slower than product on one-way deep rows: {slow}"
sel = e12["selective"]
assert len(sel["queries"]) == 16, sel
assert {q["doc_size"] for q in sel["queries"]} == {20000, 50000}, sel
assert {q["from"] for q in sel["queries"]} == {"root", "leaf"}, sel
slow = [q for q in sel["queries"] if q["speedup_hot"] < 1]
assert not slow, f"vm slower than product on selective-context rows: {slow}"
vm_cache = e12["vm_plan_cache"]
assert vm_cache["misses"] == e12["pool"], vm_cache
assert vm_cache["hits"] >= e12["pool"], vm_cache
e13 = doc["e13"]
assert e13["compression_ratio"] >= 4, (
    f"snapshot encoding only {e13['compression_ratio']:.2f}x smaller than the arena (bar: 4x)")
assert len(e13["recovery"]) == 4, e13["recovery"]
assert all(p["recover_ms"] > 0 for p in e13["recovery"]), e13["recovery"]
assert e13["snapshot"]["write_nodes_per_s"] > 0, e13["snapshot"]
assert e13["snapshot"]["load_nodes_per_s"] > 0, e13["snapshot"]
print("BENCH_HARNESS.json: schema ok,", len(doc["experiments"]), "experiments,",
      len(doc["quickstart_profiles"]), "profile, plan cache", cache)
print("e10:", len(e10["shards"]), "shard counts,",
      sat["rejected"], "of", sat["submitted"], "burst requests rejected")
print("e10 conn sweep: up to", max(p["conns"] for p in cs), "clients per framing,",
      "0 accept failures;", "admission:", adm["rejected"], "of",
      adm["attempted"], "typed-overloaded at cap", adm["max_conns"])
print("e11: %.1fx speedup, %.0f%% hit rate, %d carried / %d invalidated"
      % (e11["speedup"], 100 * rc["hit_rate"], rc["carried"], rc["invalidated"]))
print("e12: vm vs product geomean %.1fx hot / %.1fx cold over %d queries, %.1fx hot on the deep doc"
      " (one-way rows >= %.1fx), selective contexts >= %.1fx"
      % (e12["geomean_speedup_hot"], e12["geomean_speedup_cold"], e12["pool"],
         e12["deep"]["geomean_speedup_hot"], min(q["speedup_hot"] for q in one_way),
         e12["selective"]["min_speedup_hot"]))
print("e13: %.1fx compression (%.2f B/node on disk vs %d B arena), "
      "load %.1fM nodes/s"
      % (e13["compression_ratio"], e13["disk_bytes_per_node"],
         e13["arena_bytes_per_node"], e13["snapshot"]["load_nodes_per_s"] / 1e6))
EOF

say "observability overhead gate (enabled vs disabled, median of 15 pairs <=1.05x)"
# one pair of runs is noise-bound on a shared host (single pair ratios
# spread 0.7-1.4x on a 2-vCPU VM, about a quarter above 1.05 at either
# commit): run alternating enabled/disabled process pairs and gate on
# the median ratio. A probe run takes ~0.1 s, so 15 pairs cost seconds
probe_pairs=15
probe_dir="$(mktemp -d -t twx_probe.XXXXXX)"
cargo build --release --example overhead_probe
cp target/release/examples/overhead_probe "$probe_dir/on"
cargo build --release --no-default-features --example overhead_probe
cp target/release/examples/overhead_probe "$probe_dir/off"
for i in $(seq 1 "$probe_pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    "$probe_dir/on" > "$probe_dir/on_$i.json"
    "$probe_dir/off" > "$probe_dir/off_$i.json"
  else
    "$probe_dir/off" > "$probe_dir/off_$i.json"
    "$probe_dir/on" > "$probe_dir/on_$i.json"
  fi
done
python3 - "$probe_dir" "$probe_pairs" <<'EOF'
import json, statistics, sys
d, pairs = sys.argv[1], int(sys.argv[2])
ratios = []
for i in range(1, pairs + 1):
    on = json.load(open(f"{d}/on_{i}.json"))
    off = json.load(open(f"{d}/off_{i}.json"))
    assert on["schema"] == off["schema"] == "twx-overhead/1", (on, off)
    assert on["obs_enabled"] is True and off["obs_enabled"] is False, (on, off)
    assert on["matches_per_round"] == off["matches_per_round"], "probes did different work"
    ratio = on["min_round_ns"] / off["min_round_ns"]
    ratios.append(ratio)
    print(f"pair {i}: {ratio:.3f}x (enabled {on['min_round_ns']}ns, "
          f"disabled {off['min_round_ns']}ns, min of {on['rounds']} rounds)")
median = statistics.median(ratios)
assert median <= 1.05, (
    f"instrumentation overhead: median {median:.3f}x over {pairs} pairs exceeds 1.05x "
    f"(pair ratios {', '.join(f'{r:.3f}' for r in ratios)})")
print(f"overhead: median {median:.3f}x over {pairs} alternating pairs")
EOF
rm -rf "$probe_dir"

say "twx-serve round trip"
cargo build --release -p twx-corpus --bin twx-serve
serve_log="$(mktemp -t twx_serve.XXXXXX.log)"
cargo run --release -p twx-corpus --bin twx-serve -- \
  --port 0 --shards 2 --workers 2 --synthetic 6x40 --seed 1 > "$serve_log" 2>/dev/null &
serve_pid=$!
trap 'rm -f "$out" "$serve_log"; kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 300); do
  grep -q "listening" "$serve_log" && break
  sleep 0.1
done
port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$serve_log")"
if [ -z "$port" ]; then
  echo "twx-serve never reported a listening port:" >&2
  cat "$serve_log" >&2
  exit 1
fi
python3 - "$port" <<'EOF'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
f = s.makefile("rw")
def rpc(req):
    f.write(json.dumps(req) + "\n"); f.flush()
    return json.loads(f.readline())
r = rpc({"op": "query", "query": "down*[b]"})
assert r["ok"] and r["matches"] > 0 and len(r["docs"]) == 6, r
assert len(r["shards"]) == 2 and not r["timed_out"], r
up = rpc({"op": "update", "doc": 0,
          "edit": {"op": "relabel", "node": 0, "label": "b"}})
assert up["ok"] and up["version"] == 1 and up["seq"] == 1, up
r2 = rpc({"op": "query", "query": "down*[b]"})
assert r2["ok"], r2
assert {"doc": 0, "version": 1} .items() <= r2["docs"][0].items(), r2["docs"][0]
bad = rpc({"op": "query", "query": "down["})
assert not bad["ok"] and bad["error"] == "engine", bad
st = rpc({"op": "stats"})
assert st["ok"] and st["completed"] == 2 and st["workers"] == 2, st
assert st["updates"] == 1, st
# stats carries uptime, connection count, and latency percentiles
for key in ("uptime_s", "connections", "latency_p50_us", "latency_p90_us",
            "latency_p99_us", "latency_p999_us", "latency_count"):
    assert key in st, (key, st)
assert st["latency_count"] == 2 and st["connections"] >= 1, st
assert st["latency_p50_us"] <= st["latency_p99_us"], st
# a trace-flagged query returns the same answer plus an inline span tree
tr = rpc({"op": "query", "query": "down*[b]", "trace": True})
assert tr["ok"] and tr["matches"] == r2["matches"], (tr, r2)
assert "trace_id" in tr and len(tr["trace_id"]) == 16, tr
tree = tr["trace"]
assert tree["trace_id"] == tr["trace_id"], tree
root = tree["root"]
assert root["name"] == "request" and root["dur_ns"] > 0, root
stages = [c["name"] for c in root["children"]]
assert stages[0] == "prepare" and stages[-1] == "merge", stages
assert sum(s.startswith("shard") for s in stages) == 2, stages
# the metrics op ships a Prometheus text exposition; smoke-parse it
mx = rpc({"op": "metrics"})
assert mx["ok"], mx
seen = set()
for line in mx["metrics"].splitlines():
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        assert kind in ("gauge", "histogram"), line
        seen.add(name)
    else:
        sample, value = line.rsplit(" ", 1)
        float(value)
        assert any(sample.startswith(n) for n in seen), line
assert {"twx_service_request_ns", "twx_service_queue_wait_ns",
        "twx_service_shard_eval_ns", "twx_serve_uptime_seconds",
        "twx_serve_connections_total"} <= seen, seen
assert 'le="+Inf"} 3' in mx["metrics"], "request histogram count"
# the slow log retains every request so far, slowest first, with profiles
sl = rpc({"op": "slowlog"})
assert sl["ok"] and len(sl["entries"]) == 3, sl
lats = [e["latency_us"] for e in sl["entries"]]
assert lats == sorted(lats, reverse=True), lats
assert any(e["trace_id"] == tr["trace_id"] for e in sl["entries"]), sl
assert all("profile" in e and e["query"] for e in sl["entries"]), sl
# a filter whose tree-automaton satisfiability check runs to 6.56 M rules
# (~12 s, past this socket's 10 s timeout): a cold prepare stays bounded
# because nothing decides satisfiability, it parses, simplifies, compiles
hostile = rpc({"op": "query",
               "query": "down*[<down[a]> or <down[b]> or <down[c]>]"})
assert hostile["ok"] and not hostile["timed_out"], hostile
bye = rpc({"op": "shutdown"})
assert bye["ok"] and bye["shutting_down"], bye
print("twx-serve: query/update/stats/trace/metrics/slowlog/shutdown",
      "round trip ok on port", sys.argv[1])
EOF
wait "$serve_pid"

say "twx-serve 1k-connection soak (--max-conns admission at scale)"
soak_log="$(mktemp -t twx_soak.XXXXXX.log)"
trap 'rm -f "$out" "$serve_log" "$soak_log"; kill "$soak_pid" 2>/dev/null || true' EXIT
./target/release/twx-serve \
  --port 0 --shards 2 --workers 2 --synthetic 6x40 --seed 1 \
  --max-conns 900 > "$soak_log" 2>/dev/null &
soak_pid=$!
for _ in $(seq 1 300); do
  grep -q "listening" "$soak_log" && break
  sleep 0.1
done
port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$soak_log")"
[ -n "$port" ] || { echo "soak twx-serve never listened" >&2; exit 1; }
python3 - "$port" <<'EOF'
import json, resource, selectors, socket, sys, time
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (min(hard, 4096), hard))
port = int(sys.argv[1])
N, CAP = 1000, 900
socks = [socket.create_connection(("127.0.0.1", port), timeout=10)
         for _ in range(N)]
# admission is decided at accept time: a rejected connection is sent one
# typed line and closed, an admitted one stays silently open — so the
# readable sockets are exactly the rejected ones
sel = selectors.DefaultSelector()
for s in socks:
    s.setblocking(False)
    sel.register(s, selectors.EVENT_READ)
rejected = 0
deadline = time.time() + 30
while rejected < N - CAP and time.time() < deadline:
    for key, _ in sel.select(timeout=1):
        data = key.fileobj.recv(4096)
        assert data, "an admitted connection was closed by the server"
        line = json.loads(data.decode())
        assert line["error"] == "overloaded" and line["max_conns"] == CAP, line
        rejected += 1
        sel.unregister(key.fileobj)
        key.fileobj.close()
assert rejected == N - CAP, f"expected {N-CAP} typed rejections, saw {rejected}"
alive = [s for s in socks if s.fileno() != -1]
assert len(alive) == CAP, len(alive)
# the admitted connections are all live: query over a sample of them
for s in alive[::45]:
    s.setblocking(True)
    f = s.makefile("rw")
    f.write(json.dumps({"op": "query", "query": "down*[b]"}) + "\n"); f.flush()
    r = json.loads(f.readline())
    assert r["ok"] and r["matches"] > 0, r
for s in alive:
    s.close()
# the server reaps the hangups asynchronously; retry until a fresh
# connection is admitted again, then check the counters and shut down
st = None
for _ in range(100):
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    f = s.makefile("rw")
    f.write(json.dumps({"op": "stats"}) + "\n"); f.flush()
    reply = json.loads(f.readline())
    if reply.get("error") == "overloaded":
        s.close(); time.sleep(0.1); continue
    st = reply
    break
assert st is not None, "server never had room again after the soak closed"
assert st["conns_rejected"] == N - CAP, st["conns_rejected"]
assert st["max_conns"] == CAP and st["conns_open"] == 1, st
f.write(json.dumps({"op": "shutdown"}) + "\n"); f.flush()
assert json.loads(f.readline())["ok"]
print(f"soak: {N} clients against --max-conns {CAP}: {CAP} held open,",
      f"{N-CAP} typed overloaded rejections, sampled queries all answered")
EOF
wait "$soak_pid"

say "twx-serve kill -9 and restart (--store recovery over binary frames)"
store_dir="$(mktemp -d -t twx_serve_store.XXXXXX)"
rmdir "$store_dir" # twx-serve creates the store; mktemp only reserved a name
answer_file="$(mktemp -t twx_serve_answer.XXXXXX.json)"
serve2_log="$(mktemp -t twx_serve2.XXXXXX.log)"
trap 'rm -rf "$out" "$serve_log" "$serve2_log" "$answer_file" "$store_dir";
      kill "$serve_pid" 2>/dev/null || true;
      kill "$serve2_pid" 2>/dev/null || true' EXIT
./target/release/twx-serve \
  --port 0 --shards 2 --workers 2 --synthetic 6x40 --seed 1 \
  --store "$store_dir" > "$serve2_log" 2>/dev/null &
serve2_pid=$!
for _ in $(seq 1 300); do
  grep -q "listening" "$serve2_log" && break
  sleep 0.1
done
port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$serve2_log")"
[ -n "$port" ] || { echo "store-backed twx-serve never listened" >&2; exit 1; }
python3 - "$port" "$answer_file" <<'EOF'
import json, socket, struct, sys
MAGIC = b"\xf7TW\x01"
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
def recv_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        assert chunk, "server closed mid-frame"
        buf += chunk
    return buf
def rpc(req):
    payload = json.dumps(req).encode()
    s.sendall(MAGIC + struct.pack("<I", len(payload)) + payload)
    hdr = recv_exact(8)
    assert hdr[:4] == MAGIC, hdr
    return json.loads(recv_exact(struct.unpack("<I", hdr[4:])[0]))
# two journalled edits, an explicit snapshot between them: recovery must
# compose the snapshot generation with the journal tail
up = rpc({"op": "update", "doc": 0,
          "edit": {"op": "relabel", "node": 0, "label": "b"}})
assert up["ok"] and up["seq"] == 1, up
snap = rpc({"op": "snapshot"})
assert snap["ok"] and snap["seq"] == 1 and snap["snapshot_bytes"] > 0, snap
up2 = rpc({"op": "update", "doc": 1,
           "edit": {"op": "relabel", "node": 0, "label": "b"}})
assert up2["ok"] and up2["seq"] == 2, up2
r = rpc({"op": "query", "query": "down*[b]"})
assert r["ok"], r
json.dump({"matches": r["matches"], "docs": r["docs"]}, open(sys.argv[2], "w"))
EOF
kill -9 "$serve2_pid"
wait "$serve2_pid" 2>/dev/null || true
: > "$serve2_log"
./target/release/twx-serve \
  --port 0 --shards 2 --workers 2 --synthetic 6x40 --seed 1 \
  --store "$store_dir" > "$serve2_log" 2>/dev/null &
serve2_pid=$!
for _ in $(seq 1 300); do
  grep -q "listening" "$serve2_log" && break
  sleep 0.1
done
port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$serve2_log")"
[ -n "$port" ] || { echo "twx-serve did not come back after kill -9" >&2; exit 1; }
python3 - "$port" "$answer_file" <<'EOF'
import json, socket, struct, sys
MAGIC = b"\xf7TW\x01"
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
def recv_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        assert chunk, "server closed mid-frame"
        buf += chunk
    return buf
def rpc(req):
    payload = json.dumps(req).encode()
    s.sendall(MAGIC + struct.pack("<I", len(payload)) + payload)
    hdr = recv_exact(8)
    assert hdr[:4] == MAGIC, hdr
    return json.loads(recv_exact(struct.unpack("<I", hdr[4:])[0]))
before = json.load(open(sys.argv[2]))
r = rpc({"op": "query", "query": "down*[b]"})
assert r["ok"], r
got = {"matches": r["matches"], "docs": r["docs"]}
assert got == before, f"recovered answers differ:\n  pre-kill {before}\n  post    {got}"
# doc 1's edit lived only in the journal tail; its version must survive
assert any(d["doc"] == 1 and d["version"] == 1 for d in r["docs"]), r["docs"]
bye = rpc({"op": "shutdown"})
assert bye["ok"], bye
print("twx-serve --store: kill -9 mid-journal, restart over binary frames,",
      "and every answer matched node-for-node (snapshot + journal-tail replay)")
EOF
wait "$serve2_pid"

say "all checks passed"
