#!/usr/bin/env bash
# Tier-1 verification: plain build + tests, then the same suite
# under AddressSanitizer + UndefinedBehaviorSanitizer, then the
# measurement-pool, CSP sampling, serving, and TCP front-end tests
# under ThreadSanitizer. Each non-tsan preset also smoke-tests the
# observability path (a tiny heron_tune run with --trace/--metrics
# whose outputs must parse as JSON), the serving loop (heron_serve
# --stdio driven over its NDJSON protocol, including the metrics
# command's windowed quantiles), and the TCP front-end (concurrent
# socket clients through a miss -> tune -> exact flow, a live
# Prometheus scrape validated for HELP/TYPE pairs and
# cumulative-monotone le buckets, then a SIGTERM graceful drain
# that must exit 0, persist the store, and flush a line-valid JSONL
# access log), plus the WAL-store crash harness (20 SIGKILLs at
# random points with zero acknowledged-record loss and corruption
# quarantine) and the ENOSPC degraded-mode smoke (fault-injected
# appends -> 503 /healthz -> auto-recovery). The plain preset
# additionally runs the CSP solver and serving benches, which write
# BENCH_csp_solver.json / BENCH_serve.json and assert SampleBatch
# determinism, the 100k-lookups/sec exact-hit floor, the <5%
# windowed-metrics overhead budget, the O(1) WAL persist
# (store-size-independent append latency), and — on machines with
# >= 4 cores only; reported as skipped elsewhere — the parallel
# scaling floors (effective_parallelism >= 0.7 at 4 solver-pool
# workers and 4 registry reader threads). Fresh bench artifacts are
# then diffed against the committed ones (scripts/bench_diff.py,
# advisory). Every stage runs even after an earlier one fails; the
# failed stages are listed at the end and the exit status is
# non-zero. "verify: OK" means every stage passed.
#
# Usage: scripts/verify.sh [--no-asan] [--no-tsan]
set -euo pipefail

cd "$(dirname "$0")/.."

run_asan=1
run_tsan=1
for arg in "$@"; do
    case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

# Run a tiny profiled tuning job out of $1 (a preset's build dir)
# and validate the trace/metrics/telemetry files it writes.
smoke_observability() {
    local build_dir="$1"
    echo "== observability smoke test ($build_dir) =="
    local out="$build_dir/observability-smoke"
    rm -rf "$out"
    mkdir -p "$out"
    "$build_dir/examples/heron_tune" \
        --dla v100 --op c2d --shape 1,16,14,14,16,3,3,1,1 \
        --trials 8 \
        --trace "$out/trace.json" \
        --metrics "$out/metrics.json" \
        --telemetry "$out/telemetry.jsonl" \
        > "$out/stdout.txt"
    grep -q "Observability summary" "$out/stdout.txt"
    python3 - "$out" <<'EOF'
import json, sys, os
out = sys.argv[1]
trace = json.load(open(os.path.join(out, "trace.json")))
assert trace["traceEvents"], "empty trace"
metrics = json.load(open(os.path.join(out, "metrics.json")))
assert metrics["counters"].get("csp.propagations", 0) > 0, metrics
rounds = [json.loads(line)
          for line in open(os.path.join(out, "telemetry.jsonl"))]
assert rounds and all("round" in r for r in rounds), rounds
print("observability smoke: OK "
      f"({len(trace['traceEvents'])} events, {len(rounds)} rounds)")
EOF
}

# CSP solver throughput smoke out of $1 (a preset's build dir):
# every workload must actually solve, the SampleBatch results must
# be worker-count invariant (the bench exits nonzero on a
# determinism violation), and the JSON artifact must parse. The
# persistent-pool scaling assertion (effective_parallelism >= 0.7
# at 4 workers) only runs on boxes with >= 4 cores; elsewhere it is
# reported as skipped, never as passed.
smoke_csp_bench() {
    local build_dir="$1"
    echo "== csp solver bench smoke ($build_dir) =="
    "$build_dir/bench/micro_csp_solver" --out BENCH_csp_solver.json
    python3 - <<'EOF'
import json
bench = json.load(open("BENCH_csp_solver.json"))
assert bench["workloads"], bench
cores = bench["hardware_concurrency"]
scaling = bench["batch_scaling"]
assert scaling["status"] in ("measured", "skipped"), scaling
assert (scaling["status"] == "measured") == (cores >= 4), scaling
for w in bench["workloads"]:
    assert w["plain"]["solved"] > 0, w
    assert w["offspring"]["solved"] > 0, w
    assert w["batch_deterministic"], w
    for point in w["batch"]:
        assert "speedup" in point, point
        assert "effective_parallelism" in point, point
    four = next(p for p in w["batch"] if p["workers"] == 4)
    if scaling["status"] == "measured":
        assert four["effective_parallelism"] >= 0.7, \
            f"{w['name']}: 4-worker pool scaled poorly on a " \
            f"{cores}-core box: {four}"
if scaling["status"] == "measured":
    note = "4-worker eff-par asserted >= 0.7"
else:
    note = f"scaling SKIPPED ({scaling['reason']})"
print("csp bench smoke: OK "
      f"({len(bench['workloads'])} workloads, {note})")
EOF
}

# Serving smoke out of $1 (a preset's build dir): drive heron_serve
# over the NDJSON protocol through a miss -> tune -> exact-hit ->
# nearest-fallback flow, assert the tier counters, then restart on
# the persisted store and confirm it answers exactly without
# retuning.
smoke_serve() {
    local build_dir="$1"
    echo "== serving smoke test ($build_dir) =="
    local out="$build_dir/serve-smoke"
    rm -rf "$out"
    mkdir -p "$out"
    printf '%s\n' \
        '{"id":1,"op":"gemm","shape":[512,512,512]}' \
        '{"id":2,"cmd":"drain"}' \
        '{"id":3,"op":"gemm","shape":[512,512,512]}' \
        '{"id":4,"op":"gemm","shape":[256,512,512]}' \
        '{"id":5,"cmd":"stats"}' \
        '{"id":6,"cmd":"quit"}' \
        | "$build_dir/examples/heron_serve" \
            --stdio --dla v100 --store-dir "$out/store" \
            --tune-on-miss --trials 24 --seed 3 \
            > "$out/pass1.txt" 2> "$out/pass1.err"
    printf '%s\n' \
        '{"id":1,"op":"gemm","shape":[512,512,512]}' \
        '{"id":2,"cmd":"stats"}' \
        '{"id":3,"cmd":"metrics"}' \
        | "$build_dir/examples/heron_serve" \
            --stdio --dla v100 --store-dir "$out/store" \
            > "$out/pass2.txt" 2> "$out/pass2.err"
    python3 - "$out" <<'EOF'
import json, sys, os
out = sys.argv[1]
p1 = [json.loads(line) for line in open(os.path.join(out, "pass1.txt"))]
by_id = {r["id"]: r for r in p1}
assert by_id[1]["tier"] == "miss" and by_id[1]["enqueued"], by_id[1]
assert by_id[3]["tier"] == "exact", by_id[3]
assert by_id[3]["assignment"], by_id[3]
assert by_id[4]["tier"] == "nearest", by_id[4]
assert by_id[4]["served_from"] == by_id[3]["key"], by_id[4]
tiers = by_id[5]["tiers"]
assert tiers["exact"] == 1 and tiers["nearest"] == 1, tiers
assert tiers["miss"] == 1, tiers
# The nearest hit re-enqueues its workload; depending on timing it
# may already have tuned by the time stats is answered.
assert by_id[5]["queue"]["completed"] >= 1, by_id[5]
p2 = [json.loads(line) for line in open(os.path.join(out, "pass2.txt"))]
by_id2 = {r["id"]: r for r in p2}
assert by_id2[1]["tier"] == "exact", by_id2[1]
assert by_id2[2]["tiers"]["miss"] == 0, by_id2[2]
stats2 = by_id2[2]
assert stats2["uptime_s"] >= 0 and stats2["pid"] > 0, stats2
assert stats2["build"]["compiler"], stats2
m = by_id2[3]
windows = m["windows"]
lookup = windows["serve.window.lookup_us"]
# The exact lookup from request 1 must land in the last-60s window.
assert lookup["count"] >= 1, lookup
assert lookup["p95"] > 0, lookup
assert windows["serve.window.tier.exact_us"]["count"] >= 1, windows
assert m["counters"], m
print("serving smoke: OK (miss->tune->exact, nearest fallback, "
      "store reload, metrics command)")
EOF
}

# TCP front-end smoke out of $1: start heron_serve on an ephemeral
# port, drive a miss -> tune -> exact flow plus concurrent socket
# clients (which must all answer exact and expose the queue
# counters in stats), then SIGTERM it — the drain must exit 0 and
# persist the store. A second server restarted on that store must
# answer exact over TCP without retuning.
smoke_serve_tcp() {
    local build_dir="$1"
    echo "== TCP serving smoke test ($build_dir) =="
    local out="$build_dir/serve-tcp-smoke"
    rm -rf "$out"
    mkdir -p "$out"

    wait_for_port() {
        local port_file="$1" pid="$2"
        for _ in $(seq 100); do
            [[ -s "$port_file" ]] && return 0
            kill -0 "$pid" 2> /dev/null || break
            sleep 0.1
        done
        echo "heron_serve never published its port" >&2
        return 1
    }

    "$build_dir/examples/heron_serve" \
        --dla v100 --store-dir "$out/store" \
        --tune-on-miss --trials 24 --seed 3 \
        --port 0 --port-file "$out/port.txt" \
        --metrics-port 0 \
        --metrics-port-file "$out/metrics-port.txt" \
        --access-log "$out/access.jsonl" \
        > /dev/null 2> "$out/server1.err" &
    local server_pid=$!
    wait_for_port "$out/port.txt" "$server_pid"
    wait_for_port "$out/metrics-port.txt" "$server_pid"

    python3 - "$out/port.txt" <<'EOF'
import json, socket, sys, threading

port = int(open(sys.argv[1]).read().strip())

def rpc(sock, reader, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    line = reader.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)

main = socket.create_connection(("127.0.0.1", port), 30)
main.settimeout(120)
reader = main.makefile("r")
first = rpc(main, reader, {"id": 1, "op": "gemm",
                           "shape": [512, 512, 512]})
assert first["tier"] == "miss" and first["enqueued"], first
drained = rpc(main, reader, {"id": 2, "cmd": "drain"})
assert drained["drained"] is True, drained
exact = rpc(main, reader, {"id": 3, "op": "gemm",
                           "shape": [512, 512, 512],
                           "deadline_ms": 60000})
assert exact["tier"] == "exact" and exact["assignment"], exact

# Concurrent clients over their own sockets: all must hit exact.
results = {}
def client(idx):
    s = socket.create_connection(("127.0.0.1", port), 30)
    s.settimeout(60)
    r = s.makefile("r")
    results[idx] = rpc(s, r, {"id": idx, "op": "gemm",
                              "shape": [512, 512, 512]})
    s.close()

threads = [threading.Thread(target=client, args=(i,))
           for i in range(10, 18)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert len(results) == 8, results
for r in results.values():
    assert r["tier"] == "exact", r

stats = rpc(main, reader, {"id": 4, "cmd": "stats"})
assert stats["tiers"]["exact"] >= 9, stats
queue = stats["queue"]
assert queue["completed"] >= 1, queue
for key in ("depth", "capacity", "in_flight", "rejected_full",
            "untunable"):
    assert key in queue, queue
main.close()
print("tcp smoke: miss->tune->exact over sockets, "
      f"{len(results)} concurrent exact hits")
EOF

    # Scrape the Prometheus endpoint while the server is live and
    # validate the exposition format: every family has HELP/TYPE,
    # histogram le buckets are cumulative-monotone and end at +Inf,
    # and no SLO-controller family is exposed.
    curl -sf "http://127.0.0.1:$(cat "$out/metrics-port.txt")/metrics" \
        > "$out/prom.txt"
    python3 - "$out/prom.txt" <<'EOF'
import re, sys

lines = open(sys.argv[1]).read().splitlines()
helps, types, samples = set(), {}, {}
for line in lines:
    if line.startswith("# HELP "):
        helps.add(line.split()[2])
    elif line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        types[name] = kind
    elif line and not line.startswith("#"):
        m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
                     r'(\{[^}]*\})? (\S+)$', line)
        assert m, f"malformed sample line: {line!r}"
        samples.setdefault(m.group(1), []).append(
            (m.group(2) or "", float(m.group(3))))

assert types, "no TYPE lines scraped"
for name in types:
    assert name in helps, f"{name} has TYPE but no HELP"

histograms = [n for n, k in types.items() if k == "histogram"]
assert histograms, "no histogram families scraped"
for name in histograms:
    buckets = samples.get(name + "_bucket", [])
    assert buckets, f"{name} has no buckets"
    les, counts = [], []
    for labels, value in buckets:
        m = re.search(r'le="([^"]+)"', labels)
        assert m, f"{name} bucket without le: {labels}"
        les.append(m.group(1))
        counts.append(value)
    assert les[-1] == "+Inf", f"{name} buckets do not end at +Inf"
    bounds = [float(le) for le in les[:-1]]
    assert bounds == sorted(bounds), f"{name} le bounds not sorted"
    assert counts == sorted(counts), \
        f"{name} cumulative counts not monotone: {counts}"
    assert counts[-1] == samples[name + "_count"][0][1], name

slo = [n for n in types if n.startswith("heron_serve_slo_")]
assert not slo, f"unexpected SLO families: {slo}"
windows = [n for n, k in types.items() if k == "summary"]
assert any("lookup" in n for n in windows), windows
print(f"tcp smoke: prometheus scrape OK ({len(types)} families, "
      f"{len(histograms)} histograms, {len(windows)} windows)")
EOF

    kill -TERM "$server_pid"
    local rc=0
    wait "$server_pid" || rc=$?
    if [[ "$rc" != 0 ]]; then
        echo "heron_serve exited $rc after SIGTERM (want 0)" >&2
        cat "$out/server1.err" >&2
        return 1
    fi
    # The drain compacts the write-ahead log into a snapshot.
    local snapshot
    snapshot=$(compgen -G "$out/store/snapshot-*.jsonl" | head -n 1 ||
        true)
    if [[ -z "$snapshot" || ! -s "$snapshot" ]]; then
        echo "drain did not persist the store" >&2
        return 1
    fi

    # The drain must have flushed the access log; every line is one
    # strict JSON object (python3 -m json.tool rejects anything
    # torn) and the request ids we sent appear in it.
    if [[ ! -s "$out/access.jsonl" ]]; then
        echo "drain did not flush the access log" >&2
        return 1
    fi
    while IFS= read -r line; do
        printf '%s' "$line" | python3 -m json.tool > /dev/null || {
            echo "access log line is not valid JSON: $line" >&2
            return 1
        }
    done < "$out/access.jsonl"
    python3 - "$out/access.jsonl" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines, "access log empty"
requests = [l for l in lines if "endpoint" in l]
assert requests, lines
for r in requests:
    assert "total_us" in r and "ok" in r, r
print(f"tcp smoke: access log OK ({len(lines)} lines, "
      f"{len(requests)} requests)")
EOF

    # Pass 2: a fresh server on the persisted store answers exact
    # over TCP without any tuning.
    "$build_dir/examples/heron_serve" \
        --dla v100 --store-dir "$out/store" \
        --port 0 --port-file "$out/port2.txt" \
        > /dev/null 2> "$out/server2.err" &
    server_pid=$!
    wait_for_port "$out/port2.txt" "$server_pid"
    python3 - "$out/port2.txt" <<'EOF'
import json, socket, sys

port = int(open(sys.argv[1]).read().strip())
s = socket.create_connection(("127.0.0.1", port), 30)
s.settimeout(60)
reader = s.makefile("r")
s.sendall(b'{"id":1,"op":"gemm","shape":[512,512,512]}\n')
r = json.loads(reader.readline())
assert r["tier"] == "exact", r
s.close()
print("tcp smoke: store reload serves exact")
EOF
    kill -TERM "$server_pid"
    rc=0
    wait "$server_pid" || rc=$?
    if [[ "$rc" != 0 ]]; then
        echo "restarted heron_serve exited $rc after SIGTERM" >&2
        cat "$out/server2.err" >&2
        return 1
    fi
    echo "tcp smoke: OK (clean SIGTERM drains, store persisted)"
}

# Whole-network graph serving smoke out of $1: submit ResNet-50
# (batch 16) as one {"cmd":"graph"} request over TCP against a cold
# registry — the dedupe must collapse repeated layers, every
# distinct layer must be scheduled for tuning (payoff order), and
# after the tune queue drains a graph_status poll must report
# convergence. A follow-up graph request must emit a dispatch
# header covering every layer that compiles standalone.
smoke_graph() {
    local build_dir="$1"
    echo "== graph serving smoke test ($build_dir) =="
    local out="$build_dir/graph-smoke"
    rm -rf "$out"
    mkdir -p "$out/libs"

    wait_for_port() {
        local port_file="$1" pid="$2"
        for _ in $(seq 100); do
            [[ -s "$port_file" ]] && return 0
            kill -0 "$pid" 2> /dev/null || break
            sleep 0.1
        done
        echo "heron_serve never published its port" >&2
        return 1
    }

    "$build_dir/examples/heron_serve" \
        --dla v100 --graph-dir "$out/libs" \
        --tune-on-miss --trials 6 --seed 5 \
        --queue-capacity 64 \
        --port 0 --port-file "$out/port.txt" \
        > /dev/null 2> "$out/server.err" &
    local server_pid=$!
    wait_for_port "$out/port.txt" "$server_pid" || {
        cat "$out/server.err" >&2
        return 1
    }

    python3 - "$out/port.txt" "$out/header.txt" <<'EOF'
import json, socket, sys

port = int(open(sys.argv[1]).read().strip())
s = socket.create_connection(("127.0.0.1", port), 30)
s.settimeout(600)
reader = s.makefile("r")

def rpc(obj):
    s.sendall((json.dumps(obj) + "\n").encode())
    line = reader.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)

# Cold graph: every distinct layer misses, the whole
# model lands on the tune queue in payoff order.
first = rpc({"id": 1, "cmd": "graph", "network": "resnet50",
             "batch": 16})
assert first["deduped"] > 0, first
assert first["tiers"]["miss"] == first["layers"], first
assert first["scheduled"] == first["layers"], first
assert not first["converged"], first
payoffs = [l["payoff"] for l in first["layer_status"]]
assert any(payoffs[i] < payoffs[i + 1]
           for i in range(len(payoffs) - 1)), \
    "layer payoffs monotone in network order: schedule would be " \
    "indistinguishable from FIFO"

# Drain the background tuner, then poll: miss -> scheduled ->
# exact convergence (the poll itself re-dispatches stragglers).
for _ in range(32):
    drained = rpc({"id": 2, "cmd": "drain"})
    assert drained["drained"] is True, drained
    status = rpc({"id": 3, "cmd": "graph_status",
                  "graph": first["graph"]})
    if status["converged"]:
        break
else:
    raise AssertionError(f"graph never converged: {status}")
assert status["tiers"]["exact"] == status["layers"], status
assert status["coverage"] == 1.0, status

# A converged model compiles into one library: every layer
# dispatches, shared kernels are emitted once.
second = rpc({"id": 4, "cmd": "graph", "network": "resnet50",
              "batch": 16, "emit": "inline"})
assert second["converged"], second
assert second["emitted"] == second["layers"], second
assert second["library"], second
open(sys.argv[2], "w").write(second["header"])

stats = rpc({"id": 5, "cmd": "stats"})
assert stats["graph"]["requests"] >= 2, stats
assert stats["graph"]["deduped"] > 0, stats
assert stats["graph"]["scheduled"] >= first["scheduled"], stats
print(f"graph smoke: {first['layers']} layers "
      f"({first['deduped']} deduped), {first['scheduled']} "
      f"scheduled, converged, {second['emitted']} kernels emitted")
s.close()
EOF

    # The emitted dispatch header is self-contained C++: the header
    # written server-side and the inline copy must both compile.
    local emitted
    emitted=$(ls "$out/libs"/graph_*.h 2> /dev/null | tail -1)
    if [[ -z "$emitted" ]]; then
        echo "no dispatch header written to --graph-dir" >&2
        return 1
    fi
    c++ -std=c++17 -fsyntax-only -x c++ "$emitted" || {
        echo "emitted dispatch header does not compile" >&2
        return 1
    }
    c++ -std=c++17 -fsyntax-only -x c++ "$out/header.txt" || {
        echo "inline dispatch header does not compile" >&2
        return 1
    }

    kill -TERM "$server_pid"
    local rc=0
    wait "$server_pid" || rc=$?
    if [[ "$rc" != 0 ]]; then
        echo "heron_serve exited $rc after SIGTERM (want 0)" >&2
        cat "$out/server.err" >&2
        return 1
    fi
    echo "graph smoke: OK (resolve, payoff schedule," \
        "converged, emitted library compiles)"
}

# Crash-recovery chaos harness out of $1: run heron_serve on a WAL
# store dir, tune shapes to exact-tier acknowledgment, SIGKILL the
# server at random points (mid-tune, mid-append, mid-compaction),
# restart on the same dir, and assert that every acknowledged
# record is still served exact — 20 iterations, zero startup
# failures. One iteration also corrupts the newest segment's tail,
# which the next startup must quarantine (renamed aside + counted)
# without losing acknowledged records.
smoke_store_crash() {
    local build_dir="$1"
    echo "== store crash-recovery smoke ($build_dir) =="
    local out="$build_dir/store-crash-smoke"
    rm -rf "$out"
    mkdir -p "$out"
    python3 - "$build_dir/examples/heron_serve" "$out" <<'EOF'
import json, os, random, signal, socket, subprocess, sys, time

binary, out = sys.argv[1], sys.argv[2]
store_dir = os.path.join(out, "store")
random.seed(7)

def start():
    port_file = os.path.join(out, "port.txt")
    try:
        os.remove(port_file)
    except FileNotFoundError:
        pass
    proc = subprocess.Popen(
        [binary, "--dla", "v100", "--store-dir", store_dir,
         "--segment-bytes", "2048", "--compact-segments", "2",
         "--tune-on-miss", "--trials", "16", "--seed", "5",
         "--no-fallback",
         "--port", "0", "--port-file", port_file],
        stdout=subprocess.DEVNULL,
        stderr=open(os.path.join(out, "server.err"), "ab"))
    for _ in range(600):
        if os.path.exists(port_file) and os.path.getsize(port_file):
            break
        assert proc.poll() is None, \
            f"server failed to start: rc={proc.returncode}"
        time.sleep(0.05)
    else:
        raise AssertionError("server never published its port")
    port = int(open(port_file).read().strip())
    sock = socket.create_connection(("127.0.0.1", port), 30)
    sock.settimeout(120)
    return proc, sock, sock.makefile("r")

def rpc(sock, reader, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    line = reader.readline()
    assert line, "connection closed"
    return json.loads(line)

acked = []
quarantined_seen = False
shape_id = 0
for iteration in range(20):
    proc, sock, reader = start()
    health = rpc(sock, reader, {"id": 1, "cmd": "health"})
    assert health["status"] == "ok", health
    if iteration == 10:
        # Startup right after the corruption injection: the damaged
        # segment must be quarantined, not fatal.
        assert health["store"]["quarantined"] >= 1, health
        assert any(f.endswith(".quarantined")
                   for f in os.listdir(store_dir)), \
            os.listdir(store_dir)
        quarantined_seen = True
    # Zero acknowledged-record loss across every prior kill.
    for i, m in enumerate(acked):
        r = rpc(sock, reader, {"id": 100 + i, "op": "gemm",
                               "shape": [m, 64, 64]})
        assert r["tier"] == "exact", \
            f"iteration {iteration}: acked m={m} lost: {r}"
    # Tune one new shape to exact-tier acknowledgment (an exact
    # answer implies the record hit the WAL before publish).
    m = 64 + 8 * shape_id
    shape_id += 1
    r = rpc(sock, reader,
            {"id": 2, "op": "gemm", "shape": [m, 64, 64]})
    assert r["tier"] == "miss" and r["enqueued"], r
    rpc(sock, reader, {"id": 3, "cmd": "drain"})
    r = rpc(sock, reader,
            {"id": 4, "op": "gemm", "shape": [m, 64, 64]})
    assert r["tier"] == "exact", r
    acked.append(m)
    # Enqueue one more tune and SIGKILL at a random point inside
    # it, so kills land at varied WAL positions. That tune was
    # never acknowledged, so it is allowed to vanish.
    m2 = 64 + 8 * shape_id
    shape_id += 1
    rpc(sock, reader,
        {"id": 5, "op": "gemm", "shape": [m2, 64, 64]})
    time.sleep(random.uniform(0.0, 0.2))
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    sock.close()
    if iteration == 9:
        segs = sorted(f for f in os.listdir(store_dir)
                      if f.startswith("seg-") and
                      f.endswith(".wal"))
        assert segs, os.listdir(store_dir)
        with open(os.path.join(store_dir, segs[-1]), "ab") as f:
            f.write(b"garbage line, not a framed record\n")

assert len(acked) == 20 and quarantined_seen
print(f"store crash smoke: OK (20 SIGKILL iterations, "
      f"{len(acked)} acknowledged records all recovered, "
      f"corruption quarantined)")
EOF
}

# Degraded-mode smoke out of $1: inject ENOSPC into the WAL append
# path via HERON_FS_FAULT. The server must keep serving lookups,
# reject tune intake with explicit degraded responses, answer 503
# on /healthz, log store_degraded/store_recovered access-log
# events, auto-recover once the fault budget is exhausted, and
# serve every tuned record after a restart.
smoke_store_degraded() {
    local build_dir="$1"
    echo "== store degraded-mode smoke ($build_dir) =="
    local out="$build_dir/store-degraded-smoke"
    rm -rf "$out"
    mkdir -p "$out"
    python3 - "$build_dir/examples/heron_serve" "$out" <<'EOF'
import json, os, signal, socket, subprocess, sys, time
import urllib.error, urllib.request

binary, out = sys.argv[1], sys.argv[2]
store_dir = os.path.join(out, "store")

def start(env_fault=None):
    env = dict(os.environ)
    env.pop("HERON_FS_FAULT", None)
    if env_fault:
        env["HERON_FS_FAULT"] = env_fault
    for f in ("port.txt", "metrics-port.txt"):
        try:
            os.remove(os.path.join(out, f))
        except FileNotFoundError:
            pass
    proc = subprocess.Popen(
        [binary, "--dla", "v100", "--store-dir", store_dir,
         "--tune-on-miss", "--trials", "16", "--seed", "5",
         "--no-fallback", "--store-retry-ms", "200",
         "--port", "0",
         "--port-file", os.path.join(out, "port.txt"),
         "--metrics-port", "0",
         "--metrics-port-file", os.path.join(out,
                                             "metrics-port.txt"),
         "--access-log", os.path.join(out, "access.jsonl")],
        env=env, stdout=subprocess.DEVNULL,
        stderr=open(os.path.join(out, "server.err"), "ab"))
    for _ in range(600):
        ready = all(
            os.path.exists(os.path.join(out, f)) and
            os.path.getsize(os.path.join(out, f))
            for f in ("port.txt", "metrics-port.txt"))
        if ready:
            break
        assert proc.poll() is None, \
            f"server failed to start: rc={proc.returncode}"
        time.sleep(0.05)
    else:
        raise AssertionError("server never published its ports")
    port = int(open(os.path.join(out, "port.txt")).read())
    mport = int(open(os.path.join(out,
                                  "metrics-port.txt")).read())
    sock = socket.create_connection(("127.0.0.1", port), 30)
    sock.settimeout(120)
    return proc, sock, sock.makefile("r"), mport

def rpc(sock, reader, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    line = reader.readline()
    assert line, "connection closed"
    return json.loads(line)

def healthz(mport):
    url = f"http://127.0.0.1:{mport}/healthz"
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()

# The first WAL append and the next three probe retries fail with
# ENOSPC, then the path heals: a real out-of-space episode in
# miniature.
proc, sock, reader, mport = start("store.append:fail=4")

r = rpc(sock, reader,
        {"id": 1, "op": "gemm", "shape": [64, 64, 64]})
assert r["tier"] == "miss" and r["enqueued"], r
rpc(sock, reader, {"id": 2, "cmd": "drain"})
# The tuned record is served from memory even though its persist
# failed — degraded is read-mostly, not down.
r = rpc(sock, reader,
        {"id": 3, "op": "gemm", "shape": [64, 64, 64]})
assert r["tier"] == "exact", r

health = rpc(sock, reader, {"id": 4, "cmd": "health"})
assert health["status"] == "degraded", health
assert health["store"]["append_failures"] >= 1, health
assert health["store"]["unflushed"] >= 1, health
code, body = healthz(mport)
assert code == 503 and "degraded" in body, (code, body)

# Tune intake is paused with an explicit rejection while degraded.
r = rpc(sock, reader,
        {"id": 5, "op": "gemm", "shape": [96, 64, 64]})
assert r["tier"] == "miss", r
assert not r["enqueued"], r
assert r.get("degraded") == 1, r
stats = rpc(sock, reader, {"id": 6, "cmd": "stats"})
assert stats["queue"]["rejected_degraded"] >= 1, stats
assert stats["store"]["state"] == "degraded", stats

# Backoff probes burn through the fault budget: auto-recovery.
deadline = time.time() + 30
while time.time() < deadline:
    health = rpc(sock, reader, {"id": 7, "cmd": "health"})
    if health["status"] == "ok":
        break
    time.sleep(0.2)
assert health["status"] == "ok", health
assert health["store"]["recoveries"] >= 1, health
assert health["store"]["unflushed"] == 0, health
code, body = healthz(mport)
assert code == 200 and '"status":"ok"' in body, (code, body)

# Intake resumes after recovery.
r = rpc(sock, reader,
        {"id": 8, "op": "gemm", "shape": [96, 64, 64]})
assert r["tier"] == "miss" and r["enqueued"], r
rpc(sock, reader, {"id": 9, "cmd": "drain"})
r = rpc(sock, reader,
        {"id": 10, "op": "gemm", "shape": [96, 64, 64]})
assert r["tier"] == "exact", r
sock.close()

proc.send_signal(signal.SIGTERM)
assert proc.wait(120) == 0, proc.returncode

# The outage and the recovery are both visible to operators.
events = [json.loads(l)
          for l in open(os.path.join(out, "access.jsonl"))]
kinds = {e.get("event") for e in events}
assert "store_degraded" in kinds, kinds
assert "store_recovered" in kinds, kinds

# Everything tuned before, during, and after the outage survives
# a restart (the degraded-spell record via the recovery flush).
proc, sock, reader, mport = start()
for rid, m in ((11, 64), (12, 96)):
    r = rpc(sock, reader,
            {"id": rid, "op": "gemm", "shape": [m, 64, 64]})
    assert r["tier"] == "exact", (m, r)
proc.send_signal(signal.SIGTERM)
assert proc.wait(120) == 0, proc.returncode
print("store degraded smoke: OK (ENOSPC -> degraded read-only, "
      "503 /healthz, intake rejected, auto-recovery, durable)")
EOF
}

# Serving throughput smoke out of $1: the exact-hit path must
# sustain at least 100k lookups/sec single-threaded and never
# misserve (the bench exits nonzero when an exact-hit query is
# answered from another tier). Multi-thread scaling is only
# asserted on multi-core boxes — on one core "2 threads" measures
# timeslicing, not parallelism, and the JSON records that honestly
# via hardware_concurrency / effective_parallelism.
smoke_serve_bench() {
    local build_dir="$1"
    echo "== serve bench smoke ($build_dir) =="
    "$build_dir/bench/micro_serve" --quick --out BENCH_serve.json
    python3 - <<'EOF'
import json
bench = json.load(open("BENCH_serve.json"))
rate = bench["exact_single"]["lookups_per_sec"]
assert rate >= 100000, f"exact-hit rate {rate} below 100k/sec"
assert not bench["misserved"], bench
over = bench["exact_instrumented"]["overhead_pct"]
assert over < 5.0, \
    f"windowed-metrics overhead {over:.2f}% exceeds the 5% budget"
assert bench["mixed"]["tiers"]["nearest"] > 0, bench["mixed"]
cores = bench["hardware_concurrency"]
marker = bench["parallel_scaling"]
assert marker["status"] in ("measured", "skipped"), marker
assert (marker["status"] == "measured") == (cores >= 4), marker
two = next(s for s in bench["exact_parallel"] if s["threads"] == 2)
assert abs(two["effective_parallelism"] - two["speedup"] / 2) \
    < 1e-3, two
four = next(s for s in bench["exact_parallel"] if s["threads"] == 4)
if cores >= 2:
    assert two["speedup"] >= 0.8, \
        f"2-thread aggregate collapsed on a {cores}-core box: {two}"
    scaling = f"2-thread speedup {two['speedup']:.2f}x"
else:
    scaling = "single core: scaling SKIPPED (not passed)"
if marker["status"] == "measured":
    # Shared-lock read path: 4 reader threads on >= 4 cores must
    # keep at least 70% of perfectly linear scaling.
    assert four["effective_parallelism"] >= 0.7, \
        f"4-thread shared-lock reads scaled poorly on a " \
        f"{cores}-core box: {four}"
    scaling += f", 4-thread eff-par {four['effective_parallelism']:.2f}"
wal = bench["wal"]
assert wal["records"] == wal["appends"], wal
assert wal["o1_persist"], wal
assert wal["growth_ratio"] < 3.0, \
    f"WAL append cost grew with store size: {wal}"
assert wal["replay_ms"] > 0, wal
graph = bench["graph"]
assert graph["deduped"] > 0, graph
assert graph["converged"], graph
print(f"serve bench smoke: OK ({rate:.0f} exact lookups/sec, "
      f"metrics overhead {over:.2f}%, {scaling}, "
      f"WAL {wal['appends_per_sec']:.0f} appends/sec "
      f"ratio {wal['growth_ratio']:.2f})")
EOF
}

# Run stage $1 as the command "${@:2}" in a subshell with errexit
# on, so its first failing command ends the stage, not the script.
# A failed stage is recorded and every later stage still runs.
failed_stages=()
stage() {
    local name="$1"
    shift
    local status=0
    set +e
    (
        set -e
        "$@"
    )
    status=$?
    set -e
    if [[ "$status" != 0 ]]; then
        echo "verify: stage $name FAILED (exit $status)" >&2
        failed_stages+=("$name")
    fi
}

build_preset() {
    cmake --preset "$1"
    cmake --build --preset "$1" -j
}

echo "== tier-1: plain build =="
stage build build_preset default
stage ctest ctest --preset default -j
stage smoke_observability smoke_observability build
stage smoke_csp_bench smoke_csp_bench build
stage smoke_serve smoke_serve build
stage smoke_serve_tcp smoke_serve_tcp build
stage smoke_graph smoke_graph build
stage smoke_store_crash smoke_store_crash build
stage smoke_store_degraded smoke_store_degraded build
stage smoke_serve_bench smoke_serve_bench build

# Compare the freshly written BENCH_*.json against the committed
# versions; prints per-metric deltas and flags regressions (advisory
# here — thresholds are machine-sensitive; pass --fail in CI that
# pins hardware).
python3 scripts/bench_diff.py BENCH_csp_solver.json BENCH_serve.json || true

if [[ "$run_asan" == 1 ]]; then
    echo "== tier-1: ASan+UBSan build =="
    stage asan:build build_preset asan
    UBSAN_OPTIONS=halt_on_error=1 \
        ASAN_OPTIONS=detect_leaks=0 \
        stage asan:ctest ctest --preset asan -j
    for smoke in smoke_observability smoke_serve smoke_serve_tcp \
                 smoke_graph smoke_store_crash smoke_store_degraded; do
        ASAN_OPTIONS=detect_leaks=0 \
            stage "asan:$smoke" "$smoke" build-asan
    done
fi

if [[ "$run_tsan" == 1 ]]; then
    echo "== tier-1: ThreadSanitizer concurrency tests =="
    stage tsan:build build_preset tsan
    TSAN_OPTIONS=halt_on_error=1 \
        stage tsan:ctest ctest --preset tsan \
        -R 'test_measure_pool|test_csp_property|test_parallel_scale|test_serve|test_server|test_store_wal|test_graph' \
        --no-tests=error
fi

if [[ "${#failed_stages[@]}" != 0 ]]; then
    echo "verify: FAILED stages: ${failed_stages[*]}" >&2
    exit 1
fi
echo "verify: OK"
