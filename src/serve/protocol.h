/**
 * @file
 * The newline-delimited JSON request/response protocol heron_serve
 * speaks on stdin/stdout. One request per line, one response line
 * per request, so the server is scriptable from a shell pipeline
 * and deterministic to test.
 *
 * Lookup request:
 *   {"id":1,"op":"gemm","shape":[512,512,512]}
 *   {"id":2,"op":"c2d","shape":[1,16,14,14,16,3,3,1,1],
 *    "dtype":"fp16"}
 *   {"id":3,"op":"gemm","shape":[512,512,512],"deadline_ms":5}
 * "dtype" is optional and defaults by DLA kind (fp16 on TensorCore,
 * int8 elsewhere), matching heron_tune. "shape" uses the same
 * operator-specific parameter lists as heron_tune --shape.
 * "deadline_ms" (optional, relative to request arrival) caps how
 * long the server may spend answering: nearest-tier solver budgets
 * shrink to the remaining time and an expired request answers
 * {"id":...,"error":"deadline_exceeded"} instead of burning solver
 * time (see serve/registry.h LookupOptions).
 *
 * Graph requests (whole-network serving; see serve/graph.h):
 *   {"id":7,"cmd":"graph","network":"resnet50","batch":16}
 *   {"id":7,"cmd":"graph","name":"tiny","layers":[
 *      {"op":"c2d","shape":[16,64,56,56,64,3,3,1,1],"count":3},
 *      {"op":"gemm","shape":[16,1000,2048]}]}
 *   {"id":8,"cmd":"graph_status","graph":1}
 * The named form instantiates a built-in benchmark network
 * (resnet50, inception_v3, vgg16, bert) at the given batch size
 * in the DLA's default dtype (fp16 on TensorCore, int8 elsewhere);
 * the explicit form lists layers with the same op/shape/dtype
 * conventions as a lookup plus an optional per-layer "count".
 * "emit":"inline" on a graph request returns the generated dispatch
 * header in the response ("header") besides writing it to the
 * server's --graph-dir. "deadline_ms" is honored as for lookups
 * (propagated into every layer's lookup). The response reports
 * the graph id (for graph_status), dedupe and per-tier counts, the
 * payoff-ordered tune schedule size, and per-layer status; a
 * graph_status poll re-reports those as background tunes land,
 * converging to "converged":true.
 *
 * Control requests:
 *   {"id":9,"cmd":"stats"}     tier counters + registry/queue sizes
 *                              + uptime/pid/build
 *   {"id":9,"cmd":"metrics"}   full metrics dump: process-wide
 *                              counters/gauges/histograms plus the
 *                              sliding-window latency quantiles
 *   {"id":9,"cmd":"drain"}     block until the tune queue is idle
 *   {"id":9,"cmd":"save"}      compact the durable store now
 *                              (false without one)
 *   {"id":9,"cmd":"health"}    liveness + durable-store state
 *                              ("ok" or "degraded" with the
 *                              serve.store.* accounting)
 *   {"id":9,"cmd":"quit"}      stop serving this client (EOF does
 *                              the same; in --stdio mode this stops
 *                              the server)
 *   {"id":9,"cmd":"shutdown"}  gracefully drain the whole server
 *
 * Responses always echo "id". Lookup hits carry tier, canonical
 * key, latency/gflops of the served record, and its assignment;
 * nearest-tier hits add the donor signature and shape distance;
 * misses report whether the workload was enqueued for background
 * tuning. Malformed requests get {"id":...,"error":"..."}. An
 * overloaded server sheds load with {"id":...,"error":"overloaded"}
 * (see serve/server.h for the admission-control rules).
 */
#ifndef HERON_SERVE_PROTOCOL_H
#define HERON_SERVE_PROTOCOL_H

#include <optional>
#include <string>

#include "ops/networks.h"
#include "serve/graph.h"
#include "serve/observe.h"
#include "serve/registry.h"
#include "serve/tune_queue.h"

namespace heron::serve {

class DurableStore;

/** One parsed request line. */
struct Request {
    enum class Kind : uint8_t {
        kLookup = 0,
        kGraph,
        kGraphStatus,
        kStats,
        kMetrics,
        kDrain,
        kSave,
        kHealth,
        kQuit,
        kShutdown,
    };
    Kind kind = Kind::kLookup;
    /** Echoed back in the response (0 when absent). */
    int64_t id = 0;
    /** Lookup payload (kLookup only). */
    ops::Workload workload;
    /** Graph payload (kGraph only). */
    ops::Network network;
    /** Target graph id (kGraphStatus only). */
    int64_t graph_id = 0;
    /** Return the emitted dispatch header inline (kGraph only). */
    bool graph_inline = false;
    /**
     * Per-request latency budget in milliseconds, relative to
     * arrival (0 = none). Propagated into the registry lookup.
     */
    double deadline_ms = 0.0;
};

/** Endpoint name for a request kind ("lookup", "stats", ...). */
const char *request_kind_name(Request::Kind kind);

/**
 * Parse one request line against @p spec (which fixes the default
 * dtype and validates shape arity). On failure returns nullopt and
 * fills @p error.
 */
std::optional<Request> parse_request(const std::string &line,
                                     const hw::DlaSpec &spec,
                                     std::string *error);

/**
 * Response line (no trailing newline) for a lookup result. With
 * @p degraded, a miss/nearest response carries "degraded":1 so the
 * client can tell an intake pause from an ordinary full queue.
 */
std::string format_lookup_response(int64_t id,
                                   const LookupResult &result,
                                   bool degraded = false);

/**
 * Response line for a graph (or graph_status) result: graph id,
 * dedupe/tier/schedule accounting, coverage, the emitted library
 * path, and a per-layer status array. GraphResult::library_header,
 * when present, rides along as "header" (newline-escaped so the
 * response stays one NDJSON line).
 */
std::string format_graph_response(int64_t id,
                                  const GraphResult &result);

/**
 * Response line for {"cmd":"stats"}: per-tier counters, registry
 * size/inserts, and queue accounting. With @p runtime, adds
 * uptime_s/pid and the baked-in build identity (compiler, sanitizer
 * preset, git describe); with @p store, the durable-store
 * accounting ("store":{...}).
 */
std::string format_stats_response(int64_t id,
                                  const KernelRegistry &registry,
                                  const TuneQueue *queue,
                                  const ServeRuntime *runtime =
                                      nullptr,
                                  const DurableStore *store =
                                      nullptr,
                                  const GraphServiceStats *graph =
                                      nullptr);

/**
 * Response line for {"cmd":"health"}: "ok" or "degraded" plus the
 * durable-store stats object (null without a store — a store-less
 * server is always "ok").
 */
std::string format_health_response(int64_t id,
                                   const DurableStore *store);

/**
 * Response line for {"cmd":"metrics"}: metrics_snapshot(@p registry)
 * plus per-window quantiles (p50/p95/p99, count, sum over the
 * window). @p windows is nullable.
 */
std::string format_metrics_response(int64_t id,
                                    const KernelRegistry &registry,
                                    const RequestMetrics *windows);

/** Response line for an unparsable request. */
std::string format_error_response(int64_t id,
                                  const std::string &error);

/** Generic {"id":N,...} acknowledgement, e.g. "drained":true. */
std::string format_ack_response(int64_t id, const std::string &key,
                                bool value);

} // namespace heron::serve

#endif // HERON_SERVE_PROTOCOL_H
