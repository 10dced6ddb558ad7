#include "serve/protocol.h"

#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "ir/tensor.h"
#include "serve/store_wal.h"
#include "support/build_info.h"
#include "support/json_util.h"
#include "support/metrics.h"

namespace heron::serve {

namespace {

/** Parse "256,256,256" (json_extract's array body) into ints. */
std::vector<int64_t>
parse_params(const std::string &body)
{
    std::vector<int64_t> params;
    std::istringstream in(body);
    std::string token;
    while (std::getline(in, token, ',')) {
        if (token.empty())
            continue;
        params.push_back(std::atoll(token.c_str()));
    }
    return params;
}

/**
 * Build the workload for (op, params, dtype), enforcing the same
 * operator-specific parameter arity as heron_tune --shape. nullopt
 * with @p error set on a bad op or arity.
 */
std::optional<ops::Workload>
build_workload(const std::string &op,
               const std::vector<int64_t> &p, ir::DataType dtype,
               std::string *error)
{
    auto want = [&](size_t n, const char *fmt) {
        if (p.size() == n)
            return true;
        *error = "op " + op + " needs shape " + fmt;
        return false;
    };
    if (op == "gemm")
        return want(3, "M,N,K")
                   ? std::optional(
                         ops::gemm(p[0], p[1], p[2], dtype))
                   : std::nullopt;
    if (op == "gemv")
        return want(2, "M,K")
                   ? std::optional(ops::gemv(p[0], p[1], dtype))
                   : std::nullopt;
    if (op == "bmm")
        return want(4, "B,M,N,K")
                   ? std::optional(
                         ops::bmm(p[0], p[1], p[2], p[3], dtype))
                   : std::nullopt;
    if (op == "c1d")
        return want(7, "N,CI,L,CO,KW,stride,pad")
                   ? std::optional(ops::c1d(p[0], p[1], p[2], p[3],
                                            p[4], p[5], p[6],
                                            dtype))
                   : std::nullopt;
    if (op == "c2d")
        return want(9, "N,CI,H,W,CO,R,S,stride,pad")
                   ? std::optional(ops::c2d(p[0], p[1], p[2], p[3],
                                            p[4], p[5], p[6], p[7],
                                            p[8], dtype))
                   : std::nullopt;
    if (op == "c3d")
        return want(11, "N,CI,D,H,W,CO,KD,R,S,stride,pad")
                   ? std::optional(ops::c3d(p[0], p[1], p[2], p[3],
                                            p[4], p[5], p[6], p[7],
                                            p[8], p[9], p[10],
                                            dtype))
                   : std::nullopt;
    if (op == "t2d")
        return want(9, "N,CI,H,W,CO,R,S,stride,pad")
                   ? std::optional(ops::t2d(p[0], p[1], p[2], p[3],
                                            p[4], p[5], p[6], p[7],
                                            p[8], dtype))
                   : std::nullopt;
    if (op == "dil")
        return want(10, "N,CI,H,W,CO,R,S,stride,pad,dilation")
                   ? std::optional(ops::dil(p[0], p[1], p[2], p[3],
                                            p[4], p[5], p[6], p[7],
                                            p[8], p[9], dtype))
                   : std::nullopt;
    if (op == "scan")
        return want(2, "N,L")
                   ? std::optional(ops::scan(p[0], p[1]))
                   : std::nullopt;
    *error = "unknown op '" + op + "'";
    return std::nullopt;
}

std::optional<ir::DataType>
parse_dtype(const std::string &name)
{
    for (int d = 0; d <= static_cast<int>(ir::DataType::kInt32);
         ++d) {
        auto candidate = static_cast<ir::DataType>(d);
        if (name == ir::dtype_name(candidate))
            return candidate;
    }
    return std::nullopt;
}

/**
 * Depth-aware array extraction: json_extract stops at the first
 * ']', which truncates an array of objects that themselves hold
 * arrays (a graph request's "layers"). Returns the body between
 * the matching brackets.
 */
std::optional<std::string>
extract_nested_array(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return std::nullopt;
    pos += needle.size();
    while (pos < line.size() && line[pos] == ' ')
        ++pos;
    if (pos >= line.size() || line[pos] != '[')
        return std::nullopt;
    int depth = 0;
    for (size_t i = pos; i < line.size(); ++i) {
        if (line[i] == '[')
            ++depth;
        else if (line[i] == ']' && --depth == 0)
            return line.substr(pos + 1, i - pos - 1);
    }
    return std::nullopt;
}

/** Split an array body into its top-level {...} objects. */
std::vector<std::string>
split_objects(const std::string &body)
{
    std::vector<std::string> objects;
    int depth = 0;
    size_t start = 0;
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] == '{') {
            if (depth++ == 0)
                start = i;
        } else if (body[i] == '}' && --depth == 0) {
            objects.push_back(body.substr(start, i - start + 1));
        }
    }
    return objects;
}

/** The DLA's default dtype: fp16 on TensorCore, int8 elsewhere. */
ir::DataType
default_dtype(const hw::DlaSpec &spec)
{
    return spec.kind == hw::DlaKind::kTensorCore ? ir::DataType::kFloat16
                                                 : ir::DataType::kInt8;
}

/** Resolve the dtype for one request/layer object. */
std::optional<ir::DataType>
dtype_for(const std::string &object, const hw::DlaSpec &spec,
          std::string *error)
{
    ir::DataType dtype = default_dtype(spec);
    if (auto name = json_extract(object, "dtype")) {
        auto parsed = parse_dtype(*name);
        if (!parsed) {
            *error = "unknown dtype '" + *name + "'";
            return std::nullopt;
        }
        dtype = *parsed;
    }
    return dtype;
}

/**
 * Parse a graph request's network: either a built-in benchmark
 * ("network" + optional "batch") or an explicit "layers" array of
 * lookup-shaped objects with optional per-layer "count".
 */
std::optional<ops::Network>
parse_network(const std::string &line, const hw::DlaSpec &spec,
              std::string *error)
{
    if (auto name = json_extract(line, "network")) {
        int batch = 16;
        if (auto b = json_extract(line, "batch")) {
            batch = std::atoi(b->c_str());
            if (batch < 1) {
                *error = "batch must be >= 1";
                return std::nullopt;
            }
        }
        ir::DataType dtype = default_dtype(spec);
        if (*name == "resnet50")
            return ops::resnet50(batch, dtype);
        if (*name == "inception_v3")
            return ops::inception_v3(batch, dtype);
        if (*name == "vgg16")
            return ops::vgg16(batch, dtype);
        if (*name == "bert")
            return ops::bert(batch, 128, dtype);
        *error = "unknown network '" + *name +
                 "' (resnet50, inception_v3, vgg16, bert)";
        return std::nullopt;
    }

    auto body = extract_nested_array(line, "layers");
    if (!body) {
        *error = "graph needs \"network\" or \"layers\"";
        return std::nullopt;
    }
    ops::Network network;
    if (auto name = json_extract(line, "name"))
        network.name = *name;
    else
        network.name = "graph";
    for (const auto &object : split_objects(*body)) {
        auto op = json_extract(object, "op");
        auto shape = json_extract(object, "shape");
        if (!op || !shape) {
            *error = "graph layer needs \"op\" and \"shape\"";
            return std::nullopt;
        }
        auto dtype = dtype_for(object, spec, error);
        if (!dtype)
            return std::nullopt;
        auto workload = build_workload(*op, parse_params(*shape),
                                       *dtype, error);
        if (!workload)
            return std::nullopt;
        ops::NetworkLayer layer;
        layer.workload = std::move(*workload);
        if (auto count = json_extract(object, "count")) {
            layer.count = std::atoi(count->c_str());
            if (layer.count < 1) {
                *error = "layer count must be >= 1";
                return std::nullopt;
            }
        }
        network.layers.push_back(std::move(layer));
    }
    if (network.layers.empty()) {
        *error = "graph has no layers";
        return std::nullopt;
    }
    return network;
}

/** json_escape plus newline escaping for multi-line payloads. */
std::string
escape_multiline(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

const char *
request_kind_name(Request::Kind kind)
{
    switch (kind) {
      case Request::Kind::kLookup:
        return "lookup";
      case Request::Kind::kGraph:
        return "graph";
      case Request::Kind::kGraphStatus:
        return "graph_status";
      case Request::Kind::kStats:
        return "stats";
      case Request::Kind::kMetrics:
        return "metrics";
      case Request::Kind::kDrain:
        return "drain";
      case Request::Kind::kSave:
        return "save";
      case Request::Kind::kHealth:
        return "health";
      case Request::Kind::kQuit:
        return "quit";
      case Request::Kind::kShutdown:
        return "shutdown";
    }
    return "unknown";
}

std::optional<Request>
parse_request(const std::string &line, const hw::DlaSpec &spec,
              std::string *error)
{
    Request request;
    if (auto id = json_extract(line, "id"))
        request.id = std::atoll(id->c_str());

    if (auto cmd = json_extract(line, "cmd")) {
        if (*cmd == "graph") {
            auto network = parse_network(line, spec, error);
            if (!network)
                return std::nullopt;
            request.kind = Request::Kind::kGraph;
            request.network = std::move(*network);
            if (auto emit = json_extract(line, "emit")) {
                if (*emit != "inline") {
                    *error = "unknown emit mode '" + *emit + "'";
                    return std::nullopt;
                }
                request.graph_inline = true;
            }
            if (auto deadline =
                    json_extract(line, "deadline_ms")) {
                double ms = std::atof(deadline->c_str());
                if (ms < 0.0) {
                    *error = "deadline_ms must be >= 0";
                    return std::nullopt;
                }
                request.deadline_ms = ms;
            }
            return request;
        }
        if (*cmd == "graph_status") {
            auto graph = json_extract(line, "graph");
            if (!graph) {
                *error = "graph_status needs \"graph\"";
                return std::nullopt;
            }
            request.kind = Request::Kind::kGraphStatus;
            request.graph_id = std::atoll(graph->c_str());
            return request;
        }
        if (*cmd == "stats")
            request.kind = Request::Kind::kStats;
        else if (*cmd == "metrics")
            request.kind = Request::Kind::kMetrics;
        else if (*cmd == "drain")
            request.kind = Request::Kind::kDrain;
        else if (*cmd == "save")
            request.kind = Request::Kind::kSave;
        else if (*cmd == "health")
            request.kind = Request::Kind::kHealth;
        else if (*cmd == "quit")
            request.kind = Request::Kind::kQuit;
        else if (*cmd == "shutdown")
            request.kind = Request::Kind::kShutdown;
        else {
            *error = "unknown cmd '" + *cmd + "'";
            return std::nullopt;
        }
        return request;
    }

    auto op = json_extract(line, "op");
    auto shape = json_extract(line, "shape");
    if (!op || !shape) {
        *error = "lookup needs \"op\" and \"shape\"";
        return std::nullopt;
    }
    auto dtype = dtype_for(line, spec, error);
    if (!dtype)
        return std::nullopt;
    auto workload =
        build_workload(*op, parse_params(*shape), *dtype, error);
    if (!workload)
        return std::nullopt;
    if (auto deadline = json_extract(line, "deadline_ms")) {
        double ms = std::atof(deadline->c_str());
        if (ms < 0.0) {
            *error = "deadline_ms must be >= 0";
            return std::nullopt;
        }
        request.deadline_ms = ms;
    }
    request.kind = Request::Kind::kLookup;
    request.workload = std::move(*workload);
    return request;
}

std::string
format_lookup_response(int64_t id, const LookupResult &result,
                       bool degraded)
{
    std::ostringstream out;
    out << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    out << "{\"id\":" << id << ",\"tier\":\""
        << lookup_tier_name(result.tier) << "\",\"key\":\""
        << json_escape(result.key.canonical()) << "\"";
    if (result.record) {
        out << ",\"latency_ms\":" << result.record->latency_ms
            << ",\"gflops\":" << result.record->gflops
            << ",\"tuner\":\"" << json_escape(result.record->tuner)
            << "\",\"assignment\":[";
        for (size_t i = 0; i < result.record->assignment.size();
             ++i)
            out << (i ? "," : "") << result.record->assignment[i];
        out << "]";
    }
    if (result.tier == LookupTier::kNearest)
        out << ",\"served_from\":\""
            << json_escape(result.served_from)
            << "\",\"distance\":" << result.distance;
    if (result.tier == LookupTier::kMiss ||
        result.tier == LookupTier::kNearest) {
        out << ",\"enqueued\":" << (result.enqueued ? 1 : 0);
        if (degraded)
            out << ",\"degraded\":1";
    }
    out << "}";
    return out.str();
}

std::string
format_graph_response(int64_t id, const GraphResult &result)
{
    std::ostringstream out;
    out << std::setprecision(6);
    out << "{\"id\":" << id << ",\"graph\":" << result.id
        << ",\"name\":\"" << json_escape(result.name)
        << "\",\"layers\":" << result.layers
        << ",\"instances\":" << result.instances
        << ",\"deduped\":" << result.deduped
        << ",\"tiers\":{\"exact\":" << result.exact
        << ",\"nearest\":" << result.nearest
        << ",\"miss\":" << result.miss << "}"
        << ",\"scheduled\":" << result.scheduled
        << ",\"emitted\":" << result.emitted
        << ",\"coverage\":" << result.coverage
        << ",\"converged\":"
        << (result.converged ? "true" : "false");
    if (result.library_path.empty())
        out << ",\"library\":null";
    else
        out << ",\"library\":\""
            << json_escape(result.library_path) << "\"";
    out << ",\"layer_status\":[";
    for (size_t i = 0; i < result.layer_status.size(); ++i) {
        const GraphLayerStatus &layer = result.layer_status[i];
        out << (i ? "," : "") << "{\"key\":\""
            << json_escape(layer.key) << "\",\"count\":"
            << layer.count << ",\"tier\":\""
            << lookup_tier_name(layer.tier) << "\"";
        if (layer.tier == LookupTier::kNearest)
            out << ",\"distance\":" << layer.distance;
        out << ",\"payoff\":" << layer.payoff
            << ",\"scheduled\":" << (layer.scheduled ? 1 : 0)
            << "}";
    }
    out << "]";
    if (!result.library_header.empty())
        out << ",\"header\":\""
            << escape_multiline(result.library_header) << "\"";
    out << "}";
    return out.str();
}

std::string
format_stats_response(int64_t id, const KernelRegistry &registry,
                      const TuneQueue *queue,
                      const ServeRuntime *runtime,
                      const DurableStore *store,
                      const GraphServiceStats *graph)
{
    RegistryStats stats = registry.stats();
    std::ostringstream out;
    out << "{\"id\":" << id << ",\"tiers\":{\"exact\":"
        << stats.exact_hits << ",\"nearest\":" << stats.nearest_hits
        << ",\"negative\":" << stats.negative_hits
        << ",\"miss\":" << stats.misses << "}"
        << ",\"fallback_rejected\":" << stats.fallback_rejected
        << ",\"fallback_transferred\":"
        << stats.fallback_transferred
        << ",\"entries\":" << registry.size()
        << ",\"inserts\":" << stats.inserts
        << ",\"hot_swaps\":" << stats.hot_swaps;
    if (queue) {
        TuneQueueStats qs = queue->stats();
        TuneQueueLoad load = queue->load();
        out << ",\"queue\":{\"depth\":" << load.depth
            << ",\"capacity\":" << load.capacity
            << ",\"in_flight\":" << (load.in_flight ? 1 : 0)
            << ",\"accepted\":" << qs.accepted
            << ",\"deduplicated\":" << qs.deduplicated
            << ",\"rejected_full\":" << qs.rejected_full
            << ",\"completed\":" << qs.completed
            << ",\"untunable\":" << qs.failed
            << ",\"persist_failures\":" << qs.persist_failures
            << ",\"rejected_degraded\":" << qs.rejected_degraded
            << "}";
    }
    if (graph) {
        out << ",\"graph\":{\"requests\":" << graph->requests
            << ",\"status_requests\":" << graph->status_requests
            << ",\"layers\":" << graph->layers
            << ",\"deduped\":" << graph->deduped
            << ",\"emitted\":" << graph->emitted
            << ",\"scheduled\":" << graph->scheduled
            << ",\"active\":" << graph->active << "}";
    }
    if (store)
        out << ",\"store\":" << store->stats().to_json();
    if (runtime) {
        out << std::setprecision(6) << ",\"uptime_s\":"
            << runtime->uptime_s(
                   std::chrono::steady_clock::now())
            << ",\"pid\":" << runtime->pid
            << ",\"build\":" << build_info().to_json();
    }
    out << "}";
    return out.str();
}

std::string
format_metrics_response(int64_t id, const KernelRegistry &registry,
                        const RequestMetrics *windows)
{
    std::ostringstream out;
    out << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    auto snapshot = metrics_snapshot(registry);
    // Reuse the registry's own JSON (already escaped through
    // json_util) and splice the windows alongside it.
    std::string body = snapshot.to_json();
    // body = {"counters":{...}} — drop the braces to embed.
    out << "{\"id\":" << id << ","
        << body.substr(1, body.size() - 2);
    if (windows) {
        out << ",\"windows\":{";
        bool first = true;
        auto now = std::chrono::steady_clock::now();
        for (const auto &named : windows->snapshot_all(now)) {
            const auto &w = named.window;
            out << (first ? "" : ",") << "\""
                << json_escape(named.name)
                << "\":{\"count\":" << w.count
                << ",\"sum\":" << w.sum
                << ",\"window_s\":" << w.window_seconds
                << ",\"p50\":" << w.percentile(50)
                << ",\"p95\":" << w.percentile(95)
                << ",\"p99\":" << w.percentile(99) << "}";
            first = false;
        }
        out << "}";
    }
    out << "}";
    return out.str();
}

std::string
format_health_response(int64_t id, const DurableStore *store)
{
    std::ostringstream out;
    out << "{\"id\":" << id << ",\"status\":\"";
    if (store == nullptr) {
        out << "ok\",\"store\":null}";
        return out.str();
    }
    DurableStoreStats stats = store->stats();
    out << (stats.state == StoreState::kHealthy ? "ok"
                                                : "degraded")
        << "\",\"store\":" << stats.to_json() << "}";
    return out.str();
}

std::string
format_error_response(int64_t id, const std::string &error)
{
    std::ostringstream out;
    out << "{\"id\":" << id << ",\"error\":\"" << json_escape(error)
        << "\"}";
    return out.str();
}

std::string
format_ack_response(int64_t id, const std::string &key, bool value)
{
    std::ostringstream out;
    out << "{\"id\":" << id << ",\"" << json_escape(key)
        << "\":" << (value ? "true" : "false") << "}";
    return out.str();
}

} // namespace heron::serve
