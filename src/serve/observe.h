/**
 * @file
 * Serving-side observability: per-server windowed latency
 * histograms, the per-request observation record the transport fills
 * in as a request moves through its lifecycle, and the runtime
 * identity (start time, pid) reported by stats.
 *
 * RequestMetrics is deliberately NOT part of the process-wide
 * metrics::Registry: window sizing is per-server configuration, and
 * the registry's first-creation-wins semantics would leak one
 * server's window config into the next (a real hazard for tests that
 * run many servers in one process). The process-wide registry keeps
 * the cumulative counters/histograms it always had; RequestMetrics
 * adds the honest last-N-seconds view on top.
 */
#ifndef HERON_SERVE_OBSERVE_H
#define HERON_SERVE_OBSERVE_H

#include <chrono>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "support/metrics.h"

namespace heron::serve {

class AccessLog;
struct ExecutedRequest;
struct Request;

/** Window sizing for RequestMetrics. */
struct RequestMetricsConfig {
    /** Ring slots per window. */
    int slots = 6;
    /** Seconds per slot (default 6 x 10s = last-60s quantiles). */
    double slot_seconds = 10.0;
    /**
     * Bucket upper bounds in microseconds. Empty = exponential
     * 1us .. ~4.2s (powers of two), which covers a sub-microsecond
     * exact probe through a multi-second nearest-tier solve.
     */
    std::vector<double> bounds_us;
};

/**
 * Sliding-window latency histograms per endpoint and per lookup
 * tier. The lookup hot path records into exactly one window (its
 * tier); the endpoint-level lookup window is derived by merging the
 * four tier windows at snapshot time, so instrumentation costs one
 * bucket search + three relaxed atomic adds per lookup.
 */
class RequestMetrics
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit RequestMetrics(RequestMetricsConfig config = {});

    /** Record one lookup answered by @p tier (latency in us). */
    void observe_lookup(double us, LookupTier tier,
                        Clock::time_point now);

    /**
     * Record a non-lookup request ("graph", "graph_status", "stats",
     * "metrics", "drain", "save", "health"); other names are
     * ignored.
     */
    void observe_endpoint(const std::string &endpoint, double us,
                          Clock::time_point now);

    /** One named window snapshot. */
    struct Named {
        std::string name;
        metrics::WindowSnapshot window;
    };

    /**
     * Snapshot every window: "serve.window.lookup_us" (tiers
     * merged), "serve.window.tier.<tier>_us", and
     * "serve.window.<endpoint>_us" for every other endpoint.
     */
    std::vector<Named> snapshot_all(Clock::time_point now) const;

    /** The merged lookup window (all tiers). */
    metrics::WindowSnapshot lookup_window(Clock::time_point now) const;

  private:
    static constexpr int kTiers = 4;

    RequestMetricsConfig config_;
    /** Indexed by LookupTier. */
    std::vector<std::unique_ptr<metrics::WindowedHistogram>> tiers_;
    /** One window per name in endpoint_names_. */
    std::vector<std::unique_ptr<metrics::WindowedHistogram>>
        endpoints_;
    std::vector<std::string> endpoint_names_;
};

/**
 * Everything known about one finished (or shed) request, filled in
 * by the transport as the request moves accept -> parse -> queue ->
 * dispatch -> handle -> serialize -> write. observe_request() turns
 * one of these into windows, cumulative metrics, trace spans, an
 * access-log line, and (over the slow threshold) a span-tree dump.
 */
struct RequestObservation {
    int64_t id = 0;
    /** "lookup", "stats", ... or "invalid" for parse errors. */
    const char *endpoint = "lookup";
    /** Tier name for lookups, "" otherwise. */
    const char *tier = "";
    bool ok = true;
    bool deadline_exceeded = false;
    /** Non-empty when admission control shed the request. */
    const char *shed_reason = "";
    /** Phase latencies in microseconds (0 = not applicable). */
    double parse_us = 0.0;
    double queue_us = 0.0;
    double handle_us = 0.0;
    double serialize_us = 0.0;
    double write_us = 0.0;
    double total_us = 0.0;
    /** The request's deadline_ms (0 = none). */
    double deadline_ms = 0.0;
    /** deadline_ms - total (only when a deadline was set). */
    double deadline_slack_ms = 0.0;
    bool has_deadline = false;
    /** When the request's first byte group was parsed. */
    std::chrono::steady_clock::time_point arrival{};

    /** One-line JSON for the access log. */
    std::string to_json() const;
};

/**
 * The observation for an executed @p request: identity, endpoint,
 * tier, outcome, deadline, and the parse/handle/serialize phases.
 * The caller adds what only the transport knows (queue and write
 * time, the total).
 */
RequestObservation
executed_observation(const Request &request,
                     const ExecutedRequest &executed, double parse_us,
                     std::chrono::steady_clock::time_point arrival);

/** Knobs for observe_request. */
struct ObserveConfig {
    /** Requests slower than this get a span-tree warning (0=off). */
    double slow_request_ms = 0.0;
};

/**
 * Record one finished request everywhere it should land: windowed +
 * cumulative metrics, per-phase trace spans (when tracing is on),
 * the access log (@p log nullable), and a slow-request dump when
 * total time exceeds the threshold. @p now is the completion time.
 */
void observe_request(const RequestObservation &obs,
                     RequestMetrics *metrics, AccessLog *log,
                     const ObserveConfig &config,
                     std::chrono::steady_clock::time_point now);

/** Runtime identity reported by the stats endpoint. */
struct ServeRuntime {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    int pid = 0;

    /** A ServeRuntime stamped "now" for the current process. */
    static ServeRuntime current();

    double uptime_s(std::chrono::steady_clock::time_point now) const
    {
        return std::chrono::duration<double>(now - start).count();
    }
};

} // namespace heron::serve

#endif // HERON_SERVE_OBSERVE_H
