/**
 * @file
 * Prometheus text-exposition rendering + a minimal HTTP exporter.
 *
 * render_prometheus() turns the process-wide metrics snapshot and
 * the per-server window snapshots into exposition format 0.0.4:
 * counters/gauges with HELP/TYPE lines, histograms as cumulative
 * monotone `le` bucket series ending in +Inf, and the
 * sliding windows as summaries with quantile labels (a window IS a
 * pre-aggregated summary; exporting it as a cumulative histogram
 * would lie about its time base). Metric names are sanitized to
 * [a-zA-Z0-9_:] and prefixed heron_; two source names that sanitize
 * identically keep only the first (a duplicate family is a scrape
 * error in Prometheus).
 *
 * PromExporter is a deliberately tiny HTTP/1.0 server: one thread,
 * one request per connection. GET /healthz answers the liveness/
 * readiness probe (200 "ok" when healthy, 503 "degraded" while the
 * durable store's persist path is failing) when a health callback
 * is installed; every other path answers the metrics page. It
 * exists so `curl host:port/metrics` works against a serving binary
 * without an HTTP framework dependency.
 */
#ifndef HERON_SERVE_PROMETHEUS_H
#define HERON_SERVE_PROMETHEUS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/observe.h"
#include "support/metrics.h"

namespace heron::serve {

/** Render one exposition page. Any input may be empty/null. */
std::string
render_prometheus(const metrics::MetricsSnapshot &snapshot,
                  const std::vector<RequestMetrics::Named> &windows);

/** Serves text from a render callback over bare HTTP. */
class PromExporter
{
  public:
    using RenderFn = std::function<std::string()>;
    /**
     * Health probe: healthy flag + body text (e.g. the store stats
     * JSON). Drives /healthz's 200-vs-503 status.
     */
    using HealthFn = std::function<std::pair<bool, std::string>()>;

    /** @p render is called per scrape, on the exporter thread. */
    PromExporter(std::string host, uint16_t port, RenderFn render);
    ~PromExporter();

    /** Install the /healthz callback (before start()). */
    void set_health(HealthFn health) { health_ = std::move(health); }

    PromExporter(const PromExporter &) = delete;
    PromExporter &operator=(const PromExporter &) = delete;

    /** Bind + listen + spawn. False with @p error on failure. */
    bool start(std::string *error);

    /** Bound port (after start; useful with port 0). */
    uint16_t port() const { return bound_port_; }

    void stop();

  private:
    std::string host_;
    uint16_t port_;
    RenderFn render_;
    HealthFn health_;
    int listen_fd_ = -1;
    uint16_t bound_port_ = 0;
    std::atomic<bool> running_{false};
    std::thread thread_;

    void serve_loop();
};

} // namespace heron::serve

#endif // HERON_SERVE_PROMETHEUS_H
