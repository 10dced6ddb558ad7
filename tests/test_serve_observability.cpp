/**
 * @file
 * Observability-layer tests: bucket percentile interpolation, the
 * sliding-window histogram (rotation boundaries, expiry, empty
 * windows, reset), per-server request windows, the bounded async
 * access log, Prometheus exposition well-formedness, and the
 * build/runtime identity surfaces.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/access_log.h"
#include "serve/observe.h"
#include "serve/prometheus.h"
#include "serve/protocol.h"
#include "support/build_info.h"
#include "support/metrics.h"

namespace heron::serve {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::seconds;

// ---------------------------------------------------------------
// bucket_percentile
// ---------------------------------------------------------------

TEST(BucketPercentile, EmptyReturnsZero)
{
    EXPECT_EQ(metrics::bucket_percentile({}, {}, 50.0), 0.0);
    EXPECT_EQ(metrics::bucket_percentile({10.0}, {0, 0}, 95.0),
              0.0);
}

TEST(BucketPercentile, InterpolatesWithinBucket)
{
    std::vector<double> bounds = {10.0, 20.0};
    std::vector<int64_t> counts = {4, 4, 0};
    // Rank p/100*total: p25 -> rank 2 of 8, halfway through the
    // first bucket (interpolated up from 0).
    EXPECT_DOUBLE_EQ(
        metrics::bucket_percentile(bounds, counts, 25.0), 5.0);
    EXPECT_DOUBLE_EQ(
        metrics::bucket_percentile(bounds, counts, 50.0), 10.0);
    EXPECT_DOUBLE_EQ(
        metrics::bucket_percentile(bounds, counts, 75.0), 15.0);
    EXPECT_DOUBLE_EQ(
        metrics::bucket_percentile(bounds, counts, 100.0), 20.0);
}

TEST(BucketPercentile, OverflowClampsToLastBound)
{
    // Every observation is past the last finite bound; the honest
    // answer from bucket counts alone is that bound.
    EXPECT_DOUBLE_EQ(
        metrics::bucket_percentile({10.0}, {0, 5}, 99.0), 10.0);
}

// ---------------------------------------------------------------
// WindowedHistogram
// ---------------------------------------------------------------

TEST(WindowedHistogram, EmptyWindowIsZero)
{
    metrics::WindowedHistogram w({}, 3, 10.0);
    auto snap = w.snapshot(Clock::now());
    EXPECT_EQ(snap.count, 0);
    EXPECT_EQ(snap.live_slots, 0);
    EXPECT_EQ(snap.percentile(95), 0.0);
    EXPECT_DOUBLE_EQ(snap.window_seconds, 30.0);
}

TEST(WindowedHistogram, CountsSumAndQuantiles)
{
    metrics::WindowedHistogram w({}, 3, 10.0);
    auto t0 = Clock::now();
    for (int i = 1; i <= 100; ++i)
        w.observe(static_cast<double>(i), t0);
    auto snap = w.snapshot(t0);
    EXPECT_EQ(snap.count, 100);
    // scaled_sum truncates at 1/1024 granularity per observation.
    EXPECT_NEAR(snap.sum, 5050.0, 100 * (1.0 / 1024.0) + 1e-9);
    double p50 = snap.percentile(50);
    double p95 = snap.percentile(95);
    EXPECT_GT(p50, 32.0);
    EXPECT_LE(p50, 64.0);
    EXPECT_GT(p95, 64.0);
    EXPECT_LE(p95, 128.0);
    EXPECT_GT(p95, p50);
}

TEST(WindowedHistogram, RotationExpiresOldSlots)
{
    metrics::WindowedHistogram w({}, 3, 10.0);
    auto t0 = Clock::now();
    w.observe(5.0, t0);
    w.observe(5.0, t0 + seconds(11));
    w.observe(5.0, t0 + seconds(21));
    // All three slots are inside the 30 s window.
    EXPECT_EQ(w.snapshot(t0 + seconds(21)).count, 3);
    EXPECT_EQ(w.snapshot(t0 + seconds(21)).live_slots, 3);
    // 10 s later the first slot has aged out — without any new
    // observation needing to rotate it.
    EXPECT_EQ(w.snapshot(t0 + seconds(31)).count, 2);
    // A new observation reclaims the expired slot's ring position.
    w.observe(7.0, t0 + seconds(31));
    EXPECT_EQ(w.snapshot(t0 + seconds(31)).count, 3);
    // Far enough ahead, only the newest slot remains.
    EXPECT_EQ(w.snapshot(t0 + seconds(41)).count, 2);
    EXPECT_EQ(w.snapshot(t0 + seconds(51)).count, 1);
    EXPECT_EQ(w.snapshot(t0 + seconds(62)).count, 0);
}

TEST(WindowedHistogram, ResetClearsButStaysUsable)
{
    metrics::WindowedHistogram w({}, 3, 10.0);
    auto t0 = Clock::now();
    w.observe(1.0, t0);
    w.observe(2.0, t0);
    EXPECT_EQ(w.snapshot(t0).count, 2);
    w.reset();
    EXPECT_EQ(w.snapshot(t0).count, 0);
    EXPECT_EQ(w.snapshot(t0).live_slots, 0);
    w.observe(3.0, t0);
    EXPECT_EQ(w.snapshot(t0).count, 1);
}

// ---------------------------------------------------------------
// RequestMetrics
// ---------------------------------------------------------------

TEST(RequestMetrics, TierWindowsMergeIntoLookupWindow)
{
    RequestMetricsConfig config;
    config.slots = 3;
    config.slot_seconds = 10.0;
    RequestMetrics rm(config);
    auto t0 = Clock::now();
    rm.observe_lookup(10.0, LookupTier::kExact, t0);
    rm.observe_lookup(100.0, LookupTier::kNearest, t0);
    rm.observe_lookup(1.0, LookupTier::kNegative, t0);

    auto merged = rm.lookup_window(t0);
    EXPECT_EQ(merged.count, 3);
    EXPECT_NEAR(merged.sum, 111.0, 0.1);

    bool saw_lookup = false, saw_exact = false, saw_stats = false;
    bool saw_graph_status = false, saw_health = false;
    rm.observe_endpoint("stats", 5.0, t0);
    rm.observe_endpoint("graph_status", 7.0, t0);
    rm.observe_endpoint("health", 2.0, t0);
    for (const auto &named : rm.snapshot_all(t0)) {
        if (named.name == "serve.window.lookup_us") {
            saw_lookup = true;
            EXPECT_EQ(named.window.count, 3);
        }
        if (named.name == "serve.window.tier.exact_us") {
            saw_exact = true;
            EXPECT_EQ(named.window.count, 1);
        }
        if (named.name == "serve.window.stats_us") {
            saw_stats = true;
            EXPECT_EQ(named.window.count, 1);
        }
        if (named.name == "serve.window.graph_status_us") {
            saw_graph_status = true;
            EXPECT_EQ(named.window.count, 1);
        }
        if (named.name == "serve.window.health_us") {
            saw_health = true;
            EXPECT_EQ(named.window.count, 1);
        }
    }
    EXPECT_TRUE(saw_lookup);
    EXPECT_TRUE(saw_exact);
    EXPECT_TRUE(saw_stats);
    EXPECT_TRUE(saw_graph_status);
    EXPECT_TRUE(saw_health);
}

TEST(RequestMetrics, ObserveRequestLandsInWindows)
{
    RequestMetrics rm;
    ObserveConfig config;
    auto t0 = Clock::now();

    RequestObservation obs;
    obs.endpoint = "lookup";
    obs.tier = "exact";
    obs.total_us = 50.0;
    obs.arrival = t0;
    observe_request(obs, &rm, nullptr, config, t0);
    EXPECT_EQ(rm.lookup_window(t0).count, 1);

    // A shed request never reached the handler; its latency would
    // poison the lookup window.
    RequestObservation shed;
    shed.endpoint = "lookup";
    shed.ok = false;
    shed.shed_reason = "hard_watermark";
    shed.total_us = 2.0;
    shed.arrival = t0;
    observe_request(shed, &rm, nullptr, config, t0);
    EXPECT_EQ(rm.lookup_window(t0).count, 1);
}

TEST(RequestObservation, ToJsonOmitsInapplicablePhases)
{
    RequestObservation obs;
    obs.id = 9;
    obs.endpoint = "lookup";
    obs.tier = "exact";
    obs.parse_us = 3.5;
    obs.total_us = 50.0;
    std::string json = obs.to_json();
    EXPECT_NE(json.find("\"id\":9"), std::string::npos);
    EXPECT_NE(json.find("\"endpoint\":\"lookup\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tier\":\"exact\""), std::string::npos);
    EXPECT_NE(json.find("\"parse_us\""), std::string::npos);
    // queue/write never happened (stdio pipeline): stay out of the
    // line instead of reporting a misleading 0.
    EXPECT_EQ(json.find("\"queue_us\""), std::string::npos);
    EXPECT_EQ(json.find("\"write_us\""), std::string::npos);
    EXPECT_EQ(json.find("\"shed_reason\""), std::string::npos);

    obs.shed_reason = "hard_watermark";
    obs.queue_us = 12.0;
    json = obs.to_json();
    EXPECT_NE(json.find("\"shed_reason\":\"hard_watermark\""),
              std::string::npos);
    EXPECT_NE(json.find("\"queue_us\""), std::string::npos);
}

// ---------------------------------------------------------------
// AccessLog
// ---------------------------------------------------------------

std::string
temp_log_path(const char *tag)
{
    return std::string(::testing::TempDir()) + "heron_access_" +
           tag + ".jsonl";
}

std::vector<std::string>
read_lines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(AccessLog, WritesQueuedLinesInOrder)
{
    std::string path = temp_log_path("order");
    std::remove(path.c_str());
    AccessLogConfig config;
    config.path = path;
    AccessLog log(config);
    std::string error;
    ASSERT_TRUE(log.open(&error)) << error;
    EXPECT_TRUE(log.enabled());
    log.append("{\"id\":1}");
    log.append("{\"id\":2}");
    log.flush();
    auto lines = read_lines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"id\":1}");
    EXPECT_EQ(lines[1], "{\"id\":2}");
    EXPECT_EQ(log.stats().written, 2);
    EXPECT_EQ(log.stats().dropped, 0);
    std::remove(path.c_str());
}

TEST(AccessLog, SamplesHealthyLinesButKeepsAlways)
{
    std::string path = temp_log_path("sample");
    std::remove(path.c_str());
    AccessLogConfig config;
    config.path = path;
    config.sample_every = 3;
    AccessLog log(config);
    std::string error;
    ASSERT_TRUE(log.open(&error)) << error;
    for (int i = 0; i < 9; ++i)
        log.append("{\"sampled\":" + std::to_string(i) + "}");
    // Errors/sheds/slow requests bypass the sampler.
    log.append("{\"error\":true}", /*always=*/true);
    log.flush();
    AccessLogStats stats = log.stats();
    EXPECT_EQ(stats.written, 4);     // 3 of 9 + the always line
    EXPECT_EQ(stats.sampled_out, 6);
    EXPECT_EQ(read_lines(path).size(), 4u);
    std::remove(path.c_str());
}

TEST(AccessLog, FullQueueDropsInsteadOfBlocking)
{
    std::string path = temp_log_path("drop");
    std::remove(path.c_str());
    AccessLogConfig config;
    config.path = path;
    config.max_queue = 4;
    AccessLog log(config);
    std::string error;
    ASSERT_TRUE(log.open(&error)) << error;
    log.set_paused(true); // wedge the writer: queue can only grow
    for (int i = 0; i < 10; ++i)
        log.append("{\"n\":" + std::to_string(i) + "}",
                   /*always=*/true);
    log.set_paused(false);
    log.flush();
    AccessLogStats stats = log.stats();
    EXPECT_EQ(stats.written, 4);
    EXPECT_EQ(stats.dropped, 6);
    EXPECT_EQ(read_lines(path).size(), 4u);
    std::remove(path.c_str());
}

TEST(AccessLog, UnopenedLogIsANoop)
{
    AccessLog log;
    EXPECT_FALSE(log.enabled());
    log.append("{\"ignored\":1}");
    log.flush();
    EXPECT_EQ(log.stats().written, 0);
    EXPECT_EQ(log.stats().dropped, 0);
}

// ---------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------

TEST(Prometheus, RendersWellFormedExposition)
{
    metrics::MetricsSnapshot snap;
    snap.counters["serve.request.total"] = 5;
    snap.counters["serve.request.shed"] = 1;
    snap.gauges["serve.uptime_s"] = 12.5;
    metrics::HistogramSnapshot hist;
    hist.bounds = {1.0, 2.0};
    hist.counts = {1, 2, 3};
    hist.count = 6;
    hist.sum = 10.0;
    snap.histograms["serve.phase.handle_us"] = hist;

    RequestMetrics rm;
    auto t0 = Clock::now();
    rm.observe_lookup(10.0, LookupTier::kExact, t0);

    std::string page = render_prometheus(snap, rm.snapshot_all(t0));

    EXPECT_NE(page.find("# HELP heron_serve_request_total"),
              std::string::npos);
    EXPECT_NE(page.find("# TYPE heron_serve_request_total counter"),
              std::string::npos);
    EXPECT_NE(page.find("heron_serve_request_total 5"),
              std::string::npos);
    EXPECT_NE(page.find("heron_serve_uptime_s 12.5"),
              std::string::npos);

    // Histogram: cumulative buckets ending in +Inf == count.
    EXPECT_NE(
        page.find(
            "heron_serve_phase_handle_us_bucket{le=\"1\"} 1"),
        std::string::npos);
    EXPECT_NE(
        page.find(
            "heron_serve_phase_handle_us_bucket{le=\"2\"} 3"),
        std::string::npos);
    EXPECT_NE(
        page.find(
            "heron_serve_phase_handle_us_bucket{le=\"+Inf\"} 6"),
        std::string::npos);
    EXPECT_NE(page.find("heron_serve_phase_handle_us_count 6"),
              std::string::npos);

    // Windows export as summaries with quantile labels.
    EXPECT_NE(page.find("heron_serve_window_lookup_us{quantile="
                        "\"0.95\"}"),
              std::string::npos);
    EXPECT_NE(page.find("heron_serve_window_lookup_us_count 1"),
              std::string::npos);
    EXPECT_NE(
        page.find("heron_serve_window_lookup_us_window_seconds"),
        std::string::npos);
}

TEST(Prometheus, ExporterServesScrapes)
{
    metrics::MetricsSnapshot snap;
    snap.counters["scrape.test"] = 42;
    PromExporter exporter(
        "127.0.0.1", 0,
        [snap] { return render_prometheus(snap, {}); });
    std::string error;
    ASSERT_TRUE(exporter.start(&error)) << error;
    ASSERT_NE(exporter.port(), 0);

    // Minimal HTTP client: connect, GET, read everything.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(exporter.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char *request = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(fd, request, std::strlen(request), 0), 0);
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);

    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("heron_scrape_test 42"),
              std::string::npos);
    exporter.stop();
}

// ---------------------------------------------------------------
// Build/runtime identity + protocol surfaces
// ---------------------------------------------------------------

TEST(BuildInfo, IsPopulated)
{
    const BuildInfo &info = build_info();
    EXPECT_FALSE(info.compiler.empty());
    EXPECT_FALSE(info.sanitizer.empty());
    EXPECT_FALSE(info.git_describe.empty());
    std::string json = info.to_json();
    EXPECT_NE(json.find("\"compiler\""), std::string::npos);
    EXPECT_NE(json.find("\"sanitizer\""), std::string::npos);
    EXPECT_NE(json.find("\"git\""), std::string::npos);
}

TEST(ServeRuntime, ReportsUptimeAndPid)
{
    ServeRuntime runtime = ServeRuntime::current();
    EXPECT_GT(runtime.pid, 0);
    EXPECT_GE(runtime.uptime_s(Clock::now()), 0.0);
    EXPECT_LT(runtime.uptime_s(Clock::now()), 60.0);
}

TEST(Protocol, MetricsCommandParses)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    auto request = parse_request("{\"id\":3,\"cmd\":\"metrics\"}",
                                 spec, &error);
    ASSERT_TRUE(request.has_value()) << error;
    EXPECT_EQ(request->kind, Request::Kind::kMetrics);
    EXPECT_EQ(request->id, 3);
    EXPECT_STREQ(request_kind_name(request->kind), "metrics");
}

TEST(Protocol, MetricsResponseCarriesWindows)
{
    KernelRegistry registry(hw::DlaSpec::v100());
    EXPECT_EQ(registry.lookup(ops::gemm(64, 64, 64)).tier,
              LookupTier::kMiss);
    RequestMetrics rm;
    rm.observe_lookup(25.0, LookupTier::kExact, Clock::now());

    std::string body = format_metrics_response(7, registry, &rm);
    EXPECT_EQ(body.find("{\"id\":7,"), 0u);
    EXPECT_NE(body.find("\"counters\""), std::string::npos);
    EXPECT_NE(body.find("\"windows\""), std::string::npos);
    EXPECT_NE(body.find("\"serve.window.lookup_us\""),
              std::string::npos);
    EXPECT_EQ(body.find("\"slo\""), std::string::npos);
    // Tier counts are read from RegistryStats at export time.
    EXPECT_NE(body.find("\"serve.lookup.miss\":1"), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"serve.lookup.exact\":0"),
              std::string::npos);
}

} // namespace
} // namespace heron::serve
