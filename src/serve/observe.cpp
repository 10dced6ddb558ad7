#include "serve/observe.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>
#include <unistd.h>

#include "serve/access_log.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/json_util.h"
#include "support/logging.h"
#include "support/trace.h"

namespace heron::serve {

RequestMetrics::RequestMetrics(RequestMetricsConfig config)
    : config_(std::move(config))
{
    if (config_.bounds_us.empty())
        // 1us .. 2^22us (~4.2s): exact probes land in the first
        // buckets, nearest-tier solves in the milliseconds, and a
        // wedged multi-second request still resolves a quantile.
        for (double b = 1.0; b <= 4194304.0; b *= 2.0)
            config_.bounds_us.push_back(b);
    for (int i = 0; i < kTiers; ++i)
        tiers_.push_back(
            std::make_unique<metrics::WindowedHistogram>(
                config_.bounds_us, config_.slots,
                config_.slot_seconds));
    endpoint_names_ = {"stats", "drain", "save", "metrics",
                       "graph", "graph_status", "health"};
    for (size_t i = 0; i < endpoint_names_.size(); ++i)
        endpoints_.push_back(
            std::make_unique<metrics::WindowedHistogram>(
                config_.bounds_us, config_.slots,
                config_.slot_seconds));
}

void
RequestMetrics::observe_lookup(double us, LookupTier tier,
                               Clock::time_point now)
{
    auto t = static_cast<size_t>(tier);
    if (t >= tiers_.size())
        t = kTiers - 1;
    tiers_[t]->observe(us, now);
}

void
RequestMetrics::observe_endpoint(const std::string &endpoint,
                                 double us, Clock::time_point now)
{
    for (size_t i = 0; i < endpoint_names_.size(); ++i) {
        if (endpoint_names_[i] == endpoint) {
            endpoints_[i]->observe(us, now);
            return;
        }
    }
}

namespace {

void
merge_into(metrics::WindowSnapshot &dst,
           const metrics::WindowSnapshot &src)
{
    if (dst.bounds.empty()) {
        dst = src;
        return;
    }
    for (size_t b = 0;
         b < dst.counts.size() && b < src.counts.size(); ++b)
        dst.counts[b] += src.counts[b];
    dst.count += src.count;
    dst.sum += src.sum;
    dst.live_slots = std::max(dst.live_slots, src.live_slots);
}

} // namespace

metrics::WindowSnapshot
RequestMetrics::lookup_window(Clock::time_point now) const
{
    metrics::WindowSnapshot merged;
    for (const auto &tier : tiers_)
        merge_into(merged, tier->snapshot(now));
    return merged;
}

std::vector<RequestMetrics::Named>
RequestMetrics::snapshot_all(Clock::time_point now) const
{
    std::vector<Named> out;
    out.push_back({"serve.window.lookup_us", lookup_window(now)});
    for (int t = 0; t < kTiers; ++t)
        out.push_back(
            {std::string("serve.window.tier.") +
                 lookup_tier_name(static_cast<LookupTier>(t)) +
                 "_us",
             tiers_[static_cast<size_t>(t)]->snapshot(now)});
    for (size_t i = 0; i < endpoints_.size(); ++i)
        out.push_back({"serve.window." + endpoint_names_[i] + "_us",
                       endpoints_[i]->snapshot(now)});
    return out;
}

std::string
RequestObservation::to_json() const
{
    std::ostringstream out;
    out << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    out << "{\"id\":" << id << ",\"endpoint\":\""
        << json_escape(endpoint) << "\"";
    if (tier && *tier)
        out << ",\"tier\":\"" << json_escape(tier) << "\"";
    out << ",\"ok\":" << (ok ? "true" : "false");
    if (deadline_exceeded)
        out << ",\"deadline_exceeded\":true";
    if (shed_reason && *shed_reason)
        out << ",\"shed_reason\":\"" << json_escape(shed_reason)
            << "\"";
    out << ",\"total_us\":" << total_us;
    // Phases that did not happen (shed requests, stdio mode) stay
    // out of the line instead of reporting a misleading 0.
    if (parse_us > 0.0)
        out << ",\"parse_us\":" << parse_us;
    if (queue_us > 0.0)
        out << ",\"queue_us\":" << queue_us;
    if (handle_us > 0.0)
        out << ",\"handle_us\":" << handle_us;
    if (serialize_us > 0.0)
        out << ",\"serialize_us\":" << serialize_us;
    if (write_us > 0.0)
        out << ",\"write_us\":" << write_us;
    if (has_deadline)
        out << ",\"deadline_slack_ms\":" << deadline_slack_ms;
    out << "}";
    return out.str();
}

RequestObservation
executed_observation(const Request &request,
                     const ExecutedRequest &executed, double parse_us,
                     std::chrono::steady_clock::time_point arrival)
{
    RequestObservation obs;
    obs.id = request.id;
    obs.endpoint = request_kind_name(request.kind);
    if (request.kind == Request::Kind::kLookup)
        obs.tier = lookup_tier_name(executed.tier);
    obs.ok = executed.ok;
    obs.deadline_exceeded = executed.deadline_exceeded;
    obs.parse_us = parse_us;
    obs.handle_us = executed.handle_us;
    obs.serialize_us = executed.serialize_us;
    obs.has_deadline = request.deadline_ms > 0.0;
    obs.deadline_ms = request.deadline_ms;
    obs.arrival = arrival;
    return obs;
}

namespace {

/** Emit the request's phase spans under serve/phase/... labels. */
void
record_phase_spans(const RequestObservation &obs)
{
    auto &tracer = trace::Tracer::global();
    if (!tracer.enabled())
        return;
    using Clock = std::chrono::steady_clock;
    auto at = [&](double offset_us) {
        return obs.arrival +
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::micro>(
                       offset_us));
    };
    double t = 0.0;
    auto span = [&](const char *label, double dur_us) {
        if (dur_us <= 0.0)
            return;
        tracer.record_span(label, at(t), at(t + dur_us));
        t += dur_us;
    };
    span("serve/phase/parse", obs.parse_us);
    span("serve/phase/queue", obs.queue_us);
    span("serve/phase/handle", obs.handle_us);
    span("serve/phase/serialize", obs.serialize_us);
    span("serve/phase/write", obs.write_us);
    tracer.record_span("serve/phase/total", obs.arrival,
                       at(obs.total_us));
}

} // namespace

void
observe_request(const RequestObservation &obs,
                RequestMetrics *metrics, AccessLog *log,
                const ObserveConfig &config,
                std::chrono::steady_clock::time_point now)
{
    bool slow = config.slow_request_ms > 0.0 &&
                obs.total_us > config.slow_request_ms * 1e3;

    // Cumulative per-phase histograms (process-lifetime, compiled
    // out by HERON_DISABLE_TRACING like all HERON_* macros).
    if (obs.parse_us > 0.0)
        HERON_HISTOGRAM_OBSERVE("serve.phase.parse_us",
                                obs.parse_us);
    if (obs.queue_us > 0.0)
        HERON_HISTOGRAM_OBSERVE("serve.phase.queue_us",
                                obs.queue_us);
    if (obs.handle_us > 0.0)
        HERON_HISTOGRAM_OBSERVE("serve.phase.handle_us",
                                obs.handle_us);
    if (obs.serialize_us > 0.0)
        HERON_HISTOGRAM_OBSERVE("serve.phase.serialize_us",
                                obs.serialize_us);
    if (obs.write_us > 0.0)
        HERON_HISTOGRAM_OBSERVE("serve.phase.write_us",
                                obs.write_us);
    record_phase_spans(obs);

    if (metrics && !(obs.shed_reason && *obs.shed_reason)) {
        if (std::string_view(obs.endpoint) == "lookup") {
            LookupTier tier = LookupTier::kMiss;
            std::string_view t(obs.tier);
            if (t == "exact")
                tier = LookupTier::kExact;
            else if (t == "nearest")
                tier = LookupTier::kNearest;
            else if (t == "negative")
                tier = LookupTier::kNegative;
            metrics->observe_lookup(obs.total_us, tier, now);
        } else {
            metrics->observe_endpoint(obs.endpoint, obs.total_us,
                                      now);
        }
    }

    if (slow) {
        HERON_COUNTER_INC("serve.request.slow");
        HERON_WARN << "serve: slow request id=" << obs.id
                   << " endpoint=" << obs.endpoint
                   << (obs.tier && *obs.tier ? " tier=" : "")
                   << obs.tier << " total="
                   << obs.total_us / 1e3 << "ms (parse "
                   << obs.parse_us << "us, queue " << obs.queue_us
                   << "us, handle " << obs.handle_us
                   << "us, serialize " << obs.serialize_us
                   << "us, write " << obs.write_us << "us)";
    }

    if (log)
        // Errors, sheds, and slow requests always log; healthy
        // requests go through the sampler.
        log->append(obs.to_json(),
                    /*always=*/!obs.ok || slow ||
                        (obs.shed_reason && *obs.shed_reason));
}

ServeRuntime
ServeRuntime::current()
{
    ServeRuntime runtime;
    runtime.start = std::chrono::steady_clock::now();
    runtime.pid = static_cast<int>(::getpid());
    return runtime;
}

} // namespace heron::serve
