#include <algorithm>

#include "support/metrics.h"
#include "support/trace.h"

#include "workloads.h"

namespace perfbench {

namespace {

double
counter(const heron::metrics::MetricsSnapshot &snap, const char *name)
{
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Mean seconds per span of @p label from the tracer's aggregates. */
double
mean_span_s(const std::map<std::string, heron::trace::SpanStats> &totals,
            const char *label)
{
    auto it = totals.find(label);
    if (it == totals.end() || it->second.count == 0)
        return 0.0;
    return it->second.total_seconds /
           static_cast<double>(it->second.count);
}

double
histogram_p50(const heron::metrics::MetricsSnapshot &snap,
              const char *name)
{
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.percentile(50);
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
layer_metrics()
{
    using Table = std::vector<std::pair<std::string, std::string>>;
    static const Table table = [] {
        Table t = {
            {"rules.generate_s", "s"},
            {"rules.csp_vars", "count"},
            {"rules.csp_constraints", "count"},
            {"csp.sample_s", "s"},
            {"csp.solve_s", "s"},
            {"csp.solves", "count"},
            {"csp.backtracks_per_solve", "count"},
            {"csp.propagations_per_solve", "count"},
            {"csp.solution_ratio", "fraction"},
            {"csp.fail_prod", "count"},
            {"cga.crossover_s", "s"},
            {"cga.crossover_self_s", "s"},
            {"cga.crossover_share", "fraction"},
            {"cga.relaxations", "count"},
            {"model.fit_s", "s"},
            {"model.predict_calls", "count"},
            {"model.feature_cache_hit_ratio", "fraction"},
            {"hw.measure_s", "s"},
            {"hw.measurements", "count"},
            {"hw.measure_failures", "count"},
            {"hw.simulated_s", "s"},
            {"autotune.search_s", "s"},
            {"autotune.model_s", "s"},
            {"autotune.residual_s", "s"},
        };
        for (const char *dla : {"v100", "dlboost", "vta"})
            for (const char *op : {"GEMM", "C2D", "C3D"})
                t.push_back({std::string("autotune.tune_s.") + dla + "-" +
                                 op,
                             "s"});
        t.insert(t.end(), {
                              {"serve.registry.exact_us", "us"},
                              {"serve.registry.nearest_ms", "ms"},
                              {"serve.registry.transfers", "count"},
                              {"serve.registry.fallback_rejected", "count"},
                              {"serve.registry.hot_swaps", "count"},
                              {"serve.server.parse_us", "us"},
                              {"serve.server.queue_us", "us"},
                              {"serve.server.handle_us", "us"},
                              {"serve.server.serialize_us", "us"},
                              {"serve.server.write_us", "us"},
                              {"serve.server.shed", "count"},
                              {"serve.queue.tune_s", "s"},
                              {"serve.queue.tunes", "count"},
                              {"serve.queue.idle_s", "s"},
                              {"serve.store.replay_s", "s"},
                              {"serve.store.append_us", "us"},
                              {"serve.graph.resolve_us", "us"},
                              {"serve.graph.emit_ms", "ms"},
                              {"serve.graph.polls", "count"},
                              {"serve.server.p99_while_tuning_us", "us"},
                              {"bench.lookup_rps", "req/s"},
                              {"bench.lookup_p50_us", "us"},
                              {"bench.lookup_p90_us", "us"},
                              {"bench.lookup_p99_us", "us"},
                              {"bench.gen_lag_us", "us"},
                              {"bench.trace_overhead_pct", "%"},
                          });
        return t;
    }();
    return table;
}

void
zero_layer_metrics(Report &report)
{
    for (const auto &[name, unit] : layer_metrics())
        report.set(name, 0.0, unit);
}

void
tune_layer_metrics(Report &report, const LayerTimes &layers,
                   double tune_wall_s)
{
    auto snap = heron::metrics::Registry::global().snapshot();
    auto totals = heron::trace::Tracer::global().totals();
    auto serve_generate = totals.find("serve/generate_space");

    report.set("rules.generate_s",
               layers.self("space/generate") +
                   (serve_generate == totals.end()
                        ? 0.0
                        : serve_generate->second.total_seconds),
               "s");

    double solves = counter(snap, "csp.solve_calls");
    report.set("csp.sample_s", layers.self("csp/sample_batch"), "s");
    report.set("csp.solve_s", layers.self("csp/solve"), "s");
    report.set("csp.solves", solves, "count");
    report.set("csp.backtracks_per_solve",
               ratio(counter(snap, "csp.backtracks"), solves), "count");
    report.set("csp.propagations_per_solve",
               ratio(counter(snap, "csp.propagations"), solves), "count");
    report.set("csp.solution_ratio",
               ratio(counter(snap, "csp.solutions"), solves), "fraction");
    report.set("csp.fail_prod", counter(snap, "csp.fail.prod"), "count");

    report.set("cga.crossover_s", layers.inclusive("cga/crossover"), "s");
    report.set("cga.crossover_self_s", layers.self("cga/crossover"), "s");
    report.set("cga.crossover_share",
               ratio(layers.inclusive("cga/crossover"), tune_wall_s),
               "fraction");
    report.set("cga.relaxations", counter(snap, "cga.relaxations"),
               "count");

    double hits = counter(snap, "model.feature_cache_hits");
    report.set("model.fit_s", layers.inclusive("model/fit"), "s");
    report.set("model.predict_calls", counter(snap, "model.predict_calls"),
               "count");
    report.set("model.feature_cache_hit_ratio",
               ratio(hits, hits + counter(snap, "model.feature_cache_misses")),
               "fraction");

    auto simulated = snap.gauges.find("measure.simulated_seconds");
    report.set("hw.measure_s", layers.inclusive("pool/measure_batch"), "s");
    report.set("hw.measurements", counter(snap, "measure.measurements"),
               "count");
    report.set("hw.measure_failures",
               counter(snap, "measure.invalid") +
                   counter(snap, "measure.hung") +
                   counter(snap, "measure.exhausted_retries"),
               "count");
    report.set("hw.simulated_s",
               simulated == snap.gauges.end() ? 0.0 : simulated->second,
               "s");

    report.set("autotune.search_s", layers.self("phase/search"), "s");
    report.set("autotune.model_s", layers.self("phase/model"), "s");
    // Everything the layer spans do not cover: the tuner's own
    // bookkeeping (tuner/tune self time) plus call overhead.
    report.set("autotune.residual_s",
               tune_wall_s - layers.total_self() +
                   layers.self("tuner/tune"),
               "s");
}

void
serve_layer_metrics(Report &report, ServingStack &stack,
                    const std::vector<ServedKey> &exact,
                    const std::vector<ServedKey> &nearest)
{
    auto snap = heron::metrics::Registry::global().snapshot();
    auto totals = heron::trace::Tracer::global().totals();
    heron::serve::RegistryStats stats = stack.registry().stats();
    report.set("serve.registry.transfers",
               static_cast<double>(stats.fallback_transferred), "count");
    report.set("serve.registry.fallback_rejected",
               static_cast<double>(stats.fallback_rejected), "count");
    report.set("serve.registry.hot_swaps",
               static_cast<double>(stats.hot_swaps), "count");

    report.set("serve.server.parse_us",
               histogram_p50(snap, "serve.phase.parse_us"), "us");
    report.set("serve.server.queue_us",
               histogram_p50(snap, "serve.phase.queue_us"), "us");
    report.set("serve.server.handle_us",
               histogram_p50(snap, "serve.phase.handle_us"), "us");
    report.set("serve.server.serialize_us",
               histogram_p50(snap, "serve.phase.serialize_us"), "us");
    report.set("serve.server.write_us",
               histogram_p50(snap, "serve.phase.write_us"), "us");
    report.set("serve.server.shed",
               static_cast<double>(stack.server().stats().shed_overloaded),
               "count");

    if (stack.queue() != nullptr) {
        auto tune = totals.find("serve/tune");
        report.set("serve.queue.tune_s",
                   tune == totals.end() ? 0.0
                                        : tune->second.total_seconds,
                   "s");
        report.set("serve.queue.tunes",
                   static_cast<double>(stack.queue()->stats().completed),
                   "count");
    }
    if (stack.store() != nullptr)
        report.set("serve.store.replay_s",
                   stack.store()->stats().last_replay_ms / 1e3, "s");
    report.set("serve.graph.resolve_us",
               mean_span_s(totals, "serve/graph_resolve") * 1e6, "us");

    // Direct probes, untraced so they time the lookup alone.
    heron::trace::Tracer &tracer = heron::trace::Tracer::global();
    const bool traced = tracer.enabled();
    tracer.set_enabled(false);
    std::vector<double> exact_us;
    for (size_t i = 0; !exact.empty() && i < 4000; ++i) {
        const ServedKey &key = exact[i % exact.size()];
        Clock::time_point t0 = Clock::now();
        auto result = stack.registry().lookup(key.workload);
        exact_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        report.check(result.tier == heron::serve::LookupTier::kExact,
                     "direct probe of " + key.workload.name +
                         " missed the exact tier");
    }
    std::vector<double> nearest_ms;
    for (int round = 0; round < 3; ++round)
        for (const ServedKey &key : nearest) {
            Clock::time_point t0 = Clock::now();
            auto result = stack.registry().lookup(key.workload);
            nearest_ms.push_back(std::chrono::duration<double, std::milli>(
                                     Clock::now() - t0)
                                     .count());
            report.check(result.tier == heron::serve::LookupTier::kNearest,
                         "direct probe of " + key.workload.name +
                             " missed the nearest tier");
        }
    tracer.set_enabled(traced);
    report.set("serve.registry.exact_us",
               exact_us.empty() ? 0.0 : heron::percentile(exact_us, 50),
               "us");
    report.set("serve.registry.nearest_ms",
               nearest_ms.empty() ? 0.0
                                  : heron::percentile(nearest_ms, 50),
               "ms");
}

double
chunked_quantile(const std::vector<double> &latency_us, double q)
{
    // Quantile per chunk of consecutive requests, then the median
    // over chunks: one stalled second of a shared machine moves one
    // chunk's quantile, not the run's.
    constexpr size_t kChunk = 1000;
    if (latency_us.empty())
        return 0.0;
    const size_t chunks = std::max<size_t>(1, latency_us.size() / kChunk);
    std::vector<double> per_chunk;
    for (size_t c = 0; c < chunks; ++c)
        per_chunk.push_back(heron::percentile(
            std::vector<double>(
                latency_us.begin() + c * latency_us.size() / chunks,
                latency_us.begin() + (c + 1) * latency_us.size() / chunks),
            100 * q));
    return heron::percentile(per_chunk, 50);
}

void
latency_metrics(Report &report, const LoadStats &stats)
{
    report.set("bench.lookup_p50_us",
               chunked_quantile(stats.latency_us, 0.5), "us");
    report.set("bench.lookup_p90_us",
               chunked_quantile(stats.latency_us, 0.9), "us");
    report.set("bench.lookup_p99_us",
               chunked_quantile(stats.latency_us, 0.99), "us");
    report.set("bench.gen_lag_us",
               stats.lag_us.empty() ? 0.0
                                    : heron::percentile(stats.lag_us, 99),
               "us");
}

} // namespace perfbench
