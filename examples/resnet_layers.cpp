/**
 * @file
 * Whole-network serving example: submit ResNet-50 (batch 16) as ONE
 * graph request against a cold kernel registry and watch it
 * converge — the scenario the paper's introduction motivates
 * (generating a high-performance library for a whole model), run
 * through the serving path instead of an offline tuning sweep.
 *
 * The round-trip exercised here is exactly what heron_serve --graph
 * does over TCP:
 *
 *   1. the graph's layers are deduped by canonical workload key,
 *   2. every distinct key resolves with one registry lookup,
 *   3. misses enter the tune queue in payoff order
 *      (count x FLOPs x tier gap — hottest layers tune first),
 *   4. after the background tuner drains, a status poll reports
 *      convergence and the model compiles into a single dispatch
 *      library (shared kernels emitted once).
 *
 * Run: ./build/examples/resnet_layers [per-layer-trials] [batch]
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "autotune/library.h"
#include "ops/networks.h"
#include "serve/graph.h"
#include "serve/graph_schedule.h"
#include "serve/registry.h"
#include "serve/tune_queue.h"

using namespace heron;

namespace {

const char *
tier_label(serve::LookupTier tier)
{
    switch (tier) {
      case serve::LookupTier::kExact:
        return "exact";
      case serve::LookupTier::kNearest:
        return "nearest";
      default:
        return "miss";
    }
}

void
print_result(const char *title, const serve::GraphResult &result)
{
    std::printf("%s: %lld distinct layer(s), %lld instance(s), "
                "%lld deduped; tiers exact=%lld nearest=%lld "
                "miss=%lld; scheduled=%lld coverage=%.0f%%%s\n",
                title, static_cast<long long>(result.layers),
                static_cast<long long>(result.instances),
                static_cast<long long>(result.deduped),
                static_cast<long long>(result.exact),
                static_cast<long long>(result.nearest),
                static_cast<long long>(result.miss),
                static_cast<long long>(result.scheduled),
                100.0 * result.coverage,
                result.converged ? " (converged)" : "");
}

} // namespace

int
main(int argc, char **argv)
{
    int trials = argc > 1 ? std::atoi(argv[1]) : 20;
    int batch = argc > 2 ? std::atoi(argv[2]) : 16;

    hw::DlaSpec spec = hw::DlaSpec::v100();
    ops::Network net = ops::resnet50(batch);
    std::printf("ResNet-50 (batch %d): %zu distinct layers, %.1f "
                "GFLOPs total\n\n",
                batch, net.layers.size(),
                static_cast<double>(net.total_flops()) / 1e9);

    // A cold registry with the on-miss tuner behind it: the same
    // wiring heron_serve --graph --tune-on-miss uses.
    serve::KernelRegistry registry(spec, {});
    serve::TuneQueueConfig queue_config;
    queue_config.capacity = net.layers.size() + 8;
    queue_config.tune.trials = trials;
    serve::TuneQueue queue(registry, queue_config);
    queue.start();

    serve::GraphTuneScheduler scheduler(&queue);
    serve::GraphService graphs(registry, scheduler);

    // First pass: everything misses, and the tune schedule comes
    // back ordered by payoff, not by network layer order.
    serve::GraphResult first = graphs.handle_graph(net);
    print_result("cold graph", first);
    std::printf("\npayoff-ordered tune schedule (hottest first):\n");
    std::vector<const serve::GraphLayerStatus *> scheduled;
    for (const auto &layer : first.layer_status)
        if (layer.scheduled)
            scheduled.push_back(&layer);
    std::sort(scheduled.begin(), scheduled.end(),
              [](const serve::GraphLayerStatus *a,
                 const serve::GraphLayerStatus *b) {
                  return a->payoff > b->payoff;
              });
    for (size_t i = 0; i < scheduled.size() && i < 5; ++i)
        std::printf("  %-40s x%-4lld payoff %.3g\n",
                    scheduled[i]->workload.name.c_str(),
                    static_cast<long long>(scheduled[i]->count),
                    scheduled[i]->payoff);

    // Let the background tuner drain, then poll — the same
    // graph_status loop a client runs over TCP.
    queue.drain();
    auto status = graphs.handle_status(first.id);
    if (!status) {
        std::fprintf(stderr, "graph %lld evicted?\n",
                     static_cast<long long>(first.id));
        return 1;
    }
    if (!status->converged) {
        // Budget splitting can leave layers for a later poll; one
        // more dispatch + drain finishes a single-graph run.
        queue.drain();
        status = graphs.handle_status(first.id);
    }
    std::printf("\n");
    print_result("after tuning", *status);

    // Converged: compile the whole model into one library. Every
    // record now answers exact, so the emitted header dispatches
    // all layers and shared kernels appear once.
    std::vector<autotune::NetworkLayerSpec> specs;
    double total_ms = 0.0;
    std::printf("\n%-40s %6s %8s %10s\n", "layer", "count", "tier",
                "ms/call");
    for (const auto &layer : status->layer_status) {
        autotune::NetworkLayerSpec layer_spec;
        layer_spec.workload = layer.workload;
        layer_spec.count = layer.count;
        auto record =
            registry.lookup(layer.workload).record;
        double ms = 0.0;
        if (record.has_value()) {
            layer_spec.record = record;
            ms = record->latency_ms;
        }
        total_ms += ms * static_cast<double>(layer.count);
        std::printf("%-40s %6lld %8s %10.4f\n",
                    layer.workload.name.c_str(),
                    static_cast<long long>(layer.count),
                    tier_label(layer.tier), ms);
        specs.push_back(std::move(layer_spec));
    }

    autotune::LibraryBuilder builder(spec, {});
    autotune::NetworkLibrary library =
        builder.emit_network(net.name, specs);
    std::string header = library.emit_header("heron_resnet50");
    std::printf("\nEnd-to-end (sum of count x latency): %.3f ms\n",
                total_ms);
    std::printf("Library: %lld kernel(s) emitted for %lld "
                "instance(s) (%lld deduped), dispatch header %zu "
                "bytes\n",
                static_cast<long long>(library.emitted),
                static_cast<long long>(library.instances),
                static_cast<long long>(library.deduped),
                header.size());

    queue.stop();
    return status->converged ? 0 : 1;
}
