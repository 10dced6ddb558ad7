#include "serve/graph.h"

#include <algorithm>
#include <unordered_map>

#include "codegen/emitter.h"
#include "support/fs_util.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::serve {

GraphService::GraphService(KernelRegistry &registry,
                           GraphTuneScheduler &scheduler,
                           GraphServiceConfig config)
    : registry_(registry), scheduler_(scheduler),
      config_(std::move(config))
{
}

std::vector<GraphLayer>
GraphService::canonicalize(const ops::Network &network,
                           int64_t *instances) const
{
    // Dedupe: layers that canonicalize to the same WorkloadKey are
    // one workload however many times (and under whatever display
    // names) the network lists them. Counts are summed so the
    // payoff model still sees the full instance weight.
    std::vector<GraphLayer> merged;
    std::unordered_map<WorkloadKey, size_t, WorkloadKeyHash> index;
    *instances = 0;
    for (const auto &layer : network.layers) {
        int64_t count = std::max<int64_t>(1, layer.count);
        *instances += count;
        WorkloadKey key = make_key(layer.workload,
                                   registry_.spec());
        auto it = index.find(key);
        if (it != index.end()) {
            merged[it->second].count += count;
            continue;
        }
        GraphLayer entry;
        entry.workload = layer.workload;
        entry.key = std::move(key);
        entry.count = count;
        index.emplace(entry.key, merged.size());
        merged.push_back(std::move(entry));
    }
    return merged;
}

void
GraphService::fill_status(const TrackedGraph &graph,
                          const std::vector<ScheduledLayer> &plan,
                          GraphResult *result)
{
    result->id = graph.id;
    result->name = graph.name;
    result->layers = static_cast<int64_t>(graph.layers.size());
    result->instances = graph.instances;
    result->deduped = graph.deduped;
    result->emitted = graph.emitted;
    result->library_path = graph.library_path;

    std::vector<double> payoffs(graph.layers.size(), 0.0);
    for (const auto &scheduled : plan)
        payoffs[scheduled.layer] = scheduled.payoff;

    int64_t exact_instances = 0;
    for (size_t i = 0; i < graph.layers.size(); ++i) {
        const GraphLayer &layer = graph.layers[i];
        GraphLayerStatus status;
        status.workload = layer.workload;
        status.key = layer.key.canonical();
        status.count = layer.count;
        status.tier = layer.tier;
        status.distance = layer.distance;
        status.payoff = payoffs[i] > 0.0 ? payoffs[i]
                                         : layer_payoff(layer);
        status.scheduled = graph.scheduled[i];
        switch (layer.tier) {
          case LookupTier::kExact:
            ++result->exact;
            exact_instances += layer.count;
            break;
          case LookupTier::kNearest:
            ++result->nearest;
            break;
          default:
            ++result->miss;
            break;
        }
        result->layer_status.push_back(std::move(status));
    }
    result->coverage =
        graph.instances > 0
            ? static_cast<double>(exact_instances) /
                  static_cast<double>(graph.instances)
            : 1.0;
    result->converged =
        result->exact == result->layers;
}

void
GraphService::maybe_close(TrackedGraph &graph)
{
    if (graph.closed)
        return;
    // Untunable layers never resolve, so they must not keep the
    // graph holding a share of the tune budget.
    for (const auto &layer : graph.layers)
        if (layer.tier != LookupTier::kExact && !layer.untunable)
            return;
    graph.closed = true;
    scheduler_.graph_closed();
}

GraphResult
GraphService::handle_graph(const ops::Network &network,
                           const LookupOptions &options,
                           bool inline_header)
{
    HERON_TRACE_SCOPE("serve/graph");
    requests_.fetch_add(1, std::memory_order_relaxed);
    HERON_COUNTER_INC("serve.graph.requests");

    TrackedGraph graph;
    graph.name = network.name;
    graph.layers = canonicalize(network, &graph.instances);
    graph.scheduled.assign(graph.layers.size(), false);
    graph.deduped =
        graph.instances -
        static_cast<int64_t>(graph.layers.size());
    layers_.fetch_add(static_cast<int64_t>(graph.layers.size()),
                      std::memory_order_relaxed);
    deduped_.fetch_add(graph.deduped, std::memory_order_relaxed);
    HERON_COUNTER_ADD("serve.graph.layers",
                      static_cast<int64_t>(graph.layers.size()));
    HERON_COUNTER_ADD("serve.graph.deduped", graph.deduped);

    // Resolve every distinct layer. The scheduler — not registry key
    // order — decides what gets tuned, so per-lookup miss dispatch
    // is forced off.
    LookupOptions resolve_options = options;
    resolve_options.dispatch_miss = false;
    std::vector<autotune::NetworkLayerSpec> specs;
    specs.reserve(graph.layers.size());
    {
        HERON_TRACE_SCOPE("serve/graph_resolve");
        for (auto &layer : graph.layers) {
            LookupResult found =
                registry_.lookup(layer.workload, resolve_options);
            layer.tier = found.tier;
            layer.distance = found.distance;
            autotune::NetworkLayerSpec spec;
            spec.workload = layer.workload;
            spec.count = layer.count;
            if (found.hit())
                spec.record = std::move(found.record);
            specs.push_back(std::move(spec));
        }
    }

    // Payoff-ordered tune plan for whatever did not answer exact.
    scheduler_.graph_opened();
    auto plan = GraphTuneScheduler::plan(graph.layers,
                                         scheduler_.budget());
    GraphResult result;
    result.scheduled = scheduler_.dispatch(graph.layers, plan);
    for (const auto &scheduled : plan)
        graph.scheduled[scheduled.layer] =
            graph.layers[scheduled.layer].tier !=
            LookupTier::kExact;

    // One library for the whole model: deduped kernels emitted
    // once, a dispatch function keyed on layer index.
    {
        HERON_TRACE_SCOPE("serve/graph_emit");
        autotune::LibraryBuilder builder(registry_.spec(), {});
        auto library = builder.emit_network(network.name, specs);
        graph.emitted = library.emitted;
        emitted_.fetch_add(library.emitted,
                           std::memory_order_relaxed);
        HERON_COUNTER_ADD("serve.graph.emitted", library.emitted);

        std::string library_name =
            "heron_" +
            codegen::sanitize_identifier(network.name);
        {
            std::lock_guard<std::mutex> lock(mu_);
            graph.id = next_id_++;
        }
        if (!config_.emit_dir.empty()) {
            graph.library_path =
                config_.emit_dir + "/graph_" +
                std::to_string(graph.id) + "_" +
                codegen::sanitize_identifier(network.name) + ".h";
            if (!atomic_write_file(
                    graph.library_path,
                    library.emit_header(library_name))) {
                HERON_WARN << "graph " << graph.id
                           << ": cannot write "
                           << graph.library_path;
                graph.library_path.clear();
            }
        }
        if (inline_header)
            result.library_header =
                library.emit_header(library_name);
    }

    fill_status(graph, plan, &result);

    {
        std::lock_guard<std::mutex> lock(mu_);
        maybe_close(graph);
        graphs_.emplace(graph.id, std::move(graph));
        while (graphs_.size() > std::max<size_t>(
                                    1, config_.max_graphs)) {
            auto oldest = graphs_.begin();
            if (!oldest->second.closed)
                scheduler_.graph_closed();
            graphs_.erase(oldest);
        }
    }
    return result;
}

std::optional<GraphResult>
GraphService::handle_status(int64_t id)
{
    HERON_TRACE_SCOPE("serve/graph_status");
    status_requests_.fetch_add(1, std::memory_order_relaxed);
    HERON_COUNTER_INC("serve.graph.status_requests");

    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(id);
    if (it == graphs_.end())
        return std::nullopt;
    TrackedGraph &graph = it->second;

    // Re-peek unresolved layers: peek() is a pure exact probe, so
    // polling for convergence never perturbs the tier counters or
    // the negative cache it is reporting on.
    for (size_t i = 0; i < graph.layers.size(); ++i) {
        GraphLayer &layer = graph.layers[i];
        if (layer.tier == LookupTier::kExact)
            continue;
        if (registry_.peek(layer.key)) {
            layer.tier = LookupTier::kExact;
            layer.distance = 0.0;
            graph.scheduled[i] = false;
        } else {
            layer.untunable = registry_.untunable(layer.key);
        }
    }

    // Re-dispatch whatever still misses under the current budget:
    // an earlier enqueue may have been rejected (full queue); the
    // poll is the retry loop. A layer whose tune failed (untunable)
    // has zero payoff and is not planned again.
    GraphResult result;
    std::vector<ScheduledLayer> plan;
    if (!graph.closed) {
        plan = GraphTuneScheduler::plan(graph.layers,
                                        scheduler_.budget());
        result.scheduled = scheduler_.dispatch(graph.layers, plan);
        for (const auto &scheduled : plan)
            graph.scheduled[scheduled.layer] =
                graph.layers[scheduled.layer].tier !=
                LookupTier::kExact;
    }

    fill_status(graph, plan, &result);
    maybe_close(graph);
    return result;
}

GraphServiceStats
GraphService::stats() const
{
    GraphServiceStats stats;
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.status_requests =
        status_requests_.load(std::memory_order_relaxed);
    stats.layers = layers_.load(std::memory_order_relaxed);
    stats.deduped = deduped_.load(std::memory_order_relaxed);
    stats.emitted = emitted_.load(std::memory_order_relaxed);
    stats.scheduled = scheduler_.scheduled();
    stats.active = scheduler_.active_graphs();
    return stats;
}

} // namespace heron::serve
