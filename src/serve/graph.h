/**
 * @file
 * GraphService: whole-network serving over the kernel registry.
 *
 * A graph request describes a model as layers-with-counts (the
 * ops::Network shape). The service canonicalizes every layer to a
 * WorkloadKey, merges layers that share a key (summing instance
 * counts — the dedupe step), resolves each distinct key with one
 * KernelRegistry::lookup (miss dispatch off), hands unresolved
 * layers to the GraphTuneScheduler in payoff order, and compiles
 * the resolved model into a single dispatchable library
 * (LibraryBuilder::emit_network — shared kernels emitted once, one
 * dispatch function keyed on layer index).
 *
 * Each accepted graph is remembered so a follow-up graph_status
 * request reports per-layer tiers and coverage; status polls peek
 * the registry (no counters perturbed) and re-dispatch layers that
 * still miss, so a graph converges to all-exact as background tunes
 * complete.
 */
#ifndef HERON_SERVE_GRAPH_H
#define HERON_SERVE_GRAPH_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "autotune/library.h"
#include "ops/networks.h"
#include "serve/graph_schedule.h"
#include "serve/registry.h"

namespace heron::serve {

/** Graph-serving knobs. */
struct GraphServiceConfig {
    /**
     * Remembered graphs (for graph_status). The oldest graph is
     * evicted once the table is full; its status becomes unknown
     * but its scheduled tunes still run.
     */
    size_t max_graphs = 64;
    /**
     * Directory for emitted dispatch headers ("" = inline-only).
     * Each graph writes <emit_dir>/graph_<id>_<name>.h.
     */
    std::string emit_dir;
};

/** Per-layer state reported by graph and graph_status responses. */
struct GraphLayerStatus {
    ops::Workload workload;
    /** Canonical workload key (the dedupe identity). */
    std::string key;
    int64_t count = 1;
    LookupTier tier = LookupTier::kMiss;
    double distance = 0.0;
    double payoff = 0.0;
    /** This layer sits in the tune plan (still converging). */
    bool scheduled = false;
};

/** Outcome of one graph (or graph_status) request. */
struct GraphResult {
    int64_t id = 0;
    std::string name;
    /** Distinct layers after dedupe. */
    int64_t layers = 0;
    /** Total layer instances before dedupe (Σ count). */
    int64_t instances = 0;
    /** Instances answered by an earlier identical layer. */
    int64_t deduped = 0;
    /** Distinct-layer tier counts from the resolution. */
    int64_t exact = 0;
    int64_t nearest = 0;
    int64_t miss = 0;
    /** Layers handed to the tune queue this pass. */
    int64_t scheduled = 0;
    /** Distinct kernels with generated source. */
    int64_t emitted = 0;
    /** Instance-weighted exact coverage in [0, 1]. */
    double coverage = 0.0;
    /** Every layer answers from the exact tier. */
    bool converged = false;
    /** Emitted dispatch-header path ("" when emit_dir unset). */
    std::string library_path;
    /** Inline dispatch header (graph requests with emit=inline). */
    std::string library_header;
    std::vector<GraphLayerStatus> layer_status;
};

/** Monotonic graph-serving counters. */
struct GraphServiceStats {
    int64_t requests = 0;
    int64_t status_requests = 0;
    /** Distinct layers resolved across all graphs. */
    int64_t layers = 0;
    /** Deduped instances across all graphs. */
    int64_t deduped = 0;
    /** Kernels emitted across all graphs. */
    int64_t emitted = 0;
    /** Layers accepted by the tune queue across all graphs. */
    int64_t scheduled = 0;
    /** Graphs currently tracked (gauge, not monotonic). */
    int64_t active = 0;
};

/**
 * Whole-network front-end over one KernelRegistry (see file
 * header). Thread-safe: the graph table is mutex-protected, and
 * registry/scheduler calls use their own synchronization.
 */
class GraphService
{
  public:
    /** @p registry and @p scheduler must outlive the service. */
    GraphService(KernelRegistry &registry,
                 GraphTuneScheduler &scheduler,
                 GraphServiceConfig config = {});

    /**
     * Serve a graph request: dedupe, resolve, schedule misses by
     * payoff, emit the network library. @p options's deadline is
     * propagated into every layer's lookup; dispatch_miss is
     * forced off (the scheduler owns tune order).
     * @p inline_header additionally returns the emitted dispatch
     * header in GraphResult::library_header.
     */
    GraphResult handle_graph(const ops::Network &network,
                             const LookupOptions &options = {},
                             bool inline_header = false);

    /**
     * Report (and advance) a tracked graph: re-peek every layer,
     * re-dispatch still-unresolved ones under the current budget,
     * and return updated tiers/coverage. nullopt when @p id is
     * unknown (never accepted, or evicted).
     */
    std::optional<GraphResult> handle_status(int64_t id);

    GraphServiceStats stats() const;

  private:
    struct TrackedGraph {
        int64_t id = 0;
        std::string name;
        int64_t instances = 0;
        int64_t deduped = 0;
        int64_t emitted = 0;
        std::string library_path;
        std::vector<GraphLayer> layers;
        std::vector<bool> scheduled;
        bool closed = false;
    };

    KernelRegistry &registry_;
    GraphTuneScheduler &scheduler_;
    GraphServiceConfig config_;

    mutable std::mutex mu_;
    /** Ordered so eviction drops the oldest id. */
    std::map<int64_t, TrackedGraph> graphs_;
    int64_t next_id_ = 1;

    mutable std::atomic<int64_t> requests_{0};
    mutable std::atomic<int64_t> status_requests_{0};
    mutable std::atomic<int64_t> layers_{0};
    mutable std::atomic<int64_t> deduped_{0};
    mutable std::atomic<int64_t> emitted_{0};

    /** Merge layers sharing a canonical key (dedupe). */
    std::vector<GraphLayer>
    canonicalize(const ops::Network &network,
                 int64_t *instances) const;

    /** Build the response's per-layer status + coverage fields. */
    static void fill_status(const TrackedGraph &graph,
                            const std::vector<ScheduledLayer> &plan,
                            GraphResult *result);

    /**
     * Close graphs with nothing left to tune: every layer exact or
     * untunable (scheduler bookkeeping).
     */
    void maybe_close(TrackedGraph &graph);
};

} // namespace heron::serve

#endif // HERON_SERVE_GRAPH_H
