/**
 * @file
 * GraphTuneScheduler: payoff-driven tune ordering for whole-network
 * requests (the Ansor task-scheduler idea applied to the serving
 * path). When a graph request leaves some layers unresolved, FIFO
 * order would tune them in registry-key order; instead each layer
 * is scored by its expected payoff
 *
 *     payoff = count x FLOPs x gap
 *
 * where `count` is how many times the network instantiates the
 * layer, FLOPs is the work per instance, and `gap` estimates how
 * far the currently served answer is from a tuned one (0 for an
 * exact hit, distance/(1+distance) for a nearest-tier fallback, 1
 * for a miss). Layers are fed to the TuneQueue in descending
 * payoff, so the tune budget goes to the layers whose improvement
 * moves end-to-end model latency most. The per-graph budget is the
 * queue capacity split across graphs currently in flight, so one
 * giant model cannot starve every other client's misses.
 */
#ifndef HERON_SERVE_GRAPH_SCHEDULE_H
#define HERON_SERVE_GRAPH_SCHEDULE_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "ops/op_library.h"
#include "serve/registry.h"
#include "serve/tune_queue.h"
#include "serve/workload_key.h"

namespace heron::serve {

/** One distinct graph layer as the payoff model sees it. */
struct GraphLayer {
    ops::Workload workload;
    WorkloadKey key;
    /** Instances of this workload in the network. */
    int64_t count = 1;
    /** Tier the registry resolution answered with. */
    LookupTier tier = LookupTier::kMiss;
    /** Shape distance to the donor (nearest tier only). */
    double distance = 0.0;
    /** The registry marked this key untunable: never re-dispatch. */
    bool untunable = false;
};

/**
 * Estimated quality gap of the served answer: 0 when exact, 1 on a
 * miss, and distance/(1+distance) for a nearest-tier fallback so a
 * farther donor (a worse estimate) ranks closer to a miss.
 */
double tier_gap(LookupTier tier, double distance);

/** count x FLOPs x tier_gap for @p layer; 0 when untunable. */
double layer_payoff(const GraphLayer &layer);

/** One planned tune, in dispatch order. */
struct ScheduledLayer {
    /** Index into the layer vector handed to plan(). */
    size_t layer = 0;
    double payoff = 0.0;
};

/**
 * Ranks unresolved graph layers by payoff and feeds them to the
 * TuneQueue in that order. plan() is a pure function of its inputs
 * (deterministic, directly testable); dispatch() is the only part
 * that touches the queue. Thread-safe.
 */
class GraphTuneScheduler
{
  public:
    /** @p queue may be nullptr (plan-only; dispatch is a no-op). */
    explicit GraphTuneScheduler(TuneQueue *queue = nullptr);

    /**
     * Rank every layer with a nonzero payoff (anything neither
     * exact nor untunable) in descending payoff and cap the list at
     * @p budget entries.
     * Ties break on instance count, then canonical key, so the
     * order never depends on input permutation.
     */
    static std::vector<ScheduledLayer>
    plan(const std::vector<GraphLayer> &layers, size_t budget);

    /**
     * This graph's tune budget: the queue's waiting-slot capacity
     * split evenly across graphs currently in flight (>= 1 so a
     * lone graph always gets at least one slot).
     */
    size_t budget_for(size_t queue_capacity) const;

    /** budget_for() against the attached queue's capacity. */
    size_t budget() const;

    /**
     * Enqueue @p planned (indices into @p layers) in plan order.
     * Returns how many the queue accepted; duplicates and rejects
     * are counted but not retried — the next graph_status poll
     * re-plans whatever is still unresolved.
     */
    int dispatch(const std::vector<GraphLayer> &layers,
                 const std::vector<ScheduledLayer> &planned);

    /** A graph entered (left) the in-flight set. */
    void graph_opened();
    void graph_closed();

    /** Graphs currently sharing the tune budget. */
    int64_t active_graphs() const;

    /** Total layers handed to the queue (accepted only). */
    int64_t scheduled() const;

  private:
    TuneQueue *queue_;
    std::atomic<int64_t> active_{0};
    std::atomic<int64_t> scheduled_{0};
};

} // namespace heron::serve

#endif // HERON_SERVE_GRAPH_SCHEDULE_H
