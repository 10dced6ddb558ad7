#include "serve/graph_schedule.h"

#include <algorithm>
#include <limits>

#include "support/metrics.h"
#include "support/trace.h"

namespace heron::serve {

double
tier_gap(LookupTier tier, double distance)
{
    switch (tier) {
      case LookupTier::kExact:
        return 0.0;
      case LookupTier::kNearest:
        // A fallback serves a *validated* schedule, just one tuned
        // for a nearby shape: the farther the donor, the less its
        // measured performance says about this shape. Saturates
        // below 1 so any fallback outranks nothing at all.
        return distance / (1.0 + distance);
      case LookupTier::kNegative:
      case LookupTier::kMiss:
        return 1.0;
    }
    return 1.0;
}

double
layer_payoff(const GraphLayer &layer)
{
    if (layer.untunable)
        return 0.0;
    return static_cast<double>(layer.count) *
           static_cast<double>(layer.workload.flops()) *
           tier_gap(layer.tier, layer.distance);
}

GraphTuneScheduler::GraphTuneScheduler(TuneQueue *queue)
    : queue_(queue)
{
}

std::vector<ScheduledLayer>
GraphTuneScheduler::plan(const std::vector<GraphLayer> &layers,
                         size_t budget)
{
    std::vector<ScheduledLayer> planned;
    for (size_t i = 0; i < layers.size(); ++i) {
        double payoff = layer_payoff(layers[i]);
        if (payoff > 0.0)
            planned.push_back({i, payoff});
    }
    std::sort(planned.begin(), planned.end(),
              [&](const ScheduledLayer &a, const ScheduledLayer &b) {
                  if (a.payoff != b.payoff)
                      return a.payoff > b.payoff;
                  if (layers[a.layer].count != layers[b.layer].count)
                      return layers[a.layer].count >
                             layers[b.layer].count;
                  return layers[a.layer].key.canonical() <
                         layers[b.layer].key.canonical();
              });
    if (planned.size() > budget)
        planned.resize(budget);
    return planned;
}

size_t
GraphTuneScheduler::budget_for(size_t queue_capacity) const
{
    int64_t active =
        std::max<int64_t>(1, active_.load(std::memory_order_relaxed));
    return std::max<size_t>(
        1, queue_capacity / static_cast<size_t>(active));
}

size_t
GraphTuneScheduler::budget() const
{
    // Detached (test) schedulers plan everything: there is no queue
    // to protect from a single graph's appetite.
    if (queue_ == nullptr)
        return std::numeric_limits<size_t>::max();
    return budget_for(queue_->capacity());
}

int
GraphTuneScheduler::dispatch(
    const std::vector<GraphLayer> &layers,
    const std::vector<ScheduledLayer> &planned)
{
    if (queue_ == nullptr)
        return 0;
    HERON_TRACE_SCOPE("serve/graph_dispatch");
    int accepted = 0;
    for (const auto &scheduled : planned) {
        auto outcome =
            queue_->enqueue(layers[scheduled.layer].workload);
        if (outcome == EnqueueOutcome::kAccepted) {
            ++accepted;
            HERON_COUNTER_INC("serve.graph.scheduled");
        }
    }
    scheduled_.fetch_add(accepted, std::memory_order_relaxed);
    return accepted;
}

void
GraphTuneScheduler::graph_opened()
{
    active_.fetch_add(1, std::memory_order_relaxed);
}

void
GraphTuneScheduler::graph_closed()
{
    active_.fetch_sub(1, std::memory_order_relaxed);
}

int64_t
GraphTuneScheduler::active_graphs() const
{
    return active_.load(std::memory_order_relaxed);
}

int64_t
GraphTuneScheduler::scheduled() const
{
    return scheduled_.load(std::memory_order_relaxed);
}

} // namespace heron::serve
