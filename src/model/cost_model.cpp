#include "model/cost_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::model {

namespace {

/** Feature-memo entries kept before the cache is reset wholesale. */
constexpr size_t kFeatureCacheCap = size_t{1} << 14;

} // namespace

double
throughput_score(bool valid, double latency_ms, int64_t total_ops)
{
    if (!valid || latency_ms <= 0)
        return 0.0;
    double gflops =
        static_cast<double>(total_ops) / (latency_ms * 1e6);
    return std::log2(1.0 + gflops);
}

CostModel::CostModel(const csp::Csp &csp, GbdtParams params)
    : csp_(csp), model_(params)
{
}

std::vector<float>
CostModel::features(const csp::Assignment &a) const
{
    HERON_CHECK_EQ(a.size(), csp_.num_vars());
    std::vector<float> x(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        double v = static_cast<double>(a[i] < 0 ? -a[i] : a[i]);
        x[i] = static_cast<float>(std::log2(1.0 + v));
    }
    return x;
}

std::span<const float>
CostModel::cached_features(const csp::Assignment &a) const
{
    uint64_t h = csp::assignment_hash(a);
    auto it = feature_cache_.find(h);
    if (it != feature_cache_.end()) {
        HERON_COUNTER_INC("model.feature_cache_hits");
        return it->second;
    }
    if (feature_cache_.size() >= kFeatureCacheCap)
        feature_cache_.clear();
    HERON_COUNTER_INC("model.feature_cache_misses");
    return feature_cache_.emplace(h, features(a)).first->second;
}

void
CostModel::add_sample(const csp::Assignment &a, bool valid,
                      double latency_ms, int64_t total_ops)
{
    auto view = cached_features(a);
    data_.x.emplace_back(view.begin(), view.end());
    data_.y.push_back(static_cast<float>(
        throughput_score(valid, latency_ms, total_ops)));
}

void
CostModel::add_scored_sample(const csp::Assignment &a, double score)
{
    auto view = cached_features(a);
    data_.x.emplace_back(view.begin(), view.end());
    data_.y.push_back(static_cast<float>(score));
}

void
CostModel::fit()
{
    if (data_.size() < 8)
        return;
    HERON_TRACE_SCOPE("model/fit");
    HERON_COUNTER_INC("model.fit_calls");
    model_.fit(data_);
}

double
CostModel::predict(const csp::Assignment &a) const
{
    if (!model_.trained())
        return 0.0;
    HERON_COUNTER_INC("model.predict_calls");
    return model_.predict(cached_features(a));
}

std::vector<csp::VarId>
CostModel::key_variables(int k) const
{
    std::vector<csp::VarId> keys;
    if (model_.trained()) {
        auto importance = model_.feature_importance();
        std::vector<int> order(importance.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](int a, int b) {
                             return importance[static_cast<size_t>(
                                        a)] >
                                    importance[static_cast<size_t>(
                                        b)];
                         });
        for (int f : order) {
            if (static_cast<int>(keys.size()) >= k)
                break;
            if (importance[static_cast<size_t>(f)] <= 0)
                break;
            keys.push_back(static_cast<csp::VarId>(f));
        }
    }
    // Pad with tunables when untrained or importance is sparse.
    for (csp::VarId v : csp_.tunable_vars()) {
        if (static_cast<int>(keys.size()) >= k)
            break;
        if (std::find(keys.begin(), keys.end(), v) == keys.end())
            keys.push_back(v);
    }
    return keys;
}

} // namespace heron::model
