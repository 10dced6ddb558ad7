/**
 * @file
 * The Heron cost model (paper §3, Cost Model module).
 *
 * Features are the values of the variables defined during
 * constraint generation (loop lengths, vector lengths, memory
 * usage, ...), which are available without compiling anything. The
 * model predicts a throughput score from a CSP assignment and
 * exposes feature-importance-ranked key variables for CGA's
 * constraint-based crossover.
 */
#ifndef HERON_MODEL_COST_MODEL_H
#define HERON_MODEL_COST_MODEL_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "csp/csp.h"
#include "model/gbdt.h"

namespace heron::model {

/** Cost model over one generated space's CSP variables. */
class CostModel
{
  public:
    explicit CostModel(const csp::Csp &csp, GbdtParams params = {});

    /** log2-scaled feature vector of an assignment. */
    std::vector<float> features(const csp::Assignment &a) const;

    /**
     * features(a) memoized by assignment hash. predict() and the
     * sample recorders route through this cache, so a candidate
     * predicted across several CGA generations (or recorded after
     * being predicted) pays for feature extraction once. The cache
     * is bounded: it is reset wholesale at a fixed cap. The
     * returned view is valid until the next cached_features() call
     * (a cap overflow frees every cached vector).
     */
    std::span<const float>
    cached_features(const csp::Assignment &a) const;

    /**
     * Record a measurement. Invalid programs score 0; valid ones
     * score log2(1 + total_ops/latency).
     */
    void add_sample(const csp::Assignment &a, bool valid,
                    double latency_ms, int64_t total_ops);

    /** Record a measurement by its precomputed throughput score. */
    void add_scored_sample(const csp::Assignment &a, double score);

    /** Retrain on all recorded samples. */
    void fit();

    /** Predicted score (higher is better). */
    double predict(const csp::Assignment &a) const;

    /** True once fit() has run on at least a few samples. */
    bool trained() const { return model_.trained(); }

    /** Number of recorded samples. */
    size_t num_samples() const { return data_.size(); }

    /**
     * The top-k variables by feature importance (CGA key-variable
     * extraction). Falls back to tunable variables when untrained.
     */
    std::vector<csp::VarId> key_variables(int k) const;

    /** The underlying regressor (for diagnostics). */
    const GbdtRegressor &regressor() const { return model_; }

  private:
    const csp::Csp &csp_;
    GbdtRegressor model_;
    Dataset data_;
    mutable std::unordered_map<uint64_t, std::vector<float>>
        feature_cache_;
};

/** The score used as GA fitness: log2(1 + GFLOP/s); 0 if invalid. */
double throughput_score(bool valid, double latency_ms,
                        int64_t total_ops);

} // namespace heron::model

#endif // HERON_MODEL_COST_MODEL_H
