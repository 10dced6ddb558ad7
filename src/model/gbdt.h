/**
 * @file
 * Gradient-boosted regression trees, built from scratch.
 *
 * Heron's cost model is XGBoost in the paper; this is a compact
 * equivalent: squared-error boosting over depth-limited regression
 * trees with shrinkage, row/feature subsampling, and gain-based
 * feature importance (the signal CGA's key-variable extraction
 * consumes).
 *
 * Splits come from a histogram search over each feature's distinct
 * values (XGBoost's `hist` method with one bin per distinct value).
 * fit() bins every feature once; each node sums residuals per bin
 * and scans the bins in ascending order, proposing a split between
 * each pair of consecutive bins that are non-empty in the node. Those
 * are exactly the exact-greedy candidates (every boundary between two
 * distinct values present in the node, ascending), with the same
 * counts, midpoint threshold, min_samples_leaf check and strict `>`
 * best-gain rule, and the RNG is drawn in the same order. Only the
 * association of the left sum changes (bin by bin instead of row by
 * row), and a double sum of float residuals is exact unless the
 * residual magnitudes span more than about 2^29 / rows; so the trees
 * are the exact-greedy trees.
 */
#ifndef HERON_MODEL_GBDT_H
#define HERON_MODEL_GBDT_H

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.h"

namespace heron::model {

/** Training data: row-major features plus targets. */
struct Dataset {
    std::vector<std::vector<float>> x;
    std::vector<float> y;

    size_t size() const { return x.size(); }
    size_t num_features() const
    {
        return x.empty() ? 0 : x[0].size();
    }
};

/** Boosting hyperparameters. */
struct GbdtParams {
    int num_trees = 32;
    int max_depth = 6;
    double learning_rate = 0.2;
    int min_samples_leaf = 2;
    /** Fraction of features considered per node. */
    double feature_subsample = 0.6;
    /** Fraction of rows bagged per tree. */
    double row_subsample = 0.9;
    uint64_t seed = 1;
};

/**
 * A dataset's features binned by distinct value. Each feature owns a
 * contiguous range of bins, one per distinct value in ascending
 * order; bins are numbered globally so that one flat histogram holds
 * every feature. Stored row-major: row(r)[f] is row r's bin in
 * feature f.
 */
class BinnedFeatures
{
  public:
    explicit BinnedFeatures(const Dataset &data);

    size_t num_features() const { return first_bin_.size() - 1; }

    /** Total bins over all features. */
    size_t num_bins() const { return values_.size(); }

    /** Feature @p f's bins: [first_bin(f), first_bin(f + 1)). */
    uint32_t first_bin(size_t f) const { return first_bin_[f]; }

    /** The bins of row @p r, one per feature. */
    const uint32_t *row(size_t r) const
    {
        return bins_.data() + r * num_features();
    }

    /** The feature value a bin stands for. */
    float value(uint32_t bin) const { return values_[bin]; }

  private:
    std::vector<uint32_t> bins_;
    std::vector<float> values_;
    std::vector<uint32_t> first_bin_;
};

/** One depth-limited regression tree (array-of-nodes layout). */
class RegressionTree
{
  public:
    struct Node {
        int feature = -1;
        float threshold = 0.0f;
        float value = 0.0f;
        int left = -1;
        int right = -1;

        bool is_leaf() const { return feature < 0; }
    };

    /**
     * Fit to (row features, residual[i]) for i in @p rows.
     * Accumulates per-feature split gain into @p gain.
     */
    void fit(const BinnedFeatures &bins,
             const std::vector<float> &residual,
             const std::vector<int> &rows, const GbdtParams &params,
             Rng &rng, std::vector<double> &gain);

    /** Predict one row (any contiguous float storage). */
    float predict(std::span<const float> row) const;

    /** Convenience overload for vector rows / braced lists. */
    float predict(const std::vector<float> &row) const
    {
        return predict(std::span<const float>(row));
    }

    /** The nodes, root first (for tests). */
    std::span<const Node> nodes() const { return nodes_; }

  private:
    struct Builder;
    std::vector<Node> nodes_;

    int build(Builder &builder, std::vector<int> rows, int depth);
};

/** The boosted ensemble. */
class GbdtRegressor
{
  public:
    explicit GbdtRegressor(GbdtParams params = {});

    /** Fit from scratch on @p data. */
    void fit(const Dataset &data);

    /** Predict one row; base mean when not yet fitted. */
    double predict(std::span<const float> row) const;

    /** Convenience overload for vector rows / braced lists. */
    double predict(const std::vector<float> &row) const
    {
        return predict(std::span<const float>(row));
    }

    /** True after a successful fit. */
    bool trained() const { return !trees_.empty(); }

    /**
     * Total split gain per feature, normalized to sum to 1
     * (all-zero when untrained or no splits).
     */
    std::vector<double> feature_importance() const;

    /** Mean absolute error on @p data. */
    double mae(const Dataset &data) const;

    /** The fitted trees (for tests). */
    const std::vector<RegressionTree> &trees() const { return trees_; }

  private:
    GbdtParams params_;
    std::vector<RegressionTree> trees_;
    double base_ = 0.0;
    std::vector<double> gain_;
};

} // namespace heron::model

#endif // HERON_MODEL_GBDT_H
