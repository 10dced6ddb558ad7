#include "model/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/logging.h"

namespace heron::model {

namespace {

/** Mean of residuals over rows. */
float
mean_of(const std::vector<float> &residual,
        const std::vector<int> &rows)
{
    if (rows.empty())
        return 0.0f;
    double sum = 0.0;
    for (int r : rows)
        sum += residual[static_cast<size_t>(r)];
    return static_cast<float>(sum / static_cast<double>(rows.size()));
}

} // namespace

BinnedFeatures::BinnedFeatures(const Dataset &data)
{
    size_t rows = data.size();
    size_t num_features = data.num_features();
    bins_.resize(rows * num_features);
    first_bin_.reserve(num_features + 1);
    std::vector<float> distinct(rows);
    for (size_t f = 0; f < num_features; ++f) {
        for (size_t r = 0; r < rows; ++r) {
            distinct[r] = data.x[r][f];
            HERON_CHECK(!std::isnan(distinct[r]));
        }
        std::sort(distinct.begin(), distinct.end());
        auto end = std::unique(distinct.begin(), distinct.end());
        // Bin ids are uint32_t: refuse more distinct values in total
        // than that holds instead of wrapping.
        HERON_CHECK_LE(values_.size() + static_cast<size_t>(
                                            end - distinct.begin()),
                       size_t{UINT32_MAX});
        uint32_t first = static_cast<uint32_t>(values_.size());
        first_bin_.push_back(first);
        for (size_t r = 0; r < rows; ++r)
            bins_[r * num_features + f] =
                first + static_cast<uint32_t>(
                            std::lower_bound(distinct.begin(), end,
                                             data.x[r][f]) -
                            distinct.begin());
        values_.insert(values_.end(), distinct.begin(), end);
    }
    first_bin_.push_back(static_cast<uint32_t>(values_.size()));
}

/** What one tree's recursive build shares across its nodes. */
struct RegressionTree::Builder {
    const BinnedFeatures &bins;
    const std::vector<float> &residual;
    const GbdtParams &params;
    Rng &rng;
    std::vector<double> &gain;
    /** Per-bin residual sums and row counts, all-zero between nodes. */
    std::vector<double> bin_sum;
    std::vector<int> bin_count;
    std::vector<int> features;
    std::vector<int> splittable;
};

int
RegressionTree::build(Builder &builder, std::vector<int> rows,
                      int depth)
{
    const BinnedFeatures &bins = builder.bins;
    const std::vector<float> &residual = builder.residual;
    const GbdtParams &params = builder.params;

    Node node;
    node.value = mean_of(residual, rows);
    int index = static_cast<int>(nodes_.size());
    nodes_.push_back(node);

    if (depth >= params.max_depth ||
        static_cast<int>(rows.size()) < 2 * params.min_samples_leaf)
        return index;

    // Total sum/count for SSE gain computation.
    double total_sum = 0.0;
    for (int r : rows)
        total_sum += residual[static_cast<size_t>(r)];
    int n = static_cast<int>(rows.size());
    double parent_score = total_sum * total_sum / n;

    // Candidate features (random subset).
    size_t num_features = bins.num_features();
    std::vector<int> &features = builder.features;
    features.resize(num_features);
    std::iota(features.begin(), features.end(), 0);
    builder.rng.shuffle(features);
    size_t take = std::max<size_t>(
        1, static_cast<size_t>(params.feature_subsample *
                               static_cast<double>(num_features)));
    features.resize(take);

    // A feature with one value over the whole dataset never splits.
    std::vector<int> &splittable = builder.splittable;
    splittable.clear();
    for (int f : features)
        if (bins.first_bin(static_cast<size_t>(f) + 1) -
                bins.first_bin(static_cast<size_t>(f)) >
            1)
            splittable.push_back(f);

    // Histograms of every candidate feature, one row at a time:
    // consecutive adds land in different features' bins, so they do
    // not wait on each other (most features have only a few values).
    std::vector<double> &bin_sum = builder.bin_sum;
    std::vector<int> &bin_count = builder.bin_count;
    for (int r : rows) {
        const uint32_t *row_bins = bins.row(static_cast<size_t>(r));
        double value = residual[static_cast<size_t>(r)];
        for (int f : splittable) {
            uint32_t bin = row_bins[f];
            bin_sum[bin] += value;
            ++bin_count[bin];
        }
    }

    double best_gain = 1e-9;
    int best_feature = -1;
    float best_threshold = 0.0f;
    for (int f : splittable) {
        // Split between each pair of consecutive bins non-empty in
        // this node; clear every bin on the way.
        uint32_t end = bins.first_bin(static_cast<size_t>(f) + 1);
        double left_sum = 0.0;
        int left_n = 0;
        uint32_t prev = 0;
        for (uint32_t bin = bins.first_bin(static_cast<size_t>(f));
             bin < end; ++bin) {
            int count = bin_count[bin];
            if (count == 0)
                continue;
            int right_n = n - left_n;
            if (left_n > 0 && left_n >= params.min_samples_leaf &&
                right_n >= params.min_samples_leaf) {
                double right_sum = total_sum - left_sum;
                double score = left_sum * left_sum / left_n +
                               right_sum * right_sum / right_n;
                double split_gain = score - parent_score;
                if (split_gain > best_gain) {
                    best_gain = split_gain;
                    best_feature = f;
                    best_threshold =
                        (bins.value(prev) + bins.value(bin)) * 0.5f;
                }
            }
            left_sum += bin_sum[bin];
            left_n += count;
            prev = bin;
            bin_sum[bin] = 0.0;
            bin_count[bin] = 0;
        }
    }

    if (best_feature < 0)
        return index;

    // Partition by value, not by bin: a midpoint that rounds up to
    // the next value sends that value left, as the threshold test in
    // predict() does.
    std::vector<int> left_rows, right_rows;
    for (int r : rows) {
        uint32_t bin = bins.row(static_cast<size_t>(r))[best_feature];
        if (bins.value(bin) <= best_threshold)
            left_rows.push_back(r);
        else
            right_rows.push_back(r);
    }
    HERON_CHECK(!left_rows.empty() && !right_rows.empty());

    builder.gain[static_cast<size_t>(best_feature)] += best_gain;
    nodes_[static_cast<size_t>(index)].feature = best_feature;
    nodes_[static_cast<size_t>(index)].threshold = best_threshold;
    int left = build(builder, std::move(left_rows), depth + 1);
    int right = build(builder, std::move(right_rows), depth + 1);
    nodes_[static_cast<size_t>(index)].left = left;
    nodes_[static_cast<size_t>(index)].right = right;
    return index;
}

void
RegressionTree::fit(const BinnedFeatures &bins,
                    const std::vector<float> &residual,
                    const std::vector<int> &rows,
                    const GbdtParams &params, Rng &rng,
                    std::vector<double> &gain)
{
    nodes_.clear();
    Builder builder{bins,
                    residual,
                    params,
                    rng,
                    gain,
                    std::vector<double>(bins.num_bins(), 0.0),
                    std::vector<int>(bins.num_bins(), 0),
                    {},
                    {}};
    build(builder, rows, 0);
}

float
RegressionTree::predict(std::span<const float> row) const
{
    HERON_CHECK(!nodes_.empty());
    int index = 0;
    while (!nodes_[static_cast<size_t>(index)].is_leaf()) {
        const Node &node = nodes_[static_cast<size_t>(index)];
        index = row[static_cast<size_t>(node.feature)] <=
                        node.threshold
                    ? node.left
                    : node.right;
    }
    return nodes_[static_cast<size_t>(index)].value;
}

GbdtRegressor::GbdtRegressor(GbdtParams params) : params_(params) {}

void
GbdtRegressor::fit(const Dataset &data)
{
    trees_.clear();
    gain_.assign(data.num_features(), 0.0);
    base_ = 0.0;
    if (data.size() == 0)
        return;
    for (float y : data.y)
        base_ += y;
    base_ /= static_cast<double>(data.size());

    Rng rng(params_.seed);
    std::vector<float> prediction(data.size(),
                                  static_cast<float>(base_));
    std::vector<float> residual(data.size());
    std::vector<int> all_rows(data.size());
    std::iota(all_rows.begin(), all_rows.end(), 0);
    BinnedFeatures bins(data);

    for (int t = 0; t < params_.num_trees; ++t) {
        for (size_t i = 0; i < data.size(); ++i)
            residual[i] = data.y[i] - prediction[i];

        std::vector<int> rows = all_rows;
        rng.shuffle(rows);
        size_t take = std::max<size_t>(
            2, static_cast<size_t>(params_.row_subsample *
                                   static_cast<double>(rows.size())));
        rows.resize(std::min(take, rows.size()));

        RegressionTree tree;
        tree.fit(bins, residual, rows, params_, rng, gain_);
        for (size_t i = 0; i < data.size(); ++i)
            prediction[i] += static_cast<float>(
                params_.learning_rate * tree.predict(data.x[i]));
        trees_.push_back(std::move(tree));
    }
}

double
GbdtRegressor::predict(std::span<const float> row) const
{
    double value = base_;
    for (const auto &tree : trees_)
        value += params_.learning_rate * tree.predict(row);
    return value;
}

std::vector<double>
GbdtRegressor::feature_importance() const
{
    std::vector<double> importance = gain_;
    double total = 0.0;
    for (double g : importance)
        total += g;
    if (total > 0)
        for (double &g : importance)
            g /= total;
    return importance;
}

double
GbdtRegressor::mae(const Dataset &data) const
{
    if (data.size() == 0)
        return 0.0;
    double err = 0.0;
    for (size_t i = 0; i < data.size(); ++i)
        err += std::fabs(predict(data.x[i]) - data.y[i]);
    return err / static_cast<double>(data.size());
}

} // namespace heron::model
