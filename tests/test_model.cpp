/**
 * @file
 * Tests for the GBDT regressor and the cost model wrapper, including
 * a reference exact greedy tree builder that the shipped histogram
 * split search must match node for node.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "autotune/checkpoint.h"
#include "autotune/tuner.h"
#include "csp/csp.h"
#include "model/cost_model.h"
#include "model/gbdt.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "support/rng.h"

namespace heron::model {
namespace {

Dataset
make_linear_dataset(int n, uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (int i = 0; i < n; ++i) {
        float a = static_cast<float>(rng.uniform(0, 10));
        float b = static_cast<float>(rng.uniform(0, 10));
        float noise = static_cast<float>(rng.normal(0, 0.1));
        data.x.push_back({a, b});
        data.y.push_back(3.0f * a + noise);
    }
    return data;
}

TEST(Gbdt, FitsLinearFunction)
{
    auto train = make_linear_dataset(400, 1);
    auto test = make_linear_dataset(100, 2);
    GbdtRegressor model;
    model.fit(train);
    EXPECT_TRUE(model.trained());
    // Target range is [0, 30]; a fitted model should do far better
    // than predicting the mean (~7.5 MAE).
    EXPECT_LT(model.mae(test), 2.5);
}

TEST(Gbdt, ImportanceIdentifiesPredictiveFeature)
{
    auto train = make_linear_dataset(400, 3);
    GbdtRegressor model;
    model.fit(train);
    auto importance = model.feature_importance();
    ASSERT_EQ(importance.size(), 2u);
    // y depends only on feature 0.
    EXPECT_GT(importance[0], 0.8);
    EXPECT_LT(importance[1], 0.2);
    EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
}

TEST(Gbdt, UntrainedPredictsZero)
{
    GbdtRegressor model;
    EXPECT_FALSE(model.trained());
    EXPECT_DOUBLE_EQ(model.predict({1.0f, 2.0f}), 0.0);
}

TEST(Gbdt, ConstantTargetYieldsConstantPrediction)
{
    Dataset data;
    for (int i = 0; i < 50; ++i) {
        data.x.push_back({static_cast<float>(i)});
        data.y.push_back(5.0f);
    }
    GbdtRegressor model;
    model.fit(data);
    EXPECT_NEAR(model.predict({7.0f}), 5.0, 1e-3);
    EXPECT_NEAR(model.predict({100.0f}), 5.0, 1e-3);
}

TEST(Gbdt, NonlinearInteraction)
{
    Rng rng(5);
    Dataset train;
    for (int i = 0; i < 600; ++i) {
        float a = static_cast<float>(rng.uniform(0, 1));
        float b = static_cast<float>(rng.uniform(0, 1));
        train.x.push_back({a, b});
        train.y.push_back(a > 0.5f && b > 0.5f ? 10.0f : 0.0f);
    }
    GbdtParams params;
    params.num_trees = 50;
    GbdtRegressor model(params);
    model.fit(train);
    EXPECT_GT(model.predict({0.9f, 0.9f}), 6.0);
    EXPECT_LT(model.predict({0.1f, 0.1f}), 3.0);
}

// ---------------------------------------------------------------
// Reference exact greedy fit. At every node it sorts the node's rows
// by each sampled feature and tries a split between every pair of
// consecutive distinct values: the split search the shipped
// histogram search replaced. The boosting loop around it is the
// shipped one.
// ---------------------------------------------------------------

using Node = RegressionTree::Node;

struct ReferenceFit {
    std::vector<std::vector<Node>> trees;
    std::vector<double> gain;
    /** Nodes that split. */
    int splits = 0;
    /**
     * Split candidates whose two values straddle a value of the
     * dataset that is absent from the node (an empty bin).
     */
    int gap_candidates = 0;
};

float
reference_predict(const std::vector<Node> &nodes,
                  const std::vector<float> &row)
{
    size_t index = 0;
    while (!nodes[index].is_leaf()) {
        const Node &node = nodes[index];
        index = static_cast<size_t>(
            row[static_cast<size_t>(node.feature)] <= node.threshold
                ? node.left
                : node.right);
    }
    return nodes[index].value;
}

struct ExactGreedyTree {
    const Dataset &data;
    /** Sorted distinct values per feature, over the whole dataset. */
    const std::vector<std::vector<float>> &distinct;
    const std::vector<float> &residual;
    const GbdtParams &params;
    Rng &rng;
    ReferenceFit &fit;
    std::vector<Node> nodes;

    float
    at(int row, int feature) const
    {
        return data.x[static_cast<size_t>(row)]
                     [static_cast<size_t>(feature)];
    }

    int
    build(std::vector<int> rows, int depth)
    {
        Node node;
        double mean = 0.0;
        for (int r : rows)
            mean += residual[static_cast<size_t>(r)];
        node.value = rows.empty()
                         ? 0.0f
                         : static_cast<float>(
                               mean / static_cast<double>(rows.size()));
        int index = static_cast<int>(nodes.size());
        nodes.push_back(node);

        if (depth >= params.max_depth ||
            static_cast<int>(rows.size()) < 2 * params.min_samples_leaf)
            return index;

        double total_sum = 0.0;
        for (int r : rows)
            total_sum += residual[static_cast<size_t>(r)];
        double n = static_cast<double>(rows.size());
        double parent_score = total_sum * total_sum / n;

        size_t num_features = data.num_features();
        std::vector<int> features(num_features);
        std::iota(features.begin(), features.end(), 0);
        rng.shuffle(features);
        size_t take = std::max<size_t>(
            1, static_cast<size_t>(params.feature_subsample *
                                   static_cast<double>(num_features)));
        features.resize(take);

        double best_gain = 1e-9;
        int best_feature = -1;
        float best_threshold = 0.0f;
        std::vector<int> sorted = rows;
        for (int f : features) {
            std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
                return at(a, f) < at(b, f);
            });
            const std::vector<float> &values =
                distinct[static_cast<size_t>(f)];
            double left_sum = 0.0;
            for (size_t i = 0; i + 1 < sorted.size(); ++i) {
                left_sum += residual[static_cast<size_t>(sorted[i])];
                float cur = at(sorted[i], f);
                float next = at(sorted[i + 1], f);
                if (cur == next)
                    continue;
                if (*std::upper_bound(values.begin(), values.end(),
                                      cur) < next)
                    ++fit.gap_candidates;
                size_t left_n = i + 1;
                size_t right_n = sorted.size() - left_n;
                if (static_cast<int>(left_n) < params.min_samples_leaf ||
                    static_cast<int>(right_n) < params.min_samples_leaf)
                    continue;
                double right_sum = total_sum - left_sum;
                double score =
                    left_sum * left_sum / static_cast<double>(left_n) +
                    right_sum * right_sum / static_cast<double>(right_n);
                double split_gain = score - parent_score;
                if (split_gain > best_gain) {
                    best_gain = split_gain;
                    best_feature = f;
                    best_threshold = (cur + next) * 0.5f;
                }
            }
        }
        if (best_feature < 0)
            return index;

        std::vector<int> left_rows, right_rows;
        for (int r : rows)
            (at(r, best_feature) <= best_threshold ? left_rows
                                                   : right_rows)
                .push_back(r);
        fit.gain[static_cast<size_t>(best_feature)] += best_gain;
        ++fit.splits;
        nodes[static_cast<size_t>(index)].feature = best_feature;
        nodes[static_cast<size_t>(index)].threshold = best_threshold;
        int left = build(std::move(left_rows), depth + 1);
        int right = build(std::move(right_rows), depth + 1);
        nodes[static_cast<size_t>(index)].left = left;
        nodes[static_cast<size_t>(index)].right = right;
        return index;
    }
};

ReferenceFit
reference_fit(const Dataset &data, const GbdtParams &params)
{
    ReferenceFit fit;
    fit.gain.assign(data.num_features(), 0.0);
    if (data.size() == 0)
        return fit;
    std::vector<std::vector<float>> distinct(data.num_features());
    for (size_t f = 0; f < distinct.size(); ++f) {
        for (const auto &row : data.x)
            distinct[f].push_back(row[f]);
        std::sort(distinct[f].begin(), distinct[f].end());
        distinct[f].erase(
            std::unique(distinct[f].begin(), distinct[f].end()),
            distinct[f].end());
    }

    double base = 0.0;
    for (float y : data.y)
        base += y;
    base /= static_cast<double>(data.size());
    Rng rng(params.seed);
    std::vector<float> prediction(data.size(), static_cast<float>(base));
    std::vector<float> residual(data.size());
    std::vector<int> all_rows(data.size());
    std::iota(all_rows.begin(), all_rows.end(), 0);
    for (int t = 0; t < params.num_trees; ++t) {
        for (size_t i = 0; i < data.size(); ++i)
            residual[i] = data.y[i] - prediction[i];
        std::vector<int> rows = all_rows;
        rng.shuffle(rows);
        size_t take = std::max<size_t>(
            2, static_cast<size_t>(params.row_subsample *
                                   static_cast<double>(rows.size())));
        rows.resize(std::min(take, rows.size()));

        ExactGreedyTree tree{data, distinct, residual, params, rng, fit,
                             {}};
        tree.build(rows, 0);
        for (size_t i = 0; i < data.size(); ++i)
            prediction[i] += static_cast<float>(
                params.learning_rate *
                reference_predict(tree.nodes, data.x[i]));
        fit.trees.push_back(std::move(tree.nodes));
    }
    return fit;
}

/**
 * Fit @p data with the shipped regressor and the reference, require
 * bit-equal nodes and feature importance, and return the reference.
 */
ReferenceFit
expect_same_trees(const Dataset &data, const GbdtParams &params)
{
    GbdtRegressor shipped(params);
    shipped.fit(data);
    ReferenceFit ref = reference_fit(data, params);

    EXPECT_EQ(shipped.trees().size(), ref.trees.size());
    for (size_t t = 0;
         t < std::min(shipped.trees().size(), ref.trees.size()); ++t) {
        auto nodes = shipped.trees()[t].nodes();
        const std::vector<Node> &expected = ref.trees[t];
        EXPECT_EQ(nodes.size(), expected.size()) << "tree " << t;
        for (size_t i = 0; i < std::min(nodes.size(), expected.size());
             ++i) {
            SCOPED_TRACE("tree " + std::to_string(t) + " node " +
                         std::to_string(i));
            EXPECT_EQ(nodes[i].feature, expected[i].feature);
            EXPECT_EQ(std::bit_cast<uint32_t>(nodes[i].threshold),
                      std::bit_cast<uint32_t>(expected[i].threshold));
            EXPECT_EQ(std::bit_cast<uint32_t>(nodes[i].value),
                      std::bit_cast<uint32_t>(expected[i].value));
            EXPECT_EQ(nodes[i].left, expected[i].left);
            EXPECT_EQ(nodes[i].right, expected[i].right);
        }
    }

    std::vector<double> importance = ref.gain;
    double total = 0.0;
    for (double g : importance)
        total += g;
    if (total > 0)
        for (double &g : importance)
            g /= total;
    std::vector<double> actual = shipped.feature_importance();
    EXPECT_EQ(actual.size(), importance.size());
    for (size_t f = 0; f < std::min(actual.size(), importance.size());
         ++f)
        EXPECT_EQ(std::bit_cast<uint64_t>(actual[f]),
                  std::bit_cast<uint64_t>(importance[f]))
            << "feature " << f;
    return ref;
}

/**
 * Discrete features shaped like the cost model's: a constant column,
 * a few heavily repeated values, log2(1 + tile factor) levels,
 * negatives and zeros, and one all-distinct column; scores include
 * the zeros of invalid programs.
 */
Dataset
make_discrete_dataset(int n, uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (int i = 0; i < n; ++i) {
        float repeated = static_cast<float>(rng.uniform_int(0, 2));
        float tile = static_cast<float>(
            std::log2(1.0 + static_cast<double>(
                                int64_t{1} << rng.uniform_int(0, 7))));
        const float mixed_values[] = {-1.0f, 0.0f, 0.5f, 7.0f};
        float mixed = mixed_values[rng.uniform_int(0, 3)];
        data.x.push_back(
            {3.0f, repeated, tile, mixed, static_cast<float>(i)});
        bool valid = rng.uniform(0, 1) > 0.2;
        double score = 2.0 * repeated + (tile > 3.0f ? 5.0 : 1.0) +
                       mixed + rng.normal(0, 0.3);
        data.y.push_back(valid ? static_cast<float>(score) : 0.0f);
    }
    return data;
}

TEST(GbdtEquivalence, MatchesExactGreedyOnDiscreteFeatures)
{
    for (uint64_t seed : {1, 2, 3}) {
        for (int min_leaf : {1, 2, 3, 5}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         " min_samples_leaf " +
                         std::to_string(min_leaf));
            GbdtParams params;
            params.seed = seed;
            params.min_samples_leaf = min_leaf;
            ReferenceFit ref = expect_same_trees(
                make_discrete_dataset(200, seed), params);
            EXPECT_GT(ref.splits, 0);
            EXPECT_GT(ref.gap_candidates, 0)
                << "no node had a bin empty inside it";
            // The constant column never splits.
            EXPECT_EQ(ref.gain[0], 0.0);
        }
    }
}

TEST(GbdtEquivalence, MatchesExactGreedyAtMinSamplesLeafEdges)
{
    // Row counts just below, at and just above 2 * min_samples_leaf
    // (where a node first may split), with and without bagging.
    for (int min_leaf : {1, 2, 3}) {
        for (int n = 0; n <= 2 * min_leaf + 2; ++n) {
            for (double row_subsample : {1.0, 0.9}) {
                SCOPED_TRACE("min_samples_leaf " +
                             std::to_string(min_leaf) + " rows " +
                             std::to_string(n) + " row_subsample " +
                             std::to_string(row_subsample));
                GbdtParams params;
                params.min_samples_leaf = min_leaf;
                params.row_subsample = row_subsample;
                params.num_trees = 4;
                expect_same_trees(make_discrete_dataset(n, 11 + n),
                                  params);
            }
        }
    }
}

TEST(GbdtEquivalence, MatchesExactGreedyOnContinuousFeatures)
{
    GbdtParams params;
    params.num_trees = 8;
    ReferenceFit ref =
        expect_same_trees(make_linear_dataset(300, 4), params);
    EXPECT_GT(ref.splits, 0);
}

/**
 * The cost model's feature rows and scores from a seeded 96-trial
 * v100 C2D Heron tune, in measurement order (read back from its
 * measurement journal).
 */
Dataset
tuned_c2d_rows()
{
    auto spec = hw::DlaSpec::v100();
    auto workload = ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1);
    std::string journal =
        ::testing::TempDir() + "heron_gbdt_equivalence.jsonl";
    std::remove(journal.c_str());
    autotune::TuneConfig config;
    config.trials = 96;
    config.seed = 1;
    config.journal_path = journal;
    autotune::make_heron_tuner(spec, config)->tune(workload);

    rules::SpaceGenerator generator(spec, rules::Options::heron());
    auto space = generator.generate(workload);
    CostModel model(space.csp);
    Dataset data;
    for (const auto &record : autotune::TuningJournal::load(journal)) {
        data.x.push_back(model.features(record.assignment));
        data.y.push_back(static_cast<float>(throughput_score(
            record.valid, record.latency_ms, space.dag.total_ops())));
    }
    std::remove(journal.c_str());
    std::remove((journal + ".snapshot").c_str());
    return data;
}

TEST(GbdtEquivalence, MatchesExactGreedyOnTunedC2dRows)
{
    Dataset rows = tuned_c2d_rows();
    ASSERT_EQ(rows.size(), 96u);
    // The fits of one 96-trial tune: after every 12 measurements.
    for (size_t n = 12; n <= rows.size(); n += 12) {
        SCOPED_TRACE("rows " + std::to_string(n));
        Dataset prefix;
        prefix.x.assign(rows.x.begin(),
                        rows.x.begin() + static_cast<std::ptrdiff_t>(n));
        prefix.y.assign(rows.y.begin(),
                        rows.y.begin() + static_cast<std::ptrdiff_t>(n));
        ReferenceFit ref = expect_same_trees(prefix, GbdtParams{});
        EXPECT_GT(ref.splits, 0);
    }
}

TEST(ThroughputScore, Basics)
{
    EXPECT_DOUBLE_EQ(throughput_score(false, 1.0, 1000), 0.0);
    EXPECT_DOUBLE_EQ(throughput_score(true, 0.0, 1000), 0.0);
    double s1 = throughput_score(true, 1.0, 1'000'000'000);
    double s2 = throughput_score(true, 0.5, 1'000'000'000);
    EXPECT_GT(s2, s1); // faster is better
    EXPECT_GT(s1, 0.0);
}

TEST(CostModel, KeyVariablesFallBackToTunables)
{
    csp::Csp problem;
    problem.add_var("a", csp::Domain::of({1, 2}), true);
    problem.add_var("b", csp::Domain::of({1, 2}), false);
    problem.add_var("c", csp::Domain::of({1, 2}), true);
    CostModel model(problem);
    auto keys = model.key_variables(2);
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], problem.var_id("a"));
    EXPECT_EQ(keys[1], problem.var_id("c"));
}

TEST(CostModel, LearnsFromSamples)
{
    csp::Csp problem;
    auto x = problem.add_var(
        "x", csp::Domain::of({1, 2, 4, 8, 16, 32, 64}), true);
    auto y = problem.add_var(
        "y", csp::Domain::of({1, 2, 4, 8, 16, 32, 64}), true);
    CostModel model(problem);

    // Performance depends on x only.
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        csp::Assignment a(2);
        a[static_cast<size_t>(x)] = int64_t{1}
                                    << rng.uniform_int(0, 6);
        a[static_cast<size_t>(y)] = int64_t{1}
                                    << rng.uniform_int(0, 6);
        double score =
            std::log2(1.0 + static_cast<double>(
                                a[static_cast<size_t>(x)]));
        model.add_scored_sample(a, score);
    }
    model.fit();
    ASSERT_TRUE(model.trained());

    csp::Assignment hi(2), lo(2);
    hi[static_cast<size_t>(x)] = 64;
    hi[static_cast<size_t>(y)] = 1;
    lo[static_cast<size_t>(x)] = 1;
    lo[static_cast<size_t>(y)] = 64;
    EXPECT_GT(model.predict(hi), model.predict(lo));

    auto keys = model.key_variables(1);
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], x);
}

} // namespace
} // namespace heron::model
