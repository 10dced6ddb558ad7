/**
 * @file
 * Parallel hot-path tests: SampleBatch worker-count invariance on
 * its persistent pool (population draws, CGA crossover waves and a
 * whole HeronTuner run), the registry's shared-lock read path raced
 * against put() hot swaps, the sharded negative cache, and
 * SpaceCache memoization under contention and its size cap. The
 * concurrency tests here are also run under the tsan preset (see
 * scripts/verify.sh).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "autotune/tuner.h"
#include "csp/sample_batch.h"
#include "csp/solver.h"
#include "model/cost_model.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "search/cga.h"
#include "serve/registry.h"
#include "serve/workload_key.h"

namespace heron {
namespace {

// ---------------------------------------------------------------
// SampleBatch worker invariance (persistent pool)
// ---------------------------------------------------------------

/** A small real space to sample from. */
const rules::GeneratedSpace &
small_space()
{
    static const rules::GeneratedSpace space = [] {
        rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                                  rules::Options::heron());
        return gen.generate(ops::gemm(128, 128, 128));
    }();
    return space;
}

TEST(SampleBatchPool, PopulationsInvariantAcrossWorkerCounts)
{
    const auto &space = small_space();
    const uint64_t seed = 17;
    const int population = 20;
    const int generations = 3;

    // Reference: serial. Repeated warm batches from one object, the
    // way CGA uses it across generations.
    std::vector<std::vector<csp::Assignment>> reference;
    csp::SolverStats ref_stats;
    {
        csp::SampleBatch batch(space.csp, {}, 1);
        for (int g = 0; g < generations; ++g)
            reference.push_back(
                batch.sample(seed + static_cast<uint64_t>(g),
                             population));
        ref_stats = batch.stats();
        EXPECT_FALSE(batch.pool_started());
    }
    ASSERT_FALSE(reference.empty());
    ASSERT_FALSE(reference[0].empty());

    for (int workers : {2, 4, 8}) {
        csp::SampleBatch batch(space.csp, {}, workers);
        std::vector<std::vector<csp::Assignment>> got;
        for (int g = 0; g < generations; ++g)
            got.push_back(
                batch.sample(seed + static_cast<uint64_t>(g),
                             population));
        EXPECT_EQ(got, reference)
            << workers << "-worker populations differ from serial";
        // Aggregate solver stats must be invariant too: the same
        // slots are solved with the same RNG streams regardless of
        // which worker served them.
        auto stats = batch.stats();
        EXPECT_EQ(stats.solve_calls, ref_stats.solve_calls);
        EXPECT_EQ(stats.solutions, ref_stats.solutions);
        EXPECT_EQ(stats.backtracks, ref_stats.backtracks);
        EXPECT_EQ(stats.restarts, ref_stats.restarts);
        EXPECT_EQ(stats.propagations, ref_stats.propagations);
        EXPECT_EQ(stats.revisions, ref_stats.revisions);
        EXPECT_EQ(batch.last_failure(), csp::SolveFailure::kNone);
        EXPECT_TRUE(batch.pool_started());
    }
}

TEST(SampleBatchPool, WarmRepeatEqualsFreshBatch)
{
    const auto &space = small_space();
    csp::SampleBatch warm(space.csp, {}, 4);
    auto first = warm.sample(99, 12);
    // Interleave a different seed, then repeat the first call: the
    // warm pool and reused scratch must not leak state between
    // calls.
    warm.sample(123, 12);
    auto repeat = warm.sample(99, 12);
    EXPECT_EQ(first, repeat);

    csp::SampleBatch fresh(space.csp, {}, 4);
    EXPECT_EQ(fresh.sample(99, 12), first);
}

TEST(SampleBatchPool, UnsatExtraInvariantAcrossWorkerCounts)
{
    const auto &space = small_space();
    // Pin the first tunable to a value outside its domain: every
    // slot fails, and the failure reason must be worker-invariant.
    ASSERT_FALSE(space.csp.tunable_vars().empty());
    csp::VarId v = space.csp.tunable_vars().front();
    csp::Constraint pin;
    pin.kind = csp::ConstraintKind::kIn;
    pin.result = v;
    pin.constants = {-12345};
    std::vector<csp::Constraint> extra{pin};

    csp::SampleBatch serial(space.csp, {}, 1);
    auto ref = serial.sample(5, 8, extra);
    auto ref_failure = serial.last_failure();
    EXPECT_TRUE(ref.empty());

    for (int workers : {2, 4}) {
        csp::SampleBatch batch(space.csp, {}, workers);
        EXPECT_EQ(batch.sample(5, 8, extra), ref);
        EXPECT_EQ(batch.last_failure(), ref_failure);
    }
}

// ---------------------------------------------------------------
// CGA crossover waves (SampleBatch::solve_each)
// ---------------------------------------------------------------

/** What one crossover wave produced, slot by slot. */
struct CrossoverWave {
    std::vector<csp::Assignment> offspring;
    std::vector<int> relaxations;
    std::vector<csp::SolverStats> stats;
    std::vector<std::vector<csp::Assignment>> children;
};

/**
 * Two generations of CGA crossover over @p csp at @p workers: a
 * direct solve_each wave (for per-slot ladder depths) and the
 * constraint_crossover_mutation() path the tuner uses, on one warm
 * batch.
 */
CrossoverWave
crossover_wave(const csp::Csp &csp,
               const std::vector<csp::Assignment> &population,
               bool random_keys, int workers)
{
    csp::SampleBatch batch(csp, {}, workers);
    model::CostModel model(csp);
    Rng rng(21);
    CrossoverWave out;
    for (int generation = 0; generation < 2; ++generation) {
        auto subproblems = search::crossover_subproblems(
            csp, model, population, 16, 4, random_keys, rng);
        for (const auto &slot :
             batch.solve_each(rng.next_u64(), subproblems)) {
            out.relaxations.push_back(slot.relaxations);
            if (slot.solved)
                out.offspring.push_back(slot.assignment);
        }
        out.stats.push_back(batch.stats());
        out.children.push_back(search::constraint_crossover_mutation(
            batch, model, population, 16, 4, random_keys, rng));
        out.stats.push_back(batch.stats());
    }
    return out;
}

void
expect_crossover_invariant(const csp::Csp &csp,
                           const std::vector<csp::Assignment> &population,
                           bool random_keys)
{
    CrossoverWave reference =
        crossover_wave(csp, population, random_keys, 1);
    ASSERT_FALSE(reference.offspring.empty());
    for (int workers : {2, 4, 8}) {
        CrossoverWave got =
            crossover_wave(csp, population, random_keys, workers);
        EXPECT_EQ(got.offspring, reference.offspring) << workers;
        EXPECT_EQ(got.relaxations, reference.relaxations) << workers;
        EXPECT_EQ(got.stats, reference.stats) << workers;
        EXPECT_EQ(got.children, reference.children) << workers;
    }
}

TEST(SampleBatchCrossover, C2dInvariantAcrossWorkerCounts)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1));
    csp::SampleBatch sampler(space.csp);
    auto population = sampler.sample(3, 8);
    ASSERT_EQ(population.size(), 8u);
    expect_crossover_invariant(space.csp, population, false);
}

TEST(SampleBatchCrossover, UnsatLadderInvariantAcrossWorkerCounts)
{
    // The EQ chain of CgaLadder.RecoversOffspringFromUnsatCrossover:
    // only (1,1,1) and (2,2,2) are valid, and the invalid parent
    // (1,2,1) makes pinned subproblems UNSAT until the ladder drops
    // enough pins.
    csp::Csp csp;
    csp::VarId x = csp.add_var("x", csp::Domain::of({1, 2}), true);
    csp::VarId y = csp.add_var("y", csp::Domain::of({1, 2}), true);
    csp::VarId z = csp.add_var("z", csp::Domain::of({1, 2}), true);
    csp.add_eq(x, y);
    csp.add_eq(y, z);
    std::vector<csp::Assignment> population = {{1, 2, 1}};

    CrossoverWave reference = crossover_wave(csp, population, true, 1);
    int relaxed = 0;
    for (int depth : reference.relaxations)
        relaxed += depth > 0;
    EXPECT_GT(relaxed, 0) << "the ladder was never exercised";
    EXPECT_EQ(reference.offspring.size(), reference.relaxations.size());
    expect_crossover_invariant(csp, population, true);
}

TEST(SampleBatchCrossover, HeronTunerOutcomeInvariantAcrossWorkerCounts)
{
    autotune::TuneConfig config;
    config.trials = 40;
    config.population = 12;
    config.measure_per_round = 10;
    config.seed = 3;
    auto workload = ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1);

    config.sample_workers = 1;
    auto serial = autotune::make_heron_tuner(hw::DlaSpec::v100(), config)
                      ->tune(workload);
    config.sample_workers = 4;
    auto pooled = autotune::make_heron_tuner(hw::DlaSpec::v100(), config)
                      ->tune(workload);
    ASSERT_TRUE(serial.result.found());
    EXPECT_EQ(pooled.result.best, serial.result.best);
    EXPECT_EQ(pooled.result.best_gflops, serial.result.best_gflops);
    EXPECT_EQ(pooled.solver_stats, serial.solver_stats);
    EXPECT_GT(serial.solver_stats.solve_calls, 0);
}

// ---------------------------------------------------------------
// Registry shared-lock read path vs put() (also run under tsan)
// ---------------------------------------------------------------

autotune::TuningRecord
solved_record(const hw::DlaSpec &spec, const ops::Workload &workload,
              double gflops)
{
    rules::SpaceGenerator generator(spec, rules::Options::heron());
    auto space = generator.generate(workload);
    csp::RandSatSolver solver(space.csp);
    Rng rng(7);
    auto assignment = solver.solve_one(rng);
    EXPECT_TRUE(assignment.has_value());
    autotune::TuningRecord record;
    record.workload = workload.name;
    record.dla = spec.name;
    record.tuner = "test";
    record.valid = true;
    record.latency_ms = 1.0;
    record.gflops = gflops;
    record.assignment = assignment ? *assignment : csp::Assignment{};
    return record;
}

TEST(RegistryRcuConcurrency, ReadersNeverObserveTornState)
{
    auto spec = hw::DlaSpec::v100();
    serve::RegistryConfig config;
    config.enable_fallback = false; // isolate the exact read path
    serve::KernelRegistry registry(spec, config);

    std::vector<ops::Workload> workloads;
    for (int m : {64, 128, 256, 512})
        workloads.push_back(ops::gemm(m, 128, 128));
    std::vector<autotune::TuningRecord> seeds;
    for (const auto &w : workloads) {
        seeds.push_back(solved_record(spec, w, 10.0));
        ASSERT_TRUE(registry.put(w, seeds.back()));
    }

    // Writer hot-swaps ever-faster records while readers hammer
    // exact lookups. Every lookup must hit and serve a complete
    // record whose gflops is one of the published values.
    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            size_t i = static_cast<size_t>(t);
            while (!stop.load(std::memory_order_relaxed)) {
                const auto &w = workloads[i++ % workloads.size()];
                auto result = registry.lookup(w);
                if (!result.hit() || !result.record ||
                    result.record->assignment.empty() ||
                    result.record->gflops < 10.0)
                    torn.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (int round = 1; round <= 50; ++round) {
        for (size_t i = 0; i < workloads.size(); ++i) {
            auto faster = seeds[i];
            faster.gflops = 10.0 + round;
            registry.put(workloads[i], std::move(faster));
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &thread : readers)
        thread.join();

    EXPECT_EQ(torn.load(), 0);
    EXPECT_EQ(registry.size(), workloads.size());
    EXPECT_EQ(registry.stats().hot_swaps, 50 * 4);
    // After the dust settles every key serves the fastest record.
    for (const auto &w : workloads) {
        auto result = registry.lookup(w);
        ASSERT_TRUE(result.hit());
        EXPECT_DOUBLE_EQ(result.record->gflops, 60.0);
    }
}

TEST(RegistryRcuConcurrency, ShardedNegativeCache)
{
    auto spec = hw::DlaSpec::v100();
    serve::RegistryConfig config;
    config.enable_fallback = false;
    config.negative_threshold = 3;
    serve::KernelRegistry registry(spec, config);

    // Distinct absent workloads hammered from several threads: the
    // per-shard counters must saturate exactly like a global one.
    std::vector<ops::Workload> absent;
    for (int m : {32, 64, 96, 160, 224, 288, 352, 416})
        absent.push_back(ops::gemm(m, 64, 64));

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 3; ++i)
                for (const auto &w : absent)
                    registry.lookup(w);
        });
    }
    for (auto &thread : threads)
        thread.join();

    // 12 total misses per key >= threshold: all negative now.
    for (const auto &w : absent) {
        auto result = registry.lookup(w);
        EXPECT_EQ(result.tier, serve::LookupTier::kNegative);
    }

    // mark_untunable saturates immediately; put() clears.
    auto fresh = ops::gemm(480, 64, 64);
    registry.mark_untunable(serve::make_key(fresh, spec));
    EXPECT_EQ(registry.lookup(fresh).tier,
              serve::LookupTier::kNegative);
    ASSERT_TRUE(registry.put(fresh,
                             solved_record(spec, fresh, 5.0)));
    EXPECT_EQ(registry.lookup(fresh).tier,
              serve::LookupTier::kExact);
}

// ---------------------------------------------------------------
// SpaceCache
// ---------------------------------------------------------------

TEST(SpaceCacheTest, MemoizesAndSharesOneCanonicalSpace)
{
    rules::SpaceCache cache;
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto workload = ops::gemm(128, 128, 128);

    std::atomic<int> generated{0};
    auto make = [&] {
        generated.fetch_add(1, std::memory_order_relaxed);
        return gen.generate(workload);
    };

    auto first = cache.get_or_generate(42, make);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.get_or_generate(42, make).get(), first.get());
    EXPECT_EQ(generated.load(), 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SpaceCacheTest, ResetsWholesaleAtCapacity)
{
    rules::SpaceCache cache;
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto first = cache.get_or_generate(
        0, [&] { return gen.generate(ops::gemm(64, 64, 64)); });
    for (uint64_t key = 1; key <= rules::SpaceCache::kCapacity; ++key) {
        cache.get_or_generate(key, [] { return rules::GeneratedSpace{}; });
        EXPECT_LE(cache.size(), rules::SpaceCache::kCapacity);
    }
    // A pointer handed out before the reset stays valid.
    EXPECT_EQ(first->workload.name, ops::gemm(64, 64, 64).name);
    EXPECT_GT(first->csp.num_vars(), 0u);
}

TEST(SpaceCacheTest, ConcurrentGetOrGenerateConverges)
{
    rules::SpaceCache cache;
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto workload = ops::gemm(64, 64, 64);

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const rules::GeneratedSpace>> got(
        kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Two keys, interleaved.
            uint64_t key = static_cast<uint64_t>(t % 2);
            got[static_cast<size_t>(t)] = cache.get_or_generate(
                key, [&] { return gen.generate(workload); });
        });
    }
    for (auto &thread : threads)
        thread.join();

    // First insert wins: every thread asking for a key got the same
    // canonical space.
    EXPECT_EQ(cache.size(), 2u);
    for (int t = 2; t < kThreads; ++t)
        EXPECT_EQ(got[static_cast<size_t>(t)].get(),
                  got[static_cast<size_t>(t % 2)].get());
}

} // namespace
} // namespace heron
