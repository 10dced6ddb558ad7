/**
 * @file
 * google-benchmark microbenchmarks of Heron's building blocks:
 * space generation, RandSAT solving, program binding, simulator
 * evaluation, GBDT training/prediction, and CGA offspring
 * generation. These quantify the "compilation cost" components
 * behind Table 10 / Fig. 14 in isolation.
 */
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "csp/sample_batch.h"
#include "csp/solver.h"
#include "hw/measurer.h"
#include "model/cost_model.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "search/cga.h"

using namespace heron;

namespace {

const rules::GeneratedSpace &
gemm_space()
{
    static rules::GeneratedSpace space = [] {
        rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                                  rules::Options::heron());
        return gen.generate(ops::gemm(512, 1024, 1024));
    }();
    return space;
}

void
BM_SpaceGeneration(benchmark::State &state)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto workload = ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1);
    for (auto _ : state) {
        auto space = gen.generate(workload);
        benchmark::DoNotOptimize(space.csp.num_constraints());
    }
}
BENCHMARK(BM_SpaceGeneration);

void
BM_RandSatSolve(benchmark::State &state)
{
    const auto &space = gemm_space();
    csp::RandSatSolver solver(space.csp);
    Rng rng(1);
    for (auto _ : state) {
        auto a = solver.solve_one(rng);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_RandSatSolve);

void
BM_BindProgram(benchmark::State &state)
{
    const auto &space = gemm_space();
    csp::RandSatSolver solver(space.csp);
    Rng rng(2);
    auto a = solver.solve_one(rng);
    for (auto _ : state) {
        auto program = space.bind(*a);
        benchmark::DoNotOptimize(program.stages.size());
    }
}
BENCHMARK(BM_BindProgram);

void
BM_SimulatorLatency(benchmark::State &state)
{
    const auto &space = gemm_space();
    csp::RandSatSolver solver(space.csp);
    Rng rng(3);
    auto a = solver.solve_one(rng);
    auto program = space.bind(*a);
    auto sim = hw::make_simulator(space.spec);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim->latency_ms(program));
    }
}
BENCHMARK(BM_SimulatorLatency);

/**
 * The cost-model fits of one 96-trial v100 C2D tune: the 195-feature
 * space refit after every 12 measurements, on 12, 24, ..., 96 rows.
 */
void
BM_GbdtFit(benchmark::State &state)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1));
    csp::RandSatSolver solver(space.csp);
    Rng rng(4);
    hw::Measurer measurer(space.spec);
    std::vector<std::unique_ptr<model::CostModel>> fits;
    for (int rows = 12; rows <= 96; rows += 12)
        fits.push_back(std::make_unique<model::CostModel>(space.csp));
    for (int i = 0; i < 96; ++i) {
        auto a = solver.solve_one(rng);
        auto r = measurer.measure(space.bind(*a));
        for (size_t f = static_cast<size_t>(i / 12); f < fits.size(); ++f)
            fits[f]->add_sample(*a, r.valid, r.latency_ms,
                                space.dag.total_ops());
    }
    state.counters["features"] =
        static_cast<double>(space.csp.num_vars());
    for (auto _ : state)
        for (auto &model : fits)
            model->fit();
}
BENCHMARK(BM_GbdtFit)->Unit(benchmark::kMillisecond);

void
BM_CgaOffspring(benchmark::State &state)
{
    const auto &space = gemm_space();
    csp::SampleBatch batch(space.csp);
    Rng rng(5);
    model::CostModel model(space.csp);
    auto pop = batch.sample(rng.next_u64(), 16);
    for (auto _ : state) {
        auto offspring = search::constraint_crossover_mutation(
            batch, model, pop, 8, 8, false, rng);
        benchmark::DoNotOptimize(offspring.size());
    }
}
BENCHMARK(BM_CgaOffspring);

} // namespace

BENCHMARK_MAIN();
