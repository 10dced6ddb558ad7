/**
 * @file
 * google-benchmark microbenchmarks of Heron's building blocks:
 * space generation, RandSAT solving, program binding, simulator
 * evaluation, GBDT training/prediction, and CGA offspring
 * generation. These quantify the "compilation cost" components
 * behind Table 10 / Fig. 14 in isolation.
 */
#include <benchmark/benchmark.h>

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

void
BM_GbdtFit(benchmark::State &state)
{
    const auto &space = gemm_space();
    csp::RandSatSolver solver(space.csp);
    Rng rng(4);
    model::CostModel model(space.csp);
    hw::Measurer measurer(space.spec);
    for (int i = 0; i < 128; ++i) {
        auto a = solver.solve_one(rng);
        auto r = measurer.measure(space.bind(*a));
        model.add_sample(*a, r.valid, r.latency_ms,
                         space.dag.total_ops());
    }
    for (auto _ : state)
        model.fit();
}
BENCHMARK(BM_GbdtFit);

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
