#include "search/cga.h"

#include <algorithm>

#include "csp/sample_batch.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::search {

using csp::Assignment;
using csp::Constraint;
using csp::ConstraintKind;
using csp::Csp;
using csp::VarId;

std::vector<Assignment>
roulette_select(const std::vector<Assignment> &population,
                const std::vector<double> &fitness, int count,
                Rng &rng)
{
    HERON_CHECK_EQ(population.size(), fitness.size());
    std::vector<Assignment> selected;
    if (population.empty())
        return selected;
    selected.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        selected.push_back(population[rng.weighted_index(fitness)]);
    return selected;
}

std::vector<std::vector<Constraint>>
crossover_subproblems(const Csp &csp, const model::CostModel &model,
                      const std::vector<Assignment> &population,
                      int count, int key_vars, bool random_keys,
                      Rng &rng)
{
    std::vector<std::vector<Constraint>> subproblems;
    if (population.empty() || count <= 0)
        return subproblems;
    std::vector<VarId> keys;
    if (!random_keys)
        keys = model.key_variables(key_vars);
    subproblems.resize(static_cast<size_t>(count));
    for (auto &constraints : subproblems) {
        // Step 1: key variable extraction.
        if (random_keys) {
            keys.clear();
            for (int j = 0; j < key_vars; ++j)
                keys.push_back(static_cast<VarId>(
                    rng.index(csp.num_vars())));
        }

        // Step 2: constraint-based crossover.
        const Assignment &c1 = population[rng.index(population.size())];
        const Assignment &c2 = population[rng.index(population.size())];
        constraints.reserve(keys.size());
        for (VarId v : keys) {
            Constraint c;
            c.kind = ConstraintKind::kIn;
            c.result = v;
            c.constants = {c1[static_cast<size_t>(v)],
                           c2[static_cast<size_t>(v)]};
            c.note = "CGA:crossover";
            constraints.push_back(std::move(c));
        }

        // Step 3: constraint-based mutation — drop one constraint.
        if (!constraints.empty())
            constraints.erase(constraints.begin() +
                              static_cast<long>(
                                  rng.index(constraints.size())));
    }
    return subproblems;
}

std::vector<Assignment>
constraint_crossover_mutation(csp::SampleBatch &batch,
                              const model::CostModel &model,
                              const std::vector<Assignment> &population,
                              int count, int key_vars,
                              bool random_keys, Rng &rng)
{
    HERON_TRACE_SCOPE("cga/crossover");
    std::vector<Assignment> offspring;
    // Every subproblem is built serially from the caller's RNG, so
    // the set of subproblems does not depend on how they are solved.
    auto subproblems = crossover_subproblems(
        batch.csp(), model, population, count, key_vars, random_keys,
        rng);
    if (subproblems.empty())
        return offspring;
    HERON_COUNTER_ADD("cga.crossover_subproblems", count);

    // Solve one child per subproblem on the batch's pool. A child
    // whose key-variable combination is over-constrained (UNSAT, or
    // out of budget or deadline) walks a relaxation ladder in its
    // slot instead of being discarded, dropping the added IN
    // constraints one at a time; validity w.r.t. CSP_initial holds
    // on every rung.
    auto slots = batch.solve_each(rng.next_u64(), subproblems);
    offspring.reserve(slots.size());
    for (const csp::SlotResult &slot : slots) {
        if (slot.relaxations > 0) {
            HERON_DEBUG << "CGA crossover subproblem failed ("
                        << csp::solve_failure_name(slot.failure)
                        << "); relaxed " << slot.relaxations
                        << " constraint(s)";
            HERON_COUNTER_ADD("cga.relaxations", slot.relaxations);
            HERON_HISTOGRAM_OBSERVE("cga.relaxation_depth",
                                    slot.relaxations);
        }
        if (slot.solved) {
            HERON_COUNTER_INC("cga.offspring");
            offspring.push_back(slot.assignment);
        } else {
            HERON_COUNTER_INC("cga.offspring_failed");
        }
    }
    return offspring;
}

SearchResult
cga_search(const rules::GeneratedSpace &space, hw::Measurer &measurer,
           const SearchConfig &config, bool random_keys)
{
    Rng rng(config.seed);
    // Population draws and crossover children both go through the
    // deterministic parallel solver pool: each batch consumes one
    // seed from the search RNG, and its result is bit-identical for
    // any worker count.
    csp::SampleBatch batch(space.csp, {}, config.sample_workers);
    Evaluator evaluator(space, measurer);
    model::CostModel model(space.csp);

    // Initial population: random valid assignments.
    std::vector<Assignment> pop;
    std::vector<double> fitness;
    auto initial = batch.sample(rng.next_u64(), config.population);
    for (auto &a : initial) {
        if (evaluator.count() >= config.trials)
            break;
        double score = evaluator.measure(a);
        model.add_scored_sample(a, score);
        pop.push_back(std::move(a));
        fitness.push_back(score);
    }
    model.fit();

    while (evaluator.count() < config.trials && !pop.empty()) {
        HERON_COUNTER_INC("cga.generations");
        auto parents = roulette_select(pop, fitness,
                                       config.population, rng);
        auto offspring = constraint_crossover_mutation(
            batch, model, parents, config.population,
            config.key_vars, random_keys, rng);
        if (offspring.empty()) {
            // Population collapsed; refresh with random samples.
            offspring = batch.sample(rng.next_u64(),
                                     config.population);
            if (offspring.empty())
                break;
        }
        for (auto &child : offspring) {
            if (evaluator.count() >= config.trials)
                break;
            double score = evaluator.measure(child);
            model.add_scored_sample(child, score);
            pop.push_back(std::move(child));
            fitness.push_back(score);
        }
        model.fit();

        // Keep the population bounded: best 2x population by
        // fitness (parents + offspring both survive selection).
        if (pop.size() >
            static_cast<size_t>(2 * config.population)) {
            std::vector<size_t> order(pop.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::stable_sort(order.begin(), order.end(),
                             [&](size_t a, size_t b) {
                                 return fitness[a] > fitness[b];
                             });
            order.resize(static_cast<size_t>(2 * config.population));
            std::vector<Assignment> new_pop;
            std::vector<double> new_fit;
            for (size_t idx : order) {
                new_pop.push_back(std::move(pop[idx]));
                new_fit.push_back(fitness[idx]);
            }
            pop = std::move(new_pop);
            fitness = std::move(new_fit);
        }
    }
    return evaluator.result();
}

} // namespace heron::search
