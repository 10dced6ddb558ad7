/**
 * @file
 * The Constraint-based Genetic Algorithm (paper §5, Algorithms 2-3).
 *
 * CGA's defining property: crossover and mutation operate on
 * *constraint satisfaction problems*, not on concrete chromosomes.
 * Crossover adds IN(v, {parent1_v, parent2_v}) constraints on
 * cost-model-selected key variables to CSP_initial; mutation
 * removes one of the added constraints; offspring are drawn by the
 * RandSAT solver from the resulting CSP, so every offspring
 * satisfies CSP_initial by construction.
 */
#ifndef HERON_SEARCH_CGA_H
#define HERON_SEARCH_CGA_H

#include "csp/sample_batch.h"
#include "model/cost_model.h"
#include "search/algorithms.h"
#include "search/common.h"

namespace heron::search {

/**
 * Algorithm 3's subproblems, drawn from @p rng: for each of @p count
 * children, IN(v, {parent1_v, parent2_v}) on every key variable of
 * two random parents (crossover), minus one random constraint
 * (mutation). Empty when @p population is.
 *
 * @param random_keys CGA-1 ablation: choose key variables uniformly
 *        at random instead of by model feature importance.
 */
std::vector<std::vector<csp::Constraint>> crossover_subproblems(
    const csp::Csp &csp, const model::CostModel &model,
    const std::vector<csp::Assignment> &population, int count,
    int key_vars, bool random_keys, Rng &rng);

/**
 * Algorithm 3: produce up to @p count offspring from @p population
 * via constraint-based crossover and mutation.
 *
 * The crossover_subproblems() are built serially from @p rng, which
 * then yields one seed for a SampleBatch::solve_each wave over
 * @p batch's problem; children are returned in subproblem order.
 * The result is therefore the same for any batch worker count.
 */
std::vector<csp::Assignment> constraint_crossover_mutation(
    csp::SampleBatch &batch, const model::CostModel &model,
    const std::vector<csp::Assignment> &population, int count,
    int key_vars, bool random_keys, Rng &rng);

/**
 * Roulette-wheel selection: draw @p count members with probability
 * proportional to fitness (uniform when all fitness is zero).
 */
std::vector<csp::Assignment>
roulette_select(const std::vector<csp::Assignment> &population,
                const std::vector<double> &fitness, int count,
                Rng &rng);

/**
 * Direct-measurement CGA exploration (the setting of Fig. 12/13):
 * every candidate is measured, the cost model is trained online on
 * the measurements and used only for key-variable extraction.
 */
SearchResult cga_search(const rules::GeneratedSpace &space,
                        hw::Measurer &measurer,
                        const SearchConfig &config,
                        bool random_keys = false);

} // namespace heron::search

#endif // HERON_SEARCH_CGA_H
