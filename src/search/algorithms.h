/**
 * @file
 * Search algorithms over constrained spaces.
 *
 * All algorithms spend a budget of hardware-measurement *trials*
 * and return the best program found plus the best-so-far
 * trajectory, enabling the paper's exploration-efficiency
 * comparisons:
 *  - RAND:  random valid sampling via the CSP solver (Fig. 2)
 *  - SA:    simulated annealing on tunable parameters (Fig. 2/12)
 *  - GA:    classic genetic algorithm on tunable parameters
 *  - CGA:   Heron's constraint-based GA (Fig. 12/13); CGA-1 picks
 *           key variables randomly instead of by model importance
 *  - GA-1:  stochastic-ranking constraint handling (Runarsson&Yao)
 *  - GA-2:  SAT-decoder constraint handling (Lukasiewycz et al.)
 *  - GA-3:  infeasibility-driven multi-objective handling (Ray et
 *           al.)
 */
#ifndef HERON_SEARCH_ALGORITHMS_H
#define HERON_SEARCH_ALGORITHMS_H

#include "search/common.h"

namespace heron::search {

/** Shared knobs for the search algorithms. */
struct SearchConfig {
    /** Hardware measurement budget. */
    int trials = 500;
    uint64_t seed = 1;
    int population = 20;
    /** Key variables per CGA crossover. */
    int key_vars = 8;
    /** Gene mutation probability (classic GA family). */
    double mutation_prob = 0.3;
    /** SA initial temperature (in score units). */
    double sa_temperature = 1.0;
    /** SA geometric cooling factor per step. */
    double sa_cooling = 0.995;
    /** Stochastic ranking comparison probability (GA-1). */
    double sr_pf = 0.45;
    /** Infeasible fraction kept by GA-3. */
    double idea_infeasible_fraction = 0.2;
    /**
     * Worker threads for CGA's CSP solves (population draws and
     * crossover children). Results are bit-identical for any value
     * >= 1 — see csp::SampleBatch.
     */
    int sample_workers = 1;
};

/** RAND: uniform valid sampling through the solver. */
SearchResult random_search(const rules::GeneratedSpace &space,
                           hw::Measurer &measurer,
                           const SearchConfig &config);

/** SA on tunable parameters (constraints not consulted). */
SearchResult simulated_annealing(const rules::GeneratedSpace &space,
                                 hw::Measurer &measurer,
                                 const SearchConfig &config);

/**
 * SA whose neighbor step stays structurally consistent (each gene
 * change is repaired through propagation before being adopted), the
 * way AutoTVM's manual templates sample knobs by construction.
 * Architectural validity (memory capacity etc.) is still only
 * discovered at measurement when the space omits those constraints.
 */
SearchResult
template_consistent_sa(const rules::GeneratedSpace &space,
                       hw::Measurer &measurer,
                       const SearchConfig &config);

/** Classic GA on tunable parameters (constraints not consulted). */
SearchResult genetic_algorithm(const rules::GeneratedSpace &space,
                               hw::Measurer &measurer,
                               const SearchConfig &config);

/** GA-1: stochastic ranking of (fitness, violation count). */
SearchResult
stochastic_ranking_ga(const rules::GeneratedSpace &space,
                      hw::Measurer &measurer,
                      const SearchConfig &config);

/** GA-2: genotypes decoded to valid phenotypes by a SAT decoder. */
SearchResult sat_decoder_ga(const rules::GeneratedSpace &space,
                            hw::Measurer &measurer,
                            const SearchConfig &config);

/** GA-3: infeasibility-driven multi-objective selection. */
SearchResult multi_objective_ga(const rules::GeneratedSpace &space,
                                hw::Measurer &measurer,
                                const SearchConfig &config);

} // namespace heron::search

#endif // HERON_SEARCH_ALGORITHMS_H
