/**
 * @file
 * RandSAT: randomized constraint-satisfaction solving.
 *
 * Heron uses a constraint solver only to draw *random valid
 * assignments* from a CSP (paper §5.1, "random constraint
 * satisfaction"). This solver performs randomized backtracking
 * search with propagation after every decision, restarting after a
 * backtrack budget is exhausted.
 *
 * Throughput design: the solver owns one PropagationEngine for its
 * whole lifetime and computes the base problem's root-propagation
 * fixpoint once, in the constructor. Every solve call starts from
 * that memoized fixpoint — extra constraints are layered on with
 * push_extras()/pop_extras(), decisions backtrack over the engine's
 * undo trail, and restarts pop back to the fixpoint instead of
 * rebuilding the engine.
 */
#ifndef HERON_CSP_SOLVER_H
#define HERON_CSP_SOLVER_H

#include <optional>
#include <vector>

#include "csp/csp.h"
#include "csp/propagate.h"
#include "support/rng.h"

namespace heron::csp {

/** Knobs for the randomized solver. */
struct SolverConfig {
    /** Backtracks before a random restart. */
    int max_backtracks_per_restart = 512;
    /** Restarts before giving up on one solve call. */
    int max_restarts = 16;
    /**
     * Wall-clock deadline per solve call in milliseconds (0 =
     * unbounded). Checked before every propagation step, so a solve
     * overshoots the deadline by at most one step.
     */
    double deadline_ms = 0.0;
};

/** Why a solve call returned no assignment. */
enum class SolveFailure : uint8_t {
    kNone = 0,
    /** Proven unsatisfiable (root propagation wiped out a domain). */
    kUnsat,
    /** Backtrack/restart budget exhausted (may still be sat). */
    kBudget,
    /** Wall-clock deadline expired (may still be sat). */
    kDeadline,
};

/** Name of a failure reason ("none", "unsat", ...). */
const char *solve_failure_name(SolveFailure failure);

/** Statistics accumulated across solve calls. */
struct SolverStats {
    int64_t solve_calls = 0;
    int64_t solutions = 0;
    int64_t backtracks = 0;
    int64_t restarts = 0;
    int64_t failures = 0;
    /** Solve calls that proved the subproblem unsatisfiable. */
    int64_t unsat = 0;
    /** Solve calls that exhausted the backtrack/restart budget. */
    int64_t budget_exhausted = 0;
    /** Solve calls aborted by the wall-clock deadline. */
    int64_t deadline_aborts = 0;
    /** Propagation fixpoint computations. */
    int64_t propagations = 0;
    /** Individual constraint revisions. */
    int64_t revisions = 0;

    /** Field-wise accumulation (merging worker/offspring solvers). */
    SolverStats &operator+=(const SolverStats &other);

    bool operator==(const SolverStats &) const = default;
};

/**
 * Randomized finite-domain solver over a Csp plus optional extra
 * constraints.
 *
 * Not thread-safe: one RandSatSolver per thread (see SampleBatch
 * for the deterministic parallel front-end).
 */
class RandSatSolver
{
  public:
    /** Solver over the base problem only. */
    explicit RandSatSolver(const Csp &csp, SolverConfig config = {});

    /**
     * Draw one random valid assignment of all variables.
     * @param extra additional constraints (e.g. CGA crossover IN
     *        constraints); not stored.
     * @return nullopt when no solution was found within the budget
     *         (the subproblem may be unsatisfiable).
     */
    std::optional<Assignment>
    solve_one(Rng &rng, const std::vector<Constraint> &extra = {});

    /**
     * solve_one() into @p out, which is resized in place so a
     * reused cell keeps its capacity. Same RNG use, statistics and
     * validity checks as solve_one().
     * @return false when no solution was found (@p out is then
     *         unspecified).
     */
    bool solve_into(Rng &rng, const std::vector<Constraint> &extra,
                    Assignment &out);

    /**
     * Draw up to @p n random valid assignments (duplicates are
     * removed). Fewer may be returned for tight subproblems.
     */
    std::vector<Assignment>
    solve_n(Rng &rng, int n, const std::vector<Constraint> &extra = {});

    /**
     * Check satisfiability of the problem plus @p extra within the
     * configured budget (sound "sat", incomplete "unsat").
     */
    bool feasible(Rng &rng, const std::vector<Constraint> &extra = {});

    /** Accumulated statistics. */
    const SolverStats &stats() const { return stats_; }

    /**
     * Why the most recent solve_one/feasible call failed (kNone
     * after a success). Lets callers distinguish a proven-UNSAT
     * subproblem from an exhausted budget or an expired deadline
     * and degrade accordingly.
     */
    SolveFailure last_failure() const { return last_failure_; }

    /** The problem this solver samples from. */
    const Csp &csp() const { return csp_; }

    /** The configuration the solver was built with. */
    const SolverConfig &config() const { return config_; }

  private:
    const Csp &csp_;
    SolverConfig config_;
    SolverStats stats_;
    SolveFailure last_failure_ = SolveFailure::kNone;

    /** Persistent engine holding the base root fixpoint at depth 0. */
    PropagationEngine engine_;
    /** False when the base problem is UNSAT at the root. */
    bool root_ok_ = false;
    /** Engine counters already folded into stats_. */
    PropagationEngine::Stats engine_synced_;
    /**
     * The search's per-depth candidate-value buffers, num_vars() + 1
     * of them, sized once so decisions never allocate.
     */
    std::vector<std::vector<int64_t>> candidates_;

    /** One solve call; on success the assignment is in @p out. */
    bool search(Rng &rng, const std::vector<Constraint> &extra,
                Assignment &out);

    /** Fold new engine propagation counters into stats_. */
    void sync_engine_stats();
};

} // namespace heron::csp

#endif // HERON_CSP_SOLVER_H
