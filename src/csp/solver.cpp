#include "csp/solver.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>

#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::csp {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * One restart's depth-first search over the solver's persistent
 * engine. The engine arrives at the root fixpoint (base problem
 * plus any pushed extras); every decision opens a trail level and
 * backtracking pops it. On success the decision levels are left
 * open so the caller can extract before popping back to the root.
 */
class Dfs
{
  public:
    /**
     * @param candidates per-depth value buffers, at least
     *        num_vars() + 1 of them (each decision fixes one more
     *        variable, so the search never goes deeper).
     */
    Dfs(const Csp &csp, PropagationEngine &engine, Rng &rng,
        const SolverConfig &config, SolverStats &stats,
        Clock::time_point deadline,
        std::vector<std::vector<int64_t>> &candidates)
        : csp_(csp), engine_(engine), rng_(rng), config_(config),
          stats_(stats), deadline_(deadline), candidates_(candidates)
    {
    }

    /** True when a full assignment was found (levels left open). */
    bool
    run()
    {
        backtracks_left_ = config_.max_backtracks_per_restart;
        return recurse(0);
    }

    /** The wall-clock deadline expired during the search. */
    bool deadline_hit() const { return deadline_hit_; }

  private:
    const Csp &csp_;
    PropagationEngine &engine_;
    Rng &rng_;
    const SolverConfig &config_;
    SolverStats &stats_;
    Clock::time_point deadline_;
    std::vector<std::vector<int64_t>> &candidates_;
    int backtracks_left_ = 0;
    bool deadline_hit_ = false;
    // Scratch for pick_branch_var's tie-break list; consumed before
    // the search recurses, so one buffer serves every depth and the
    // per-decision allocation disappears.
    std::vector<VarId> open_;

    VarId
    pick_branch_var()
    {
        // Most-constrained unassigned tunable first (smallest
        // domain, ties broken randomly); auxiliaries are usually
        // fixed by propagation and are branched on only after every
        // tunable is assigned. Value choice stays fully random,
        // which provides the sample diversity RandSAT needs;
        // ordering by domain size surfaces conflicts early.
        std::vector<VarId> &open = open_;
        open.clear();
        int64_t min_size = std::numeric_limits<int64_t>::max();
        for (VarId v : csp_.tunable_vars()) {
            const Domain &d = engine_.domain(v);
            if (d.is_singleton())
                continue;
            if (d.size() < min_size) {
                min_size = d.size();
                open.clear();
            }
            if (d.size() == min_size)
                open.push_back(v);
        }
        if (!open.empty())
            return open[rng_.index(open.size())];
        VarId best = -1;
        int64_t best_size = 0;
        for (size_t i = 0; i < csp_.num_vars(); ++i) {
            const Domain &d = engine_.domain(static_cast<VarId>(i));
            if (d.is_singleton())
                continue;
            if (best < 0 || d.size() < best_size) {
                best = static_cast<VarId>(i);
                best_size = d.size();
            }
        }
        return best;
    }

    /** Fill @p vals with the shuffled values to try for @p d. */
    void
    candidate_values(const Domain &d, std::vector<int64_t> &vals)
    {
        if (d.is_explicit() || d.size() <= 256) {
            d.values_into(vals);
            rng_.shuffle(vals);
        } else {
            // Huge interval: sample a handful of representative
            // values. Such variables are normally fixed by
            // propagation; this is a safety net.
            vals.clear();
            vals.push_back(d.min());
            vals.push_back(d.max());
            for (int i = 0; i < 6; ++i)
                vals.push_back(rng_.uniform_int(d.min(), d.max()));
            std::sort(vals.begin(), vals.end());
            vals.erase(std::unique(vals.begin(), vals.end()),
                       vals.end());
            rng_.shuffle(vals);
        }
    }

    bool
    recurse(size_t depth)
    {
        VarId var = pick_branch_var();
        if (var < 0)
            return engine_.all_assigned();

        // This depth's buffer: deeper calls use later ones, so the
        // range-for below never sees its vector change.
        std::vector<int64_t> &vals = candidates_[depth];
        candidate_values(engine_.domain(var), vals);
        for (int64_t value : vals) {
            // Deadline check before every propagation step, so the
            // solve overshoots the deadline by at most one step.
            if (deadline_ != Clock::time_point::max() &&
                Clock::now() >= deadline_) {
                deadline_hit_ = true;
                return false;
            }
            engine_.push_level();
            if (engine_.assign_and_propagate(var, value)) {
                if (recurse(depth + 1))
                    return true; // levels stay open for extract_into()
            }
            if (deadline_hit_)
                return false; // caller pops all open levels at once
            engine_.pop_level();
            ++stats_.backtracks;
            if (--backtracks_left_ <= 0)
                return false;
        }
        return false;
    }
};

} // namespace

const char *
solve_failure_name(SolveFailure failure)
{
    switch (failure) {
      case SolveFailure::kNone: return "none";
      case SolveFailure::kUnsat: return "unsat";
      case SolveFailure::kBudget: return "budget";
      case SolveFailure::kDeadline: return "deadline";
    }
    return "?";
}

SolverStats &
SolverStats::operator+=(const SolverStats &other)
{
    solve_calls += other.solve_calls;
    solutions += other.solutions;
    backtracks += other.backtracks;
    restarts += other.restarts;
    failures += other.failures;
    unsat += other.unsat;
    budget_exhausted += other.budget_exhausted;
    deadline_aborts += other.deadline_aborts;
    propagations += other.propagations;
    revisions += other.revisions;
    return *this;
}

RandSatSolver::RandSatSolver(const Csp &csp, SolverConfig config)
    : csp_(csp), config_(config), engine_(csp),
      candidates_(csp.num_vars() + 1)
{
    // Compute the base problem's root fixpoint once; every solve
    // call starts from this state. Its engine counters are absorbed
    // into the sync baseline rather than stats_: the fixpoint is
    // per-problem setup, not per-solve work, and excluding it keeps
    // aggregate stats worker-count invariant when SampleBatch
    // creates one solver per worker.
    root_ok_ = engine_.propagate();
    engine_synced_ = engine_.stats();
}

void
RandSatSolver::sync_engine_stats()
{
    const PropagationEngine::Stats &now = engine_.stats();
    stats_.propagations += now.propagations - engine_synced_.propagations;
    stats_.revisions += now.revisions - engine_synced_.revisions;
    engine_synced_ = now;
}

bool
RandSatSolver::search(Rng &rng, const std::vector<Constraint> &extra,
                      Assignment &out)
{
    HERON_TRACE_SCOPE("csp/solve");
    ++stats_.solve_calls;
    int64_t backtracks_before = stats_.backtracks;
    int64_t restarts_before = stats_.restarts;
    // Publish the outcome to the process-wide metrics registry as
    // one batch per solve call so the DFS inner loop stays free of
    // atomic traffic.
    auto publish = [&]() {
        HERON_COUNTER_INC("csp.solve_calls");
        HERON_COUNTER_ADD("csp.backtracks",
                          stats_.backtracks - backtracks_before);
        HERON_COUNTER_ADD("csp.restarts",
                          stats_.restarts - restarts_before);
        switch (last_failure_) {
          case SolveFailure::kNone:
            HERON_COUNTER_INC("csp.solutions");
            break;
          case SolveFailure::kUnsat:
            HERON_COUNTER_INC("csp.unsat");
            break;
          case SolveFailure::kBudget:
            HERON_COUNTER_INC("csp.budget_exhausted");
            break;
          case SolveFailure::kDeadline:
            HERON_COUNTER_INC("csp.deadline_aborts");
            break;
        }
        sync_engine_stats();
    };
    auto fail_unsat = [&]() {
        ++stats_.failures;
        ++stats_.unsat;
        last_failure_ = SolveFailure::kUnsat;
        publish();
        return false;
    };

    if (!root_ok_)
        return fail_unsat();

    const bool push = !extra.empty();
    if (push && !engine_.push_extras(extra)) {
        // Root propagation disproved the extras; no RNG consumed.
        engine_.pop_extras();
        return fail_unsat();
    }

    const size_t base_depth = engine_.depth();
    auto finish = [&](bool result) {
        engine_.pop_to_depth(base_depth);
        if (push)
            engine_.pop_extras();
        publish();
        return result;
    };

    Clock::time_point deadline = Clock::time_point::max();
    if (config_.deadline_ms > 0.0)
        deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           config_.deadline_ms));
    for (int restart = 0; restart < config_.max_restarts; ++restart) {
        if (restart > 0)
            ++stats_.restarts;
        Dfs dfs(csp_, engine_, rng, config_, stats_, deadline,
                candidates_);
        if (dfs.run()) {
            engine_.extract_into(out);
            ++stats_.solutions;
            last_failure_ = SolveFailure::kNone;
            return finish(true);
        }
        // Back to the root fixpoint for the next restart (replaces
        // the historical engine reconstruction).
        engine_.pop_to_depth(base_depth);
        if (dfs.deadline_hit()) {
            ++stats_.failures;
            ++stats_.deadline_aborts;
            last_failure_ = SolveFailure::kDeadline;
            return finish(false);
        }
    }
    ++stats_.failures;
    ++stats_.budget_exhausted;
    last_failure_ = SolveFailure::kBudget;
    return finish(false);
}

std::optional<Assignment>
RandSatSolver::solve_one(Rng &rng, const std::vector<Constraint> &extra)
{
    Assignment result;
    if (!solve_into(rng, extra, result))
        return std::nullopt;
    return result;
}

bool
RandSatSolver::solve_into(Rng &rng, const std::vector<Constraint> &extra,
                          Assignment &out)
{
    if (!search(rng, extra, out))
        return false;
    HERON_CHECK(csp_.valid(out))
        << "solver produced an invalid assignment";
    for (const auto &c : extra)
        HERON_CHECK(csp_.satisfies(c, out))
            << "solver violated an extra constraint";
    return true;
}

std::vector<Assignment>
RandSatSolver::solve_n(Rng &rng, int n,
                       const std::vector<Constraint> &extra)
{
    std::vector<Assignment> results;
    std::unordered_set<uint64_t> seen;
    // A few extra attempts absorb duplicate draws in tight spaces.
    int attempts = n + std::max(4, n / 2);
    for (int i = 0; i < attempts && static_cast<int>(results.size()) < n;
         ++i) {
        auto a = solve_one(rng, extra);
        if (!a)
            break; // budget exhausted; subproblem likely too tight
        uint64_t h = assignment_hash(*a);
        if (seen.insert(h).second)
            results.push_back(std::move(*a));
    }
    return results;
}

bool
RandSatSolver::feasible(Rng &rng, const std::vector<Constraint> &extra)
{
    Assignment scratch;
    return search(rng, extra, scratch);
}

} // namespace heron::csp
