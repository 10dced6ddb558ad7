/**
 * @file
 * Property/fuzz tests for the CSP solver: random small problems are
 * brute-forced for ground truth and compared against RandSAT
 * (soundness always; completeness on satisfiable instances), and
 * propagation is validated never to prune a brute-force solution.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

#include "csp/propagate.h"
#include "csp/sample_batch.h"
#include "csp/solver.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace heron::csp {
namespace {

/** A randomly generated small CSP plus its brute-force solutions. */
struct FuzzProblem {
    Csp csp;
    std::vector<Assignment> solutions; // over all vars
};

/**
 * Build a random problem: 3-5 tunable vars with small explicit
 * domains, 1-2 derived vars, and random constraints among them,
 * sometimes including a PROD with a fixed result (the shape of a
 * tiling split) whose operand domains hold non-divisors of it.
 */
FuzzProblem
make_problem(uint64_t seed)
{
    Rng rng(seed);
    FuzzProblem problem;
    Csp &csp = problem.csp;

    int num_tunables = static_cast<int>(rng.uniform_int(3, 5));
    std::vector<VarId> tunables;
    for (int i = 0; i < num_tunables; ++i) {
        std::vector<int64_t> values;
        int size = static_cast<int>(rng.uniform_int(2, 4));
        for (int v = 0; v < size; ++v)
            values.push_back(rng.uniform_int(1, 6));
        tunables.push_back(csp.add_var("t" + std::to_string(i),
                                       Domain::of(values), true));
    }

    // One PROD and one SUM derived variable over random operands.
    auto random_operands = [&]() {
        std::vector<VarId> ops;
        int count = static_cast<int>(rng.uniform_int(2, 3));
        for (int i = 0; i < count; ++i)
            ops.push_back(rng.pick(tunables));
        return ops;
    };
    VarId prod = csp.add_var("prod", Domain::interval(1, 1000));
    csp.add_prod(prod, random_operands());
    VarId sum = csp.add_var("sum", Domain::interval(0, 100));
    csp.add_sum(sum, random_operands());

    // Random relational constraints.
    if (rng.bernoulli(0.5))
        csp.add_le(rng.pick(tunables), rng.pick(tunables));
    if (rng.bernoulli(0.5))
        csp.add_in(rng.pick(tunables),
                   {rng.uniform_int(1, 6), rng.uniform_int(1, 6)});
    if (rng.bernoulli(0.4))
        csp.add_le(prod, csp.add_const(rng.uniform_int(4, 60)));
    if (rng.bernoulli(0.3))
        csp.add_eq(rng.pick(tunables), rng.pick(tunables));
    if (rng.bernoulli(0.5)) {
        const std::vector<int64_t> targets = {4, 6, 12, 15, 30};
        csp.add_prod(csp.add_const(rng.pick(targets)),
                     random_operands());
    }

    // Brute force over tunables; derived vars are functionally
    // determined (prod/sum of tunables).
    std::vector<int64_t> values(csp.num_vars(), 0);
    std::function<void(size_t)> enumerate = [&](size_t index) {
        if (index == tunables.size()) {
            Assignment a = values;
            // Constants and other fixed vars take their domain
            // value; derived vars are overwritten below.
            for (size_t v = 0; v < csp.num_vars(); ++v) {
                const auto &info = csp.var(static_cast<VarId>(v));
                if (!info.tunable && !info.initial.empty())
                    a[v] = info.initial.min();
            }
            for (VarId t : tunables)
                a[static_cast<size_t>(t)] =
                    values[static_cast<size_t>(t)];
            // Fill derived vars by evaluating their constraints
            // (a constant result keeps its value).
            for (const auto &c : csp.constraints()) {
                if (c.kind == ConstraintKind::kProd) {
                    int64_t p = 1;
                    for (VarId op : c.operands)
                        p *= a[static_cast<size_t>(op)];
                    if (static_cast<size_t>(c.result) >=
                            tunables.size() &&
                        !csp.var(c.result).initial.is_singleton())
                        a[static_cast<size_t>(c.result)] = p;
                }
                if (c.kind == ConstraintKind::kSum) {
                    int64_t s = 0;
                    for (VarId op : c.operands)
                        s += a[static_cast<size_t>(op)];
                    if (static_cast<size_t>(c.result) >=
                        tunables.size())
                        a[static_cast<size_t>(c.result)] = s;
                }
            }
            if (csp.valid(a))
                problem.solutions.push_back(std::move(a));
            return;
        }
        for (int64_t v :
             csp.var(tunables[index]).initial.values()) {
            values[static_cast<size_t>(tunables[index])] = v;
            enumerate(index + 1);
        }
    };
    enumerate(0);
    return problem;
}

class SolverFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SolverFuzz, AgreesWithBruteForce)
{
    auto problem = make_problem(GetParam());
    RandSatSolver solver(problem.csp);
    Rng rng(GetParam() * 31 + 7);
    auto result = solver.solve_one(rng);

    if (problem.solutions.empty()) {
        // Unsat: the solver must not fabricate a solution
        // (solve_one internally asserts validity, so returning
        // nullopt is the only sound outcome).
        EXPECT_FALSE(result.has_value());
    } else {
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(problem.csp.valid(*result));
        // The returned solution must be among the brute-forced set
        // when projected onto the tunables.
        bool found = false;
        for (const auto &sol : problem.solutions) {
            bool same = true;
            for (VarId t : problem.csp.tunable_vars())
                same &= sol[static_cast<size_t>(t)] ==
                        (*result)[static_cast<size_t>(t)];
            found |= same;
        }
        EXPECT_TRUE(found);
    }
}

TEST_P(SolverFuzz, PropagationNeverPrunesSolutions)
{
    auto problem = make_problem(GetParam() + 5000);
    PropagationEngine engine(problem.csp);
    bool consistent = engine.propagate();
    if (!consistent) {
        EXPECT_TRUE(problem.solutions.empty());
        return;
    }
    for (const auto &sol : problem.solutions) {
        for (size_t v = 0; v < problem.csp.num_vars(); ++v) {
            EXPECT_TRUE(engine.domain(static_cast<VarId>(v))
                            .contains(sol[v]))
                << "propagation pruned value " << sol[v]
                << " of var "
                << problem.csp.var(static_cast<VarId>(v)).name;
        }
    }
}

/**
 * Every solution reachable by exhaustive search over the engine:
 * branch on the first unfixed variable, propagate, and collect each
 * fully assigned fixpoint. A propagator that prunes a solution
 * loses it; one that stops short of its fixpoint can leave an
 * assignment that violates a constraint.
 */
void
enumerate_engine(const Csp &csp, PropagationEngine &engine,
                 std::vector<Assignment> *out)
{
    for (size_t v = 0; v < csp.num_vars(); ++v) {
        const Domain &d = engine.domain(static_cast<VarId>(v));
        if (d.is_singleton())
            continue;
        ASSERT_LE(d.size(), 4096) << csp.var(static_cast<VarId>(v)).name;
        for (int64_t value : d.values()) {
            engine.push_level();
            if (engine.assign_and_propagate(static_cast<VarId>(v),
                                            value))
                enumerate_engine(csp, engine, out);
            engine.pop_level();
        }
        return;
    }
    out->push_back(engine.extract());
}

TEST_P(SolverFuzz, PropagationSearchFindsExactlyTheBruteForceSolutions)
{
    // 25 problems per seed: a PROD filter that stops short of its
    // fixpoint shows only on the rare problem where one revision
    // fixes every operand, about 1 in 100.
    for (uint64_t k = 0; k < 25; ++k) {
        auto problem = make_problem(25000 + GetParam() * 25 + k);
        PropagationEngine engine(problem.csp);
        std::vector<Assignment> found;
        if (engine.propagate())
            enumerate_engine(problem.csp, engine, &found);
        std::sort(found.begin(), found.end());
        std::vector<Assignment> expected = problem.solutions;
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(found, expected) << problem.csp.to_string();
    }
}

TEST_P(SolverFuzz, SolveNReturnsDistinctValidSolutions)
{
    auto problem = make_problem(GetParam() + 9000);
    if (problem.solutions.empty())
        GTEST_SKIP() << "unsat instance";
    RandSatSolver solver(problem.csp);
    Rng rng(GetParam());
    auto sols = solver.solve_n(rng, 4);
    EXPECT_GE(sols.size(), 1u);
    for (size_t i = 0; i < sols.size(); ++i) {
        EXPECT_TRUE(problem.csp.valid(sols[i]));
        for (size_t j = i + 1; j < sols.size(); ++j)
            EXPECT_NE(sols[i], sols[j]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz,
                         ::testing::Range<uint64_t>(1, 41));

/**
 * Reference solver: snapshot-per-decision backtracking, the way the
 * solver worked before the undo trail was introduced. It replicates
 * RandSatSolver's branching heuristics and RNG consumption exactly
 * but undoes every decision by restoring a full copy of all
 * domains, so agreement with RandSatSolver on the same seed proves
 * the trail rewrite is search-order preserving.
 */
class SnapshotReferenceSolver
{
  public:
    explicit SnapshotReferenceSolver(const Csp &csp,
                                     SolverConfig config = {})
        : csp_(csp), config_(config), engine_(csp)
    {
        root_ok_ = engine_.propagate();
    }

    std::optional<Assignment>
    solve_one(Rng &rng)
    {
        if (!root_ok_)
            return std::nullopt;
        rng_ = &rng;
        const std::vector<Domain> root = engine_.domains();
        for (int restart = 0; restart < config_.max_restarts;
             ++restart) {
            backtracks_left_ = config_.max_backtracks_per_restart;
            if (recurse()) {
                Assignment a = engine_.extract();
                engine_.restore(root);
                return a;
            }
            engine_.restore(root);
        }
        return std::nullopt;
    }

  private:
    const Csp &csp_;
    SolverConfig config_;
    PropagationEngine engine_;
    bool root_ok_ = false;
    Rng *rng_ = nullptr;
    int backtracks_left_ = 0;

    VarId
    pick_branch_var()
    {
        std::vector<VarId> open;
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
            return open[rng_->index(open.size())];
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

    std::vector<int64_t>
    candidate_values(const Domain &d)
    {
        std::vector<int64_t> vals;
        if (d.is_explicit() || d.size() <= 256) {
            vals = d.values();
            rng_->shuffle(vals);
        } else {
            vals.push_back(d.min());
            vals.push_back(d.max());
            for (int i = 0; i < 6; ++i)
                vals.push_back(rng_->uniform_int(d.min(), d.max()));
            std::sort(vals.begin(), vals.end());
            vals.erase(std::unique(vals.begin(), vals.end()),
                       vals.end());
            rng_->shuffle(vals);
        }
        return vals;
    }

    bool
    recurse()
    {
        VarId var = pick_branch_var();
        if (var < 0)
            return engine_.all_assigned();
        for (int64_t value : candidate_values(engine_.domain(var))) {
            std::vector<Domain> snapshot = engine_.domains();
            if (engine_.assign_and_propagate(var, value)) {
                if (recurse())
                    return true;
            }
            engine_.restore(std::move(snapshot));
            if (--backtracks_left_ <= 0)
                return false;
        }
        return false;
    }
};

/** Solve the same problem with both solvers on the same seed. */
void
expect_trail_matches_snapshot(const Csp &csp, uint64_t seed)
{
    SolverConfig config;
    RandSatSolver trail_solver(csp, config);
    SnapshotReferenceSolver snapshot_solver(csp, config);
    Rng trail_rng(seed);
    Rng snapshot_rng(seed);
    auto trail = trail_solver.solve_one(trail_rng);
    auto snapshot = snapshot_solver.solve_one(snapshot_rng);
    ASSERT_EQ(trail.has_value(), snapshot.has_value());
    if (trail)
        EXPECT_EQ(*trail, *snapshot);
    // Both searches consumed identical RNG streams.
    EXPECT_EQ(trail_rng.next_u64(), snapshot_rng.next_u64());
}

TEST_P(SolverFuzz, TrailSolverMatchesSnapshotReference)
{
    auto problem = make_problem(GetParam() + 13000);
    for (uint64_t round = 0; round < 3; ++round)
        expect_trail_matches_snapshot(problem.csp,
                                      GetParam() * 97 + round);
}

TEST(TrailEquivalence, MatchesSnapshotReferenceOnRealSpaces)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto gemm = gen.generate(ops::gemm(512, 512, 512));
    auto c2d =
        gen.generate(ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1,
                              ir::DataType::kFloat16));
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        expect_trail_matches_snapshot(gemm.csp, seed);
        expect_trail_matches_snapshot(c2d.csp, seed);
    }
}

TEST_P(SolverFuzz, TrailUndoRestoresExactRootDomains)
{
    auto problem = make_problem(GetParam() + 17000);
    PropagationEngine engine(problem.csp);
    if (!engine.propagate())
        return;
    const std::vector<Domain> root = engine.domains();
    Rng rng(GetParam());
    for (int round = 0; round < 8; ++round) {
        VarId var = static_cast<VarId>(
            rng.index(problem.csp.num_vars()));
        const Domain &d = engine.domain(var);
        if (d.empty())
            continue;
        int64_t value = rng.bernoulli(0.5) ? d.min() : d.max();
        engine.push_level();
        engine.assign_and_propagate(var, value);
        engine.pop_level();
        for (size_t v = 0; v < problem.csp.num_vars(); ++v)
            EXPECT_EQ(engine.domain(static_cast<VarId>(v)).values(),
                      root[v].values())
                << "trail undo corrupted var "
                << problem.csp.var(static_cast<VarId>(v)).name;
    }
}

/** Field-wise SolverStats equality (no operator== on purpose). */
void
expect_stats_equal(const SolverStats &a, const SolverStats &b)
{
    EXPECT_EQ(a.solve_calls, b.solve_calls);
    EXPECT_EQ(a.solutions, b.solutions);
    EXPECT_EQ(a.backtracks, b.backtracks);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.unsat, b.unsat);
    EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
    EXPECT_EQ(a.deadline_aborts, b.deadline_aborts);
    EXPECT_EQ(a.propagations, b.propagations);
    EXPECT_EQ(a.revisions, b.revisions);
}

TEST(SampleBatchDeterminism, WorkerCountInvariantOnRealSpace)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::gemm(512, 512, 512));
    SampleBatch serial(space.csp, {}, 1);
    SampleBatch two(space.csp, {}, 2);
    SampleBatch four(space.csp, {}, 4);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        auto a = serial.sample(seed, 12);
        auto b = two.sample(seed, 12);
        auto c = four.sample(seed, 12);
        EXPECT_GE(a.size(), 1u);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a, c);
        for (const auto &sol : a)
            EXPECT_TRUE(space.csp.valid(sol));
    }
    expect_stats_equal(serial.stats(), two.stats());
    expect_stats_equal(serial.stats(), four.stats());
}

TEST(SampleBatchDeterminism, RepeatCallsArePureFunctionsOfSeed)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::gemm(512, 512, 512));
    SampleBatch batch(space.csp, {}, 3);
    auto first = batch.sample(7, 8);
    auto second = batch.sample(7, 8);
    EXPECT_EQ(first, second);
    EXPECT_NE(batch.sample(8, 8), first);
}

TEST(SampleBatchDeterminism, ExtraConstraintsWorkerInvariant)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::gemm(512, 512, 512));
    // Pin a tunable to two of its values, CGA-crossover style.
    VarId key = space.csp.tunable_vars().front();
    const Domain &d = space.csp.var(key).initial;
    Constraint pin;
    pin.kind = ConstraintKind::kIn;
    pin.result = key;
    pin.constants = {d.min(), d.max()};
    std::vector<Constraint> extra = {pin};
    SampleBatch serial(space.csp, {}, 1);
    SampleBatch four(space.csp, {}, 4);
    auto a = serial.sample(11, 6, extra);
    auto b = four.sample(11, 6, extra);
    EXPECT_EQ(a, b);
    EXPECT_EQ(serial.last_failure(), four.last_failure());
    for (const auto &sol : a)
        EXPECT_TRUE(space.csp.satisfies(pin, sol));
}

TEST_P(SolverFuzz, SampleBatchWorkerInvariantOnFuzzProblems)
{
    auto problem = make_problem(GetParam() + 21000);
    SampleBatch serial(problem.csp, {}, 1);
    SampleBatch four(problem.csp, {}, 4);
    auto a = serial.sample(GetParam(), 6);
    auto b = four.sample(GetParam(), 6);
    EXPECT_EQ(a, b);
    EXPECT_EQ(serial.last_failure(), four.last_failure());
    expect_stats_equal(serial.stats(), four.stats());
}

} // namespace
} // namespace heron::csp
