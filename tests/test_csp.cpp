/**
 * @file
 * Unit and property tests for the CSP module: domains, constraint
 * evaluation, propagation, and the RandSAT solver.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>

#include "csp/csp.h"
#include "csp/propagate.h"
#include "csp/solver.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/rng.h"

// Replacement global operator new that counts calls while armed, so
// a test can assert that a code path performs no heap allocation.
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<int64_t> g_news{0};
} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_news.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace heron::csp {
namespace {

TEST(Domain, SingletonBasics)
{
    Domain d = Domain::singleton(5);
    EXPECT_TRUE(d.is_singleton());
    EXPECT_EQ(d.value(), 5);
    EXPECT_TRUE(d.contains(5));
    EXPECT_FALSE(d.contains(4));
}

TEST(Domain, ExplicitSetSortsAndDedups)
{
    Domain d = Domain::of({4, 1, 4, 2});
    EXPECT_EQ(d.size(), 3);
    EXPECT_EQ(d.min(), 1);
    EXPECT_EQ(d.max(), 4);
    std::vector<int64_t> expected{1, 2, 4};
    EXPECT_EQ(d.values(), expected);
}

TEST(Domain, IntervalBounds)
{
    Domain d = Domain::interval(3, 10);
    EXPECT_EQ(d.size(), 8);
    EXPECT_TRUE(d.contains(3));
    EXPECT_TRUE(d.contains(10));
    EXPECT_FALSE(d.contains(11));
}

TEST(Domain, RestrictBoundsOnExplicit)
{
    Domain d = Domain::of({1, 2, 4, 8, 16});
    EXPECT_TRUE(d.restrict_bounds(2, 8));
    std::vector<int64_t> expected{2, 4, 8};
    EXPECT_EQ(d.values(), expected);
    EXPECT_FALSE(d.restrict_bounds(1, 100)); // no change
}

TEST(Domain, AssignOutsideWipesOut)
{
    Domain d = Domain::of({1, 2, 3});
    d.assign(9);
    EXPECT_TRUE(d.empty());
}

TEST(Domain, RemoveFromInterval)
{
    Domain d = Domain::interval(1, 5);
    EXPECT_TRUE(d.remove(1));
    EXPECT_EQ(d.min(), 2);
    EXPECT_TRUE(d.remove(5));
    EXPECT_EQ(d.max(), 4);
    EXPECT_TRUE(d.remove(3)); // interior: materializes
    std::vector<int64_t> expected{2, 4};
    EXPECT_EQ(d.values(), expected);
}

TEST(Domain, IntersectValuesConvertsInterval)
{
    Domain d = Domain::interval(0, 100);
    d.intersect_values({8, 16, 32, 256});
    std::vector<int64_t> expected{8, 16, 32};
    EXPECT_EQ(d.values(), expected);
}

TEST(Domain, FilterPredicate)
{
    Domain d = Domain::of({1, 2, 3, 4, 5, 6});
    d.filter([](int64_t v) { return v % 2 == 0; });
    std::vector<int64_t> expected{2, 4, 6};
    EXPECT_EQ(d.values(), expected);
}

TEST(Csp, NamesResolve)
{
    Csp csp;
    VarId x = csp.add_var("x", Domain::of({1, 2}), true);
    EXPECT_EQ(csp.var_id("x"), x);
    EXPECT_EQ(csp.find_var("nope"), -1);
    EXPECT_EQ(csp.tunable_vars().size(), 1u);
}

TEST(Csp, ConstCacheReuses)
{
    Csp csp;
    VarId a = csp.add_const(48 * 1024);
    VarId b = csp.add_const(48 * 1024);
    EXPECT_EQ(a, b);
}

TEST(Csp, SatisfiesEachKind)
{
    Csp csp;
    VarId x = csp.add_var("x", Domain::interval(0, 100), true);
    VarId y = csp.add_var("y", Domain::interval(0, 100), true);
    VarId z = csp.add_var("z", Domain::interval(0, 10000));
    VarId u = csp.add_var("u", Domain::interval(0, 1), true);
    csp.add_prod(z, {x, y});
    csp.add_sum(z, {x, y}); // deliberately inconsistent with prod
    csp.add_eq(x, y);
    csp.add_le(x, y);
    csp.add_in(x, {3, 5});
    csp.add_select(z, u, {x, y});

    Assignment a(4);
    a[static_cast<size_t>(x)] = 3;
    a[static_cast<size_t>(y)] = 3;
    a[static_cast<size_t>(z)] = 9;
    a[static_cast<size_t>(u)] = 0;

    const auto &cs = csp.constraints();
    EXPECT_TRUE(csp.satisfies(cs[0], a));  // 9 == 3*3
    EXPECT_FALSE(csp.satisfies(cs[1], a)); // 9 != 3+3
    EXPECT_TRUE(csp.satisfies(cs[2], a));  // 3 == 3
    EXPECT_TRUE(csp.satisfies(cs[3], a));  // 3 <= 3
    EXPECT_TRUE(csp.satisfies(cs[4], a));  // 3 in {3,5}
    EXPECT_FALSE(csp.satisfies(cs[5], a)); // z != x
    EXPECT_EQ(csp.count_violations(a), 2);
}

TEST(Propagate, ProdForwardAndBackward)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({2, 4}), true);
    VarId b = csp.add_var("b", Domain::of({3, 5}), true);
    VarId p = csp.add_var("p", Domain::interval(0, 1000));
    csp.add_prod(p, {a, b});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_EQ(engine.domain(p).min(), 6);
    EXPECT_EQ(engine.domain(p).max(), 20);

    ASSERT_TRUE(engine.assign_and_propagate(a, 4));
    ASSERT_TRUE(engine.assign_and_propagate(b, 5));
    EXPECT_TRUE(engine.domain(p).is_singleton());
    EXPECT_EQ(engine.domain(p).value(), 20);
}

TEST(Propagate, ProdBackSolvesLastOperand)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({2, 4, 8}), true);
    VarId b = csp.add_var("b", Domain::of({2, 4, 8}), true);
    VarId p = csp.add_var("p", Domain::interval(1, 64));
    csp.add_prod(p, {a, b});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.assign_and_propagate(p, 16));
    ASSERT_TRUE(engine.assign_and_propagate(a, 8));
    EXPECT_TRUE(engine.domain(b).is_singleton());
    EXPECT_EQ(engine.domain(b).value(), 2);
}

TEST(Propagate, ProdConflictWhenIndivisible)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({3}), true);
    VarId b = csp.add_var("b", Domain::of({2, 4}), true);
    VarId p = csp.add_var("p", Domain::interval(1, 64));
    csp.add_prod(p, {a, b});

    PropagationEngine engine(csp);
    EXPECT_FALSE(engine.assign_and_propagate(p, 7));
}

/** PROD(28, [a, b, c]) over the divisors of 28, as C1:extent emits. */
struct Extent28 {
    Csp csp;
    VarId a, b, c;

    explicit Extent28(int64_t extent = 28)
    {
        const std::vector<int64_t> divisors = {1, 2, 4, 7, 14, 28};
        a = csp.add_var("a", Domain::of(divisors), true);
        b = csp.add_var("b", Domain::of(divisors), true);
        c = csp.add_var("c", Domain::of(divisors), true);
        csp.add_prod(csp.add_const(extent), {a, b, c}, "C1:extent");
    }
};

TEST(Propagate, ProdDivisorRulePrunesNonDivisors)
{
    // Bounds alone leave b, c in {1,2,4,7} (28 / 4 = 7); 2 and 4
    // lie inside [1, 7] but cannot divide 7.
    Extent28 p;
    PropagationEngine engine(p.csp);
    ASSERT_TRUE(engine.propagate());
    const int64_t before = engine.stats().propagations;
    ASSERT_TRUE(engine.assign_and_propagate(p.a, 4));
    EXPECT_EQ(engine.stats().propagations, before + 1);
    EXPECT_EQ(engine.domain(p.b).values(),
              (std::vector<int64_t>{1, 7}));
    EXPECT_EQ(engine.domain(p.c).values(),
              (std::vector<int64_t>{1, 7}));
}

TEST(Propagate, ProdFixedOperandsNotDividingResultWipeOut)
{
    // 4 does not divide 210, but with three wide interval operands
    // the bounds of 210 / 4 = 52.5 stay consistent.
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({1, 2, 4}), true);
    std::vector<VarId> ops = {a};
    for (const char *name : {"b", "c", "d"})
        ops.push_back(csp.add_var(name, Domain::interval(1, 100)));
    csp.add_prod(csp.add_const(210), ops);

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_FALSE(engine.assign_and_propagate(a, 4));
}

TEST(Propagate, ProdFixedResultWithNoDivisorCompletionIsUnsat)
{
    // 15 has no factorization over {1,2,4,7,14,28}: the divisor rule
    // fixes every operand to 1, and the re-run bounds pass must then
    // reject 1 * 1 * 1 != 15.
    Extent28 p(15);
    PropagationEngine engine(p.csp);
    EXPECT_FALSE(engine.propagate());

    RandSatSolver solver(p.csp);
    Rng rng(1);
    EXPECT_FALSE(solver.solve_one(rng).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kUnsat);
}

TEST(Propagate, WipeoutsCountAgainstTheRuleFamily)
{
    metrics::Counter &family =
        metrics::Registry::global().counter("csp.wipeouts.C1:extent");
    metrics::Counter &by_kind =
        metrics::Registry::global().counter("csp.fail.prod");
    const int64_t family_before = family.value();
    const int64_t kind_before = by_kind.value();
    Extent28 p(15);
    PropagationEngine engine(p.csp);
    EXPECT_FALSE(engine.propagate());
    EXPECT_EQ(family.value(), family_before + 1);
    EXPECT_EQ(by_kind.value(), kind_before + 1);
}

TEST(Propagate, SumBounds)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::interval(1, 10), true);
    VarId b = csp.add_var("b", Domain::interval(2, 20), true);
    VarId s = csp.add_var("s", Domain::interval(0, 12));
    csp.add_sum(s, {a, b});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    // s <= 12 so a <= 12 - b.min = 10, b <= 12 - a.min = 11.
    EXPECT_LE(engine.domain(b).max(), 11);
    EXPECT_GE(engine.domain(s).min(), 3);
}

TEST(Propagate, LeTightensBothSides)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::interval(5, 100), true);
    VarId b = csp.add_var("b", Domain::interval(0, 50), true);
    csp.add_le(a, b);

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_LE(engine.domain(a).max(), 50);
    EXPECT_GE(engine.domain(b).min(), 5);
}

TEST(Propagate, EqMerges)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({1, 2, 3, 4}), true);
    VarId b = csp.add_var("b", Domain::of({3, 4, 5}), true);
    csp.add_eq(a, b);

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    std::vector<int64_t> expected{3, 4};
    EXPECT_EQ(engine.domain(a).values(), expected);
    EXPECT_EQ(engine.domain(b).values(), expected);
}

TEST(Propagate, InIntersects)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::interval(0, 100), true);
    csp.add_in(a, {1, 2, 4, 8, 256});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    std::vector<int64_t> expected{1, 2, 4, 8};
    EXPECT_EQ(engine.domain(a).values(), expected);
}

TEST(Propagate, SelectFixedSelectorActsAsEq)
{
    Csp csp;
    VarId v = csp.add_var("v", Domain::interval(0, 100));
    VarId u = csp.add_var("u", Domain::singleton(1), true);
    VarId x = csp.add_var("x", Domain::of({7}), true);
    VarId y = csp.add_var("y", Domain::of({9}), true);
    csp.add_select(v, u, {x, y});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_TRUE(engine.domain(v).is_singleton());
    EXPECT_EQ(engine.domain(v).value(), 9);
}

TEST(Propagate, SelectPrunesSelector)
{
    Csp csp;
    VarId v = csp.add_var("v", Domain::of({7}));
    VarId u = csp.add_var("u", Domain::interval(0, 1), true);
    VarId x = csp.add_var("x", Domain::of({7}), true);
    VarId y = csp.add_var("y", Domain::of({9}), true);
    csp.add_select(v, u, {x, y});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_TRUE(engine.domain(u).is_singleton());
    EXPECT_EQ(engine.domain(u).value(), 0);
}

TEST(Propagate, WarmSelectRevisionDoesNotAllocate)
{
    Csp csp;
    VarId v = csp.add_var("v", Domain::interval(0, 100));
    VarId u = csp.add_var("u", Domain::of({0, 1, 2, 3}), true);
    VarId x0 = csp.add_var("x0", Domain::of({1, 3}), true);
    VarId x1 = csp.add_var("x1", Domain::of({3, 4}), true);
    VarId x2 = csp.add_var("x2", Domain::of({5, 6}), true);
    VarId x3 = csp.add_var("x3", Domain::of({7, 8}), true);
    csp.add_select(v, u, {x0, x1, x2, x3});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    // Fixing v = 3 wakes the SELECT, which prunes the explicit
    // selector domain to the operands that can still equal 3.
    auto revise = [&] {
        engine.push_level();
        bool ok = engine.assign_and_propagate(v, 3);
        std::vector<int64_t> expected{0, 1};
        EXPECT_TRUE(ok);
        EXPECT_EQ(engine.domain(u).values(), expected);
        engine.pop_level();
    };
    revise(); // warm the trail pool, queue and scratch buffers

    const int64_t revisions = engine.stats().revisions;
    g_news = 0;
    g_count_news = true;
    engine.push_level();
    bool ok = engine.assign_and_propagate(v, 3);
    g_count_news = false;
    engine.pop_level();
    EXPECT_TRUE(ok);
    EXPECT_GT(engine.stats().revisions, revisions);
    EXPECT_EQ(g_news.load(), 0);
    revise(); // the pop restored the root state
}

TEST(Solver, SolvesTilingChain)
{
    // Classic Heron shape: extent = t0*t1*t2 with divisor domains.
    Csp csp;
    auto divs = divisors(64);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId t2 = csp.add_var("t2", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(64));
    csp.add_prod(e, {t0, t1, t2});

    RandSatSolver solver(csp);
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ((*a)[static_cast<size_t>(t0)] *
                      (*a)[static_cast<size_t>(t1)] *
                      (*a)[static_cast<size_t>(t2)],
                  64);
    }
}

TEST(Solver, SolutionsAreDiverse)
{
    Csp csp;
    auto divs = divisors(256);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(256));
    csp.add_prod(e, {t0, t1});

    RandSatSolver solver(csp);
    Rng rng(2);
    std::set<int64_t> seen;
    for (int i = 0; i < 60; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        seen.insert((*a)[static_cast<size_t>(t0)]);
    }
    // 9 divisors of 256; random sampling should hit most of them.
    EXPECT_GE(seen.size(), 6u);
}

TEST(Solver, RespectsMemoryStyleConstraint)
{
    // mem = a*b*4 <= 48, a,b in divisors(16)
    Csp csp;
    auto divs = divisors(16);
    VarId a = csp.add_var("a", Domain::of(divs), true);
    VarId b = csp.add_var("b", Domain::of(divs), true);
    VarId four = csp.add_const(4);
    VarId mem = csp.add_var("mem", Domain::interval(0, 1 << 20));
    VarId cap = csp.add_const(48);
    csp.add_prod(mem, {a, b, four});
    csp.add_le(mem, cap);

    RandSatSolver solver(csp);
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        auto sol = solver.solve_one(rng);
        ASSERT_TRUE(sol.has_value());
        int64_t m = (*sol)[static_cast<size_t>(mem)];
        EXPECT_LE(m, 48);
        EXPECT_EQ(m, (*sol)[static_cast<size_t>(a)] *
                         (*sol)[static_cast<size_t>(b)] * 4);
    }
}

TEST(Solver, DetectsUnsat)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({2, 4}), true);
    csp.add_in(a, {3, 5});
    RandSatSolver solver(csp);
    Rng rng(4);
    EXPECT_FALSE(solver.solve_one(rng).has_value());
}

TEST(Solver, ExtraConstraintsNarrowSolutions)
{
    Csp csp;
    auto divs = divisors(64);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(64));
    csp.add_prod(e, {t0, t1});

    Constraint pin;
    pin.kind = ConstraintKind::kIn;
    pin.result = t0;
    pin.constants = {8};

    RandSatSolver solver(csp);
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        auto a = solver.solve_one(rng, {pin});
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ((*a)[static_cast<size_t>(t0)], 8);
        EXPECT_EQ((*a)[static_cast<size_t>(t1)], 8);
    }
}

TEST(Solver, SolveNDedups)
{
    Csp csp;
    csp.add_var("a", Domain::of({1, 2}), true);
    RandSatSolver solver(csp);
    Rng rng(6);
    auto sols = solver.solve_n(rng, 10);
    EXPECT_LE(sols.size(), 2u);
    EXPECT_GE(sols.size(), 1u);
}

TEST(Solver, TensorCoreStyleIntrinsicConstraint)
{
    // m*n*k == 4096, m,n,k in {8,16,32}: the TensorCore wmma rule.
    Csp csp;
    Domain shapes = Domain::of({8, 16, 32});
    VarId m = csp.add_var("m", shapes, true);
    VarId n = csp.add_var("n", shapes, true);
    VarId k = csp.add_var("k", shapes, true);
    VarId mnk = csp.add_const(4096);
    csp.add_prod(mnk, {m, n, k});

    RandSatSolver solver(csp);
    Rng rng(7);
    std::set<std::vector<int64_t>> seen;
    for (int i = 0; i < 100; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        int64_t vm = (*a)[static_cast<size_t>(m)];
        int64_t vn = (*a)[static_cast<size_t>(n)];
        int64_t vk = (*a)[static_cast<size_t>(k)];
        EXPECT_EQ(vm * vn * vk, 4096);
        seen.insert({vm, vn, vk});
    }
    // {8,16,32} triples multiplying to 4096: permutations of
    // (8,16,32) plus (16,16,16) = 7 total; expect good coverage.
    EXPECT_GE(seen.size(), 5u);
}

/** Property sweep: PROD chains of varying extent solve correctly. */
class SolverExtentSweep : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SolverExtentSweep, ProductDecompositionHolds)
{
    int64_t extent = GetParam();
    Csp csp;
    auto divs = divisors(extent);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId t2 = csp.add_var("t2", Domain::of(divs), true);
    VarId t3 = csp.add_var("t3", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(extent));
    csp.add_prod(e, {t0, t1, t2, t3});

    RandSatSolver solver(csp);
    Rng rng(static_cast<uint64_t>(extent));
    for (int i = 0; i < 10; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        int64_t prod = 1;
        for (VarId t : {t0, t1, t2, t3})
            prod *= (*a)[static_cast<size_t>(t)];
        EXPECT_EQ(prod, extent);
    }
}

INSTANTIATE_TEST_SUITE_P(Extents, SolverExtentSweep,
                         ::testing::Values(1, 2, 12, 64, 100, 128, 504,
                                           1000, 1024, 4096));

TEST(SolverStats, AccumulatesFieldWise)
{
    SolverStats a;
    a.solve_calls = 3;
    a.solutions = 2;
    a.backtracks = 10;
    a.restarts = 1;
    a.failures = 1;
    a.unsat = 1;
    a.propagations = 40;
    a.revisions = 200;
    SolverStats b;
    b.solve_calls = 4;
    b.solutions = 4;
    b.budget_exhausted = 2;
    b.deadline_aborts = 1;
    b.propagations = 60;
    b.revisions = 300;
    a += b;
    EXPECT_EQ(a.solve_calls, 7);
    EXPECT_EQ(a.solutions, 6);
    EXPECT_EQ(a.backtracks, 10);
    EXPECT_EQ(a.restarts, 1);
    EXPECT_EQ(a.failures, 1);
    EXPECT_EQ(a.unsat, 1);
    EXPECT_EQ(a.budget_exhausted, 2);
    EXPECT_EQ(a.deadline_aborts, 1);
    EXPECT_EQ(a.propagations, 100);
    EXPECT_EQ(a.revisions, 500);
}

TEST(Solver, RepeatedRootUnsatPopsCleanly)
{
    Csp csp;
    VarId t = csp.add_var("t", Domain::of({1, 2, 3, 4}), true);
    RandSatSolver solver(csp);
    Rng rng(1);

    // An extra set disproved by root propagation: t pinned to a
    // value outside its domain.
    Constraint pin;
    pin.kind = ConstraintKind::kIn;
    pin.result = t;
    pin.constants = {9};
    std::vector<Constraint> extra = {pin};

    EXPECT_FALSE(solver.solve_one(rng, extra).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kUnsat);

    // The same proven-UNSAT set again: proven again.
    EXPECT_FALSE(solver.solve_one(rng, extra).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kUnsat);
    EXPECT_EQ(solver.stats().unsat, 2);

    // A satisfiable set is unaffected, and the base problem still
    // solves — the engine popped cleanly back to the root fixpoint.
    pin.constants = {2, 3};
    EXPECT_TRUE(solver.solve_one(rng, {pin}).has_value());
    auto base = solver.solve_one(rng);
    ASSERT_TRUE(base.has_value());
    EXPECT_TRUE(csp.valid(*base));
}

} // namespace
} // namespace heron::csp
