/**
 * @file
 * CSP solver throughput microbench (the tuning pipeline's hot
 * loop). Reproduces the CGA solve workload on the C2D and GEMM
 * spaces — plain population draws, crossover-constrained offspring
 * solves on one solver, SampleBatch population waves, and
 * SampleBatch crossover waves (solve_each over subproblems built
 * exactly as CGA builds them, from a cost model trained on measured
 * samples) — and reports solver throughput, per-solve latency
 * percentiles, propagation counts, and worker scaling into a JSON
 * artifact.
 *
 * Every series runs kRepeats times over identical work; each rate
 * is the median of the repeats and "spread_pct" is (max - min) /
 * median, so a reader can tell a change from run-to-run noise.
 *
 * Usage:
 *   micro_csp_solver [--trials N] [--seed S] [--quick]
 *                    [--out FILE]         (default BENCH_csp_solver.json)
 *
 * The embedded baseline constants are the pre-trail-rewrite solver's
 * throughput for the identical workload, recorded on the development
 * machine; the reported speedups are indicative, not a calibrated
 * cross-machine comparison. Exit code is nonzero when SampleBatch
 * results differ across worker counts (a determinism violation).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "csp/sample_batch.h"
#include "csp/solver.h"
#include "hw/measurer.h"
#include "model/cost_model.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "search/cga.h"
#include "support/stats.h"

using namespace heron;
using Clock = std::chrono::steady_clock;

namespace {

/** Repeats per series; rates report their median and spread. */
constexpr int kRepeats = 3;
/** Worker counts of the scaling series. */
constexpr int kWorkerCounts[] = {1, 2, 4, 8};

/**
 * Pre-rewrite solver throughput (solves/sec) for one workload,
 * measured with the snapshot-per-decision engine on the same
 * machine and trial counts this bench defaults to.
 */
struct Baseline {
    double plain = 0.0;
    double offspring = 0.0;
};

/** Median and relative spread of one rate over the repeats. */
struct Rate {
    double median = 0.0;
    /** (max - min) / median, in percent. */
    double spread_pct = 0.0;
};

Rate
summarize(const std::vector<double> &rates)
{
    Rate r;
    r.median = percentile(rates, 50.0);
    auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
    if (r.median > 0)
        r.spread_pct = 100.0 * (*hi - *lo) / r.median;
    return r;
}

struct SolveSeries {
    int solved = 0;
    int attempts = 0;
    Rate rate;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double propagations_per_solve = 0.0;
};

struct ScalingPoint {
    int workers = 0;
    Rate rate;
    /** Median throughput over the 1-worker point's median. */
    double speedup = 1.0;
    /** speedup / workers (1.0 = perfectly linear scaling). */
    double effective_parallelism = 1.0;
};

struct WorkloadReport {
    std::string name;
    SolveSeries plain;
    SolveSeries offspring;
    Baseline baseline;
    std::vector<ScalingPoint> batch;
    bool batch_deterministic = true;
    std::vector<ScalingPoint> crossover;
    bool crossover_deterministic = true;
    int crossover_waves = 0;
};

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/**
 * Time @p n solves per repeat, each repeat replaying the same RNG
 * seed. @p extras(rng) supplies a solve's extra constraints.
 */
template <typename Extras>
SolveSeries
run_series(csp::RandSatSolver &solver, uint64_t seed, int n,
           Extras extras)
{
    std::vector<double> latencies;
    std::vector<double> rates;
    SolveSeries series;
    for (int rep = 0; rep < kRepeats; ++rep) {
        Rng rng(seed);
        csp::SolverStats before = solver.stats();
        int solved = 0;
        double elapsed = 0.0;
        for (int i = 0; i < n; ++i) {
            auto extra = extras(rng);
            auto t0 = Clock::now();
            solved += solver.solve_one(rng, extra).has_value();
            double dt = seconds_since(t0);
            elapsed += dt;
            latencies.push_back(dt * 1e3);
        }
        rates.push_back(elapsed > 0 ? n / elapsed : 0.0);
        series.solved = solved;
        series.attempts = n;
        if (n > 0)
            series.propagations_per_solve =
                static_cast<double>(solver.stats().propagations -
                                    before.propagations) /
                n;
    }
    series.rate = summarize(rates);
    series.p50_ms = percentile(latencies, 50.0);
    series.p95_ms = percentile(latencies, 95.0);
    return series;
}

/** CGA-crossover-style extra set: pin key vars to parent values. */
std::vector<csp::Constraint>
crossover_extras(const std::vector<csp::VarId> &keys,
                 const std::vector<csp::Assignment> &parents,
                 Rng &rng)
{
    std::vector<csp::Constraint> extra;
    const auto &p1 = parents[rng.index(parents.size())];
    const auto &p2 = parents[rng.index(parents.size())];
    for (csp::VarId v : keys) {
        csp::Constraint c;
        c.kind = csp::ConstraintKind::kIn;
        c.result = v;
        c.constants = {p1[static_cast<size_t>(v)],
                       p2[static_cast<size_t>(v)]};
        extra.push_back(std::move(c));
    }
    return extra;
}

/**
 * Worker scaling of one kind of SampleBatch wave. @p run_waves runs
 * every wave on a batch and returns its results; they must be equal
 * for every worker count and repeat. Each batch runs the waves once
 * untimed first, so the timed pass sees warm solvers and a started
 * pool, as a tune does after its first round. Throughput counts
 * solve calls (ladder retries included).
 */
template <typename Result, typename RunWaves>
std::vector<ScalingPoint>
run_scaling(const csp::Csp &csp, const char *label,
            RunWaves run_waves, bool *deterministic)
{
    std::vector<std::vector<double>> rates(std::size(kWorkerCounts));
    Result reference;
    bool have_reference = false;
    // Repeats interleave the worker counts, so slow drift on a
    // shared box spreads over every point instead of one.
    for (int rep = 0; rep < kRepeats; ++rep) {
        for (size_t i = 0; i < std::size(kWorkerCounts); ++i) {
            const int workers = kWorkerCounts[i];
            csp::SampleBatch batch(csp, {}, workers);
            run_waves(batch);
            const int64_t solves_before = batch.stats().solve_calls;
            auto start = Clock::now();
            Result result = run_waves(batch);
            double elapsed = seconds_since(start);
            rates[i].push_back(
                elapsed > 0 ? static_cast<double>(
                                  batch.stats().solve_calls -
                                  solves_before) /
                                  elapsed
                            : 0.0);
            if (!have_reference) {
                reference = std::move(result);
                have_reference = true;
            } else if (result != reference) {
                *deterministic = false;
                std::fprintf(stderr,
                             "DETERMINISM VIOLATION: %s at %d "
                             "worker(s) differs from serial\n",
                             label, workers);
            }
        }
    }
    std::vector<ScalingPoint> points;
    for (size_t i = 0; i < std::size(kWorkerCounts); ++i) {
        ScalingPoint point;
        point.workers = kWorkerCounts[i];
        point.rate = summarize(rates[i]);
        if (!points.empty() && points.front().rate.median > 0) {
            point.speedup =
                point.rate.median / points.front().rate.median;
            point.effective_parallelism =
                point.speedup / point.workers;
        }
        points.push_back(point);
        std::printf("  %-9s x%d %8.1f solves/sec (spread %4.1f%%)  "
                    "speedup %.2fx  eff-par %.2f\n",
                    label, point.workers, point.rate.median,
                    point.rate.spread_pct, point.speedup,
                    point.effective_parallelism);
    }
    return points;
}

/** One crossover wave's outcome, for the determinism check. */
struct CrossoverResult {
    std::vector<csp::Assignment> offspring;
    std::vector<int> relaxations;
    bool operator==(const CrossoverResult &) const = default;
};

void
print_series(const char *label, const SolveSeries &s)
{
    std::printf("  %-10s %7.1f solves/sec (spread %4.1f%%)  p50 %.3f "
                "ms  p95 %.3f ms  %.1f props/solve  (%d/%d ok)\n",
                label, s.rate.median, s.rate.spread_pct, s.p50_ms,
                s.p95_ms, s.propagations_per_solve, s.solved,
                s.attempts);
}

void
write_points(std::FILE *out, const char *key,
             const std::vector<ScalingPoint> &points)
{
    std::fprintf(out, "    \"%s\": [", key);
    for (size_t j = 0; j < points.size(); ++j)
        std::fprintf(out,
                     "{\"workers\": %d, \"solves_per_sec\": %.2f, "
                     "\"spread_pct\": %.1f, \"speedup\": %.3f, "
                     "\"effective_parallelism\": %.3f}%s",
                     points[j].workers, points[j].rate.median,
                     points[j].rate.spread_pct, points[j].speedup,
                     points[j].effective_parallelism,
                     j + 1 < points.size() ? ", " : "");
    std::fprintf(out, "],\n");
}

void
write_json(const std::string &path, int trials, uint64_t seed,
           const std::vector<WorkloadReport> &reports)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "micro_csp_solver: cannot write %s\n",
                     path.c_str());
        return;
    }
    auto series = [&](const char *name, const SolveSeries &s) {
        std::fprintf(out,
                     "    \"%s\": {\"solves_per_sec\": %.2f, "
                     "\"spread_pct\": %.1f, "
                     "\"p50_ms\": %.5f, \"p95_ms\": %.5f, "
                     "\"propagations_per_solve\": %.2f, "
                     "\"solved\": %d, \"attempts\": %d},\n",
                     name, s.rate.median, s.rate.spread_pct, s.p50_ms,
                     s.p95_ms, s.propagations_per_solve, s.solved,
                     s.attempts);
    };
    unsigned cores = std::thread::hardware_concurrency();
    std::fprintf(out,
                 "{\n  \"bench\": \"micro_csp_solver\",\n"
                 "  \"trials\": %d,\n  \"seed\": %llu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 // Skipped-not-passed: scaling numbers from a box
                 // without the cores to show parallelism are not
                 // evidence either way, and must not be asserted.
                 "  \"batch_scaling\": {\"status\": \"%s\", "
                 "\"reason\": \"%s\"},\n"
                 "  \"workloads\": [\n",
                 trials, static_cast<unsigned long long>(seed),
                 kRepeats, cores, cores >= 4 ? "measured" : "skipped",
                 cores >= 4
                     ? "hardware_concurrency >= 4"
                     : "fewer than 4 cores; speedup reflects "
                       "oversubscription, not scaling");
    for (size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport &r = reports[i];
        std::fprintf(out, "  {\n    \"name\": \"%s\",\n",
                     r.name.c_str());
        series("plain", r.plain);
        series("offspring", r.offspring);
        std::fprintf(out,
                     "    \"baseline_plain_solves_per_sec\": %.1f,\n"
                     "    \"baseline_offspring_solves_per_sec\": "
                     "%.1f,\n",
                     r.baseline.plain, r.baseline.offspring);
        if (r.baseline.plain > 0)
            std::fprintf(out, "    \"speedup_plain\": %.2f,\n",
                         r.plain.rate.median / r.baseline.plain);
        if (r.baseline.offspring > 0)
            std::fprintf(out, "    \"speedup_offspring\": %.2f,\n",
                         r.offspring.rate.median /
                             r.baseline.offspring);
        write_points(out, "batch", r.batch);
        std::fprintf(out, "    \"batch_deterministic\": %s,\n",
                     r.batch_deterministic ? "true" : "false");
        std::fprintf(out, "    \"crossover_waves\": %d,\n",
                     r.crossover_waves);
        write_points(out, "crossover", r.crossover);
        std::fprintf(out,
                     "    \"crossover_deterministic\": %s\n  }%s\n",
                     r.crossover_deterministic ? "true" : "false",
                     i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("Wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    int trials = 200;
    uint64_t seed = 1;
    std::string out_path = "BENCH_csp_solver.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trials") && i + 1 < argc)
            trials = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            seed = static_cast<uint64_t>(std::atoll(argv[++i]));
        else if (!std::strcmp(argv[i], "--quick"))
            trials = 40;
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }

    struct Case {
        ops::Workload workload;
        Baseline baseline;
    };
    // Baselines: pre-trail-rewrite solver, same workloads, 200
    // trials, -O2 -g -DNDEBUG (the RelWithDebInfo flags this bench
    // ships with), averaged over three alternating back-to-back
    // runs on the development machine (see file comment).
    std::vector<Case> cases;
    cases.push_back({ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1),
                     {240.8, 980.0}});
    cases.push_back(
        {ops::gemm(512, 1024, 1024), {3218.2, 3775.5}});

    unsigned cores = std::thread::hardware_concurrency();
    std::printf("hardware concurrency: %u (batch scaling is "
                "bounded by available cores); %d repeats per "
                "series\n",
                cores, kRepeats);
    if (cores < 4)
        std::printf("note: < 4 cores — batch scaling assertions "
                    "are SKIPPED (not passed) on this machine\n");
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    std::vector<WorkloadReport> reports;
    bool deterministic = true;
    for (const Case &c : cases) {
        auto space = gen.generate(c.workload);
        std::printf("%s: %zu vars, %zu constraints\n",
                    c.workload.name.c_str(), space.csp.num_vars(),
                    space.csp.num_constraints());

        WorkloadReport report;
        report.name = c.workload.name;
        report.baseline = c.baseline;

        csp::RandSatSolver solver(space.csp);
        report.plain = run_series(solver, seed, trials, [](Rng &) {
            return std::vector<csp::Constraint>{};
        });
        print_series("plain", report.plain);

        const int population = 24;
        Rng rng(seed);
        auto parents = solver.solve_n(rng, 2 * population);
        if (parents.empty()) {
            std::fprintf(stderr, "no parents for %s\n",
                         c.workload.name.c_str());
            return 1;
        }
        // The offspring series keeps its historical load: pins on
        // the keys of an untrained model (the first tunables), so
        // it stays comparable with its baseline.
        model::CostModel model(space.csp);
        auto keys = model.key_variables(8);
        report.offspring =
            run_series(solver, seed + 1, trials, [&](Rng &r) {
                return crossover_extras(keys, parents, r);
            });
        print_series("offspring", report.offspring);

        // Population waves: identical seed sequence per worker
        // count; results must be byte-equal and throughput should
        // approach linear in workers (on a machine with the cores
        // to show it — see the batch_scaling marker in the JSON).
        const int waves = std::max(2, trials / population);
        report.batch =
            run_scaling<std::vector<std::vector<csp::Assignment>>>(
                space.csp, "batch",
                [&](csp::SampleBatch &batch) {
                    std::vector<std::vector<csp::Assignment>> out;
                    for (int b = 0; b < waves; ++b)
                        out.push_back(batch.sample(
                            seed + static_cast<uint64_t>(b),
                            population));
                    return out;
                },
                &report.batch_deterministic);

        // Crossover waves: one solve_each per CGA generation over
        // the subproblems crossover_subproblems() draws, the load
        // that dominates a tune — keyed by a cost model trained on
        // the parents' measurements, as a tune's is when crossover
        // starts.
        hw::Measurer measurer(space.spec);
        for (const auto &a : parents) {
            auto r = measurer.measure(space.bind(a));
            model.add_sample(a, r.valid, r.latency_ms,
                             space.dag.total_ops());
        }
        model.fit();
        std::vector<std::vector<std::vector<csp::Constraint>>>
            subproblems;
        Rng cga_rng(seed + 2);
        for (int b = 0; b < waves; ++b)
            subproblems.push_back(search::crossover_subproblems(
                space.csp, model, parents, population, 8, false,
                cga_rng));
        report.crossover_waves = waves;
        report.crossover = run_scaling<CrossoverResult>(
            space.csp, "crossover",
            [&](csp::SampleBatch &batch) {
                CrossoverResult out;
                for (int b = 0; b < waves; ++b) {
                    // The ladder relaxes its subproblems in place.
                    auto wave = subproblems[static_cast<size_t>(b)];
                    for (const auto &slot : batch.solve_each(
                             seed + static_cast<uint64_t>(b), wave)) {
                        out.relaxations.push_back(slot.relaxations);
                        if (slot.solved)
                            out.offspring.push_back(slot.assignment);
                    }
                }
                return out;
            },
            &report.crossover_deterministic);
        deterministic = deterministic && report.batch_deterministic &&
                        report.crossover_deterministic;

        if (report.baseline.plain > 0)
            std::printf("  speedup    plain %.2fx, offspring %.2fx "
                        "vs pre-rewrite baseline\n",
                        report.plain.rate.median /
                            report.baseline.plain,
                        report.offspring.rate.median /
                            report.baseline.offspring);
        reports.push_back(std::move(report));
    }

    write_json(out_path, trials, seed, reports);
    return deterministic ? 0 : 2;
}
