/**
 * @file
 * Serving-layer throughput microbench. Populates a KernelRegistry
 * with solver-produced records, then reports exact-hit lookup
 * throughput (single- and multi-threaded), per-lookup latency
 * percentiles, the overhead of windowed request metrics on the
 * exact-hit path, and the tier breakdown of a mixed exact/near/far
 * query stream, into a JSON artifact.
 *
 * Usage:
 *   micro_serve [--lookups N] [--seed S] [--quick] [--out FILE]
 *               (default BENCH_serve.json)
 *
 * Exit code is nonzero when the registry misserves (an exact-hit
 * query answered from any other tier).
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "csp/solver.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "serve/graph.h"
#include "serve/graph_schedule.h"
#include "serve/observe.h"
#include "serve/registry.h"
#include "serve/store_wal.h"
#include "support/stats.h"

using namespace heron;
using Clock = std::chrono::steady_clock;

namespace {

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

struct LookupSeries {
    int threads = 1;
    int64_t lookups = 0;
    double lookups_per_sec = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    /**
     * Throughput of the fastest ~1/16th chunk of the run: a
     * scheduler preemption poisons the chunks it lands in, not this
     * one, so chunk-best rates compare cleanly on timeshared boxes.
     */
    double best_chunk_lps = 0.0;
    /** Aggregate throughput over the single-thread baseline. */
    double speedup = 0.0;
    /**
     * speedup / threads: 1.0 is perfect scaling; well under 1.0
     * means the threads contended (or the box has fewer cores than
     * the series has threads — see hardware_concurrency in the
     * artifact before reading anything into these numbers).
     */
    double effective_parallelism = 0.0;
};

/** Chunk length for LookupSeries::best_chunk_lps. */
int64_t
chunk_len(int64_t n)
{
    return std::max<int64_t>(1, n / 16);
}

/** Timed exact-hit loop over @p workloads on one thread. */
LookupSeries
run_exact(serve::KernelRegistry &registry,
          const std::vector<ops::Workload> &workloads, int64_t n,
          std::atomic<bool> *misserved)
{
    std::vector<double> latencies;
    latencies.reserve(static_cast<size_t>(n));
    int64_t chunk = chunk_len(n);
    double best_chunk = 0.0;
    auto start = Clock::now();
    auto chunk_start = start;
    for (int64_t i = 0; i < n; ++i) {
        auto t0 = Clock::now();
        auto result = registry.lookup(
            workloads[static_cast<size_t>(i) % workloads.size()]);
        latencies.push_back(seconds_since(t0) * 1e6);
        if (result.tier != serve::LookupTier::kExact)
            misserved->store(true);
        if ((i + 1) % chunk == 0) {
            auto now = Clock::now();
            double secs =
                std::chrono::duration<double>(now - chunk_start)
                    .count();
            if (secs > 0)
                best_chunk = std::max(best_chunk, chunk / secs);
            chunk_start = now;
        }
    }
    double elapsed = seconds_since(start);

    LookupSeries series;
    series.lookups = n;
    series.lookups_per_sec = elapsed > 0 ? n / elapsed : 0.0;
    series.best_chunk_lps = best_chunk;
    series.p50_us = percentile(latencies, 50.0);
    series.p95_us = percentile(latencies, 95.0);
    return series;
}

/**
 * run_exact with the serving layer's per-lookup windowed metrics
 * enabled: identical loop and clock reads, plus one
 * RequestMetrics::observe_lookup per lookup (the cost the TCP
 * server pays with observability on). Comparing against run_exact
 * isolates the instrumentation overhead.
 */
LookupSeries
run_exact_instrumented(serve::KernelRegistry &registry,
                       const std::vector<ops::Workload> &workloads,
                       int64_t n, std::atomic<bool> *misserved,
                       serve::RequestMetrics &metrics)
{
    std::vector<double> latencies;
    latencies.reserve(static_cast<size_t>(n));
    int64_t chunk = chunk_len(n);
    double best_chunk = 0.0;
    auto start = Clock::now();
    auto chunk_start = start;
    for (int64_t i = 0; i < n; ++i) {
        auto t0 = Clock::now();
        auto result = registry.lookup(
            workloads[static_cast<size_t>(i) % workloads.size()]);
        auto t1 = Clock::now();
        double us =
            std::chrono::duration<double, std::micro>(t1 - t0)
                .count();
        latencies.push_back(us);
        metrics.observe_lookup(us, result.tier, t1);
        if (result.tier != serve::LookupTier::kExact)
            misserved->store(true);
        if ((i + 1) % chunk == 0) {
            auto now = Clock::now();
            double secs =
                std::chrono::duration<double>(now - chunk_start)
                    .count();
            if (secs > 0)
                best_chunk = std::max(best_chunk, chunk / secs);
            chunk_start = now;
        }
    }
    double elapsed = seconds_since(start);

    LookupSeries series;
    series.lookups = n;
    series.lookups_per_sec = elapsed > 0 ? n / elapsed : 0.0;
    series.best_chunk_lps = best_chunk;
    series.p50_us = percentile(latencies, 50.0);
    series.p95_us = percentile(latencies, 95.0);
    return series;
}

/** Aggregate exact-hit throughput across @p threads threads. */
LookupSeries
run_exact_parallel(serve::KernelRegistry &registry,
                   const std::vector<ops::Workload> &workloads,
                   int64_t n, int threads, std::atomic<bool> *misserved)
{
    int64_t per_thread = n / threads;
    std::vector<std::thread> pool;
    auto start = Clock::now();
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (int64_t i = 0; i < per_thread; ++i) {
                auto result = registry.lookup(
                    workloads[static_cast<size_t>(i + t) %
                              workloads.size()]);
                if (result.tier != serve::LookupTier::kExact)
                    misserved->store(true);
            }
        });
    for (auto &thread : pool)
        thread.join();
    double elapsed = seconds_since(start);

    LookupSeries series;
    series.threads = threads;
    series.lookups = per_thread * threads;
    series.lookups_per_sec =
        elapsed > 0 ? series.lookups / elapsed : 0.0;
    return series;
}

/**
 * Graph-serving series: end-to-end GraphService throughput over the
 * same key set, library emission included.
 */
struct GraphSeries {
    int64_t keys = 0;
    int64_t graphs = 0;
    double graphs_per_sec = 0.0;
    double layers_per_sec = 0.0;
    int64_t deduped = 0;
    bool converged = false;
};

GraphSeries
run_graph(serve::KernelRegistry &registry,
          const std::vector<ops::Workload> &present,
          std::atomic<bool> *misserved)
{
    GraphSeries series;
    series.keys = static_cast<int64_t>(present.size());

    // End-to-end graph requests (dedupe + resolve + payoff
    // plan + one-library emission — the expensive part is codegen,
    // so this is a small-count series).
    ops::Network net;
    net.name = "bench_graph";
    for (const auto &workload : present)
        net.layers.push_back({workload, 2});
    for (size_t i = 0; i < present.size() && i < 5; ++i) {
        ops::Workload alias = present[i];
        alias.name += "_alias";
        net.layers.push_back({alias, 1});
    }
    serve::GraphTuneScheduler scheduler;
    serve::GraphService service(registry, scheduler);
    constexpr int64_t kGraphs = 8;
    auto graph_start = Clock::now();
    for (int64_t i = 0; i < kGraphs; ++i) {
        auto result = service.handle_graph(net);
        series.deduped = result.deduped;
        series.converged = result.converged;
        if (!result.converged)
            misserved->store(true);
    }
    double elapsed = seconds_since(graph_start);
    series.graphs = kGraphs;
    series.graphs_per_sec = elapsed > 0 ? kGraphs / elapsed : 0.0;
    series.layers_per_sec =
        elapsed > 0
            ? kGraphs * static_cast<double>(present.size()) / elapsed
            : 0.0;
    return series;
}

/** WAL persist series: per-append cost across a growing store. */
struct WalSeries {
    int64_t appends = 0;
    double appends_per_sec = 0.0;
    double first_half_p50_us = 0.0;
    double second_half_p50_us = 0.0;
    /**
     * second_half / first_half append medians. The legacy persist
     * path rewrote the whole store per record (cost ~ store size,
     * so this ratio would approach 3 as the store triples between
     * half-midpoints); a write-ahead log appends one framed record
     * regardless of store size, so the ratio must stay ~1.
     */
    double growth_ratio = 0.0;
    double p95_us = 0.0;
    double compact_ms = 0.0;
    double replay_ms = 0.0;
    int64_t records = 0;
};

void
remove_tree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (dirent *ent = ::readdir(d)) {
            if (std::strcmp(ent->d_name, ".") &&
                std::strcmp(ent->d_name, ".."))
                ::unlink((dir + "/" + ent->d_name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

/**
 * Sustained appends into a fresh store, then a timed compaction and
 * a timed reopen replay. fsync is disabled so the series measures
 * the algorithmic per-record cost (frame + write) rather than the
 * device's constant fsync latency, which would mask any
 * store-size-dependent term.
 */
bool
run_wal(int64_t appends, WalSeries *series)
{
    std::string dir = "/tmp/heron_bench_wal_XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
        std::fprintf(stderr, "micro_serve: mkdtemp failed\n");
        return false;
    }
    serve::DurableStoreConfig config;
    config.dir = dir;
    config.segment_max_bytes = 4u << 20;
    config.compact_min_segments = 0; // keep compaction out of the series
    config.fsync_data = false;
    bool ok = false;
    {
        serve::DurableStore store(config);
        if (!store.open()) {
            remove_tree(dir);
            return false;
        }
        std::vector<double> latencies;
        latencies.reserve(static_cast<size_t>(appends));
        auto start = Clock::now();
        for (int64_t i = 0; i < appends; ++i) {
            autotune::TuningRecord record;
            record.workload =
                "bench_wal_" + std::to_string(i);
            record.dla = "bench";
            record.tuner = "bench";
            record.category = "serve";
            record.latency_ms = 1.0;
            record.gflops = static_cast<double>(i);
            auto t0 = Clock::now();
            ok = store.append(record);
            latencies.push_back(seconds_since(t0) * 1e6);
            if (!ok) {
                std::fprintf(stderr,
                             "micro_serve: WAL append failed\n");
                remove_tree(dir);
                return false;
            }
        }
        double elapsed = seconds_since(start);
        std::vector<double> first(
            latencies.begin(),
            latencies.begin() + latencies.size() / 2);
        std::vector<double> second(
            latencies.begin() + latencies.size() / 2,
            latencies.end());
        series->appends = appends;
        series->appends_per_sec =
            elapsed > 0 ? appends / elapsed : 0.0;
        series->first_half_p50_us = percentile(first, 50.0);
        series->second_half_p50_us = percentile(second, 50.0);
        series->growth_ratio =
            series->first_half_p50_us > 0
                ? series->second_half_p50_us /
                      series->first_half_p50_us
                : 0.0;
        series->p95_us = percentile(latencies, 95.0);

        auto compact_start = Clock::now();
        if (!store.compact_now()) {
            std::fprintf(stderr,
                         "micro_serve: WAL compaction failed\n");
            remove_tree(dir);
            return false;
        }
        series->compact_ms =
            seconds_since(compact_start) * 1e3;
        store.close();
    }
    serve::DurableStore reopened(config);
    if (!reopened.open()) {
        remove_tree(dir);
        return false;
    }
    auto stats = reopened.stats();
    series->replay_ms = stats.last_replay_ms;
    series->records = stats.records;
    reopened.close();
    remove_tree(dir);
    return series->records == appends;
}

} // namespace

int
main(int argc, char **argv)
{
    int64_t lookups = 200000;
    uint64_t seed = 1;
    std::string out_path = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--lookups") && i + 1 < argc)
            lookups = std::atoll(argv[++i]);
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            seed = static_cast<uint64_t>(std::atoll(argv[++i]));
        else if (!std::strcmp(argv[i], "--quick"))
            lookups = 50000;
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }

    auto spec = hw::DlaSpec::v100();
    serve::KernelRegistry registry(spec);

    // Populate with solver-produced records across a grid of GEMM
    // shapes (no measurements needed: lookup cost is independent of
    // how a record was obtained).
    std::vector<ops::Workload> present;
    rules::SpaceGenerator generator(spec, rules::Options::heron());
    auto setup_start = Clock::now();
    for (int64_t m = 128; m <= 1024; m *= 2)
        for (int64_t n = 128; n <= 1024; n *= 2) {
            auto workload = ops::gemm(m, n, 512);
            auto space = generator.generate(workload);
            csp::RandSatSolver solver(space.csp);
            Rng rng(seed + static_cast<uint64_t>(m * 31 + n));
            auto assignment = solver.solve_one(rng);
            if (!assignment) {
                std::fprintf(stderr, "micro_serve: no solution for "
                                     "%s\n",
                             workload.name.c_str());
                return 1;
            }
            autotune::TuningRecord record;
            record.tuner = "bench";
            record.latency_ms = 1.0;
            record.gflops = static_cast<double>(m + n);
            record.assignment = *assignment;
            registry.put(workload, std::move(record));
            present.push_back(std::move(workload));
        }
    std::printf("indexed %zu records in %.2f s\n", registry.size(),
                seconds_since(setup_start));

    std::atomic<bool> misserved{false};
    serve::RequestMetrics request_metrics;
    // A single back-to-back A/B pair is noisy on a timeshared box
    // (one scheduler preemption inside either loop swings the ratio
    // by double digits): alternate the series and compare the best
    // pass of each — the least-preempted run is the honest
    // throughput.
    constexpr int kOverheadReps = 5;
    LookupSeries single, instrumented;
    std::vector<double> rep_overheads;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        auto plain = run_exact(registry, present, lookups,
                               &misserved);
        if (rep == 0 ||
            plain.best_chunk_lps > single.best_chunk_lps)
            single = plain;
        auto inst = run_exact_instrumented(registry, present,
                                           lookups, &misserved,
                                           request_metrics);
        if (rep == 0 ||
            inst.best_chunk_lps > instrumented.best_chunk_lps)
            instrumented = inst;
        // Pair each rep's A/B runs (adjacent in time, so the same
        // frequency/load state) and aggregate by median: slow
        // drift across reps cancels per pair, and an outlier rep
        // cannot move the median.
        if (plain.best_chunk_lps > 0.0)
            rep_overheads.push_back(
                (plain.best_chunk_lps - inst.best_chunk_lps) /
                plain.best_chunk_lps * 100.0);
    }
    std::printf("exact x1    %9.0f lookups/sec  p50 %.2f us  "
                "p95 %.2f us\n",
                single.lookups_per_sec, single.p50_us,
                single.p95_us);
    double overhead_pct = percentile(rep_overheads, 50.0);
    std::printf("exact x1 +m %9.0f lookups/sec  p50 %.2f us  "
                "p95 %.2f us  (metrics overhead %.2f%%)\n",
                instrumented.lookups_per_sec, instrumented.p50_us,
                instrumented.p95_us, overhead_pct);

    unsigned cores = std::thread::hardware_concurrency();
    if (cores < 4)
        std::printf("note: < 4 cores — parallel scaling assertions "
                    "are SKIPPED (not passed) on this machine\n");
    std::vector<LookupSeries> parallel;
    for (int threads : {2, 4}) {
        auto series = run_exact_parallel(registry, present, lookups,
                                         threads, &misserved);
        if (single.lookups_per_sec > 0.0)
            series.speedup =
                series.lookups_per_sec / single.lookups_per_sec;
        series.effective_parallelism = series.speedup / threads;
        std::printf("exact x%-3d %9.0f lookups/sec  speedup "
                    "%.2fx  eff. parallelism %.2f%s\n",
                    threads, series.lookups_per_sec, series.speedup,
                    series.effective_parallelism,
                    cores < static_cast<unsigned>(threads)
                        ? "  (oversubscribed: fewer cores than "
                          "threads)"
                        : "");
        parallel.push_back(series);
    }

    // Mixed stream: exact hits, near shapes (one octave off, served
    // by gene transfer), and far/incompatible shapes (miss, then
    // negative once the cache saturates). Small count: the nearest
    // tier pays solver work per first-touch query shape.
    serve::RegistryStats before = registry.stats();
    auto mixed_start = Clock::now();
    int64_t mixed = 0;
    for (int round = 0; round < 8; ++round) {
        registry.lookup(present[static_cast<size_t>(round) %
                                present.size()]);
        registry.lookup(ops::gemm(192 + round, 256, 512));
        registry.lookup(ops::gemv(4096 + round % 2, 4096));
        mixed += 3;
    }
    double mixed_elapsed = seconds_since(mixed_start);
    serve::RegistryStats after = registry.stats();
    std::printf("mixed       %9.0f lookups/sec  (%lld exact, %lld "
                "nearest, %lld negative, %lld miss, %lld "
                "transferred)\n",
                mixed_elapsed > 0 ? mixed / mixed_elapsed : 0.0,
                static_cast<long long>(after.exact_hits -
                                       before.exact_hits),
                static_cast<long long>(after.nearest_hits -
                                       before.nearest_hits),
                static_cast<long long>(after.negative_hits -
                                       before.negative_hits),
                static_cast<long long>(after.misses -
                                       before.misses),
                static_cast<long long>(after.fallback_transferred -
                                       before.fallback_transferred));

    // Graph path: full graph requests with emission.
    GraphSeries graph = run_graph(registry, present, &misserved);
    std::printf("graph       %9.0f graphs/sec (%.0f layers/sec) over "
                "%lld keys, %lld deduped%s\n",
                graph.graphs_per_sec, graph.layers_per_sec,
                static_cast<long long>(graph.keys),
                static_cast<long long>(graph.deduped),
                graph.converged ? "" : ", NOT CONVERGED");

    // WAL persist path: per-append cost must not grow with store
    // size (the whole point of replacing the rewrite-the-world
    // path). 3x headroom on the half-over-half median ratio: a
    // size-dependent persist would blow far past it, while cache
    // and allocator noise stay well inside.
    WalSeries wal;
    int64_t wal_appends = std::max<int64_t>(2000, lookups / 10);
    bool wal_ok = run_wal(wal_appends, &wal);
    bool wal_o1 = wal_ok && wal.growth_ratio < 3.0;
    std::printf("wal append  %9.0f appends/sec  p50 %.2f -> %.2f "
                "us (ratio %.2f)  p95 %.2f us  compact %.1f ms  "
                "replay %.1f ms%s\n",
                wal.appends_per_sec, wal.first_half_p50_us,
                wal.second_half_p50_us, wal.growth_ratio,
                wal.p95_us, wal.compact_ms, wal.replay_ms,
                wal_o1 ? "" : "  (NOT O(1)!)");

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "micro_serve: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    unsigned json_cores = std::thread::hardware_concurrency();
    std::fprintf(out,
                 "{\n  \"bench\": \"micro_serve\",\n"
                 "  \"entries\": %zu,\n  \"lookups\": %lld,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 // Skipped-not-passed: scaling assertions on a box
                 // with fewer cores than threads measure
                 // oversubscription, not the registry's read path.
                 "  \"parallel_scaling\": {\"status\": \"%s\", "
                 "\"reason\": \"%s\"},\n",
                 registry.size(),
                 static_cast<long long>(lookups), json_cores,
                 json_cores >= 4 ? "measured" : "skipped",
                 json_cores >= 4
                     ? "hardware_concurrency >= 4"
                     : "fewer than 4 cores; thread series "
                       "oversubscribed");
    std::fprintf(out,
                 "  \"exact_single\": {\"lookups_per_sec\": %.1f, "
                 "\"p50_us\": %.3f, \"p95_us\": %.3f},\n",
                 single.lookups_per_sec, single.p50_us,
                 single.p95_us);
    std::fprintf(
        out,
        "  \"exact_instrumented\": {\"lookups_per_sec\": %.1f, "
        "\"p50_us\": %.3f, \"p95_us\": %.3f, "
        "\"overhead_pct\": %.3f},\n",
        instrumented.lookups_per_sec, instrumented.p50_us,
        instrumented.p95_us, overhead_pct);
    std::fprintf(out, "  \"exact_parallel\": [");
    for (size_t i = 0; i < parallel.size(); ++i)
        std::fprintf(out,
                     "{\"threads\": %d, \"lookups_per_sec\": "
                     "%.1f, \"speedup\": %.3f, "
                     "\"effective_parallelism\": %.3f}%s",
                     parallel[i].threads,
                     parallel[i].lookups_per_sec,
                     parallel[i].speedup,
                     parallel[i].effective_parallelism,
                     i + 1 < parallel.size() ? ", " : "");
    std::fprintf(out, "],\n");
    std::fprintf(
        out,
        "  \"mixed\": {\"lookups\": %lld, \"tiers\": "
        "{\"exact\": %lld, \"nearest\": %lld, \"negative\": %lld, "
        "\"miss\": %lld}, \"transferred\": %lld},\n",
        static_cast<long long>(mixed),
        static_cast<long long>(after.exact_hits - before.exact_hits),
        static_cast<long long>(after.nearest_hits -
                               before.nearest_hits),
        static_cast<long long>(after.negative_hits -
                               before.negative_hits),
        static_cast<long long>(after.misses - before.misses),
        static_cast<long long>(after.fallback_transferred -
                               before.fallback_transferred));
    std::fprintf(
        out,
        "  \"wal\": {\"appends\": %lld, \"appends_per_sec\": %.1f, "
        "\"first_half_p50_us\": %.3f, \"second_half_p50_us\": "
        "%.3f, \"growth_ratio\": %.3f, \"p95_us\": %.3f, "
        "\"compact_ms\": %.3f, \"replay_ms\": %.3f, "
        "\"records\": %lld, \"o1_persist\": %s},\n",
        static_cast<long long>(wal.appends), wal.appends_per_sec,
        wal.first_half_p50_us, wal.second_half_p50_us,
        wal.growth_ratio, wal.p95_us, wal.compact_ms,
        wal.replay_ms, static_cast<long long>(wal.records),
        wal_o1 ? "true" : "false");
    std::fprintf(
        out,
        "  \"graph\": {\"keys\": %lld, \"graphs\": %lld, "
        "\"graphs_per_sec\": %.1f, \"layers_per_sec\": %.1f, "
        "\"deduped\": %lld, \"converged\": %s},\n",
        static_cast<long long>(graph.keys),
        static_cast<long long>(graph.graphs),
        graph.graphs_per_sec, graph.layers_per_sec,
        static_cast<long long>(graph.deduped),
        graph.converged ? "true" : "false");
    std::fprintf(out, "  \"misserved\": %s\n}\n",
                 misserved.load() ? "true" : "false");
    std::fclose(out);
    std::printf("Wrote %s\n", out_path.c_str());
    if (misserved.load())
        return 2;
    return wal_o1 ? 0 : 3;
}
