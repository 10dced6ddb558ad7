/**
 * @file
 * Shared plumbing of the end-to-end benchmark: the run options, the
 * report every workload fills in, set-up sampling, and the cap that
 * keeps a stuck operation from hanging a run.
 */
#ifndef HERON_PERFBENCH_BENCH_H
#define HERON_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/dla_spec.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "support/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * One window of set-up samples: at least kSetupReps of them over at
 * least kSetupShare of the run's --seconds.
 */
constexpr size_t kSetupReps = 16;
constexpr double kSetupShare = 0.05;

inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    /** Measured duration budget of the run. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Scratch directory for stores and emitted libraries. */
    std::string work_dir;
    /** The benchmark's data files (the frozen serving store). */
    std::string data_dir;
};

/** One reported number. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload run produced. Every failed operation (error or
 * shed response, wrong tier or assignment, tune without a valid
 * program, cap hit, determinism mismatch) bumps `failed`; `notes`
 * explain each failure on stderr.
 */
struct Report {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count one failed operation and say why. */
    void fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 32)
            notes.push_back(why);
    }

    /** Add another report's operations and notes (not metrics). */
    void merge(const Report &other)
    {
        attempted += other.attempted;
        failed += other.failed;
        for (const std::string &note : other.notes)
            if (notes.size() < 32)
                notes.push_back(note);
    }

    /** Count @p ok as one attempted operation. */
    void check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok)
            fail(why);
    }
};

/**
 * Sample one window of set-ups: call @p set_up, which returns the
 * seconds one set-up took or a negative value when it failed, and
 * append each sample to @p setup_s. False when a set-up failed.
 *
 * setup_s is the median of two windows, at the start and at the end
 * of a run. One set-up takes milliseconds, and the speed of a shared
 * 4-vCPU machine drifts 1.4-1.7x over seconds to minutes (back-to-back
 * runs of the tune-library set-up alone read 3.9 ms, then 2.3 ms);
 * samples from both ends of the run cover as much of that drift as
 * the run's other timings do.
 */
template <typename SetUp>
bool
sample_setups(const Options &options, SetUp &&set_up,
              std::vector<double> &setup_s)
{
    Clock::time_point begin = Clock::now();
    for (size_t n = 0;
         n < kSetupReps ||
         seconds_between(begin, Clock::now()) < kSetupShare * options.seconds;
         ++n) {
        double seconds = set_up();
        if (seconds < 0.0)
            return false;
        setup_s.push_back(seconds);
    }
    return true;
}

/** Peak resident set size of this process, megabytes. */
double peak_rss_mb();

/** fp16 on TensorCore, int8 on the other DLAs (heron_tune's rule). */
heron::ir::DataType default_dtype(const heron::hw::DlaSpec &spec);

/**
 * Simulated GFLOP/s of @p assignment bound into @p space, the space
 * of @p workload on @p spec, or 0 with @p error set when the
 * assignment does not bind or the DLA simulator rejects the program.
 */
double simulated_gflops(const heron::hw::DlaSpec &spec,
                        const heron::rules::GeneratedSpace &space,
                        const heron::ops::Workload &workload,
                        const std::vector<int64_t> &assignment,
                        std::string *error);

/** As above, generating the space of @p workload first. */
double simulated_gflops(const heron::hw::DlaSpec &spec,
                        const heron::ops::Workload &workload,
                        const std::vector<int64_t> &assignment,
                        std::string *error);

/**
 * Arm the operation cap: if the current operation is still running
 * @p seconds from now, the run prints a failed result and exits.
 * Re-arming replaces the previous cap; disarm with seconds <= 0.
 */
void arm_cap(const std::string &operation, double seconds);

/** Print the final result line (and notes on stderr). */
void print_result(const Report &report);

} // namespace perfbench

#endif // HERON_PERFBENCH_BENCH_H
