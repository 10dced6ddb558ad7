/**
 * @file
 * heron_perfbench: one seeded workload of the end-to-end benchmark.
 *
 *   heron_perfbench --workload <tune-library|serve-hot|serve-cold>
 *                   --seed N --seconds S --trace <0|1>
 *                   --work-dir DIR --data-dir perfbench/data
 *   heron_perfbench --write-store perfbench/data/v100_store.jsonl
 *
 * Prints one JSON line: {"correct", "attempted", "failed",
 * "metrics"}. An untraced run reports the end-to-end metrics; a
 * traced run (--trace 1) arms the span tracer and reports the
 * per-layer metrics instead. Exits 1 when any operation failed.
 * --write-store regenerates the frozen serving store and exits.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "support/logging.h"

#include "workloads.h"

using namespace perfbench;

namespace {

/** The metrics an untraced run reports, with their units. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"ready_s", "s"},
    {"kernel_gflops", "GFLOP/s"},
    {"peak_rss_mb", "MB"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "heron_perfbench: %s\n"
                 "usage: heron_perfbench --workload "
                 "<tune-library|serve-hot|serve-cold> --seed N "
                 "--seconds S --trace <0|1> --work-dir DIR "
                 "--data-dir DIR\n"
                 "       heron_perfbench --write-store FILE\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) {
            if (i + 1 >= argc)
                usage((std::string(flag) + " needs a value").c_str());
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            options.workload = need("--workload");
        else if (!std::strcmp(argv[i], "--seed"))
            options.seed = std::strtoull(need("--seed"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--seconds"))
            options.seconds = std::atof(need("--seconds"));
        else if (!std::strcmp(argv[i], "--trace"))
            options.trace = std::atoi(need("--trace")) != 0;
        else if (!std::strcmp(argv[i], "--work-dir"))
            options.work_dir = need("--work-dir");
        else if (!std::strcmp(argv[i], "--data-dir"))
            options.data_dir = need("--data-dir");
        else
            usage((std::string("unknown flag ") + argv[i]).c_str());
    }
    if (options.work_dir.empty() || options.data_dir.empty())
        usage("--work-dir and --data-dir are required");
    if (options.seconds <= 0.0)
        usage("--seconds must be positive");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && !std::strcmp(argv[1], "--write-store"))
        return write_frozen_store(argv[2]) ? 0 : 1;
    Options options = parse(argc, argv);
    // The tuner and server log progress at INFO; keep the run quiet.
    heron::set_log_level(heron::LogLevel::kWarn);
    std::filesystem::create_directories(options.work_dir);
    // Start the cap's run-wide deadline now.
    arm_cap("", 0.0);

    Report report;
    if (options.workload == "tune-library")
        report = run_tune_library(options);
    else if (options.workload == "serve-hot")
        report = run_serve_hot(options);
    else if (options.workload == "serve-cold")
        report = run_serve_cold(options);
    else
        usage(("unknown workload " + options.workload).c_str());

    // Report exactly the metric set of the run's mode.
    Report out = report;
    out.metrics.clear();
    if (options.trace) {
        for (const auto &[name, unit] : layer_metrics())
            out.set(name, report.metrics.count(name)
                              ? report.metrics[name].value
                              : 0.0,
                    unit);
    } else {
        for (const auto &[name, unit] : kEndToEnd) {
            if (!report.metrics.count(name))
                out.fail("workload did not measure " + name);
            out.set(name,
                    report.metrics.count(name) ? report.metrics[name].value
                                               : 0.0,
                    unit);
        }
    }
    std::filesystem::remove_all(options.work_dir);
    print_result(out);
    return out.failed == 0 ? 0 : 1;
}
