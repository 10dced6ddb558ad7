#include "bench.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "hw/simulator.h"

namespace perfbench {

double
peak_rss_mb()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

heron::ir::DataType
default_dtype(const heron::hw::DlaSpec &spec)
{
    return spec.kind == heron::hw::DlaKind::kTensorCore
               ? heron::ir::DataType::kFloat16
               : heron::ir::DataType::kInt8;
}

double
simulated_gflops(const heron::hw::DlaSpec &spec,
                 const heron::ops::Workload &workload,
                 const std::vector<int64_t> &assignment,
                 std::string *error)
{
    return simulated_gflops(spec,
                            heron::rules::SpaceGenerator(spec).generate(
                                workload),
                            workload, assignment, error);
}

double
simulated_gflops(const heron::hw::DlaSpec &spec,
                 const heron::rules::GeneratedSpace &space,
                 const heron::ops::Workload &workload,
                 const std::vector<int64_t> &assignment,
                 std::string *error)
{
    auto program = space.try_bind(assignment, error);
    if (!program)
        return 0.0;
    auto simulator = heron::hw::make_simulator(spec);
    std::string diagnostic = simulator->check(*program);
    if (!diagnostic.empty()) {
        *error = "simulator rejects the program: " + diagnostic;
        return 0.0;
    }
    double ms = simulator->latency_ms(*program);
    return static_cast<double>(workload.flops()) / (ms * 1e6);
}

namespace {

/**
 * The operation cap: one thread that ends the process with a failed
 * result when the armed operation outlives its cap, or the whole run
 * outlives kRunCapS. The process exit is what makes a stuck tuner or
 * a lost response unable to hang the run.
 */
class CapWatch
{
  public:
    /** Runs must end well inside the 180 s a run is given. */
    static constexpr double kRunCapS = 170.0;

    CapWatch()
        : run_deadline_(Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kRunCapS))),
          deadline_(run_deadline_), thread_([this] { run(); })
    {
    }

    ~CapWatch()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    CapWatch(const CapWatch &) = delete;
    CapWatch &operator=(const CapWatch &) = delete;

    void arm(const std::string &operation, double seconds)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            operation_ = seconds > 0.0 ? operation : "the run";
            deadline_ = run_deadline_;
            if (seconds > 0.0)
                deadline_ = std::min(
                    deadline_,
                    Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds)));
        }
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::string operation_ = "the run";
    const Clock::time_point run_deadline_;
    Clock::time_point deadline_;
    std::thread thread_;

    void run()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
            Clock::time_point deadline = deadline_;
            if (cv_.wait_until(lock, deadline) ==
                    std::cv_status::timeout &&
                !stop_ && deadline_ == deadline) {
                std::fprintf(stderr,
                             "perfbench: %s exceeded its cap; "
                             "ending the run\n",
                             operation_.c_str());
                std::printf("{\"correct\": false, \"attempted\": 1, "
                            "\"failed\": 1, \"metrics\": {}}\n");
                std::fflush(stdout);
                ::_exit(3);
            }
        }
    }
};

CapWatch &
cap_watch()
{
    static CapWatch watch;
    return watch;
}

} // namespace

void
arm_cap(const std::string &operation, double seconds)
{
    cap_watch().arm(operation, seconds);
}

void
print_result(const Report &report)
{
    for (const std::string &note : report.notes)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, "
                "\"failed\": %lld, \"metrics\": {",
                report.failed == 0 ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed));
    bool first = true;
    for (const auto &[name, metric] : report.metrics) {
        // JSON has no NaN/inf; a metric without a sample reads 0.
        double value = std::isfinite(metric.value) ? metric.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), value,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
