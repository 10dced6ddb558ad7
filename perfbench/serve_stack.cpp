#include "serve_stack.h"

#include <sstream>

#include "support/json_util.h"

namespace perfbench {

using heron::hw::DlaSpec;

ServedKey
gemm_key(const DlaSpec &spec, int64_t m, int64_t n, int64_t k)
{
    ServedKey key;
    key.workload = heron::ops::gemm(m, n, k, default_dtype(spec));
    key.op = "gemm";
    key.shape = {m, n, k};
    return key;
}

ServedKey
c2d_key(const DlaSpec &spec, const std::vector<int64_t> &s)
{
    ServedKey key;
    key.workload = heron::ops::c2d(s[0], s[1], s[2], s[3], s[4], s[5],
                                   s[6], s[7], s[8],
                                   default_dtype(spec));
    key.op = "c2d";
    key.shape = s;
    return key;
}

std::string
join_assignment(const std::vector<int64_t> &assignment)
{
    std::string out;
    for (size_t i = 0; i < assignment.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(assignment[i]);
    }
    return out;
}

std::vector<int64_t>
split_ints(const std::string &text)
{
    std::vector<int64_t> values;
    std::istringstream in(text);
    std::string token;
    while (std::getline(in, token, ','))
        values.push_back(std::stoll(token));
    return values;
}

std::string
lookup_line(int64_t id, const ServedKey &key)
{
    std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                       key.op + "\",\"shape\":[";
    for (size_t i = 0; i < key.shape.size(); ++i)
        line += (i ? "," : "") + std::to_string(key.shape[i]);
    return line + "]}";
}

ResponseChecker::ResponseChecker(DlaSpec spec,
                                 const std::vector<ServedKey> &keys)
    : spec_(std::move(spec)), keys_(keys)
{
}

bool
ResponseChecker::check(int key, const std::string &response,
                       std::string *why) const
{
    if (key < 0 || static_cast<size_t>(key) >= keys_.size()) {
        *why = "response for an unknown key: " + response;
        return false;
    }
    const ServedKey &expect = keys_[static_cast<size_t>(key)];
    auto tier = heron::json_extract(response, "tier");
    if (!tier || *tier != expect.tier) {
        *why = "wanted tier " + expect.tier + ", got: " +
               response.substr(0, 160);
        return false;
    }
    auto assignment = heron::json_extract(response, "assignment");
    if (!assignment) {
        *why = "answer without an assignment: " + response.substr(0, 160);
        return false;
    }
    if (expect.tier == "exact") {
        if (*assignment == expect.assignment)
            return true;
        *why = "exact answer differs from the stored assignment for " +
               expect.workload.name;
        return false;
    }
    std::string memo = std::to_string(key) + ":" + *assignment;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (verified_.count(memo))
            return true;
    }
    std::string error;
    if (simulated_gflops(spec_, expect.workload, split_ints(*assignment),
                         &error) <= 0.0) {
        *why = "nearest answer for " + expect.workload.name +
               " fails the simulator: " + error;
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    verified_.insert(memo);
    return true;
}

ServingStack::ServingStack(StackConfig config)
    : config_(std::move(config))
{
}

ServingStack::~ServingStack()
{
    if (server_)
        server_->stop();
    server_.reset();
    graph_.reset();
    scheduler_.reset();
    if (queue_)
        queue_->stop();
    queue_.reset();
    registry_.reset();
    if (store_)
        store_->close();
}

bool
ServingStack::start(std::string *error)
{
    registry_ =
        std::make_unique<heron::serve::KernelRegistry>(config_.spec);
    if (!config_.store_dir.empty()) {
        heron::serve::DurableStoreConfig store_config;
        store_config.dir = config_.store_dir;
        store_ = std::make_unique<heron::serve::DurableStore>(
            store_config);
        if (!store_->open(error))
            return false;
        registry_->load_records(store_->records());
    }

    heron::serve::ServerConfig server_config;
    server_config.workers = 2;
    server_config.store = store_.get();
    if (config_.tuning) {
        heron::serve::TuneQueueConfig queue_config;
        queue_config.tune = config_.tune;
        queue_config.store = store_.get();
        queue_ = std::make_unique<heron::serve::TuneQueue>(
            *registry_, queue_config);
        queue_->start();
        // Graph layers are tuned through the scheduler; single-op
        // lookups do not enqueue (no miss handler), so the client's
        // probe traffic never adds tunes of its own.
        scheduler_ = std::make_unique<heron::serve::GraphTuneScheduler>(
            queue_.get());
        graph_ = std::make_unique<heron::serve::GraphService>(
            *registry_, *scheduler_);
        server_config.graph = graph_.get();
    }
    server_ = std::make_unique<heron::serve::Server>(
        *registry_, queue_.get(), server_config);
    return server_->start(error);
}

void
open_loop_phase(uint16_t port, int conns, double rate,
                const std::vector<ServedKey> &keys,
                const std::vector<int> &key_seq,
                const ResponseChecker &checker, Report &report,
                LoadStats &stats, const std::atomic<bool> *stop)
{
    std::mutex why_mu;
    std::string first_why;
    OpenLoopResult result = run_open_loop(
        port, conns, rate, key_seq,
        [&](int64_t id, int key) {
            return lookup_line(id, keys[static_cast<size_t>(key)]);
        },
        [&](int key, const std::string &response) {
            std::string why;
            if (checker.check(key, response, &why))
                return true;
            std::lock_guard<std::mutex> lock(why_mu);
            if (first_why.empty())
                first_why = why;
            return false;
        },
        stop);
    for (size_t i = 0; i < result.sent; ++i) {
        double us = result.latency_us[i];
        report.check(us >= 0.0, us == -1.0 ? "no response to request " +
                                                 std::to_string(i)
                                           : first_why);
        if (us >= 0.0)
            stats.latency_us.push_back(us);
        stats.lag_us.push_back(result.lag_us[i]);
    }
}

double
closed_loop_phase(uint16_t port, const std::vector<ServedKey> &keys,
                  const std::vector<int> &key_pool,
                  const ResponseChecker &checker, double seconds,
                  uint64_t seed, Report &report)
{
    std::string first_why;
    ClosedLoopResult result = run_closed_loop(
        port, 32, seconds, seed,
        [&](heron::Rng &rng) {
            return key_pool[rng.index(key_pool.size())];
        },
        [&](int64_t id, int key) {
            return lookup_line(id, keys[static_cast<size_t>(key)]);
        },
        [&](int key, const std::string &response) {
            std::string why;
            if (checker.check(key, response, &why))
                return true;
            if (first_why.empty())
                first_why = why;
            return false;
        });
    report.attempted += result.responses + result.lost;
    for (int64_t i = 0; i < result.rejected; ++i)
        report.fail(first_why);
    for (int64_t i = 0; i < result.lost; ++i)
        report.fail("closed-loop request never answered");
    return result.seconds > 0.0
               ? static_cast<double>(result.responses) / result.seconds
               : 0.0;
}

} // namespace perfbench
