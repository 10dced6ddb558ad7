#include "serve/tune_queue.h"

#include <chrono>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "serve/store_wal.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::serve {

TuneQueue::TuneQueue(KernelRegistry &registry,
                     TuneQueueConfig config)
    : registry_(registry), config_(std::move(config))
{
    if (config_.capacity < 1)
        config_.capacity = 1;
}

TuneQueue::~TuneQueue() { stop(); }

void
TuneQueue::start()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (running_)
        return;
    running_ = true;
    worker_ = std::thread([this] { worker_loop(); });
}

void
TuneQueue::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!running_)
            return;
        running_ = false;
        queue_.clear();
    }
    work_cv_.notify_all();
    if (worker_.joinable())
        worker_.join();
    std::lock_guard<std::mutex> lock(mu_);
    pending_.clear();
}

EnqueueOutcome
TuneQueue::enqueue(const ops::Workload &workload)
{
    WorkloadKey key = make_key(workload, registry_.spec());
    // A degraded store means a completed tune could not be made
    // durable: pause intake (serving stays read-only) instead of
    // accumulating acknowledged-but-volatile results. The tick gives
    // auto-recovery a chance before rejecting.
    if (config_.store != nullptr && !config_.store->healthy()) {
        config_.store->tick(std::chrono::steady_clock::now());
        if (!config_.store->healthy()) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.rejected_degraded;
            HERON_COUNTER_INC("serve.queue.rejected_degraded");
            return EnqueueOutcome::kDegraded;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!running_)
            return EnqueueOutcome::kStopped;
        if (pending_.count(key)) {
            ++stats_.deduplicated;
            HERON_COUNTER_INC("serve.queue.deduplicated");
            return EnqueueOutcome::kDuplicate;
        }
        if (queue_.size() >= config_.capacity) {
            ++stats_.rejected_full;
            HERON_COUNTER_INC("serve.queue.rejected_full");
            return EnqueueOutcome::kFull;
        }
        queue_.push_back(workload);
        pending_.insert(std::move(key));
        ++stats_.accepted;
        HERON_COUNTER_INC("serve.queue.accepted");
        HERON_GAUGE_SET("serve.queue.depth",
                        static_cast<double>(queue_.size()));
    }
    work_cv_.notify_one();
    return EnqueueOutcome::kAccepted;
}

void
TuneQueue::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] {
        return (queue_.empty() && !in_flight_) || !running_;
    });
}

TuneQueueLoad
TuneQueue::load() const
{
    TuneQueueLoad load;
    load.capacity = config_.capacity;
    std::lock_guard<std::mutex> lock(mu_);
    load.depth = queue_.size();
    load.in_flight = in_flight_;
    return load;
}

TuneQueueStats
TuneQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
TuneQueue::worker_loop()
{
    for (;;) {
        ops::Workload workload;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [this] {
                return !queue_.empty() || !running_;
            });
            if (!running_)
                return;
            workload = std::move(queue_.front());
            queue_.pop_front();
            in_flight_ = true;
            HERON_GAUGE_SET("serve.queue.depth",
                            static_cast<double>(queue_.size()));
            HERON_GAUGE_SET("serve.queue.in_flight", 1.0);
        }
        tune_one(workload);
#ifdef __GLIBC__
        // A finished tune is an allocation burst that has ended.
        // glibc keeps the freed heap resident (its trim threshold
        // rises with every large free), so a long-running server
        // would grow with each tune; hand the free pages back.
        malloc_trim(0);
#endif
        {
            std::lock_guard<std::mutex> lock(mu_);
            in_flight_ = false;
            HERON_GAUGE_SET("serve.queue.in_flight", 0.0);
            pending_.erase(make_key(workload, registry_.spec()));
        }
        idle_cv_.notify_all();
    }
}

void
TuneQueue::tune_one(const ops::Workload &workload)
{
    HERON_TRACE_SCOPE("serve/tune");
    WorkloadKey key = make_key(workload, registry_.spec());
    auto tuner =
        autotune::make_heron_tuner(registry_.spec(), config_.tune);
    if (!tuner->supports(workload)) {
        registry_.mark_untunable(key);
        HERON_COUNTER_INC("serve.queue.untunable");
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.failed;
        return;
    }
    HERON_INFO << "serve: tuning " << key.canonical() << " ("
               << config_.tune.trials << " trials)";
    auto outcome = tuner->tune(workload);
    if (!outcome.result.found()) {
        HERON_WARN << "serve: background tune of "
                   << key.canonical() << " found no valid program ("
                   << autotune::stop_reason_name(
                          outcome.stop_reason)
                   << ")";
        registry_.mark_untunable(key);
        HERON_COUNTER_INC("serve.queue.untunable");
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.failed;
        return;
    }

    autotune::TuningRecord record;
    record.tuner = tuner->name();
    record.latency_ms = outcome.result.best_latency_ms;
    record.gflops = outcome.result.best_gflops;
    record.assignment = outcome.result.best;
    // Stamp the fields put() would stamp: the WAL append happens
    // *before* the registry publish (write-ahead discipline), so the
    // persisted record must already carry its canonical identity.
    record.workload = key.canonical();
    record.dla = registry_.spec().name;
    record.category = "serve";

    // Durability precedes the publish: an exact-tier answer
    // implies the record survives a crash.
    bool persisted =
        config_.store == nullptr || config_.store->append(record);
    registry_.put(workload, std::move(record));
    HERON_COUNTER_INC("serve.queue.completed");
    if (!persisted) {
        HERON_WARN << "serve: cannot persist tuned record for "
                   << key.canonical()
                   << " (store degraded; stashed for retry)";
        HERON_COUNTER_INC("serve.store.persist_failures");
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    if (!persisted)
        ++stats_.persist_failures;
}

} // namespace heron::serve
