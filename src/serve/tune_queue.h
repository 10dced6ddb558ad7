/**
 * @file
 * TuneQueue: the on-miss background tuner of the serving layer.
 *
 * A bounded FIFO of missed workloads drained by a worker thread
 * that runs the full Heron tuner (autotune::make_heron_tuner, which
 * itself fans measurements across hw::MeasurePool workers) and
 * hot-swaps the winner into the KernelRegistry, so a workload that
 * missed once starts answering exact-hit lookups as soon as its
 * tune completes. Workloads already queued or in flight are
 * deduplicated; a full queue rejects (serving never blocks on
 * tuning); a workload that tunes to nothing is marked untunable so
 * the registry's negative cache stops re-enqueueing it.
 */
#ifndef HERON_SERVE_TUNE_QUEUE_H
#define HERON_SERVE_TUNE_QUEUE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "autotune/tuner.h"
#include "serve/registry.h"

namespace heron::serve {

class DurableStore;

/** Queue sizing and per-workload tuning budget. */
struct TuneQueueConfig {
    /** Max workloads waiting (in-flight excluded; >= 1). */
    size_t capacity = 64;
    /** Budget for each background tune. */
    autotune::TuneConfig tune;
    /**
     * WAL-backed durable store (nullable = tunes are not
     * persisted). Each completed tune appends its record *before*
     * publishing to the registry, so an exact-tier answer implies
     * durability. A degraded store pauses intake (enqueue returns
     * kDegraded) while lookups keep serving.
     */
    DurableStore *store = nullptr;
};

/** Why enqueue() accepted or rejected a workload. */
enum class EnqueueOutcome : uint8_t {
    kAccepted = 0,
    /** Already queued or being tuned. */
    kDuplicate,
    /** Queue at capacity. */
    kFull,
    /** Queue not running (before start() / after stop()). */
    kStopped,
    /** Durable store degraded: intake paused, serving read-only. */
    kDegraded,
};

/** Monotonic queue counters. */
struct TuneQueueStats {
    int64_t accepted = 0;
    int64_t deduplicated = 0;
    int64_t rejected_full = 0;
    /** Tunes that produced a record (registry insert attempted). */
    int64_t completed = 0;
    /** Tunes that found no valid program (marked untunable). */
    int64_t failed = 0;
    /**
     * Completed tunes whose append failed; the store stashes the
     * record and flushes it when its recovery probe succeeds.
     */
    int64_t persist_failures = 0;
    /** Workloads rejected because the store was degraded. */
    int64_t rejected_degraded = 0;
};

/**
 * Point-in-time queue load, for the "stats" protocol response and
 * drain waits: how full the queue is and whether a tune is
 * executing right now.
 */
struct TuneQueueLoad {
    size_t depth = 0;
    size_t capacity = 0;
    bool in_flight = false;
};

/** Bounded background tuning worker over one KernelRegistry. */
class TuneQueue
{
  public:
    /** @p registry must outlive the queue. */
    TuneQueue(KernelRegistry &registry, TuneQueueConfig config = {});

    /** Stops and joins the worker. */
    ~TuneQueue();

    TuneQueue(const TuneQueue &) = delete;
    TuneQueue &operator=(const TuneQueue &) = delete;

    /** Spawn the worker thread (idempotent). */
    void start();

    /**
     * Stop accepting work, finish the in-flight tune (if any), and
     * join. Queued-but-unstarted workloads are dropped.
     */
    void stop();

    /** Offer a missed workload (thread-safe, non-blocking). */
    EnqueueOutcome enqueue(const ops::Workload &workload);

    /**
     * Block until the queue is empty and the worker idle. Only for
     * tests and scripted drivers — a serving loop never waits on
     * tuning.
     */
    void drain();

    /** Configured waiting-slot capacity. */
    size_t capacity() const { return config_.capacity; }

    /** Consistent depth/capacity/in-flight snapshot. */
    TuneQueueLoad load() const;

    /** Snapshot of the queue counters. */
    TuneQueueStats stats() const;

  private:
    KernelRegistry &registry_;
    TuneQueueConfig config_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::deque<ops::Workload> queue_;
    /** Keys queued or in flight (the dedup set). */
    std::unordered_set<WorkloadKey, WorkloadKeyHash> pending_;
    bool running_ = false;
    bool in_flight_ = false;
    std::thread worker_;
    TuneQueueStats stats_;

    void worker_loop();
    /** Tune one workload and publish the result. */
    void tune_one(const ops::Workload &workload);
};

} // namespace heron::serve

#endif // HERON_SERVE_TUNE_QUEUE_H
