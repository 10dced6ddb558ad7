/**
 * @file
 * Write-ahead-logged durable store for the serving layer.
 *
 * DurableStore keeps the serving store as a log-structured layout
 * inside one directory, so persisting a tune costs one appended
 * record rather than a rewrite of the whole store:
 *
 *   MANIFEST               one-line JSON: current snapshot file and
 *                          the first live segment id (atomic swap)
 *   snapshot-NNNNNN.jsonl  sorted CRC-framed records (compaction
 *                          output, written via atomic_write_file)
 *   seg-NNNNNN.wal         append-only CRC-framed record segments
 *   *.quarantined          corrupted files renamed aside, kept for
 *                          post-mortem, never reloaded
 *
 * append() is O(1): one CRC-framed line written + fsync'd to the
 * active segment. Segments rotate at a size threshold; a background
 * compaction pass folds everything into a fresh snapshot and swaps
 * the manifest atomically, after which obsolete segments are
 * deleted. open() replays snapshot-then-segments with torn-tail
 * truncation: an acknowledged record is never lost, a half-written
 * one is never visible, and a corrupted file is quarantined (its
 * CRC-valid records are still salvaged) rather than fatal.
 *
 * IO failure flips the store into a degraded circuit-breaker state:
 * failed records are stashed in memory, probes retry the log on a
 * backoff, and a successful probe rotates to a fresh segment,
 * flushes the stash, and restores healthy state. The serving layer
 * keeps answering lookups throughout and pauses tune intake.
 */
#ifndef HERON_SERVE_STORE_WAL_H
#define HERON_SERVE_STORE_WAL_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autotune/record.h"

namespace heron::serve {

struct DurableStoreConfig {
    /** Store directory (created on open when missing). */
    std::string dir;
    /** Rotate the active segment once it exceeds this size. */
    size_t segment_max_bytes = 1u << 20;
    /**
     * Trigger background compaction when this many sealed (rotated)
     * segments are live. 0 disables automatic compaction;
     * compact_now() still works.
     */
    int compact_min_segments = 4;
    /** Backoff between degraded-mode recovery probes. */
    double retry_backoff_ms = 1000.0;
    /** fsync each appended record (disable only in benchmarks). */
    bool fsync_data = true;
};

enum class StoreState : uint8_t {
    kHealthy = 0,
    /** Persist path failing; appends are stashed, probes retry. */
    kDegraded,
};

const char *store_state_name(StoreState state);

struct DurableStoreStats {
    int64_t appends = 0;          ///< records durably appended
    int64_t append_failures = 0;  ///< append() calls that stashed
    int64_t rotations = 0;        ///< segments sealed
    int64_t compactions = 0;      ///< successful snapshot swaps
    int64_t compaction_failures = 0;
    int64_t quarantined = 0;      ///< corrupted files renamed aside
    int64_t torn_tails = 0;       ///< truncated tails recovered
    int64_t replayed = 0;         ///< records loaded at open()
    int64_t salvaged = 0;         ///< records kept from quarantined files
    int64_t degraded_entries = 0; ///< healthy->degraded transitions
    int64_t recoveries = 0;       ///< degraded->healthy transitions
    int64_t probes = 0;           ///< recovery probes attempted
    int64_t unflushed = 0;        ///< records currently stashed
    int64_t live_segments = 0;    ///< sealed segments awaiting compaction
    int64_t records = 0;          ///< distinct workloads held
    double last_replay_ms = 0.0;  ///< open() replay wall time
    StoreState state = StoreState::kHealthy;

    /** One-line JSON object (embedded in stats/health responses). */
    std::string to_json() const;
};

class DurableStore {
public:
    explicit DurableStore(DurableStoreConfig config);
    ~DurableStore();

    DurableStore(const DurableStore &) = delete;
    DurableStore &operator=(const DurableStore &) = delete;

    /**
     * Create/replay the store directory and start the background
     * compactor. Corrupted files are quarantined, never fatal; only
     * an unusable directory (cannot create or write) fails open.
     */
    bool open(std::string *error = nullptr);

    /** Stop the compactor and close the active segment. */
    void close();

    /**
     * Replayed records (best per workload), for feeding the
     * registry after open().
     */
    std::vector<autotune::TuningRecord> records() const;

    /**
     * Durably append one record (O(1): one framed line + fsync).
     * Returns false when the record could not be persisted now — it
     * is stashed and retried by recovery probes, and the store is
     * degraded until a probe succeeds.
     */
    bool append(const autotune::TuningRecord &record);

    /**
     * Periodic maintenance: when degraded, attempt a recovery probe
     * if the backoff has elapsed. Called from the server tick loop
     * and from tune-queue admission.
     */
    void tick(std::chrono::steady_clock::time_point now);

    /**
     * Synchronously compact: write a sorted snapshot, swap the
     * manifest, delete obsolete segments. Used by the save command
     * and graceful drain.
     */
    bool compact_now();

    StoreState state() const;
    bool healthy() const { return state() == StoreState::kHealthy; }
    DurableStoreStats stats() const;
    const DurableStoreConfig &config() const { return config_; }

private:
    struct Segment {
        int64_t id = 0;
        std::string path;
    };

    std::string file_path(const char *prefix, int64_t id,
                          const char *suffix) const;
    std::string manifest_path() const;
    bool write_manifest_locked();
    bool open_active_locked(std::string *error);
    void ingest_locked(autotune::TuningRecord record);
    bool raw_append_locked(const autotune::TuningRecord &record);
    void enter_degraded_locked(
        const autotune::TuningRecord &record);
    /** @p force skips the backoff (post-compaction recovery). */
    void maybe_probe_locked(
        std::chrono::steady_clock::time_point now,
        bool force = false);
    bool quarantine(const std::string &path);
    bool do_compact();
    void compactor_loop();

    DurableStoreConfig config_;

    mutable std::mutex mu_;
    /** Serializes whole compaction passes (cv kick vs compact_now). */
    std::mutex compact_run_mu_;
    std::condition_variable compact_cv_;
    std::thread compactor_;
    bool compact_requested_ = false;
    bool closing_ = false;
    bool opened_ = false;

    /** Best record per canonical workload signature. */
    std::map<std::string, autotune::TuningRecord> records_;
    /** Records acknowledged to callers but not yet durable. */
    std::map<std::string, autotune::TuningRecord> unflushed_;

    std::string snapshot_file_; ///< manifest's snapshot ("" = none)
    int64_t segments_from_ = 0; ///< first live segment id
    std::vector<Segment> sealed_;
    int64_t active_id_ = 0;
    int active_fd_ = -1;
    size_t active_bytes_ = 0;
    int64_t next_file_id_ = 1;
    int64_t next_seq_ = 1;

    StoreState state_ = StoreState::kHealthy;
    std::chrono::steady_clock::time_point last_probe_{};

    DurableStoreStats stats_;
};

} // namespace heron::serve

#endif // HERON_SERVE_STORE_WAL_H
