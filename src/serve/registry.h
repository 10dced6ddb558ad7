/**
 * @file
 * KernelRegistry: the serving-side database of tuned schedules.
 *
 * An in-memory index over autotune::TuningRecords keyed by canonical
 * WorkloadKey. The index is sharded; each shard is a
 * std::shared_mutex guarding a map that is mutated in place. Readers
 * (the exact probe, peek, size, and the fallback's candidate scan)
 * hold the shard lock shared just long enough to copy a record out;
 * put() and load_records() hold it exclusively to insert in place. No shard lock is ever held across a space
 * generation, a try_bind walk, or a transfer solve. The negative
 * cache is sharded alongside the index (one slot per shard) so miss
 * bookkeeping for one key never contends with another shard's.
 * Lookups answer in three tiers:
 *
 *   exact     the query's key is in the index
 *   nearest   a compatible key (same op/dtype/DLA) is close in
 *             shape-distance AND yields an assignment that binds
 *             against the query's freshly generated constraint
 *             space (GeneratedSpace::try_bind) — either the donor's
 *             raw assignment, or a schedule *transfer*: the donor's
 *             tunable genes are pinned as extra IN constraints on
 *             the query's CSP and the solver completes them into a
 *             valid assignment for the query shape. A fallback is
 *             never served on faith; every served assignment passes
 *             try_bind re-validation.
 *   miss      nothing usable; the query is handed to the registered
 *             miss handler (normally a TuneQueue) and a saturating
 *             negative-cache counter is bumped so a workload that
 *             keeps missing stops paying the fallback scan
 *
 * The registry owns no files. A DurableStore (serve/store_wal.h)
 * replays its record log into the index through load_records(), and
 * the TuneQueue appends each tuned record to that store before put()
 * serves it.
 */
#ifndef HERON_SERVE_REGISTRY_H
#define HERON_SERVE_REGISTRY_H

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "autotune/record.h"
#include "rules/space_generator.h"
#include "serve/workload_key.h"
#include "support/metrics.h"

namespace heron::serve {

/** Which tier answered a lookup. */
enum class LookupTier : uint8_t {
    kExact = 0,
    kNearest,
    /** Short-circuited by the saturated negative cache. */
    kNegative,
    kMiss,
};

/** Tier name ("exact", "nearest", "negative", "miss"). */
const char *lookup_tier_name(LookupTier tier);

/**
 * Per-lookup options. A deadline caps how long the lookup may
 * spend: the exact tier (a hash probe) always runs, but an expired
 * deadline skips the nearest-tier fallback scan entirely, an
 * in-progress scan aborts between donors, and the transfer solver's
 * budget shrinks to the remaining time. Requests that arrive
 * already expired therefore answer in microseconds instead of
 * burning solver milliseconds.
 */
struct LookupOptions {
    /** Absolute wall-clock budget (unset = unlimited). */
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /**
     * Hand misses (and nearest-tier hits) to the registered miss
     * handler. Graph resolution turns this off so the payoff
     * scheduler — not registry key order — decides the tune order;
     * the single-op path leaves it on.
     */
    bool dispatch_miss = true;
};

/** Outcome of one registry lookup. */
struct LookupResult {
    LookupTier tier = LookupTier::kMiss;
    /** The query's canonical key. */
    WorkloadKey key;
    /** Served record (exact and nearest tiers only). */
    std::optional<autotune::TuningRecord> record;
    /** Donor's canonical signature (nearest tier only). */
    std::string served_from;
    /** Shape distance to the donor (nearest tier only). */
    double distance = 0.0;
    /** True when the miss handler accepted the workload. */
    bool enqueued = false;
    /**
     * True when LookupOptions::deadline cut the lookup short (the
     * fallback scan was skipped or aborted). Such a miss is not
     * counted against the negative cache: the workload might have
     * been servable with more time.
     */
    bool deadline_expired = false;

    bool hit() const
    {
        return tier == LookupTier::kExact ||
               tier == LookupTier::kNearest;
    }
};

/** Registry tuning knobs. */
struct RegistryConfig {
    /** Index shards (clamped to >= 1; power of two not required). */
    int shards = 8;
    /** Serve nearest-workload fallbacks at all. */
    bool enable_fallback = true;
    /**
     * Max shape distance (see shape_distance) a fallback donor may
     * be from the query; beyond it a near-miss is a plain miss.
     */
    double max_fallback_distance = 6.0;
    /** Donors try_bind-checked per lookup, nearest first. */
    int max_fallback_candidates = 4;
    /**
     * When a donor's raw assignment fails try_bind, transplant its
     * tunable genes into the query's CSP and solve for a valid
     * completion (see file header). Disabling limits the nearest
     * tier to raw-bindable donors (effectively same-shape aliases).
     */
    bool enable_transfer = true;
    /**
     * Solver deadline for one transfer attempt; past it the donor
     * is rejected rather than stalling the lookup.
     */
    int64_t transfer_deadline_ms = 25;
    /**
     * Misses of one key before its negative-cache entry saturates
     * and lookups short-circuit (0 disables the negative cache).
     */
    int negative_threshold = 3;
    /** Space generation options for fallback re-validation. */
    rules::Options space_options = rules::Options::heron();
};

/** Monotonic registry counters (also mirrored to support/metrics). */
struct RegistryStats {
    int64_t exact_hits = 0;
    int64_t nearest_hits = 0;
    int64_t negative_hits = 0;
    int64_t misses = 0;
    /** Fallback donors rejected by try_bind re-validation. */
    int64_t fallback_rejected = 0;
    /**
     * Nearest-tier hits served through gene transfer (donor's raw
     * assignment did not bind; a solver-completed one did).
     */
    int64_t fallback_transferred = 0;
    /** Records accepted by put(). */
    int64_t inserts = 0;
    /** Inserts that replaced a slower served record (hot swap). */
    int64_t hot_swaps = 0;
    /** Inserts dropped for not beating the served record. */
    int64_t stale_inserts = 0;
};

/** Accounting for KernelRegistry::load_records. */
struct StoreLoadStats {
    /** Records indexed. */
    int64_t loaded = 0;
    /** Records whose workload field is not a canonical signature. */
    int64_t unparsable = 0;
    /** Records for a different DLA config hash. */
    int64_t foreign_dla = 0;
    /** Invalid (failed-measurement) records skipped. */
    int64_t invalid = 0;
};

/**
 * Sharded tuned-schedule database for one DLA (reader-writer lock
 * per shard; see file header). All public methods are thread-safe.
 */
class KernelRegistry
{
  public:
    explicit KernelRegistry(hw::DlaSpec spec,
                            RegistryConfig config = {});

    KernelRegistry(const KernelRegistry &) = delete;
    KernelRegistry &operator=(const KernelRegistry &) = delete;

    /**
     * Called on a miss (and on a nearest-tier hit, so a fallback
     * still converges to an exact record): return true when the
     * workload was accepted for background tuning.
     */
    using MissHandler =
        std::function<bool(const ops::Workload &workload,
                           const WorkloadKey &key)>;

    /** Install the miss handler (pass {} to clear). */
    void set_miss_handler(MissHandler handler);

    /** Three-tier lookup for @p workload (see file header). */
    LookupResult lookup(const ops::Workload &workload,
                        const LookupOptions &options = {});

    /**
     * Pure exact-tier probe: the served record for @p key, or
     * nullopt. No counters, no fallback, no miss dispatch, no
     * negative-cache traffic — made for status polling (e.g.
     * graph_status convergence checks) that must not perturb the
     * serving statistics it reports.
     */
    std::optional<autotune::TuningRecord>
    peek(const WorkloadKey &key) const;

    /**
     * Insert @p record as the tuned result for @p workload,
     * hot-swapping the served record when it is faster (higher
     * GFLOP/s) than the incumbent. Clears the key's negative-cache
     * entry. Returns true when the record is now the served one.
     * Invalid or assignment-less records are rejected.
     */
    bool put(const ops::Workload &workload,
             autotune::TuningRecord record);

    /**
     * Saturate @p key's negative-cache entry immediately (used when
     * a background tune concludes the workload cannot be tuned, so
     * further lookups stop re-enqueueing it).
     */
    void mark_untunable(const WorkloadKey &key);

    /**
     * True when mark_untunable() flagged @p key and no record has
     * arrived since (a miss-saturated key is not untunable).
     */
    bool untunable(const WorkloadKey &key) const;

    /** Indexed records across all shards. */
    size_t size() const;

    /** Snapshot of the registry counters. */
    RegistryStats stats() const;

    /**
     * Merge already-parsed records (e.g. DurableStore::records()
     * after a WAL replay), keeping the faster record on key
     * collisions. Unparsable, foreign-DLA, and invalid records are
     * skipped and counted. Returns the number of records indexed.
     */
    int64_t load_records(std::vector<autotune::TuningRecord> records,
                         StoreLoadStats *stats = nullptr);

    /** The accelerator this registry serves. */
    const hw::DlaSpec &spec() const { return spec_; }

  private:
    using Map = std::unordered_map<WorkloadKey, autotune::TuningRecord,
                                   WorkloadKeyHash>;

    static constexpr int kUntunable = std::numeric_limits<int>::max();

    /**
     * One index shard: `map` is read under a shared lock on `mu`
     * and mutated in place under an exclusive one. The negative
     * cache rides in the same shard under its own small mutex, so
     * miss bookkeeping (which happens on the read path) never takes
     * the index lock exclusively.
     */
    struct Shard {
        mutable std::shared_mutex mu;
        Map map;

        /**
         * Saturating per-key miss counters (negative cache);
         * kUntunable marks a key whose tune failed.
         */
        mutable std::mutex neg_mu;
        std::unordered_map<WorkloadKey, int, WorkloadKeyHash>
            negative;
    };

    hw::DlaSpec spec_;
    uint64_t spec_hash_ = 0;
    RegistryConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /**
     * Generated-space cache for fallback re-validation: generating
     * a space is milliseconds while a lookup is microseconds, so
     * each query shape pays generation once. Bounded internally.
     */
    mutable rules::SpaceCache spaces_;

    mutable std::mutex miss_handler_mu_;
    MissHandler miss_handler_;

    /** Counters (relaxed atomics; snapshot via stats()). */
    mutable std::atomic<int64_t> exact_hits_{0};
    mutable std::atomic<int64_t> nearest_hits_{0};
    mutable std::atomic<int64_t> negative_hits_{0};
    mutable std::atomic<int64_t> misses_{0};
    mutable std::atomic<int64_t> fallback_rejected_{0};
    mutable std::atomic<int64_t> fallback_transferred_{0};
    std::atomic<int64_t> inserts_{0};
    std::atomic<int64_t> hot_swaps_{0};
    std::atomic<int64_t> stale_inserts_{0};

    Shard &shard_for(const WorkloadKey &key);
    const Shard &shard_for(const WorkloadKey &key) const;

    /** True when the key's negative entry is saturated. */
    bool negative_saturated(const WorkloadKey &key) const;
    /** Bump the key's miss counter (saturating). */
    void note_miss(const WorkloadKey &key);
    /** Forget the key's miss counter (a record arrived). */
    void clear_negative(const WorkloadKey &key);

    /** Generate (or fetch cached) space for a query workload. */
    std::shared_ptr<const rules::GeneratedSpace>
    space_for(const ops::Workload &workload, const WorkloadKey &key);

    /**
     * Nearest-tier attempt: returns a result only when a compatible
     * donor within distance yields a try_bind-valid assignment for
     * the query's space (raw or transferred). Sets
     * @p deadline_expired and stops early when @p options's
     * deadline runs out between donors.
     */
    std::optional<LookupResult>
    try_fallback(const ops::Workload &workload,
                 const WorkloadKey &key,
                 const LookupOptions &options,
                 bool *deadline_expired);

    /**
     * Complete the donor's tunable genes into a valid assignment
     * for the query's space. Genes are matched by variable *name*
     * (templates are shape-dependent, so ids do not line up across
     * shapes), then over-constraining pins are dropped — never
     * below half of the transferable genes, past which the result
     * would be a fresh random schedule, not a transfer.
     * Deterministic per (query, donor) pair. @p budget_ms > 0 caps
     * the solver deadline below the configured transfer deadline
     * (deadline propagation from the serving front-end).
     */
    std::optional<csp::Assignment>
    transfer_assignment(const rules::GeneratedSpace &space,
                        const rules::GeneratedSpace &donor_space,
                        const WorkloadKey &key,
                        const WorkloadKey &donor_key,
                        const csp::Assignment &donor,
                        double budget_ms) const;

    /** Invoke the miss handler (false when none installed). */
    bool dispatch_miss(const ops::Workload &workload,
                       const WorkloadKey &key);

    /**
     * Everything after lookup()'s failed exact probe: negative
     * cache, then fallback, then miss accounting + handler dispatch.
     */
    LookupResult lookup_slow(const ops::Workload &workload,
                             WorkloadKey key,
                             const LookupOptions &options);
};

/**
 * The process-wide metrics snapshot plus @p registry's tier and
 * fallback counts as serve.lookup.{exact,nearest,negative,miss} and
 * serve.fallback.{rejected_bind,transferred}. The lookup path counts
 * each tier once, in RegistryStats; this keeps those published
 * metric names for the metrics response, the Prometheus export and
 * heron_serve --metrics.
 */
metrics::MetricsSnapshot metrics_snapshot(const KernelRegistry &registry);

} // namespace heron::serve

#endif // HERON_SERVE_REGISTRY_H
