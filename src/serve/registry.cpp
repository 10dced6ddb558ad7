#include "serve/registry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "csp/solver.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/trace.h"

namespace heron::serve {

const char *
lookup_tier_name(LookupTier tier)
{
    switch (tier) {
      case LookupTier::kExact: return "exact";
      case LookupTier::kNearest: return "nearest";
      case LookupTier::kNegative: return "negative";
      case LookupTier::kMiss: return "miss";
    }
    return "?";
}

KernelRegistry::KernelRegistry(hw::DlaSpec spec,
                               RegistryConfig config)
    : spec_(std::move(spec)), config_(config)
{
    spec_hash_ = spec_.config_hash();
    int shards = std::max(1, config_.shards);
    shards_.reserve(static_cast<size_t>(shards));
    for (int i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

KernelRegistry::Shard &
KernelRegistry::shard_for(const WorkloadKey &key)
{
    return *shards_[key.hash() % shards_.size()];
}

const KernelRegistry::Shard &
KernelRegistry::shard_for(const WorkloadKey &key) const
{
    return *shards_[key.hash() % shards_.size()];
}

void
KernelRegistry::set_miss_handler(MissHandler handler)
{
    std::lock_guard<std::mutex> lock(miss_handler_mu_);
    miss_handler_ = std::move(handler);
}

bool
KernelRegistry::dispatch_miss(const ops::Workload &workload,
                              const WorkloadKey &key)
{
    MissHandler handler;
    {
        std::lock_guard<std::mutex> lock(miss_handler_mu_);
        handler = miss_handler_;
    }
    return handler ? handler(workload, key) : false;
}

bool
KernelRegistry::negative_saturated(const WorkloadKey &key) const
{
    if (config_.negative_threshold <= 0)
        return false;
    const Shard &shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.neg_mu);
    auto it = shard.negative.find(key);
    return it != shard.negative.end() &&
           it->second >= config_.negative_threshold;
}

void
KernelRegistry::note_miss(const WorkloadKey &key)
{
    if (config_.negative_threshold <= 0)
        return;
    Shard &shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.neg_mu);
    int &count = shard.negative[key];
    if (count < config_.negative_threshold)
        ++count;
}

void
KernelRegistry::clear_negative(const WorkloadKey &key)
{
    Shard &shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.neg_mu);
    shard.negative.erase(key);
}

void
KernelRegistry::mark_untunable(const WorkloadKey &key)
{
    // The sentinel saturates the entry (note_miss never moves it)
    // and stays distinguishable from a miss-saturated one, even
    // with the negative cache disabled.
    Shard &shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.neg_mu);
    shard.negative[key] = kUntunable;
}

bool
KernelRegistry::untunable(const WorkloadKey &key) const
{
    const Shard &shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.neg_mu);
    auto it = shard.negative.find(key);
    return it != shard.negative.end() && it->second == kUntunable;
}

std::shared_ptr<const rules::GeneratedSpace>
KernelRegistry::space_for(const ops::Workload &workload,
                          const WorkloadKey &key)
{
    // Memoized in the SpaceCache by the canonical key hash;
    // generation runs outside its lock (see SpaceCache).
    return spaces_.get_or_generate(key.hash(), [&] {
        HERON_TRACE_SCOPE("serve/generate_space");
        rules::SpaceGenerator generator(spec_,
                                        config_.space_options);
        return generator.generate(workload);
    });
}

std::optional<csp::Assignment>
KernelRegistry::transfer_assignment(
    const rules::GeneratedSpace &space,
    const rules::GeneratedSpace &donor_space, const WorkloadKey &key,
    const WorkloadKey &donor_key, const csp::Assignment &donor,
    double budget_ms) const
{
    // The stored assignment must describe the donor's own space
    // (generator options may have changed since it was recorded).
    if (donor.size() != donor_space.csp.num_vars())
        return std::nullopt;
    HERON_TRACE_SCOPE("serve/transfer");

    // Pin every query tunable to the donor's value for the
    // *same-named* variable. Ids do not line up across shapes (the
    // template is shape-dependent), but rule-generated names are
    // stable. Architecture variables are left free: they encode the
    // query's actual extents and must be re-derived by propagation,
    // not copied from the donor's shape. Genes absent from the
    // donor or outside the query var's initial domain are skipped.
    std::vector<csp::Constraint> pins;
    for (csp::VarId v : space.csp.tunable_vars()) {
        csp::VarId dv =
            donor_space.csp.find_var(space.csp.var(v).name);
        if (dv < 0)
            continue;
        int64_t value = donor[static_cast<size_t>(dv)];
        if (!space.csp.var(v).initial.contains(value))
            continue;
        csp::Constraint c;
        c.kind = csp::ConstraintKind::kIn;
        c.result = v;
        c.constants = {value};
        c.note = "serve:transfer";
        pins.push_back(std::move(c));
    }
    if (pins.empty())
        return std::nullopt;

    csp::SolverConfig solver_config;
    solver_config.deadline_ms =
        static_cast<double>(config_.transfer_deadline_ms);
    // Deadline propagation: never spend more solver time than the
    // caller has left.
    if (budget_ms > 0.0)
        solver_config.deadline_ms =
            std::min(solver_config.deadline_ms, budget_ms);
    csp::RandSatSolver solver(space.csp, solver_config);
    // Deterministic per (query, donor) pair so a repeated lookup
    // serves the same transplanted schedule.
    Rng rng(hash_combine(key.hash(), donor_key.hash()));

    // Relaxation ladder (the CGA crossover shape): pinning every
    // transferable gene may be UNSAT under the query's extents, so
    // drop pins one at a time — but keep at least half, or the
    // "transfer" degenerates into an unrelated random schedule.
    const size_t min_pins = (pins.size() + 1) / 2;
    while (true) {
        if (auto solved = solver.solve_one(rng, pins))
            return solved;
        if (pins.size() <= min_pins)
            return std::nullopt;
        pins.erase(pins.begin() +
                   static_cast<long>(rng.index(pins.size())));
    }
}

namespace {

/** Remaining ms until @p options's deadline (<= 0 = expired). */
double
remaining_ms(const LookupOptions &options)
{
    if (!options.deadline)
        return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(
               *options.deadline -
               std::chrono::steady_clock::now())
        .count();
}

} // namespace

std::optional<LookupResult>
KernelRegistry::try_fallback(const ops::Workload &workload,
                             const WorkloadKey &key,
                             const LookupOptions &options,
                             bool *deadline_expired)
{
    HERON_TRACE_SCOPE("serve/fallback");

    // Copy compatible donors out of each shard under its shared
    // lock, then rank and re-validate with no lock held: try_bind
    // walks the whole template and a transfer runs the solver, so
    // neither may stall a writer.
    struct Candidate {
        double distance;
        WorkloadKey key;
        autotune::TuningRecord record;
    };
    std::vector<Candidate> candidates;
    for (const auto &shard : shards_) {
        std::shared_lock<std::shared_mutex> lock(shard->mu);
        for (const auto &[donor_key, record] : shard->map) {
            double distance = shape_distance(key, donor_key);
            if (distance <= config_.max_fallback_distance)
                candidates.push_back({distance, donor_key, record});
        }
    }
    if (candidates.empty())
        return std::nullopt;
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.distance != b.distance)
                      return a.distance < b.distance;
                  // Equidistant donors tie-break on throughput,
                  // then canonical key, so lookups are
                  // deterministic across shard iteration orders.
                  if (a.record.gflops != b.record.gflops)
                      return a.record.gflops > b.record.gflops;
                  return a.key.canonical() < b.key.canonical();
              });
    if (candidates.size() >
        static_cast<size_t>(
            std::max(1, config_.max_fallback_candidates)))
        candidates.resize(static_cast<size_t>(
            std::max(1, config_.max_fallback_candidates)));

    auto space = space_for(workload, key);
    for (const auto &candidate : candidates) {
        // Deadline propagation: each donor costs a try_bind walk
        // and possibly a solver call; stop scanning the moment the
        // budget is gone rather than overshooting per donor.
        double budget = remaining_ms(options);
        if (budget <= 0.0) {
            *deadline_expired = true;
            HERON_COUNTER_INC("serve.fallback.deadline_expired");
            return std::nullopt;
        }
        std::string error;
        auto program =
            space->try_bind(candidate.record.assignment, &error);
        csp::Assignment serve_assignment;
        bool transferred = false;
        if (program) {
            serve_assignment = candidate.record.assignment;
        } else if (config_.enable_transfer) {
            // A raw assignment rarely survives a shape change (the
            // architecture variables pin the donor's extents), so
            // transplant the donor's tunable genes and let the
            // solver complete them for this shape. The completion
            // must still pass try_bind: the nearest tier never
            // serves an assignment on faith.
            const WorkloadKey &donor_key = candidate.key;
            ops::Workload donor_workload{donor_key.kind,
                                         donor_key.canonical(),
                                         donor_key.params,
                                         donor_key.dtype};
            auto donor_space =
                space_for(donor_workload, donor_key);
            auto completed = transfer_assignment(
                *space, *donor_space, key, donor_key,
                candidate.record.assignment,
                std::isfinite(budget) ? budget : 0.0);
            if (completed && space->try_bind(*completed, &error)) {
                serve_assignment = std::move(*completed);
                transferred = true;
            }
        }
        if (serve_assignment.empty()) {
            fallback_rejected_.fetch_add(
                1, std::memory_order_relaxed);
            continue;
        }
        if (transferred)
            fallback_transferred_.fetch_add(
                1, std::memory_order_relaxed);
        LookupResult result;
        result.tier = LookupTier::kNearest;
        result.key = key;
        result.record = candidate.record;
        // The donor's measured latency/GFLOP/s stay on the record
        // as the best available estimate; the assignment is the one
        // that actually binds for the query shape.
        result.record->assignment = std::move(serve_assignment);
        result.served_from = candidate.key.canonical();
        result.distance = candidate.distance;
        return result;
    }
    return std::nullopt;
}

LookupResult
KernelRegistry::lookup(const ops::Workload &workload,
                       const LookupOptions &options)
{
    HERON_TRACE_SCOPE("serve/lookup");
    WorkloadKey key = make_key(workload, spec_);

    {
        // Exact probe: hash into the shard under its shared lock and
        // copy the record out; the lock is dropped before anything
        // else runs.
        const Shard &shard = shard_for(key);
        std::shared_lock<std::shared_mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            LookupResult result;
            result.tier = LookupTier::kExact;
            result.record = it->second;
            lock.unlock();
            result.key = std::move(key);
            exact_hits_.fetch_add(1, std::memory_order_relaxed);
            return result;
        }
    }
    return lookup_slow(workload, std::move(key), options);
}

LookupResult
KernelRegistry::lookup_slow(const ops::Workload &workload,
                            WorkloadKey key,
                            const LookupOptions &options)
{
    // Saturated negative cache: this workload has missed (or failed
    // to tune) repeatedly — answer immediately without paying the
    // fallback scan or re-enqueueing.
    if (negative_saturated(key)) {
        negative_hits_.fetch_add(1, std::memory_order_relaxed);
        LookupResult result;
        result.tier = LookupTier::kNegative;
        result.key = std::move(key);
        return result;
    }

    bool deadline_expired = remaining_ms(options) <= 0.0;
    if (config_.enable_fallback && !deadline_expired) {
        if (auto fallback = try_fallback(workload, key, options,
                                         &deadline_expired)) {
            nearest_hits_.fetch_add(1, std::memory_order_relaxed);
            // A fallback answer is approximate; keep the background
            // tuner converging this shape to an exact record.
            if (options.dispatch_miss)
                fallback->enqueued = dispatch_miss(workload, key);
            return *fallback;
        }
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    // A deadline-shortened miss says nothing about servability:
    // don't let it push the key toward negative-cache saturation,
    // but do keep feeding the background tuner.
    if (!deadline_expired)
        note_miss(key);
    else
        HERON_COUNTER_INC("serve.lookup.deadline_expired");
    LookupResult result;
    result.tier = LookupTier::kMiss;
    result.deadline_expired = deadline_expired;
    if (options.dispatch_miss)
        result.enqueued = dispatch_miss(workload, key);
    result.key = std::move(key);
    return result;
}

std::optional<autotune::TuningRecord>
KernelRegistry::peek(const WorkloadKey &key) const
{
    const Shard &shard = shard_for(key);
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end())
        return std::nullopt;
    return it->second;
}

bool
KernelRegistry::put(const ops::Workload &workload,
                    autotune::TuningRecord record)
{
    WorkloadKey key = make_key(workload, spec_);
    if (!record.valid || record.assignment.empty()) {
        stale_inserts_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    record.workload = key.canonical();
    record.dla = spec_.name;
    record.category = "serve";

    bool serving = false;
    bool swapped = false;
    {
        Shard &shard = shard_for(key);
        std::unique_lock<std::shared_mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            shard.map.emplace(key, std::move(record));
            serving = true;
        } else if (record.gflops > it->second.gflops) {
            it->second = std::move(record);
            serving = true;
            swapped = true;
        }
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    HERON_COUNTER_INC("serve.registry.inserts");
    if (swapped) {
        hot_swaps_.fetch_add(1, std::memory_order_relaxed);
        HERON_COUNTER_INC("serve.registry.hot_swaps");
    }
    if (!serving)
        stale_inserts_.fetch_add(1, std::memory_order_relaxed);
    // Even a stale insert proves the workload tunes; stop treating
    // it as a repeated miss.
    clear_negative(key);
    return serving;
}

size_t
KernelRegistry::size() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::shared_lock<std::shared_mutex> lock(shard->mu);
        total += shard->map.size();
    }
    return total;
}

RegistryStats
KernelRegistry::stats() const
{
    RegistryStats stats;
    stats.exact_hits = exact_hits_.load(std::memory_order_relaxed);
    stats.nearest_hits =
        nearest_hits_.load(std::memory_order_relaxed);
    stats.negative_hits =
        negative_hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.fallback_rejected =
        fallback_rejected_.load(std::memory_order_relaxed);
    stats.fallback_transferred =
        fallback_transferred_.load(std::memory_order_relaxed);
    stats.inserts = inserts_.load(std::memory_order_relaxed);
    stats.hot_swaps = hot_swaps_.load(std::memory_order_relaxed);
    stats.stale_inserts =
        stale_inserts_.load(std::memory_order_relaxed);
    return stats;
}

int64_t
KernelRegistry::load_records(
    std::vector<autotune::TuningRecord> records,
    StoreLoadStats *stats)
{
    StoreLoadStats local;
    // Screen and group records by shard first, so a bulk load takes
    // each touched shard's exclusive lock once, not once per record.
    struct Pending {
        WorkloadKey key;
        autotune::TuningRecord record;
    };
    std::vector<std::vector<Pending>> by_shard(shards_.size());
    for (auto &record : records) {
        auto key = parse_canonical(record.workload);
        if (!key) {
            ++local.unparsable;
            continue;
        }
        if (key->dla_hash != spec_hash_) {
            ++local.foreign_dla;
            continue;
        }
        if (!record.valid || record.assignment.empty()) {
            ++local.invalid;
            continue;
        }
        size_t s = key->hash() % shards_.size();
        by_shard[s].push_back({std::move(*key), std::move(record)});
    }
    for (size_t s = 0; s < by_shard.size(); ++s) {
        if (by_shard[s].empty())
            continue;
        Shard &shard = *shards_[s];
        std::unique_lock<std::shared_mutex> lock(shard.mu);
        for (auto &pending : by_shard[s]) {
            auto it = shard.map.find(pending.key);
            if (it == shard.map.end()) {
                shard.map.emplace(std::move(pending.key),
                                  std::move(pending.record));
                ++local.loaded;
            } else if (pending.record.gflops > it->second.gflops) {
                it->second = std::move(pending.record);
                ++local.loaded;
            }
        }
    }
    if (local.unparsable > 0) {
        HERON_WARN << "serving store: skipped " << local.unparsable
                   << " record(s) without a canonical signature";
    }
    if (local.foreign_dla > 0) {
        HERON_WARN << "serving store: skipped " << local.foreign_dla
                   << " record(s) tuned for a different DLA config";
    }
    if (stats)
        *stats = local;
    return local.loaded;
}

metrics::MetricsSnapshot
metrics_snapshot(const KernelRegistry &registry)
{
    metrics::MetricsSnapshot snapshot =
        metrics::Registry::global().snapshot();
    RegistryStats stats = registry.stats();
    snapshot.counters["serve.lookup.exact"] = stats.exact_hits;
    snapshot.counters["serve.lookup.nearest"] = stats.nearest_hits;
    snapshot.counters["serve.lookup.negative"] = stats.negative_hits;
    snapshot.counters["serve.lookup.miss"] = stats.misses;
    snapshot.counters["serve.fallback.rejected_bind"] =
        stats.fallback_rejected;
    snapshot.counters["serve.fallback.transferred"] =
        stats.fallback_transferred;
    return snapshot;
}

} // namespace heron::serve
