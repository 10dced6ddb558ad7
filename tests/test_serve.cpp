/**
 * @file
 * Serving-layer tests: canonical workload keys, the three lookup
 * tiers of KernelRegistry (including solver-based schedule transfer
 * on the nearest tier), store persistence, the background tune
 * queue, the NDJSON protocol, and the record-format satellites
 * (versioning, unknown-key tolerance, library dedup/dispatch
 * determinism). The Serve*Concurrency tests are also run under the
 * tsan preset (see scripts/verify.sh).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "autotune/library.h"
#include "autotune/record.h"
#include "csp/solver.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/store_wal.h"
#include "serve/tune_queue.h"
#include "serve/workload_key.h"
#include "support/fs_util.h"

namespace heron::serve {
namespace {

/**
 * A valid (solver-produced, unmeasured) tuning record for @p
 * workload: registry tests need real assignments that bind, not
 * measured throughput.
 */
autotune::TuningRecord
solved_record(const hw::DlaSpec &spec, const ops::Workload &workload,
              double gflops, uint64_t seed = 7)
{
    rules::SpaceGenerator generator(spec, rules::Options::heron());
    auto space = generator.generate(workload);
    csp::RandSatSolver solver(space.csp);
    Rng rng(seed);
    auto assignment = solver.solve_one(rng);
    EXPECT_TRUE(assignment.has_value());
    autotune::TuningRecord record;
    record.workload = workload.name;
    record.dla = spec.name;
    record.tuner = "test";
    record.latency_ms = 1.0;
    record.gflops = gflops;
    record.assignment = assignment ? *assignment : csp::Assignment{};
    return record;
}

/** Fresh private store directory under the gtest temp root. */
std::string
fresh_store_dir(const char *tag)
{
    std::string tmpl =
        ::testing::TempDir() + "heron_serve_" + tag + "_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr) << tmpl;
    return tmpl;
}

/** Append @p registry's served record for @p workload to @p store. */
void
persist_served(DurableStore &store, const KernelRegistry &registry,
               const ops::Workload &workload)
{
    auto record = registry.peek(make_key(workload, registry.spec()));
    ASSERT_TRUE(record.has_value());
    ASSERT_TRUE(store.append(*record));
}

// ---------------------------------------------------------------
// Canonical workload keys
// ---------------------------------------------------------------

TEST(WorkloadKey, CanonicalRoundTrips)
{
    auto spec = hw::DlaSpec::v100();
    auto key = make_key(ops::gemm(512, 256, 128), spec);
    auto parsed = parse_canonical(key.canonical());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, key);
    EXPECT_EQ(parsed->canonical(), key.canonical());
}

TEST(WorkloadKey, SignatureIgnoresDisplayName)
{
    auto spec = hw::DlaSpec::v100();
    auto a = ops::gemm(512, 512, 512);
    auto b = ops::gemm(512, 512, 512);
    b.name = "some_other_name";
    EXPECT_EQ(canonical_signature(a, spec),
              canonical_signature(b, spec));
}

TEST(WorkloadKey, DilatedConvFoldsToC2d)
{
    // kDil builds the identical DAG and parameter layout as kC2d,
    // so both normalize to one C2D signature and share tuned
    // records.
    auto spec = hw::DlaSpec::v100();
    auto dil = ops::dil(1, 16, 14, 14, 16, 3, 3, 1, 1, 2);
    ops::Workload c2d = dil;
    c2d.kind = ops::OpKind::kC2d;
    EXPECT_EQ(canonical_signature(dil, spec),
              canonical_signature(c2d, spec));
}

TEST(WorkloadKey, DlaConfigChangesKey)
{
    auto workload = ops::gemm(512, 512, 512);
    auto v100 = make_key(workload, hw::DlaSpec::v100());
    auto t4 = make_key(workload, hw::DlaSpec::t4());
    EXPECT_NE(v100, t4);
    EXPECT_NE(v100.canonical(), t4.canonical());
    // Same spec twice hashes identically (config_hash is pure).
    EXPECT_EQ(hw::DlaSpec::v100().config_hash(),
              hw::DlaSpec::v100().config_hash());
}

TEST(WorkloadKey, ShapeDistance)
{
    auto spec = hw::DlaSpec::v100();
    auto base = make_key(ops::gemm(512, 512, 512), spec);
    EXPECT_DOUBLE_EQ(shape_distance(base, base), 0.0);
    // One halved dimension is one octave away.
    auto half = make_key(ops::gemm(256, 512, 512), spec);
    EXPECT_DOUBLE_EQ(shape_distance(base, half), 1.0);
    // Different op kinds never compare.
    auto gemv = make_key(ops::gemv(512, 512), spec);
    EXPECT_FALSE(std::isfinite(shape_distance(base, gemv)));
}

// ---------------------------------------------------------------
// Record-format satellites: versioning, unknown keys, reordering
// ---------------------------------------------------------------

TEST(RecordFormat, VersionRoundTripsAndNewerIsSkipped)
{
    autotune::TuningRecord record;
    record.workload = "w";
    record.dla = "d";
    record.tuner = "t";
    record.gflops = 1.0;
    record.assignment = {1, 2, 3};

    auto same = autotune::TuningRecord::from_json(record.to_json());
    ASSERT_TRUE(same.has_value());
    EXPECT_EQ(same->version, autotune::kTuningRecordVersion);

    record.version = autotune::kTuningRecordVersion + 1;
    autotune::RecordReadStats stats;
    auto records = autotune::read_records(
        autotune::crc_frame(record.to_json()) + "\n", &stats);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.version_skipped, 1);
    // A newer store is not corruption: the reader keeps going.
    EXPECT_FALSE(stats.corrupt());
}

TEST(RecordFormat, PreVersioningRecordsStayReadable)
{
    // Hand-written line without a "v" key, the pre-versioning
    // format.
    std::string payload =
        "{\"workload\":\"w\",\"dla\":\"d\",\"tuner\":\"t\","
        "\"latency_ms\":1,\"gflops\":2,\"assignment\":[4,5]}";
    autotune::RecordReadStats stats;
    auto records = autotune::read_records(
        autotune::crc_frame(payload) + "\n", &stats);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].version, 0);
    EXPECT_FALSE(stats.corrupt());
}

TEST(RecordFormat, UnknownKeysAreTolerated)
{
    autotune::TuningRecord record;
    record.workload = "w";
    record.dla = "d";
    record.tuner = "t";
    record.gflops = 2.0;
    record.assignment = {9};
    // A future writer added a field this reader has never heard of.
    std::string json = record.to_json();
    std::string payload =
        "{\"from_the_future\":\"x\"," + json.substr(1);
    auto parsed = autotune::TuningRecord::from_json(payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->workload, "w");
    EXPECT_EQ(parsed->assignment, record.assignment);
}

TEST(RecordFormat, FieldOrderDoesNotMatter)
{
    // Same key/value pairs, scrambled order: extraction is by key,
    // so the parse (and any signature derived from it) is stable.
    std::string forward =
        "{\"v\":1,\"workload\":\"GEMM/512x512x512/fp16@"
        "0123456789abcdef\",\"dla\":\"V100\",\"tuner\":\"Heron\","
        "\"latency_ms\":1.5,\"gflops\":100,\"assignment\":[1,2]}";
    std::string shuffled =
        "{\"gflops\":100,\"assignment\":[1,2],\"tuner\":\"Heron\","
        "\"dla\":\"V100\",\"latency_ms\":1.5,\"workload\":"
        "\"GEMM/512x512x512/fp16@0123456789abcdef\",\"v\":1}";
    auto a = autotune::TuningRecord::from_json(forward);
    auto b = autotune::TuningRecord::from_json(shuffled);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->workload, b->workload);
    EXPECT_EQ(a->dla, b->dla);
    EXPECT_EQ(a->version, b->version);
    EXPECT_EQ(a->latency_ms, b->latency_ms);
    EXPECT_EQ(a->assignment, b->assignment);
    auto ka = parse_canonical(a->workload);
    auto kb = parse_canonical(b->workload);
    ASSERT_TRUE(ka && kb);
    EXPECT_EQ(ka->canonical(), kb->canonical());
}

// ---------------------------------------------------------------
// Library satellites: builder dedup, dispatch determinism
// ---------------------------------------------------------------

TEST(Library, BuilderDropsDuplicateSignatures)
{
    autotune::LibraryBuilder builder(hw::DlaSpec::v100(), {});
    auto a = ops::gemm(512, 512, 512);
    auto b = ops::gemm(512, 512, 512);
    b.name = "renamed_but_same_shape";
    builder.add(a);
    builder.add(b);
    builder.add(ops::gemm(256, 256, 256));
    EXPECT_EQ(builder.size(), 2u);
}

TEST(Library, DispatchCollisionIsFirstEntryWins)
{
    // Hand-assembled library with two tuned entries for the same
    // dispatch shape: emit_header keeps both kernels but dispatch()
    // must deterministically prefer the first.
    autotune::Library library;
    library.spec = hw::DlaSpec::v100();
    autotune::LibraryEntry first;
    first.workload = ops::gemm(512, 512, 512);
    first.kernel_name = "gemm_first";
    first.tuned = true;
    autotune::LibraryEntry second = first;
    second.kernel_name = "gemm_second";
    library.entries = {first, second};

    std::string header = library.emit_header("lib");
    size_t pos_first = header.find("return &gemm_first");
    size_t pos_second = header.find("return &gemm_second");
    ASSERT_NE(pos_first, std::string::npos);
    ASSERT_NE(pos_second, std::string::npos);
    // The first entry's dispatch block precedes the second's, and
    // the linear scan returns on the first match.
    EXPECT_LT(pos_first, pos_second);
    // Emission is deterministic: same input, same header.
    EXPECT_EQ(header, library.emit_header("lib"));
}

// ---------------------------------------------------------------
// KernelRegistry tiers
// ---------------------------------------------------------------

TEST(Registry, ExactHitAfterPut)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    auto workload = ops::gemm(512, 512, 512);
    EXPECT_TRUE(registry.put(workload, solved_record(spec, workload,
                                                     100.0)));

    auto result = registry.lookup(workload);
    EXPECT_EQ(result.tier, LookupTier::kExact);
    ASSERT_TRUE(result.record.has_value());
    // put() canonicalizes the stored record's identity.
    EXPECT_EQ(result.record->workload, result.key.canonical());
    EXPECT_EQ(result.record->category, "serve");
    EXPECT_EQ(registry.stats().exact_hits, 1);
}

TEST(Registry, PutRejectsInvalidRecords)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    auto workload = ops::gemm(512, 512, 512);
    autotune::TuningRecord invalid;
    invalid.valid = false;
    EXPECT_FALSE(registry.put(workload, invalid));
    autotune::TuningRecord empty;
    empty.gflops = 5.0;
    EXPECT_FALSE(registry.put(workload, empty));
    EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, HotSwapKeepsFasterRecord)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    auto workload = ops::gemm(512, 512, 512);
    EXPECT_TRUE(
        registry.put(workload, solved_record(spec, workload, 50.0)));
    // Slower record arrives later (a worse re-tune): not served.
    EXPECT_FALSE(
        registry.put(workload, solved_record(spec, workload, 10.0)));
    // Faster record hot-swaps in.
    EXPECT_TRUE(
        registry.put(workload, solved_record(spec, workload, 90.0)));

    auto result = registry.lookup(workload);
    ASSERT_TRUE(result.record.has_value());
    EXPECT_DOUBLE_EQ(result.record->gflops, 90.0);
    auto stats = registry.stats();
    EXPECT_EQ(stats.hot_swaps, 1);
    EXPECT_EQ(stats.stale_inserts, 1);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, NearestTierTransfersAndRevalidates)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    auto donor = ops::gemm(512, 512, 512);
    EXPECT_TRUE(
        registry.put(donor, solved_record(spec, donor, 100.0)));

    // A shape one octave away: the donor's raw assignment cannot
    // bind (different extents), so this exercises gene transfer.
    auto query = ops::gemm(256, 512, 512);
    auto result = registry.lookup(query);
    ASSERT_EQ(result.tier, LookupTier::kNearest);
    ASSERT_TRUE(result.record.has_value());
    EXPECT_EQ(result.served_from,
              make_key(donor, spec).canonical());
    EXPECT_DOUBLE_EQ(result.distance, 1.0);

    // The acceptance bar: a served fallback assignment always
    // passes try_bind against the query's freshly generated space.
    rules::SpaceGenerator generator(spec, rules::Options::heron());
    auto space = generator.generate(query);
    std::string error;
    EXPECT_TRUE(space.try_bind(result.record->assignment, &error))
        << error;

    // Deterministic: the same query serves the same assignment.
    auto again = registry.lookup(query);
    ASSERT_EQ(again.tier, LookupTier::kNearest);
    EXPECT_EQ(again.record->assignment, result.record->assignment);
    EXPECT_GE(registry.stats().fallback_transferred, 1);
}

TEST(Registry, ExpiredDeadlineCutsFallbackNotExactTier)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    auto donor = ops::gemm(512, 512, 512);
    EXPECT_TRUE(
        registry.put(donor, solved_record(spec, donor, 100.0)));

    LookupOptions expired;
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(5);

    // The exact tier is a hash probe: it answers even with no
    // budget left.
    auto exact = registry.lookup(donor, expired);
    EXPECT_EQ(exact.tier, LookupTier::kExact);

    // The nearest tier runs the transfer solver, which an expired
    // budget must skip...
    auto query = ops::gemm(256, 512, 512);
    auto cut = registry.lookup(query, expired);
    EXPECT_EQ(cut.tier, LookupTier::kMiss);
    EXPECT_TRUE(cut.deadline_expired);

    // ...without poisoning the negative cache: an unlimited retry
    // still transfers.
    auto retry = registry.lookup(query);
    EXPECT_EQ(retry.tier, LookupTier::kNearest);
    EXPECT_FALSE(retry.deadline_expired);

    // A generous budget behaves like no budget at all.
    LookupOptions generous;
    generous.deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
    auto relaxed = registry.lookup(query, generous);
    EXPECT_EQ(relaxed.tier, LookupTier::kNearest);
}

TEST(Registry, DistanceCapMakesFarShapesMiss)
{
    auto spec = hw::DlaSpec::v100();
    RegistryConfig config;
    config.max_fallback_distance = 0.5;
    KernelRegistry registry(spec, config);
    auto donor = ops::gemm(512, 512, 512);
    EXPECT_TRUE(
        registry.put(donor, solved_record(spec, donor, 100.0)));

    auto result = registry.lookup(ops::gemm(256, 512, 512));
    EXPECT_EQ(result.tier, LookupTier::kMiss);
}

TEST(Registry, NegativeCacheSaturatesAndClearsOnPut)
{
    auto spec = hw::DlaSpec::v100();
    RegistryConfig config;
    config.negative_threshold = 2;
    config.enable_fallback = false;
    KernelRegistry registry(spec, config);
    auto workload = ops::gemm(512, 512, 512);

    EXPECT_EQ(registry.lookup(workload).tier, LookupTier::kMiss);
    EXPECT_EQ(registry.lookup(workload).tier, LookupTier::kMiss);
    // Saturated: answered from the negative cache now.
    EXPECT_EQ(registry.lookup(workload).tier,
              LookupTier::kNegative);

    // A record arriving clears the negative entry.
    EXPECT_TRUE(
        registry.put(workload, solved_record(spec, workload, 1.0)));
    EXPECT_EQ(registry.lookup(workload).tier, LookupTier::kExact);
}

TEST(Registry, MarkUntunableShortCircuits)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    auto workload = ops::gemm(512, 512, 512);
    registry.mark_untunable(make_key(workload, spec));
    EXPECT_EQ(registry.lookup(workload).tier,
              LookupTier::kNegative);
}

TEST(Registry, MissHandlerSeesMissesAndNearestHits)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    std::vector<std::string> handled;
    registry.set_miss_handler(
        [&](const ops::Workload &, const WorkloadKey &key) {
            handled.push_back(key.canonical());
            return true;
        });

    auto donor = ops::gemm(512, 512, 512);
    auto miss = registry.lookup(donor);
    EXPECT_EQ(miss.tier, LookupTier::kMiss);
    EXPECT_TRUE(miss.enqueued);

    EXPECT_TRUE(
        registry.put(donor, solved_record(spec, donor, 100.0)));
    // A nearest hit still notifies the handler so the background
    // tuner converges the query to an exact record.
    auto near = registry.lookup(ops::gemm(256, 512, 512));
    ASSERT_EQ(near.tier, LookupTier::kNearest);
    EXPECT_TRUE(near.enqueued);
    ASSERT_EQ(handled.size(), 2u);
    EXPECT_NE(handled[0], handled[1]);

    // dispatch_miss = false (graph resolution) answers the miss
    // without handing it to the handler.
    LookupOptions quiet;
    quiet.dispatch_miss = false;
    auto silent = registry.lookup(ops::gemm(96, 96, 96), quiet);
    EXPECT_EQ(silent.tier, LookupTier::kMiss);
    EXPECT_FALSE(silent.enqueued);
    EXPECT_EQ(handled.size(), 2u);
}

// ---------------------------------------------------------------
// Store persistence
// ---------------------------------------------------------------

TEST(RegistryStore, RoundTripsThroughFile)
{
    auto spec = hw::DlaSpec::v100();
    std::string dir = fresh_store_dir("roundtrip");
    DurableStoreConfig config;
    config.dir = dir;
    auto a = ops::gemm(512, 512, 512);
    auto b = ops::gemm(256, 256, 256);
    {
        KernelRegistry registry(spec);
        EXPECT_TRUE(
            registry.put(a, solved_record(spec, a, 100.0)));
        EXPECT_TRUE(registry.put(b, solved_record(spec, b, 50.0)));
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        persist_served(store, registry, a);
        persist_served(store, registry, b);
        store.close();
    }

    DurableStore replayed(config);
    ASSERT_TRUE(replayed.open());
    EXPECT_EQ(replayed.stats().quarantined, 0);
    EXPECT_EQ(replayed.stats().torn_tails, 0);
    KernelRegistry reloaded(spec);
    StoreLoadStats stats;
    EXPECT_EQ(reloaded.load_records(replayed.records(), &stats), 2);
    EXPECT_EQ(stats.loaded, 2);
    EXPECT_EQ(reloaded.lookup(a).tier, LookupTier::kExact);
    EXPECT_EQ(reloaded.lookup(b).tier, LookupTier::kExact);
    replayed.close();
    std::filesystem::remove_all(dir);
}

TEST(RegistryStore, SkipsForeignDlaRecords)
{
    auto spec = hw::DlaSpec::v100();
    std::string dir = fresh_store_dir("foreign");
    DurableStoreConfig config;
    config.dir = dir;
    auto workload = ops::gemm(512, 512, 512);
    {
        KernelRegistry registry(spec);
        EXPECT_TRUE(registry.put(
            workload, solved_record(spec, workload, 100.0)));
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        persist_served(store, registry, workload);
        store.close();
    }

    // A T4 server must not serve V100 schedules.
    DurableStore replayed(config);
    ASSERT_TRUE(replayed.open());
    KernelRegistry other(hw::DlaSpec::t4());
    StoreLoadStats stats;
    EXPECT_EQ(other.load_records(replayed.records(), &stats), 0);
    EXPECT_EQ(stats.foreign_dla, 1);
    replayed.close();
    std::filesystem::remove_all(dir);
}

TEST(RegistryStore, MissingFileIsEmpty)
{
    // A store directory that does not exist yet opens empty.
    std::string dir =
        ::testing::TempDir() + "heron_no_such_store_dir";
    std::filesystem::remove_all(dir);
    DurableStoreConfig config;
    config.dir = dir;
    DurableStore store(config);
    ASSERT_TRUE(store.open());
    KernelRegistry registry(hw::DlaSpec::v100());
    StoreLoadStats stats;
    EXPECT_EQ(registry.load_records(store.records(), &stats), 0);
    EXPECT_EQ(registry.size(), 0u);
    store.close();
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// Concurrency (also run under the tsan preset)
// ---------------------------------------------------------------

TEST(ServeConcurrency, ParallelLookupsAndInserts)
{
    auto spec = hw::DlaSpec::v100();
    RegistryConfig config;
    config.shards = 2; // maximize shard contention
    config.enable_fallback = false;
    config.negative_threshold = 2;
    KernelRegistry registry(spec, config);

    // A pool of workloads the threads race over; solved once up
    // front so the loop body is pure registry traffic.
    std::vector<ops::Workload> workloads;
    std::vector<autotune::TuningRecord> records;
    for (int64_t m = 128; m <= 1024; m *= 2) {
        workloads.push_back(ops::gemm(m, 256, 256));
        records.push_back(
            solved_record(spec, workloads.back(), 10.0));
    }

    constexpr int kIters = 300;
    std::atomic<int64_t> hits{0};
    auto reader = [&] {
        for (int i = 0; i < kIters; ++i) {
            auto result =
                registry.lookup(workloads[static_cast<size_t>(i) %
                                          workloads.size()]);
            if (result.hit())
                hits.fetch_add(1, std::memory_order_relaxed);
        }
    };
    auto writer = [&] {
        for (int i = 0; i < kIters; ++i) {
            size_t w = static_cast<size_t>(i) % workloads.size();
            auto record = records[w];
            // Rising gflops keeps hot-swap paths exercised.
            record.gflops = 10.0 + i;
            registry.put(workloads[w], record);
        }
    };

    std::vector<std::thread> threads;
    threads.emplace_back(writer);
    threads.emplace_back(writer);
    threads.emplace_back(reader);
    threads.emplace_back(reader);
    for (auto &t : threads)
        t.join();

    // Every workload was inserted, so late lookups all hit.
    for (const auto &workload : workloads)
        EXPECT_EQ(registry.lookup(workload).tier,
                  LookupTier::kExact);
    auto stats = registry.stats();
    EXPECT_EQ(stats.inserts, 2 * kIters);
    EXPECT_GT(hits.load(), 0);
}

// ---------------------------------------------------------------
// TuneQueue
// ---------------------------------------------------------------

autotune::TuneConfig
tiny_tune_config()
{
    autotune::TuneConfig config;
    config.trials = 24;
    config.population = 8;
    config.measure_per_round = 8;
    config.seed = 11;
    return config;
}

TEST(TuneQueueTest, MissTunesToExactHit)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    TuneQueueConfig config;
    config.tune = tiny_tune_config();
    TuneQueue queue(registry, config);
    registry.set_miss_handler(
        [&](const ops::Workload &workload, const WorkloadKey &) {
            return queue.enqueue(workload) ==
                   EnqueueOutcome::kAccepted;
        });
    queue.start();

    auto workload = ops::gemm(256, 256, 256);
    auto miss = registry.lookup(workload);
    EXPECT_EQ(miss.tier, LookupTier::kMiss);
    EXPECT_TRUE(miss.enqueued);

    queue.drain();
    auto hit = registry.lookup(workload);
    EXPECT_EQ(hit.tier, LookupTier::kExact);
    ASSERT_TRUE(hit.record.has_value());
    EXPECT_GT(hit.record->gflops, 0.0);
    auto stats = queue.stats();
    EXPECT_EQ(stats.accepted, 1);
    EXPECT_EQ(stats.completed, 1);
}

TEST(TuneQueueTest, DeduplicatesAndRejectsWhenFullOrStopped)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    TuneQueueConfig config;
    config.capacity = 1;
    config.tune = tiny_tune_config();
    TuneQueue queue(registry, config);

    // Not yet started: nothing is accepted.
    EXPECT_EQ(queue.enqueue(ops::gemm(256, 256, 256)),
              EnqueueOutcome::kStopped);

    queue.start();
    EXPECT_EQ(queue.enqueue(ops::gemm(256, 256, 256)),
              EnqueueOutcome::kAccepted);
    // Same canonical shape (name differs): deduplicated whether
    // queued or already in flight.
    auto renamed = ops::gemm(256, 256, 256);
    renamed.name = "alias";
    EXPECT_EQ(queue.enqueue(renamed), EnqueueOutcome::kDuplicate);

    // Wait until the first workload is in flight so the waiting
    // queue is empty, then fill it and overflow it.
    while (queue.load().depth > 0)
        std::this_thread::yield();
    EXPECT_EQ(queue.enqueue(ops::gemm(512, 256, 256)),
              EnqueueOutcome::kAccepted);
    EXPECT_EQ(queue.enqueue(ops::gemm(256, 512, 256)),
              EnqueueOutcome::kFull);

    // stop() drops the queued-but-unstarted workload and joins.
    queue.stop();
    EXPECT_EQ(queue.enqueue(ops::gemm(1024, 256, 256)),
              EnqueueOutcome::kStopped);
    auto stats = queue.stats();
    EXPECT_EQ(stats.deduplicated, 1);
    EXPECT_EQ(stats.rejected_full, 1);
}

TEST(TuneQueueTest, PersistFailureIsCountedAndRetried)
{
    // A failed append must be counted (not silently dropped), the
    // record still served, and the store's recovery probe must
    // flush it once IO heals.
    auto spec = hw::DlaSpec::v100();
    std::string dir = fresh_store_dir("persist_retry");
    DurableStoreConfig store_config;
    store_config.dir = dir;
    store_config.retry_backoff_ms = 0.0; // probe on every tick
    DurableStore store(store_config);
    ASSERT_TRUE(store.open());

    KernelRegistry registry(spec);
    TuneQueueConfig config;
    config.tune = tiny_tune_config();
    config.store = &store;
    TuneQueue queue(registry, config);
    queue.start();
    auto workload = ops::gemm(256, 256, 256);
    struct FaultGuard {
        ~FaultGuard() { fsfault::disarm(); }
    } fault_guard;
    fsfault::arm("store.append", {0, -1});
    ASSERT_EQ(queue.enqueue(workload), EnqueueOutcome::kAccepted);
    queue.drain();
    auto stats = queue.stats();
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.persist_failures, 1);
    EXPECT_FALSE(store.healthy());
    EXPECT_EQ(registry.lookup(workload).tier, LookupTier::kExact);

    // IO heals: the next probe flushes the stashed record durably.
    fsfault::disarm();
    store.tick(std::chrono::steady_clock::now());
    EXPECT_TRUE(store.healthy());
    EXPECT_EQ(store.stats().unflushed, 0);
    queue.stop();
    store.close();

    DurableStore reopened(store_config);
    ASSERT_TRUE(reopened.open());
    KernelRegistry restored(spec);
    StoreLoadStats load_stats;
    EXPECT_EQ(restored.load_records(reopened.records(), &load_stats),
              1);
    EXPECT_EQ(restored.lookup(workload).tier, LookupTier::kExact);
    reopened.close();
    std::filesystem::remove_all(dir);
}

TEST(ServeConcurrency, HotSwapPutRacesDrainWithoutLoss)
{
    // A client thread hot-swaps records for the same workload the
    // background tuner is completing: neither side may deadlock,
    // and the hot-swap invariant (fastest record wins) must hold
    // whichever insert lands last.
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    TuneQueueConfig config;
    config.tune = tiny_tune_config();
    TuneQueue queue(registry, config);
    queue.start();

    auto workload = ops::gemm(256, 256, 256);
    ASSERT_EQ(queue.enqueue(workload), EnqueueOutcome::kAccepted);

    std::thread putter([&] {
        // Implausibly fast records, so the tuner's measured insert
        // can never legitimately replace them.
        for (int i = 0; i < 50; ++i)
            registry.put(workload, solved_record(spec, workload,
                                                 1e9 + i, 13 + i));
    });
    queue.drain();
    putter.join();

    auto result = registry.lookup(workload);
    EXPECT_EQ(result.tier, LookupTier::kExact);
    ASSERT_TRUE(result.record.has_value());
    EXPECT_GE(result.record->gflops, 1e9);
    EXPECT_EQ(queue.stats().completed, 1);
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

TEST(Protocol, ParsesLookupAndControlRequests)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    auto lookup = parse_request(
        R"({"id":7,"op":"gemm","shape":[512,256,128]})", spec,
        &error);
    ASSERT_TRUE(lookup.has_value()) << error;
    EXPECT_EQ(lookup->kind, Request::Kind::kLookup);
    EXPECT_EQ(lookup->id, 7);
    EXPECT_EQ(lookup->workload.kind, ops::OpKind::kGemm);
    EXPECT_EQ(lookup->workload.params,
              (std::vector<int64_t>{512, 256, 128}));
    // TensorCore default dtype.
    EXPECT_EQ(lookup->workload.dtype, ir::DataType::kFloat16);

    auto stats =
        parse_request(R"({"id":9,"cmd":"stats"})", spec, &error);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->kind, Request::Kind::kStats);

    auto shutdown = parse_request(R"({"id":2,"cmd":"shutdown"})",
                                  spec, &error);
    ASSERT_TRUE(shutdown.has_value());
    EXPECT_EQ(shutdown->kind, Request::Kind::kShutdown);
}

TEST(Protocol, ParsesAndValidatesDeadline)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    auto request = parse_request(
        R"({"id":1,"op":"gemm","shape":[64,64,64],)"
        R"("deadline_ms":12.5})",
        spec, &error);
    ASSERT_TRUE(request.has_value()) << error;
    EXPECT_DOUBLE_EQ(request->deadline_ms, 12.5);

    // Absent = unlimited.
    auto unlimited = parse_request(
        R"({"id":1,"op":"gemm","shape":[64,64,64]})", spec,
        &error);
    ASSERT_TRUE(unlimited.has_value());
    EXPECT_EQ(unlimited->deadline_ms, 0.0);

    EXPECT_FALSE(parse_request(
        R"({"id":1,"op":"gemm","shape":[64,64,64],)"
        R"("deadline_ms":-3})",
        spec, &error));
    EXPECT_NE(error.find("deadline_ms"), std::string::npos);
}

TEST(Protocol, RejectsMalformedRequests)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    EXPECT_FALSE(parse_request("not json", spec, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parse_request(
        R"({"id":1,"op":"frobnicate","shape":[1]})", spec, &error));
    // GEMM takes exactly M, N, K.
    EXPECT_FALSE(parse_request(
        R"({"id":1,"op":"gemm","shape":[512,512]})", spec, &error));
}

TEST(Protocol, FormatsResponses)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    LookupResult miss;
    miss.tier = LookupTier::kMiss;
    miss.key = make_key(ops::gemm(512, 512, 512), spec);
    std::string line = format_lookup_response(3, miss);
    EXPECT_NE(line.find("\"id\":3"), std::string::npos);
    EXPECT_NE(line.find("\"tier\":\"miss\""), std::string::npos);
    EXPECT_NE(line.find(miss.key.canonical()), std::string::npos);

    std::string stats = format_stats_response(4, registry, nullptr);
    EXPECT_NE(stats.find("\"tiers\""), std::string::npos);
    EXPECT_NE(stats.find("\"fallback_transferred\""),
              std::string::npos);

    std::string error = format_error_response(5, "bad \"quote\"");
    EXPECT_NE(error.find("\"error\""), std::string::npos);
}

TEST(Protocol, StatsQueueCountsUntunableOnce)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    TuneQueue queue(registry);
    std::string stats = format_stats_response(6, registry, &queue);
    size_t begin = stats.find("\"queue\":{");
    ASSERT_NE(begin, std::string::npos);
    std::string object =
        stats.substr(begin, stats.find('}', begin) - begin + 1);
    EXPECT_NE(object.find("\"untunable\":0"), std::string::npos)
        << object;
    EXPECT_EQ(object.find("\"failed\""), std::string::npos) << object;
}

} // namespace
} // namespace heron::serve
