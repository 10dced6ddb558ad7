/**
 * @file
 * Crash-safety tests for the WAL-backed durable store: append/replay
 * round trips, segment rotation + compaction, torn-tail truncation,
 * corruption quarantine with salvage, an exhaustive bit-flip /
 * truncation fuzz over every byte offset, ENOSPC fault injection
 * driving the degraded-mode circuit breaker, degraded tune-queue
 * admission, and a fork+SIGKILL recovery harness asserting that an
 * acknowledged append is never lost. StoreWalConcurrency also runs
 * under the tsan preset; the SIGKILL test is skipped there (fork
 * from an instrumented multi-threaded binary is not supported).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "csp/solver.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/store_wal.h"
#include "serve/tune_queue.h"
#include "serve/workload_key.h"
#include "support/fs_util.h"

namespace heron::serve {
namespace {

using Clock = std::chrono::steady_clock;

/** Fresh private directory under the gtest temp root. */
std::string
fresh_dir(const char *tag)
{
    std::string tmpl =
        ::testing::TempDir() + "heron_wal_" + tag + "_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr) << tmpl;
    return tmpl;
}

std::vector<std::string>
list_dir(const std::string &dir)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return names;
    while (dirent *ent = ::readdir(d)) {
        if (std::strcmp(ent->d_name, ".") &&
            std::strcmp(ent->d_name, ".."))
            names.emplace_back(ent->d_name);
    }
    ::closedir(d);
    return names;
}

void
remove_tree(const std::string &dir)
{
    for (const auto &name : list_dir(dir))
        ::unlink((dir + "/" + name).c_str());
    ::rmdir(dir.c_str());
}

std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
write_file(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/** Store-only record: no solver assignment needed to persist. */
autotune::TuningRecord
wal_record(const std::string &workload, double gflops)
{
    autotune::TuningRecord record;
    record.workload = workload;
    record.dla = "test-dla";
    record.tuner = "test";
    record.category = "serve";
    record.latency_ms = 1.0;
    record.gflops = gflops;
    return record;
}

/** workload -> gflops view of DurableStore::records(). */
std::map<std::string, double>
held(const DurableStore &store)
{
    std::map<std::string, double> out;
    for (const auto &rec : store.records())
        out[rec.workload] = rec.gflops;
    return out;
}

/** Disarms fault injection on scope exit (test isolation). */
struct FaultGuard {
    ~FaultGuard() { fsfault::disarm(); }
};

// ---------------------------------------------------------------
// Append / replay round trips
// ---------------------------------------------------------------

TEST(StoreWal, AppendReopenRoundTrips)
{
    std::string dir = fresh_dir("roundtrip");
    DurableStoreConfig config;
    config.dir = dir;
    {
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        for (int i = 0; i < 20; ++i)
            ASSERT_TRUE(store.append(
                wal_record("wl" + std::to_string(i), 10.0 + i)));
        auto stats = store.stats();
        EXPECT_EQ(stats.appends, 20);
        EXPECT_EQ(stats.records, 20);
        EXPECT_EQ(stats.state, StoreState::kHealthy);
        store.close();
    }
    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    auto view = held(reopened);
    ASSERT_EQ(view.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(view.at("wl" + std::to_string(i)),
                         10.0 + i);
    auto stats = reopened.stats();
    EXPECT_EQ(stats.replayed, 20);
    EXPECT_EQ(stats.quarantined, 0);
    EXPECT_EQ(stats.torn_tails, 0);
    remove_tree(dir);
}

TEST(StoreWal, KeepsHigherGflopsPerWorkload)
{
    std::string dir = fresh_dir("dedup");
    DurableStoreConfig config;
    config.dir = dir;
    {
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        ASSERT_TRUE(store.append(wal_record("a", 5.0)));
        ASSERT_TRUE(store.append(wal_record("a", 9.0)));
        ASSERT_TRUE(store.append(wal_record("b", 9.0)));
        ASSERT_TRUE(store.append(wal_record("b", 5.0)));
        auto view = held(store);
        EXPECT_DOUBLE_EQ(view.at("a"), 9.0);
        EXPECT_DOUBLE_EQ(view.at("b"), 9.0);
        store.close();
    }
    // The lower-gflops duplicates are still in the log; replay must
    // fold them the same way.
    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    auto view = held(reopened);
    ASSERT_EQ(view.size(), 2u);
    EXPECT_DOUBLE_EQ(view.at("a"), 9.0);
    EXPECT_DOUBLE_EQ(view.at("b"), 9.0);
    remove_tree(dir);
}

TEST(StoreWal, RotationAndCompactionFoldSegments)
{
    std::string dir = fresh_dir("compact");
    DurableStoreConfig config;
    config.dir = dir;
    config.segment_max_bytes = 256; // force frequent rotation
    config.compact_min_segments = 0; // manual compaction only
    DurableStore store(config);
    ASSERT_TRUE(store.open());
    for (int i = 0; i < 30; ++i)
        ASSERT_TRUE(store.append(
            wal_record("wl" + std::to_string(i), 1.0 + i)));
    auto before = store.stats();
    EXPECT_GT(before.rotations, 0);
    EXPECT_GT(before.live_segments, 0);

    ASSERT_TRUE(store.compact_now());
    auto after = store.stats();
    EXPECT_EQ(after.compactions, before.compactions + 1);
    EXPECT_EQ(after.live_segments, 0);

    // Sealed segments are deleted; one snapshot + manifest + the
    // active segment remain.
    int snapshots = 0, segments = 0, manifests = 0;
    for (const auto &name : list_dir(dir)) {
        snapshots += name.rfind("snapshot-", 0) == 0;
        segments += name.rfind("seg-", 0) == 0;
        manifests += name == "MANIFEST";
    }
    EXPECT_EQ(manifests, 1);
    EXPECT_EQ(snapshots, 1);
    EXPECT_EQ(segments, 1);
    store.close();

    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(held(reopened).size(), 30u);
    remove_tree(dir);
}

// ---------------------------------------------------------------
// Torn tails and corruption quarantine
// ---------------------------------------------------------------

/** Newest seg-*.wal in @p dir (the crashed process's active one). */
std::string
newest_segment(const std::string &dir)
{
    // Zero-padded ids make lexicographic max the newest segment.
    std::string best;
    for (const auto &name : list_dir(dir))
        if (name.rfind("seg-", 0) == 0 && name > best)
            best = name;
    return best.empty() ? best : dir + "/" + best;
}

TEST(StoreWal, TornTailTruncatedOnReplay)
{
    std::string dir = fresh_dir("torn");
    DurableStoreConfig config;
    config.dir = dir;
    {
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(store.append(
                wal_record("wl" + std::to_string(i), 1.0 + i)));
        store.close();
    }
    // Simulate a crash mid-append: an unterminated half record at
    // the segment tail.
    std::string seg = newest_segment(dir);
    ASSERT_FALSE(seg.empty());
    std::string bytes = read_file(seg);
    ASSERT_FALSE(bytes.empty());
    write_file(seg, bytes + "{\"crc\":\"deadbeef\",\"r\":{\"work");

    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    auto stats = reopened.stats();
    EXPECT_EQ(held(reopened).size(), 3u);
    EXPECT_GE(stats.torn_tails, 1);
    // A clean truncation is not corruption: nothing is quarantined.
    EXPECT_EQ(stats.quarantined, 0);
    remove_tree(dir);
}

TEST(StoreWal, CorruptSegmentQuarantinedWithSalvage)
{
    std::string dir = fresh_dir("quarantine");
    DurableStoreConfig config;
    config.dir = dir;
    {
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(store.append(
                wal_record("wl" + std::to_string(i), 1.0 + i)));
        store.close();
    }
    std::string seg = newest_segment(dir);
    std::string bytes = read_file(seg);
    // Flip one byte in the middle of the file: at least one framed
    // line fails its CRC, the rest salvage.
    bytes[bytes.size() / 2] ^= 0x20;
    write_file(seg, bytes);

    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    auto stats = reopened.stats();
    EXPECT_EQ(stats.quarantined, 1);
    EXPECT_GE(stats.salvaged, 1);
    auto view = held(reopened);
    EXPECT_GE(view.size(), 3u);
    EXPECT_LE(view.size(), 5u);
    for (const auto &[workload, gflops] : view) {
        int i = std::stoi(workload.substr(2));
        EXPECT_DOUBLE_EQ(gflops, 1.0 + i);
    }
    // The damaged file is renamed aside for post-mortem, and the
    // salvage is re-persisted so a second crash cannot lose it.
    bool quarantined_file = false;
    for (const auto &name : list_dir(dir))
        quarantined_file |=
            name.find(".quarantined") != std::string::npos;
    EXPECT_TRUE(quarantined_file);
    reopened.close();

    DurableStore third(config);
    ASSERT_TRUE(third.open());
    EXPECT_EQ(held(third), view);
    EXPECT_EQ(third.stats().quarantined, 0);
    remove_tree(dir);
}

TEST(StoreWal, CorruptManifestIsNotFatal)
{
    std::string dir = fresh_dir("manifest");
    DurableStoreConfig config;
    config.dir = dir;
    {
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(store.append(
                wal_record("wl" + std::to_string(i), 1.0 + i)));
        ASSERT_TRUE(store.compact_now());
        store.close();
    }
    write_file(dir + "/MANIFEST", "not json at all\n");
    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    // Full-scan fallback still finds the snapshot and segments.
    EXPECT_EQ(held(reopened).size(), 4u);
    remove_tree(dir);
}

TEST(StoreWal, WholeFileStoreReplaysAsSnapshot)
{
    // Upgrade path from a single-file store: a file written by
    // autotune::write_records and copied in as the only snapshot,
    // with no MANIFEST, replays as the store's contents, and every
    // record serves on the exact tier.
    auto spec = hw::DlaSpec::v100();
    std::vector<ops::Workload> workloads = {
        ops::gemm(512, 512, 512), ops::gemm(256, 256, 256),
        ops::gemm(128, 512, 256)};
    std::vector<autotune::TuningRecord> records;
    {
        KernelRegistry source(spec);
        rules::SpaceGenerator generator(spec,
                                        rules::Options::heron());
        for (const auto &workload : workloads) {
            auto space = generator.generate(workload);
            csp::RandSatSolver solver(space.csp);
            Rng rng(7);
            auto assignment = solver.solve_one(rng);
            ASSERT_TRUE(assignment.has_value());
            autotune::TuningRecord record;
            record.tuner = "test";
            record.latency_ms = 1.0;
            record.gflops = 100.0;
            record.assignment = *assignment;
            ASSERT_TRUE(source.put(workload, record));
            records.push_back(
                *source.peek(make_key(workload, spec)));
        }
    }
    std::sort(records.begin(), records.end(),
              [](const autotune::TuningRecord &a,
                 const autotune::TuningRecord &b) {
                  return a.workload < b.workload;
              });
    for (size_t i = 0; i < records.size(); ++i)
        records[i].seq = static_cast<int64_t>(i) + 1;

    std::string dir = fresh_dir("upgrade");
    write_file(dir + "/snapshot-000001.jsonl",
               autotune::write_records(records));
    DurableStoreConfig config;
    config.dir = dir;
    DurableStore store(config);
    ASSERT_TRUE(store.open());
    auto stats = store.stats();
    EXPECT_EQ(stats.replayed, static_cast<int64_t>(records.size()));
    EXPECT_EQ(stats.quarantined, 0);

    KernelRegistry registry(spec);
    StoreLoadStats load_stats;
    EXPECT_EQ(registry.load_records(store.records(), &load_stats),
              static_cast<int64_t>(records.size()));
    for (const auto &workload : workloads) {
        auto result = registry.lookup(workload);
        EXPECT_EQ(result.tier, LookupTier::kExact)
            << workload.name;
    }
    store.close();
    remove_tree(dir);
}

// ---------------------------------------------------------------
// Exhaustive corruption fuzz (satellite: load must never crash)
// ---------------------------------------------------------------

TEST(StoreWalFuzz, BitFlipsAndTruncationsAtEveryOffset)
{
    // Build one pristine segment, then replay a damaged copy for a
    // bit flip at every byte offset and a truncation at every
    // length. Whatever the damage: open() must succeed, every
    // surviving record must be byte-exact (CRC admits no mutants),
    // and flagged corruption must quarantine the file.
    std::string pristine_dir = fresh_dir("fuzz_pristine");
    DurableStoreConfig config;
    config.dir = pristine_dir;
    std::map<std::string, double> pristine;
    {
        DurableStore store(config);
        ASSERT_TRUE(store.open());
        for (int i = 0; i < 4; ++i) {
            auto rec = wal_record("wl" + std::to_string(i),
                                  1.0 + i);
            ASSERT_TRUE(store.append(rec));
            pristine[rec.workload] = rec.gflops;
        }
        store.close();
    }
    std::string seg_path = newest_segment(pristine_dir);
    std::string seg_name =
        seg_path.substr(seg_path.rfind('/') + 1);
    std::string pristine_bytes = read_file(seg_path);
    ASSERT_GT(pristine_bytes.size(), 0u);

    auto check_damaged = [&](const std::string &damaged,
                             const std::string &tag) {
        std::string dir = fresh_dir("fuzz_case");
        write_file(dir + "/" + seg_name, damaged);
        DurableStoreConfig c;
        c.dir = dir;
        c.compact_min_segments = 0;
        DurableStore store(c);
        ASSERT_TRUE(store.open()) << tag;
        auto view = held(store);
        EXPECT_LE(view.size(), pristine.size()) << tag;
        for (const auto &[workload, gflops] : view) {
            auto it = pristine.find(workload);
            ASSERT_NE(it, pristine.end()) << tag;
            EXPECT_DOUBLE_EQ(gflops, it->second) << tag;
        }
        store.close();
        remove_tree(dir);
    };

    for (size_t off = 0; off < pristine_bytes.size(); ++off) {
        std::string flipped = pristine_bytes;
        flipped[off] ^= 0x08;
        check_damaged(flipped,
                      "bitflip@" + std::to_string(off));
    }
    for (size_t len = 0; len < pristine_bytes.size(); ++len)
        check_damaged(pristine_bytes.substr(0, len),
                      "truncate@" + std::to_string(len));
    remove_tree(pristine_dir);
}

// ---------------------------------------------------------------
// Fault injection: degraded circuit breaker + auto-recovery
// ---------------------------------------------------------------

TEST(StoreWal, FaultedAppendDegradesAndProbeRecovers)
{
    FaultGuard guard;
    std::string dir = fresh_dir("degraded");
    DurableStoreConfig config;
    config.dir = dir;
    config.retry_backoff_ms = 0.0; // probe on every tick
    DurableStore store(config);
    ASSERT_TRUE(store.open());
    ASSERT_TRUE(store.append(wal_record("ok", 1.0)));

    fsfault::arm("store.append", {0, -1});
    EXPECT_FALSE(store.append(wal_record("stash_a", 2.0)));
    EXPECT_FALSE(store.append(wal_record("stash_b", 3.0)));
    auto stats = store.stats();
    EXPECT_EQ(stats.state, StoreState::kDegraded);
    EXPECT_FALSE(store.healthy());
    EXPECT_GE(stats.append_failures, 2);
    EXPECT_EQ(stats.degraded_entries, 1);
    EXPECT_EQ(stats.unflushed, 2);
    // Stashed records are still served from memory meanwhile.
    EXPECT_EQ(held(store).size(), 3u);

    // Persist path still failing: the probe must not lie.
    store.tick(Clock::now());
    EXPECT_FALSE(store.healthy());

    fsfault::disarm();
    store.tick(Clock::now());
    stats = store.stats();
    EXPECT_EQ(stats.state, StoreState::kHealthy);
    EXPECT_EQ(stats.recoveries, 1);
    EXPECT_EQ(stats.unflushed, 0);
    store.close();

    // The stash was flushed durably: a restart still has it.
    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    auto view = held(reopened);
    ASSERT_EQ(view.size(), 3u);
    EXPECT_DOUBLE_EQ(view.at("stash_a"), 2.0);
    EXPECT_DOUBLE_EQ(view.at("stash_b"), 3.0);
    remove_tree(dir);
}

TEST(StoreWal, CompactionWhileDegradedRecoversImmediately)
{
    FaultGuard guard;
    std::string dir = fresh_dir("compact_recover");
    DurableStoreConfig config;
    config.dir = dir;
    config.retry_backoff_ms = 1e9; // probes never fire on their own
    DurableStore store(config);
    ASSERT_TRUE(store.open());
    fsfault::arm("store.append", {0, -1});
    EXPECT_FALSE(store.append(wal_record("stash", 2.0)));
    EXPECT_FALSE(store.healthy());

    // Appends still fail, but compaction goes through the atomic
    // snapshot path — which persists the stash and ends the outage.
    ASSERT_TRUE(store.compact_now());
    EXPECT_TRUE(store.healthy());
    EXPECT_EQ(store.stats().unflushed, 0);
    store.close();

    fsfault::disarm();
    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    EXPECT_DOUBLE_EQ(held(reopened).at("stash"), 2.0);
    remove_tree(dir);
}

TEST(StoreWal, OpenFailureReportsError)
{
    FaultGuard guard;
    std::string dir = fresh_dir("openfail");
    fsfault::arm("store.open", {0, 1});
    DurableStoreConfig config;
    config.dir = dir;
    DurableStore store(config);
    std::string error;
    EXPECT_FALSE(store.open(&error));
    EXPECT_FALSE(error.empty());
    remove_tree(dir);
}

TEST(FsFault, EnvParsingAndPlanSemantics)
{
    FaultGuard guard;
    ASSERT_EQ(::setenv("HERON_FS_FAULT",
                       "store.append:skip=1,fail=2", 1),
              0);
    EXPECT_EQ(fsfault::arm_from_env(), 1);
    ::unsetenv("HERON_FS_FAULT");

    errno = 0;
    EXPECT_FALSE(fsfault::injected("store.append")); // skipped
    EXPECT_TRUE(fsfault::injected("store.append"));
    EXPECT_EQ(errno, ENOSPC);
    EXPECT_TRUE(fsfault::injected("store.append"));
    // Plan exhausted: the site works again (auto-recovery relies
    // on this).
    EXPECT_FALSE(fsfault::injected("store.append"));
    EXPECT_EQ(fsfault::injection_count(), 2);
    // Unrelated sites are never touched.
    EXPECT_FALSE(fsfault::injected("atomic.write"));
}

TEST(FsFault, CapabilitiesReportPosixBackend)
{
    const auto &caps = fs_capabilities();
    EXPECT_STREQ(caps.backend, "posix");
    EXPECT_TRUE(caps.atomic_rename);
    EXPECT_TRUE(caps.directory_fsync);
}

// ---------------------------------------------------------------
// Degraded-mode serving integration
// ---------------------------------------------------------------

TEST(StoreWal, DegradedStoreRejectsTuneIntake)
{
    FaultGuard guard;
    std::string dir = fresh_dir("queue");
    DurableStoreConfig store_config;
    store_config.dir = dir;
    store_config.retry_backoff_ms = 0.0;
    DurableStore store(store_config);
    ASSERT_TRUE(store.open());

    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec);
    TuneQueueConfig config;
    config.store = &store;
    TuneQueue queue(registry, config);
    queue.start();

    fsfault::arm("store.append", {0, -1});
    EXPECT_FALSE(store.append(wal_record("trip", 1.0)));
    ASSERT_FALSE(store.healthy());
    EXPECT_EQ(queue.enqueue(ops::gemm(256, 256, 256)),
              EnqueueOutcome::kDegraded);
    EXPECT_EQ(queue.stats().rejected_degraded, 1);

    // Admission itself probes the store; once IO heals, the same
    // enqueue is accepted without waiting for a server tick.
    fsfault::disarm();
    EXPECT_EQ(queue.enqueue(ops::gemm(256, 256, 256)),
              EnqueueOutcome::kAccepted);
    EXPECT_TRUE(store.healthy());
    queue.stop();
    store.close();
    remove_tree(dir);
}

TEST(StoreWal, HealthResponseReflectsState)
{
    FaultGuard guard;
    EXPECT_NE(format_health_response(7, nullptr)
                  .find("\"status\":\"ok\",\"store\":null"),
              std::string::npos);

    std::string dir = fresh_dir("health");
    DurableStoreConfig config;
    config.dir = dir;
    config.retry_backoff_ms = 1e9;
    DurableStore store(config);
    ASSERT_TRUE(store.open());
    std::string healthy = format_health_response(8, &store);
    EXPECT_NE(healthy.find("\"status\":\"ok\""),
              std::string::npos);
    EXPECT_NE(healthy.find("\"state\":\"healthy\""),
              std::string::npos);

    fsfault::arm("store.append", {0, -1});
    store.append(wal_record("x", 1.0));
    std::string degraded = format_health_response(9, &store);
    EXPECT_NE(degraded.find("\"status\":\"degraded\""),
              std::string::npos);
    EXPECT_NE(degraded.find("\"unflushed\":1"),
              std::string::npos);
    store.close();
    remove_tree(dir);
}

// ---------------------------------------------------------------
// Concurrency (runs under the tsan preset)
// ---------------------------------------------------------------

TEST(StoreWalConcurrency, ParallelAppendsRaceCompaction)
{
    std::string dir = fresh_dir("conc");
    DurableStoreConfig config;
    config.dir = dir;
    config.segment_max_bytes = 512;
    config.compact_min_segments = 2; // background compactor active
    config.fsync_data = false;       // IO latency isn't the subject
    DurableStore store(config);
    ASSERT_TRUE(store.open());

    constexpr int kThreads = 4, kPerThread = 50;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                EXPECT_TRUE(store.append(wal_record(
                    "t" + std::to_string(t) + "_" +
                        std::to_string(i),
                    1.0 + i)));
        });
    for (int i = 0; i < 5; ++i)
        store.compact_now();
    for (auto &w : writers)
        w.join();
    ASSERT_TRUE(store.compact_now());
    EXPECT_EQ(store.stats().appends, kThreads * kPerThread);
    EXPECT_EQ(held(store).size(),
              static_cast<size_t>(kThreads * kPerThread));
    store.close();

    DurableStore reopened(config);
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(held(reopened).size(),
              static_cast<size_t>(kThreads * kPerThread));
    remove_tree(dir);
}

// ---------------------------------------------------------------
// kill -9 recovery harness
// ---------------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define HERON_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HERON_TSAN 1
#endif
#endif

TEST(StoreWalCrash, SigkillNeverLosesAcknowledgedRecords)
{
#ifdef HERON_TSAN
    GTEST_SKIP() << "fork-based harness is not tsan-safe";
#else
    // A child process appends records and acknowledges each one
    // over a pipe only AFTER append() returned true. The parent
    // SIGKILLs it at an arbitrary point, reopens the same store
    // directory, and asserts every acknowledged record survived —
    // the WAL's core contract. Several iterations reuse the dir so
    // recovery also runs against rotated/compacted state.
    std::string dir = fresh_dir("sigkill");
    DurableStoreConfig config;
    config.dir = dir;
    config.segment_max_bytes = 512; // rotate often mid-run
    config.compact_min_segments = 2;

    std::set<std::string> acked;
    for (int iter = 0; iter < 6; ++iter) {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: append + ack until killed.
            ::close(fds[0]);
            DurableStore store(config);
            if (!store.open())
                ::_exit(3);
            for (int i = 0;; ++i) {
                std::string name = "it" + std::to_string(iter) +
                                   "_" + std::to_string(i);
                if (!store.append(wal_record(name, 1.0 + i)))
                    ::_exit(4);
                std::string line = name + "\n";
                if (::write(fds[1], line.data(), line.size()) !=
                    static_cast<ssize_t>(line.size()))
                    ::_exit(0); // parent went away
            }
        }
        ::close(fds[1]);
        // Collect acks until the child has done enough work, with
        // jitter so the kill lands at varying WAL positions.
        std::string buf;
        char chunk[256];
        size_t want = 10 + static_cast<size_t>(iter) * 7;
        while (true) {
            ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<size_t>(n));
            if (static_cast<size_t>(std::count(buf.begin(),
                                               buf.end(), '\n')) >=
                want)
                break;
        }
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        ASSERT_TRUE(WIFSIGNALED(status))
            << "child exited " << WEXITSTATUS(status)
            << " instead of being killed";
        // Drain acks that were in flight when the kill landed.
        while (true) {
            ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<size_t>(n));
        }
        ::close(fds[0]);
        std::istringstream lines(buf);
        std::string name;
        while (std::getline(lines, name))
            if (!name.empty())
                acked.insert(name);
        ASSERT_GE(acked.size(), want);

        // Recovery: every acknowledged record must be present.
        DurableStore store(config);
        ASSERT_TRUE(store.open()) << "iteration " << iter;
        auto view = held(store);
        for (const auto &a : acked)
            EXPECT_TRUE(view.count(a))
                << "acked record " << a
                << " lost after SIGKILL (iteration " << iter
                << ")";
        EXPECT_EQ(store.stats().quarantined, 0);
        store.close();
    }
    remove_tree(dir);
#endif
}

} // namespace
} // namespace heron::serve
