/**
 * @file
 * Graph-serving tests: the whole-network request path (parse →
 * dedupe → per-layer resolution → payoff-ordered tune scheduling →
 * one-library emission). Covers the protocol round-trip, the
 * dedupe arithmetic, the payoff-ordering property (the tune plan is
 * NOT FIFO), resolution under concurrent put() hot-swaps (run under
 * tsan via scripts/verify.sh), and the library dedup/alias/dispatch
 * contracts of emit_network.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "autotune/library.h"
#include "csp/solver.h"
#include "serve/graph.h"
#include "serve/graph_schedule.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/tune_queue.h"
#include "serve/workload_key.h"

namespace heron::serve {
namespace {

/** A valid (solver-produced, unmeasured) record for @p workload. */
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

// ---------------------------------------------------------------
// Protocol: graph request parsing and response formatting
// ---------------------------------------------------------------

TEST(GraphProtocol, ParsesNamedNetwork)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    auto request = parse_request(
        R"({"id":7,"cmd":"graph","network":"resnet50","batch":8})",
        spec, &error);
    ASSERT_TRUE(request.has_value()) << error;
    EXPECT_EQ(request->kind, Request::Kind::kGraph);
    EXPECT_EQ(request->id, 7);
    EXPECT_EQ(request->network.layers.size(),
              ops::resnet50(8).layers.size());
    EXPECT_FALSE(request->graph_inline);
}

TEST(GraphProtocol, NamedNetworkUsesTheDlaDefaultDtype)
{
    // int8 DLAs build named networks in int8, the same default a
    // lookup or an explicit layer without "dtype" gets.
    auto spec = hw::DlaSpec::dlboost();
    std::string error;
    auto request = parse_request(
        R"({"id":7,"cmd":"graph","network":"resnet50","batch":1})",
        spec, &error);
    ASSERT_TRUE(request.has_value()) << error;
    ASSERT_FALSE(request->network.layers.empty());
    for (const auto &layer : request->network.layers) {
        EXPECT_EQ(layer.workload.dtype, ir::DataType::kInt8);
        EXPECT_NE(make_key(layer.workload, spec).canonical().find(
                      "/int8@"),
                  std::string::npos);
    }

    auto v100 = parse_request(
        R"({"id":7,"cmd":"graph","network":"resnet50","batch":1})",
        hw::DlaSpec::v100(), &error);
    ASSERT_TRUE(v100.has_value()) << error;
    for (const auto &layer : v100->network.layers)
        EXPECT_EQ(layer.workload.dtype, ir::DataType::kFloat16);
}

TEST(GraphProtocol, ParsesExplicitLayersWithCounts)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    auto request = parse_request(
        R"({"id":1,"cmd":"graph","name":"tiny","layers":[)"
        R"({"op":"c2d","shape":[16,64,56,56,64,3,3,1,1],"count":3},)"
        R"({"op":"gemm","shape":[16,1000,2048]}],"emit":"inline"})",
        spec, &error);
    ASSERT_TRUE(request.has_value()) << error;
    EXPECT_EQ(request->kind, Request::Kind::kGraph);
    EXPECT_EQ(request->network.name, "tiny");
    ASSERT_EQ(request->network.layers.size(), 2u);
    EXPECT_EQ(request->network.layers[0].count, 3);
    EXPECT_EQ(request->network.layers[1].count, 1);
    EXPECT_TRUE(request->graph_inline);
}

TEST(GraphProtocol, RejectsMalformedGraphRequests)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    // Unknown named network.
    EXPECT_FALSE(parse_request(
        R"({"id":1,"cmd":"graph","network":"nonesuch"})", spec,
        &error));
    // Empty layer list.
    EXPECT_FALSE(parse_request(
        R"({"id":1,"cmd":"graph","layers":[]})", spec, &error));
    // graph_status without a graph id.
    EXPECT_FALSE(parse_request(R"({"id":1,"cmd":"graph_status"})",
                               spec, &error));
}

TEST(GraphProtocol, StatusRoundTripAndResponseShape)
{
    auto spec = hw::DlaSpec::v100();
    std::string error;
    auto status = parse_request(
        R"({"id":2,"cmd":"graph_status","graph":41})", spec,
        &error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_EQ(status->kind, Request::Kind::kGraphStatus);
    EXPECT_EQ(status->graph_id, 41);

    GraphResult result;
    result.id = 41;
    result.name = "tiny";
    result.layers = 2;
    result.instances = 4;
    result.deduped = 2;
    result.miss = 2;
    result.coverage = 0.5;
    std::string line = format_graph_response(2, result);
    EXPECT_NE(line.find("\"graph\":41"), std::string::npos);
    EXPECT_NE(line.find("\"deduped\":2"), std::string::npos);
    EXPECT_NE(line.find("\"converged\":false"), std::string::npos);
    EXPECT_NE(line.find("\"library\":null"), std::string::npos);
    // One NDJSON line, whatever rides in it.
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

// ---------------------------------------------------------------
// Payoff-ordered scheduling (the plan is NOT FIFO)
// ---------------------------------------------------------------

GraphLayer
miss_layer(const hw::DlaSpec &spec, ops::Workload workload,
           int64_t count)
{
    GraphLayer layer;
    layer.key = make_key(workload, spec);
    layer.workload = std::move(workload);
    layer.count = count;
    layer.tier = LookupTier::kMiss;
    return layer;
}

TEST(GraphSchedule, PlanOrdersByPayoffNotArrival)
{
    auto spec = hw::DlaSpec::v100();
    // Arrival order: cold small, cold large, hot medium. FIFO would
    // tune the small layer first; payoff order must not.
    std::vector<GraphLayer> layers;
    layers.push_back(miss_layer(spec, ops::gemm(128, 128, 128), 1));
    layers.push_back(
        miss_layer(spec, ops::gemm(1024, 1024, 1024), 1));
    layers.push_back(miss_layer(spec, ops::gemm(512, 512, 512), 9));

    auto plan = GraphTuneScheduler::plan(layers, 16);
    ASSERT_EQ(plan.size(), 3u);
    // count x FLOPs: 9x512^3 > 1x1024^3 (= 8x512^3) > 1x128^3.
    EXPECT_EQ(plan[0].layer, 2u);
    EXPECT_EQ(plan[1].layer, 1u);
    EXPECT_EQ(plan[2].layer, 0u);
    EXPECT_GT(plan[0].payoff, plan[1].payoff);
    EXPECT_GT(plan[1].payoff, plan[2].payoff);
}

TEST(GraphSchedule, ExactLayersNeverScheduleAndBudgetCaps)
{
    auto spec = hw::DlaSpec::v100();
    std::vector<GraphLayer> layers;
    layers.push_back(miss_layer(spec, ops::gemm(512, 512, 512), 4));
    layers.push_back(miss_layer(spec, ops::gemm(256, 256, 256), 2));
    layers.push_back(miss_layer(spec, ops::gemm(128, 128, 128), 1));
    layers[0].tier = LookupTier::kExact; // already answered
    auto plan = GraphTuneScheduler::plan(layers, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].layer, 1u);
}

TEST(GraphSchedule, NearestTierPayoffSitsBetweenExactAndMiss)
{
    EXPECT_DOUBLE_EQ(tier_gap(LookupTier::kExact, 0.0), 0.0);
    double near = tier_gap(LookupTier::kNearest, 2.0);
    EXPECT_GT(near, 0.0);
    EXPECT_LT(near, 1.0);
    EXPECT_DOUBLE_EQ(tier_gap(LookupTier::kMiss, 0.0), 1.0);
    // Farther donors leave a larger gap (more payoff to tune).
    EXPECT_GT(tier_gap(LookupTier::kNearest, 4.0), near);
}

TEST(GraphSchedule, BudgetSplitsAcrossActiveGraphs)
{
    GraphTuneScheduler scheduler;
    EXPECT_EQ(scheduler.budget_for(64), 64u);
    scheduler.graph_opened();
    scheduler.graph_opened();
    EXPECT_EQ(scheduler.budget_for(64), 32u);
    scheduler.graph_closed();
    EXPECT_EQ(scheduler.budget_for(64), 64u);
    scheduler.graph_closed();
}

/**
 * Run under tsan: graph resolution racing put() hot-swaps. The
 * emitted count re-binds every exact record, so a torn record
 * would show as an exact layer with no kernel.
 */
TEST(GraphServeConcurrency, ResolveDuringHotSwaps)
{
    auto spec = hw::DlaSpec::v100();
    RegistryConfig config;
    config.enable_fallback = false;
    config.shards = 4;
    KernelRegistry registry(spec, config);
    GraphTuneScheduler scheduler;
    GraphService service(registry, scheduler);

    ops::Network net;
    net.name = "hot_swap";
    for (int m = 128; m <= 1024; m *= 2)
        net.layers.push_back({ops::gemm(m, 512, 512), 1});
    const auto queries = static_cast<int64_t>(net.layers.size());
    auto seeded = solved_record(spec, net.layers[0].workload, 10.0);
    ASSERT_TRUE(registry.put(net.layers[0].workload, seeded));

    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
        // Re-put ascending-gflops records: every accepted put
        // rewrites a shard entry under the readers. Fixed
        // round count so every key is published however fast the
        // reader spins.
        for (int round = 0; round < 3; ++round) {
            for (const auto &layer : net.layers) {
                auto record = solved_record(
                    spec, layer.workload, 10.0 + round,
                    static_cast<uint64_t>(round) + 1);
                registry.put(layer.workload, record);
            }
        }
        writer_done.store(true);
    });

    for (int i = 0; i < 50 || !writer_done.load(); ++i) {
        auto result = service.handle_graph(net);
        ASSERT_EQ(result.layers, queries);
        EXPECT_EQ(result.exact + result.miss, queries);
        // A shared-locked probe never yields a torn record.
        EXPECT_EQ(result.emitted, result.exact);
    }
    writer.join();
    // Everything the writer published is eventually visible.
    auto final = service.handle_graph(net);
    EXPECT_EQ(final.exact, queries);
    EXPECT_EQ(final.emitted, queries);
    EXPECT_TRUE(final.converged);
}

// ---------------------------------------------------------------
// GraphService: dedupe, convergence, eviction
// ---------------------------------------------------------------

ops::Network
tiny_network()
{
    ops::Network net;
    net.name = "tiny";
    // Two aliases of one workload (display names differ) plus a
    // distinct one: 2 distinct keys, 5 instances, 3 deduped.
    auto a = ops::gemm(512, 512, 512);
    auto alias = ops::gemm(512, 512, 512);
    alias.name = "gemm_alias";
    net.layers.push_back({a, 2});
    net.layers.push_back({alias, 2});
    net.layers.push_back({ops::gemm(256, 256, 256), 1});
    return net;
}

TEST(GraphService, DedupesByCanonicalKey)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec, {});
    GraphTuneScheduler scheduler;
    GraphService service(registry, scheduler);

    auto result = service.handle_graph(tiny_network());
    EXPECT_EQ(result.layers, 2);
    EXPECT_EQ(result.instances, 5);
    EXPECT_EQ(result.deduped, 3);
    EXPECT_EQ(result.miss, 2);
    EXPECT_FALSE(result.converged);
    ASSERT_EQ(result.layer_status.size(), 2u);
    EXPECT_EQ(result.layer_status[0].count, 4);
    EXPECT_EQ(result.layer_status[1].count, 1);

    auto stats = service.stats();
    EXPECT_EQ(stats.requests, 1);
    EXPECT_EQ(stats.deduped, 3);
    EXPECT_EQ(stats.active, 1);
}

TEST(GraphService, StatusConvergesAsRecordsLand)
{
    auto spec = hw::DlaSpec::v100();
    RegistryConfig config;
    config.enable_fallback = false;
    KernelRegistry registry(spec, config);
    GraphTuneScheduler scheduler;
    GraphService service(registry, scheduler);

    auto net = tiny_network();
    auto first = service.handle_graph(net);
    EXPECT_EQ(first.exact, 0);
    EXPECT_DOUBLE_EQ(first.coverage, 0.0);

    // Background "tunes" land: the hot layer first.
    auto hot = ops::gemm(512, 512, 512);
    ASSERT_TRUE(registry.put(hot, solved_record(spec, hot, 90.0)));
    auto status = service.handle_status(first.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->exact, 1);
    EXPECT_FALSE(status->converged);
    EXPECT_NEAR(status->coverage, 4.0 / 5.0, 1e-9);

    auto cold = ops::gemm(256, 256, 256);
    ASSERT_TRUE(registry.put(cold, solved_record(spec, cold, 30.0)));
    status = service.handle_status(first.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->converged);
    EXPECT_DOUBLE_EQ(status->coverage, 1.0);
    EXPECT_EQ(service.stats().active, 0); // closed on convergence

    EXPECT_FALSE(service.handle_status(first.id + 999).has_value());
}

TEST(GraphService, SchedulesThroughTuneQueueInPayoffOrder)
{
    auto spec = hw::DlaSpec::v100();
    RegistryConfig config;
    config.enable_fallback = false;
    KernelRegistry registry(spec, config);
    TuneQueueConfig queue_config;
    queue_config.capacity = 8;
    TuneQueue queue(registry, queue_config);
    queue.start();
    GraphTuneScheduler scheduler(&queue);
    GraphService service(registry, scheduler);

    auto result = service.handle_graph(tiny_network());
    EXPECT_EQ(result.scheduled, 2);
    EXPECT_EQ(service.stats().scheduled, 2);
    for (const auto &layer : result.layer_status)
        EXPECT_TRUE(layer.scheduled);
    queue.stop();
}

TEST(GraphService, UntunableLayerIsNotRedispatchedByPolls)
{
    // An fp16 layer on an int8 DLA fails its tune and is marked
    // untunable; status polls must not enqueue it again.
    auto spec = hw::DlaSpec::dlboost();
    RegistryConfig config;
    config.enable_fallback = false;
    KernelRegistry registry(spec, config);
    TuneQueueConfig queue_config;
    queue_config.capacity = 8;
    queue_config.tune.trials = 8;
    TuneQueue queue(registry, queue_config);
    queue.start();
    GraphTuneScheduler scheduler(&queue);
    GraphService service(registry, scheduler);

    std::string error;
    auto request = parse_request(
        R"({"id":1,"cmd":"graph","layers":[)"
        R"({"op":"gemm","shape":[64,64,64],"dtype":"fp16"}]})",
        spec, &error);
    ASSERT_TRUE(request.has_value()) << error;
    auto first = service.handle_graph(request->network);
    EXPECT_EQ(first.scheduled, 1);
    queue.drain();
    auto key = make_key(request->network.layers[0].workload, spec);
    ASSERT_TRUE(registry.untunable(key));

    for (int poll = 0; poll < 5; ++poll) {
        auto status = service.handle_status(first.id);
        ASSERT_TRUE(status.has_value());
        EXPECT_EQ(status->scheduled, 0);
        EXPECT_FALSE(status->converged);
        queue.drain();
    }
    EXPECT_EQ(queue.stats().accepted, 1);
    EXPECT_EQ(queue.stats().failed, 1);
    // Nothing left to tune: the graph gives back its budget share.
    EXPECT_EQ(service.stats().active, 0);
    queue.stop();
}

TEST(GraphService, EvictsOldestGraphAtCapacity)
{
    auto spec = hw::DlaSpec::v100();
    KernelRegistry registry(spec, {});
    GraphTuneScheduler scheduler;
    GraphServiceConfig config;
    config.max_graphs = 2;
    GraphService service(registry, scheduler, config);

    auto first = service.handle_graph(tiny_network());
    auto second = service.handle_graph(tiny_network());
    auto third = service.handle_graph(tiny_network());
    EXPECT_FALSE(service.handle_status(first.id).has_value());
    EXPECT_TRUE(service.handle_status(second.id).has_value());
    EXPECT_TRUE(service.handle_status(third.id).has_value());
    // Evicted-but-unconverged graphs release their scheduler slot.
    EXPECT_EQ(service.stats().active, 2);
}

// ---------------------------------------------------------------
// emit_network: dedup aliasing, collisions, dispatch coverage
// ---------------------------------------------------------------

TEST(NetworkLibrary, AddReturnsCanonicalNameForDuplicates)
{
    auto spec = hw::DlaSpec::v100();
    autotune::LibraryBuilder builder(spec, {});
    auto workload = ops::gemm(512, 512, 512);
    std::string first = builder.add(workload);
    ops::Workload alias = workload;
    alias.name = "renamed_gemm";
    // Same canonical signature: the duplicate aliases the original
    // entry's dispatch name instead of minting its own.
    EXPECT_EQ(builder.add(alias), first);
    EXPECT_EQ(builder.size(), 1u);

    // Distinct workloads whose names sanitize identically get
    // suffixed, collision-free symbols.
    auto other = ops::gemm(256, 256, 256);
    other.name = workload.name;
    std::string suffixed = builder.add(other);
    EXPECT_NE(suffixed, first);
    EXPECT_EQ(builder.size(), 2u);
}

TEST(NetworkLibrary, EmitNetworkDedupsAndDispatchesEveryLayer)
{
    auto spec = hw::DlaSpec::v100();
    auto hot = ops::gemm(512, 512, 512);
    auto cold = ops::gemm(256, 256, 256);

    std::vector<autotune::NetworkLayerSpec> layers(3);
    layers[0].workload = hot;
    layers[0].count = 2;
    layers[0].record = solved_record(spec, hot, 90.0);
    layers[1].workload = hot;
    layers[1].workload.name = "hot_alias";
    layers[1].count = 3;
    layers[1].record = layers[0].record;
    layers[2].workload = cold;
    layers[2].count = 1; // unresolved: no record

    autotune::LibraryBuilder builder(spec, {});
    auto library = builder.emit_network("tiny", layers);
    EXPECT_EQ(library.entries.size(), 2u);
    EXPECT_EQ(library.instances, 6);
    EXPECT_EQ(library.deduped, 1);
    EXPECT_EQ(library.emitted, 1);
    ASSERT_EQ(library.layer_entry.size(), 3u);
    // The alias dispatches to the same entry as the original.
    EXPECT_EQ(library.layer_entry[0], library.layer_entry[1]);
    EXPECT_NE(library.layer_entry[0], library.layer_entry[2]);

    std::string header = library.emit_header("tiny_lib");
    // Every layer index has a dispatch case; the unresolved layer
    // dispatches to nullptr instead of vanishing.
    EXPECT_NE(header.find("case 0:"), std::string::npos);
    EXPECT_NE(header.find("case 1:"), std::string::npos);
    EXPECT_NE(header.find("case 2:"), std::string::npos);
    EXPECT_NE(header.find("nullptr"), std::string::npos);
    // The shared kernel's source is emitted exactly once.
    const std::string &name = library.entries[0].kernel_name;
    size_t count = 0;
    for (size_t at = header.find("void " + name);
         at != std::string::npos;
         at = header.find("void " + name, at + 1))
        ++count;
    EXPECT_EQ(count, 1u);
}

TEST(NetworkLibrary, RejectsRecordsThatNoLongerBind)
{
    auto spec = hw::DlaSpec::v100();
    auto workload = ops::gemm(512, 512, 512);
    std::vector<autotune::NetworkLayerSpec> layers(1);
    layers[0].workload = workload;
    layers[0].record = solved_record(spec, workload, 50.0);
    // Corrupt the assignment: emit_network must re-validate via
    // try_bind and leave the layer unresolved, not emit garbage.
    layers[0].record->assignment.clear();

    autotune::LibraryBuilder builder(spec, {});
    auto library = builder.emit_network("broken", layers);
    EXPECT_EQ(library.emitted, 0);
    std::string header = library.emit_header("broken_lib");
    EXPECT_NE(header.find("nullptr"), std::string::npos);
}

} // namespace
} // namespace heron::serve
