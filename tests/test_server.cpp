/**
 * @file
 * TCP front-end tests: bounded line framing (LineScanner), the
 * per-connection output budget (Conn), and a chaos harness against
 * serve::Server — pipelining, torn frames, garbage bytes, oversized
 * lines, slow-loris idle timeouts, mid-request disconnects,
 * overload shedding, deadline expiry, connection caps, graceful
 * drain (compacting the durable store), the hard-kill fallback, and a
 * 64-client mixed-abuse run. The whole binary also runs under the
 * tsan and asan presets (see scripts/verify.sh).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "csp/solver.h"
#include "serve/conn.h"
#include "serve/server.h"
#include "serve/store_wal.h"

namespace heron::serve {
namespace {

using Clock = std::chrono::steady_clock;

/** Same solver-produced record helper as test_serve.cpp. */
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
// LineScanner: bounded NDJSON framing
// ---------------------------------------------------------------

/** Feed @p bytes in @p chunk-sized pieces, collecting lines. */
std::vector<std::pair<std::string, bool>>
scan(LineScanner &scanner, const std::string &bytes, size_t chunk)
{
    std::vector<std::pair<std::string, bool>> lines;
    for (size_t pos = 0; pos < bytes.size(); pos += chunk)
        scanner.feed(bytes.data() + pos,
                     std::min(chunk, bytes.size() - pos),
                     [&](const std::string &line, bool overflow) {
                         lines.emplace_back(line, overflow);
                     });
    return lines;
}

TEST(LineScanner, ReassemblesTornFrames)
{
    LineScanner scanner(1024);
    // Every chunk size must produce the same framing.
    for (size_t chunk : {size_t(1), size_t(2), size_t(3),
                         size_t(7), size_t(1024)}) {
        LineScanner fresh(1024);
        auto lines =
            scan(fresh, "alpha\nbeta\n\ngamma\n", chunk);
        ASSERT_EQ(lines.size(), 4u) << "chunk=" << chunk;
        EXPECT_EQ(lines[0].first, "alpha");
        EXPECT_EQ(lines[1].first, "beta");
        EXPECT_EQ(lines[2].first, "");
        EXPECT_EQ(lines[3].first, "gamma");
        for (auto &line : lines)
            EXPECT_FALSE(line.second);
    }
    // Incomplete trailing line stays buffered.
    auto lines = scan(scanner, "partial", 3);
    EXPECT_TRUE(lines.empty());
    EXPECT_EQ(scanner.buffered(), 7u);
}

TEST(LineScanner, OversizedLineStreamsToBitBucket)
{
    LineScanner scanner(64);
    // 1 MiB of newline-free garbage must never accumulate.
    std::string flood(1 << 20, 'x');
    size_t max_buffered = 0;
    for (size_t pos = 0; pos < flood.size(); pos += 4096) {
        scanner.feed(flood.data() + pos, 4096,
                     [](const std::string &, bool) { FAIL(); });
        max_buffered = std::max(max_buffered, scanner.buffered());
    }
    EXPECT_TRUE(scanner.discarding());
    EXPECT_LE(max_buffered, 64u);

    // The newline finally lands: one overflow report, then normal
    // framing resumes.
    auto lines = scan(scanner, "\nnext\n", 3);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_TRUE(lines[0].second);
    EXPECT_FALSE(lines[1].second);
    EXPECT_EQ(lines[1].first, "next");
}

TEST(LineScanner, CapBoundaryIsExact)
{
    LineScanner scanner(4);
    auto lines = scan(scanner, "abcd\nabcde\nok\n", 100);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].first, "abcd"); // exactly at the cap: fine
    EXPECT_FALSE(lines[0].second);
    EXPECT_TRUE(lines[1].second); // one byte over: overflow
    EXPECT_EQ(lines[2].first, "ok");
}

// ---------------------------------------------------------------
// Conn: bounded output queue
// ---------------------------------------------------------------

TEST(ConnTest, OutputBudgetBoundsQueuedBytes)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Conn conn(fds[0], 1, "test", 1024, 16);
    EXPECT_TRUE(conn.queue_line("12345678"));  // 9 bytes on the wire
    EXPECT_FALSE(conn.queue_line("12345678")); // would pass 16
    EXPECT_TRUE(conn.queue_line("123456"));    // 7 bytes fits
    EXPECT_EQ(conn.output_bytes(), 16u);
    EXPECT_TRUE(conn.flush());
    EXPECT_FALSE(conn.has_output());
    EXPECT_TRUE(conn.queue_line("12345678")); // budget freed
    char buf[64];
    ASSERT_EQ(::read(fds[1], buf, sizeof(buf)), 16);
    EXPECT_EQ(std::string(buf, 16), "12345678\n123456\n");
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------
// Server: a blocking test client
// ---------------------------------------------------------------

class TestClient
{
  public:
    explicit TestClient(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~TestClient() { close(); }

    bool ok() const { return fd_ >= 0; }

    bool send_all(const std::string &bytes)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            sent += static_cast<size_t>(n);
        }
        return true;
    }

    /** Next '\n'-terminated line, or nullopt on EOF/timeout. */
    std::optional<std::string> read_line(int timeout_ms = 10000)
    {
        auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            size_t pos = buffer_.find('\n');
            if (pos != std::string::npos) {
                std::string line = buffer_.substr(0, pos);
                buffer_.erase(0, pos + 1);
                return line;
            }
            int remaining = static_cast<int>(
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(deadline -
                                               Clock::now())
                    .count());
            if (remaining <= 0)
                return std::nullopt;
            pollfd pfd{fd_, POLLIN, 0};
            int ready = ::poll(&pfd, 1, remaining);
            if (ready <= 0)
                return std::nullopt;
            char buf[4096];
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                return std::nullopt;
            buffer_.append(buf, static_cast<size_t>(n));
        }
    }

    /** True when the server closes the connection in time. */
    bool wait_eof(int timeout_ms = 10000)
    {
        auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            int remaining = static_cast<int>(
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(deadline -
                                               Clock::now())
                    .count());
            if (remaining <= 0)
                return false;
            pollfd pfd{fd_, POLLIN, 0};
            if (::poll(&pfd, 1, remaining) <= 0)
                return false;
            char buf[4096];
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0)
                return true;
            if (n < 0 && errno != EINTR)
                return true; // RST counts as closed
        }
    }

    void close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

constexpr const char *kLookup64 =
    R"({"id":%d,"op":"gemm","shape":[64,64,64]})"
    "\n";

std::string
lookup_line(int id)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), kLookup64, id);
    return buf;
}

/** Registry pre-seeded so kLookup64 answers on the exact tier. */
struct ServedRegistry {
    hw::DlaSpec spec = hw::DlaSpec::v100();
    KernelRegistry registry{spec};

    ServedRegistry()
    {
        auto workload = ops::gemm(64, 64, 64);
        EXPECT_TRUE(registry.put(
            workload, solved_record(spec, workload, 100.0)));
    }

    std::unique_ptr<Server> start(ServerConfig config = {},
                                  TuneQueue *queue = nullptr)
    {
        // Fast housekeeping so timeout tests stay quick.
        config.tick_ms = std::min(config.tick_ms, 10.0);
        auto server = std::make_unique<Server>(registry, queue,
                                               std::move(config));
        std::string error;
        EXPECT_TRUE(server->start(&error)) << error;
        return server;
    }
};

TEST(ServerTest, PipelinedRequestsAnswerInOrder)
{
    ServedRegistry served;
    auto server = served.start();
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_all(lookup_line(1) + lookup_line(2) +
                                lookup_line(3)));
    for (int id = 1; id <= 3; ++id) {
        auto line = client.read_line();
        ASSERT_TRUE(line.has_value()) << "response " << id;
        EXPECT_NE(line->find("\"id\":" + std::to_string(id)),
                  std::string::npos)
            << *line;
        EXPECT_NE(line->find("\"tier\":\"exact\""),
                  std::string::npos)
            << *line;
    }
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, TornFramesReassembleAcrossWrites)
{
    ServedRegistry served;
    auto server = served.start();
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    std::string request = lookup_line(7);
    for (size_t pos = 0; pos < request.size(); pos += 5) {
        ASSERT_TRUE(client.send_all(
            request.substr(pos, std::min<size_t>(
                                    5, request.size() - pos))));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2));
    }
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"id\":7"), std::string::npos);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, GarbageBytesAnswerErrorAndConnSurvives)
{
    ServedRegistry served;
    auto server = served.start();
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client.send_all("\x01\x02 not json at all\n"));
    auto error = client.read_line();
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("\"error\""), std::string::npos);

    ASSERT_TRUE(client.send_all(lookup_line(2)));
    auto ok = client.read_line();
    ASSERT_TRUE(ok.has_value());
    EXPECT_NE(ok->find("\"tier\":\"exact\""), std::string::npos);
    EXPECT_EQ(server->stats().parse_errors, 1);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, OversizedLineRejectedConnSurvives)
{
    ServedRegistry served;
    ServerConfig config;
    config.max_line_bytes = 256;
    auto server = served.start(config);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client.send_all(std::string(8192, 'z') + "\n"));
    auto error = client.read_line();
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("exceeds"), std::string::npos) << *error;

    ASSERT_TRUE(client.send_all(lookup_line(3)));
    auto ok = client.read_line();
    ASSERT_TRUE(ok.has_value());
    EXPECT_NE(ok->find("\"tier\":\"exact\""), std::string::npos);
    EXPECT_EQ(server->stats().oversized_lines, 1);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, ExpiredDeadlineAnswersDeadlineExceeded)
{
    ServedRegistry served;
    ServerConfig config;
    // Stall the worker past the request's budget, so the deadline
    // has always expired by execution time.
    config.debug_stall_ms = 40.0;
    config.workers = 1;
    auto server = served.start(config);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_all(
        R"({"id":1,"op":"gemm","shape":[64,64,64],"deadline_ms":1})"
        "\n"));
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("deadline_exceeded"), std::string::npos)
        << *line;
    EXPECT_EQ(server->stats().deadline_exceeded, 1);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, OverloadBurstShedsExplicitly)
{
    ServedRegistry served;
    ServerConfig config;
    config.workers = 1;
    config.debug_stall_ms = 30.0;
    config.max_pending_requests = 2;
    auto server = served.start(config);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    std::string burst;
    for (int id = 1; id <= 12; ++id)
        burst += lookup_line(id);
    ASSERT_TRUE(client.send_all(burst));

    int answered = 0, shed = 0;
    for (int i = 0; i < 12; ++i) {
        auto line = client.read_line();
        ASSERT_TRUE(line.has_value()) << "response " << i;
        if (line->find("\"error\":\"overloaded\"") !=
            std::string::npos)
            ++shed;
        else
            ++answered;
    }
    // Every request gets exactly one response; past the watermark
    // they are shed, not queued without bound.
    EXPECT_GT(shed, 0);
    EXPECT_GT(answered, 0);
    EXPECT_EQ(server->stats().shed_overloaded, shed);

    // The server recovers once the burst passes.
    ASSERT_TRUE(client.send_all(lookup_line(99)));
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, PipelinedBurstAboveWatermarkIsNotShed)
{
    // Four times the default 1024-request watermark in one write.
    // The workers answer in microseconds, so nothing is ever close
    // to 1024 requests behind; the burst must be answered, not shed
    // as if it were all pending at once.
    ServedRegistry served;
    auto server = served.start();
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    constexpr int kBurst = 4096;
    std::string burst;
    for (int id = 1; id <= kBurst; ++id)
        burst += lookup_line(id);
    ASSERT_TRUE(client.send_all(burst));

    int exact = 0;
    for (int i = 0; i < kBurst; ++i) {
        auto line = client.read_line();
        ASSERT_TRUE(line.has_value()) << "response " << i;
        if (line->find("\"tier\":\"exact\"") != std::string::npos)
            ++exact;
    }
    EXPECT_EQ(exact, kBurst);
    EXPECT_EQ(server->stats().shed_overloaded, 0);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, ConnectionCapRejectsWithOverloaded)
{
    ServedRegistry served;
    ServerConfig config;
    config.max_connections = 1;
    auto server = served.start(config);
    TestClient first(server->port());
    ASSERT_TRUE(first.ok());
    // Round-trip a request so the first accept has been processed.
    ASSERT_TRUE(first.send_all(lookup_line(1)));
    ASSERT_TRUE(first.read_line().has_value());

    TestClient second(server->port());
    ASSERT_TRUE(second.ok());
    auto line = second.read_line();
    if (line) { // best-effort courtesy line before the close
        EXPECT_NE(line->find("overloaded"), std::string::npos);
    }
    EXPECT_TRUE(second.wait_eof());
    EXPECT_EQ(server->stats().rejected_conn_limit, 1);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, PerIpCapRejects)
{
    ServedRegistry served;
    ServerConfig config;
    config.max_connections_per_ip = 1;
    auto server = served.start(config);
    TestClient first(server->port());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.send_all(lookup_line(1)));
    ASSERT_TRUE(first.read_line().has_value());

    TestClient second(server->port());
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.wait_eof());
    EXPECT_EQ(server->stats().rejected_ip_limit, 1);

    // Freeing the seat re-admits the IP.
    first.close();
    auto deadline = Clock::now() + std::chrono::seconds(5);
    bool admitted = false;
    while (!admitted && Clock::now() < deadline) {
        TestClient retry(server->port());
        if (retry.ok() && retry.send_all(lookup_line(5)) &&
            retry.read_line(1000).has_value())
            admitted = true;
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(admitted);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, SlowLorisIdleClientDisconnected)
{
    ServedRegistry served;
    ServerConfig config;
    config.idle_timeout_ms = 80.0;
    auto server = served.start(config);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    // A few bytes of a never-finished request, then silence: the
    // held seat must be reclaimed.
    ASSERT_TRUE(client.send_all(R"({"id":1,"op")"));
    EXPECT_TRUE(client.wait_eof(5000));
    EXPECT_EQ(server->stats().idle_disconnects, 1);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, MidRequestDisconnectSurvives)
{
    ServedRegistry served;
    ServerConfig config;
    config.debug_stall_ms = 50.0;
    auto server = served.start(config);
    {
        TestClient client(server->port());
        ASSERT_TRUE(client.ok());
        ASSERT_TRUE(client.send_all(lookup_line(1)));
        // Vanish while the request is in flight.
    }
    // The orphaned completion is dropped; new clients are served.
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_all(lookup_line(2)));
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"tier\":\"exact\""), std::string::npos);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, OutputOverflowDisconnects)
{
    ServedRegistry served;
    ServerConfig config;
    // No single response fits, so the first answer overflows the
    // output budget and the client is dropped.
    config.max_output_bytes = 8;
    auto server = served.start(config);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_all("{\"id\":1,\"cmd\":\"stats\"}\n"));
    EXPECT_TRUE(client.wait_eof());
    EXPECT_EQ(server->stats().overflow_disconnects, 1);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, ShutdownCommandDrainsGracefully)
{
    ServedRegistry served;
    auto server = served.start();
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client.send_all("{\"id\":5,\"cmd\":\"shutdown\"}\n"));
    auto ack = client.read_line();
    ASSERT_TRUE(ack.has_value());
    EXPECT_NE(ack->find("shutting_down"), std::string::npos);
    EXPECT_TRUE(client.wait_eof());
    EXPECT_EQ(server->wait(), 0);
    EXPECT_EQ(server->stats().drains, 1);
    EXPECT_EQ(server->stats().hard_kills, 0);
}

TEST(ServerTest, DrainFinishesInFlightAndPersistsStore)
{
    std::string dir =
        ::testing::TempDir() + "heron_server_drain_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    DurableStoreConfig store_config;
    store_config.dir = dir;
    DurableStore store(store_config);
    ASSERT_TRUE(store.open());
    ServedRegistry served;
    auto workload = ops::gemm(64, 64, 64);
    WorkloadKey key = make_key(workload, served.spec);
    auto record = served.registry.peek(key);
    ASSERT_TRUE(record.has_value());
    ASSERT_TRUE(store.append(*record));

    ServerConfig config;
    config.debug_stall_ms = 80.0;
    config.store = &store;
    auto server = served.start(config);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_all(lookup_line(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server->request_drain(); // SIGTERM path (signal-safe entry)

    // The accepted request must still be answered before the close.
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"tier\":\"exact\""), std::string::npos);
    EXPECT_TRUE(client.wait_eof());
    EXPECT_EQ(server->wait(), 0);
    // The drain compacted the log into a snapshot.
    EXPECT_EQ(store.stats().compactions, 1);
    store.close();

    // The reopened store holds the served record.
    DurableStore reopened(store_config);
    ASSERT_TRUE(reopened.open());
    KernelRegistry restored(served.spec);
    EXPECT_EQ(restored.load_records(reopened.records()), 1);
    auto restored_record = restored.peek(key);
    ASSERT_TRUE(restored_record.has_value());
    EXPECT_EQ(restored_record->assignment, record->assignment);
    reopened.close();
    std::filesystem::remove_all(dir);
}

TEST(ServerTest, HardKillFiresWhenDrainStalls)
{
    ServedRegistry served;
    ServerConfig config;
    config.debug_stall_ms = 500.0;
    config.drain_grace_ms = 50.0;
    auto server = served.start(config);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_all(lookup_line(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server->request_drain();
    EXPECT_EQ(server->wait(), 1);
    EXPECT_EQ(server->stats().hard_kills, 1);
}

TEST(ServerTest, ChaosSixtyFourMixedClients)
{
    ServedRegistry served;
    ServerConfig config;
    config.max_connections = 128;
    config.max_connections_per_ip = 128;
    config.workers = 4;
    config.max_line_bytes = 512;
    auto server = served.start(config);
    uint16_t port = server->port();

    constexpr int kClients = 64;
    std::atomic<int> happy_path_failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int tid = 0; tid < kClients; ++tid) {
        clients.emplace_back([port, tid, &happy_path_failures] {
            TestClient client(port);
            if (!client.ok())
                return; // transient connect failure: not the SUT
            switch (tid % 4) {
              case 0: { // well-behaved pipelining client
                std::string burst;
                for (int id = 0; id < 5; ++id)
                    burst += lookup_line(tid * 100 + id);
                if (!client.send_all(burst)) {
                    ++happy_path_failures;
                    return;
                }
                for (int id = 0; id < 5; ++id)
                    if (!client.read_line().has_value())
                        ++happy_path_failures;
                break;
              }
              case 1: // garbage + oversized + one real request
                client.send_all("\x7f\x00garbage\n");
                client.send_all(std::string(2048, 'y') + "\n");
                client.send_all(lookup_line(tid));
                if (!client.read_line().has_value())
                    ++happy_path_failures;
                break;
              case 2: { // torn frames, byte by byte
                std::string request = lookup_line(tid);
                for (char byte : request)
                    if (!client.send_all(std::string(1, byte)))
                        return;
                if (!client.read_line().has_value())
                    ++happy_path_failures;
                break;
              }
              case 3: // rude: request, then vanish mid-flight
                client.send_all(lookup_line(tid));
                client.close();
                break;
            }
        });
    }
    for (auto &thread : clients)
        thread.join();
    EXPECT_EQ(happy_path_failures.load(), 0);

    // After the abuse, the server still serves and drains clean.
    TestClient survivor(port);
    ASSERT_TRUE(survivor.ok());
    ASSERT_TRUE(survivor.send_all(lookup_line(424242)));
    auto line = survivor.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"tier\":\"exact\""), std::string::npos);
    EXPECT_EQ(server->stop(), 0);
    EXPECT_EQ(server->stats().hard_kills, 0);
}

TEST(ServerTest, SloChaosShrinksWatermarkAndRecovers)
{
    std::string log_path =
        ::testing::TempDir() + "server_slo_chaos.jsonl";
    std::remove(log_path.c_str());

    ServedRegistry served;
    ServerConfig config;
    config.workers = 1;
    // Every served lookup takes ~25 ms: against a 1 ms p95
    // objective the window is burning whenever traffic flows.
    config.debug_stall_ms = 25.0;
    config.max_pending_requests = 8; // base soft watermark 4
    config.slo.lookup_p95_us = 1000.0;
    config.slo.eval_interval_s = 0.05;
    config.slo.burn_evals_to_shrink = 2;
    config.slo.ok_evals_to_restore = 2;
    config.slo.shrink_factor = 0.5;
    config.slo.min_soft_fraction = 0.25; // floor 1
    // A short window so recovery starts soon after the burst ends.
    config.request_metrics.slots = 3;
    config.request_metrics.slot_seconds = 0.2;
    config.access_log.path = log_path;
    auto server = served.start(config);

    EXPECT_EQ(server->stats().soft_watermark, 4u);

    // Phase 1: sustained overload until the controller shrinks.
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    auto burn_deadline = Clock::now() + std::chrono::seconds(10);
    int next_id = 1;
    bool saw_shrink = false;
    int64_t sheds = 0;
    // Keep bursting until the controller has shrunk AND the shrunk
    // watermark has actually shed traffic (sheds only start on the
    // burst after the shrink takes effect).
    while ((!saw_shrink || sheds == 0) &&
           Clock::now() < burn_deadline) {
        std::string burst;
        for (int i = 0; i < 6; ++i)
            burst += lookup_line(next_id++);
        ASSERT_TRUE(client.send_all(burst));
        for (int i = 0; i < 6; ++i)
            ASSERT_TRUE(client.read_line().has_value());
        ServerStats stats = server->stats();
        saw_shrink = stats.slo_shrinks > 0;
        sheds = stats.shed_overloaded;
    }
    ASSERT_TRUE(saw_shrink) << "controller never shrank";
    EXPECT_GT(sheds, 0);
    EXPECT_LT(server->stats().soft_watermark, 4u);

    // Phase 2: the burst stops; once the window drains the
    // controller must walk the watermark back to base.
    auto recover_deadline =
        Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < recover_deadline) {
        ServerStats stats = server->stats();
        if (stats.slo_restores > 0 && stats.soft_watermark == 4u)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
    ServerStats recovered = server->stats();
    EXPECT_GT(recovered.slo_restores, 0);
    EXPECT_EQ(recovered.soft_watermark, 4u);

    // The adjustments are queryable over the protocol too.
    ASSERT_TRUE(
        client.send_all("{\"id\":77,\"cmd\":\"stats\"}\n"));
    auto stats_line = client.read_line();
    ASSERT_TRUE(stats_line.has_value());
    EXPECT_NE(stats_line->find("\"slo\""), std::string::npos)
        << *stats_line;
    EXPECT_NE(stats_line->find("\"shrinks\""), std::string::npos);

    EXPECT_EQ(server->stop(), 0);

    // The access log captured the controller's moves (flushed by
    // the drain): both directions, as parseable JSON lines.
    std::ifstream log(log_path);
    ASSERT_TRUE(log.good());
    bool logged_shrink = false, logged_restore = false;
    std::string line;
    while (std::getline(log, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        if (line.find("\"event\":\"slo_adjustment\"") ==
            std::string::npos)
            continue;
        if (line.find("\"direction\":\"shrink\"") !=
            std::string::npos)
            logged_shrink = true;
        if (line.find("\"direction\":\"restore\"") !=
            std::string::npos)
            logged_restore = true;
    }
    EXPECT_TRUE(logged_shrink);
    EXPECT_TRUE(logged_restore);
    std::remove(log_path.c_str());
}

TEST(ServerTest, MetricsCommandReportsWindowsOverProtocol)
{
    ServedRegistry served;
    auto server = served.start();
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_all(lookup_line(1)));
    ASSERT_TRUE(client.read_line().has_value());
    ASSERT_TRUE(
        client.send_all("{\"id\":2,\"cmd\":\"metrics\"}\n"));
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"id\":2"), std::string::npos);
    EXPECT_NE(line->find("\"windows\""), std::string::npos);
    EXPECT_NE(line->find("\"serve.window.lookup_us\""),
              std::string::npos)
        << *line;
    EXPECT_EQ(server->stop(), 0);
}

} // namespace
} // namespace heron::serve
