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

TEST(ServerTest, TwoConnectionBurstIsNotShed)
{
    // Two connections each pipeline 700 lookups at one stalled
    // worker. Each stays near half the default 1024-request budget,
    // but together they would reach the hard watermark while the
    // worker is busy; the read pause at the soft watermark must hold
    // every request back in the socket buffers instead of shedding.
    ServedRegistry served;
    ServerConfig config;
    config.workers = 1;
    config.debug_stall_ms = 0.2;
    auto server = served.start(config);
    TestClient first(server->port());
    TestClient second(server->port());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    constexpr int kPerClient = 700;
    std::string burst_first, burst_second;
    for (int id = 1; id <= kPerClient; ++id) {
        burst_first += lookup_line(id);
        burst_second += lookup_line(kPerClient + id);
    }
    ASSERT_TRUE(first.send_all(burst_first));
    ASSERT_TRUE(second.send_all(burst_second));

    int exact = 0, overloaded = 0;
    for (TestClient *client : {&first, &second}) {
        for (int i = 0; i < kPerClient; ++i) {
            auto line = client->read_line();
            ASSERT_TRUE(line.has_value()) << "response " << i;
            if (line->find("\"error\":\"overloaded\"") !=
                std::string::npos)
                ++overloaded;
            else if (line->find("\"tier\":\"exact\"") !=
                     std::string::npos)
                ++exact;
        }
    }
    EXPECT_EQ(overloaded, 0);
    EXPECT_EQ(exact, 2 * kPerClient);
    EXPECT_EQ(server->stats().shed_overloaded, 0);
    EXPECT_EQ(server->stop(), 0);
}

TEST(ServerTest, PipeliningClientDoesNotStarveAnother)
{
    // One client keeps its socket full of lookups for a stalled
    // worker, so every read it gets pushes pending back over the soft
    // watermark. A second client's single lookup, sent while reads
    // are paused, must get its turn at the next resume rather than
    // wait out the whole backlog (~2 s here). The light client
    // connects first so it is not favoured by accept order.
    ServedRegistry served;
    ServerConfig config;
    config.workers = 2; // one each: the pause is the only shared wait
    config.debug_stall_ms = 0.5;
    auto server = served.start(config);
    TestClient light(server->port());
    TestClient heavy(server->port());
    ASSERT_TRUE(light.ok());
    ASSERT_TRUE(heavy.ok());
    constexpr int kHeavy = 4000;
    std::string burst;
    for (int id = 1; id <= kHeavy; ++id)
        burst += lookup_line(id);
    std::thread sender([&] { heavy.send_all(burst); });
    int heavy_exact = 0;
    std::thread reader([&] {
        for (int i = 0; i < kHeavy; ++i) {
            auto line = heavy.read_line();
            if (!line)
                return;
            if (line->find("\"tier\":\"exact\"") != std::string::npos)
                ++heavy_exact;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    auto sent = Clock::now();
    bool answered = light.send_all(lookup_line(kHeavy + 1)) &&
                    light.read_line(1000).has_value();
    double wait_ms = std::chrono::duration<double, std::milli>(
                         Clock::now() - sent)
                         .count();
    EXPECT_TRUE(answered) << "light client waited " << wait_ms
                          << " ms behind the pipelining one";
    reader.join();
    EXPECT_EQ(heavy_exact, kHeavy);
    EXPECT_EQ(server->stats().shed_overloaded, 0);
    // Stopping closes the heavy socket, so a sender stuck on a
    // server that never resumed reading fails instead of hanging.
    EXPECT_EQ(server->stop(), 0);
    sender.join();
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

TEST(ServerTest, PausedClientIsNotDisconnectedAsIdle)
{
    // One stalled request holds pending at the soft watermark (1 of
    // 2), so reads pause. A second client's request then waits
    // unread for longer than the idle timeout; it is waiting on the
    // server, not idle, and must be answered once reads resume.
    ServedRegistry served;
    ServerConfig config;
    config.workers = 1;
    config.debug_stall_ms = 300.0;
    config.max_pending_requests = 2;
    config.idle_timeout_ms = 50.0;
    auto server = served.start(config);
    TestClient first(server->port());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.send_all(lookup_line(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    TestClient second(server->port());
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second.send_all(lookup_line(2)));
    auto line = second.read_line();
    ASSERT_TRUE(line.has_value()) << "paused client was disconnected";
    EXPECT_NE(line->find("\"tier\":\"exact\""), std::string::npos)
        << *line;
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
