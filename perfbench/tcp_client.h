/**
 * @file
 * The benchmark's NDJSON-over-TCP client: one blocking line
 * connection, an open-loop generator (requests sent on a fixed
 * schedule, latency timed from each request's due time), and a
 * closed-loop client (a fixed window of pipelined requests, for
 * throughput).
 */
#ifndef HERON_PERFBENCH_TCP_CLIENT_H
#define HERON_PERFBENCH_TCP_CLIENT_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/rng.h"

namespace perfbench {

/** One blocking client connection speaking newline-framed JSON. */
class LineConn
{
  public:
    LineConn() = default;
    ~LineConn();

    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    /** Connect to 127.0.0.1:@p port; reads time out after 20 s. */
    bool connect_to(uint16_t port, std::string *error);

    bool send_all(const std::string &data);

    /** Next line without its newline; false on EOF, error or timeout. */
    bool read_line(std::string *line);

    /** send_all(line + "\n") then read_line(); false on failure. */
    bool round_trip(const std::string &line, std::string *response);

    /** Half-close: the server answers what it has, then closes. */
    void finish_sending();

  private:
    int fd_ = -1;
    std::string buf_;
    size_t off_ = 0;
};

/** The "id" a response echoes (-1 when absent). */
int64_t response_id(const std::string &response);

struct OpenLoopResult {
    /** Requests actually sent (a prefix of the schedule). */
    size_t sent = 0;
    /**
     * Response time minus due time, per request: -1 when never
     * answered, -2 when the verifier rejected the answer.
     */
    std::vector<double> latency_us;
    /** Actual send time minus due time, per request. */
    std::vector<double> lag_us;
};

/**
 * Send one request per entry of @p keys at @p rate requests/s,
 * round-robin over @p conns connections, from one sender thread with
 * one receiver thread per connection. Request i is
 * @p make_line(i, keys[i]) and is due at start + i / rate; the
 * receivers check each answer with @p verify(keys[i], response).
 * Sending stops early once @p stop (nullable) reads true; each
 * connection is then half-closed so its receiver ends after the
 * last answer.
 */
OpenLoopResult
run_open_loop(uint16_t port, int conns, double rate,
              const std::vector<int> &keys,
              const std::function<std::string(int64_t, int)> &make_line,
              const std::function<bool(int, const std::string &)> &verify,
              const std::atomic<bool> *stop = nullptr);

struct ClosedLoopResult {
    int64_t responses = 0;
    /** Responses the verifier rejected. */
    int64_t rejected = 0;
    /** Requests sent but never answered. */
    int64_t lost = 0;
    double seconds = 0.0;
};

/**
 * Keep @p window requests pipelined on one connection for
 * @p seconds, on the calling thread. Keys are drawn with an Rng
 * seeded by @p seed, lines built by @p make_line(id, key), and every
 * response checked with @p verify(key, response).
 */
ClosedLoopResult
run_closed_loop(uint16_t port, int window, double seconds, uint64_t seed,
                const std::function<int(heron::Rng &)> &pick_key,
                const std::function<std::string(int64_t, int)> &make_line,
                const std::function<bool(int, const std::string &)> &verify);

} // namespace perfbench

#endif // HERON_PERFBENCH_TCP_CLIENT_H
