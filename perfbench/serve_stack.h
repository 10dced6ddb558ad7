/**
 * @file
 * The serving side as a client deploys it: a DurableStore replayed
 * into a KernelRegistry behind a serve::Server, optionally with the
 * on-miss TuneQueue and GraphService; plus the servable keys the
 * benchmark asks for and the checker that validates every answer.
 */
#ifndef HERON_PERFBENCH_SERVE_STACK_H
#define HERON_PERFBENCH_SERVE_STACK_H

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "autotune/tuner.h"
#include "serve/graph.h"
#include "serve/server.h"
#include "serve/store_wal.h"

#include "bench.h"
#include "tcp_client.h"

namespace perfbench {

/** One key the client looks up, with the answer it must get. */
struct ServedKey {
    heron::ops::Workload workload;
    /** Protocol op name and shape ("gemm", [M,N,K]). */
    std::string op;
    std::vector<int64_t> shape;
    /** Expected tier: "exact" or "nearest". */
    std::string tier = "exact";
    /** Exact tier: the stored assignment, comma-joined. */
    std::string assignment;
};

/** A GEMM or C2D key on @p spec (C2D shape: N,CI,H,W,CO,R,S,st,pad). */
ServedKey gemm_key(const heron::hw::DlaSpec &spec, int64_t m, int64_t n,
                   int64_t k);
ServedKey c2d_key(const heron::hw::DlaSpec &spec,
                  const std::vector<int64_t> &shape);

/** Comma-joined assignment, as lookup responses print it. */
std::string join_assignment(const std::vector<int64_t> &assignment);

/** The integers of a comma-joined list (join_assignment's inverse). */
std::vector<int64_t> split_ints(const std::string &text);

/** {"id":<id>,"op":...,"shape":[...]} for @p key. */
std::string lookup_line(int64_t id, const ServedKey &key);

/**
 * Validates lookup responses against the keys they answer: an error
 * or shed line fails; an exact answer must carry exactly the stored
 * assignment; a nearest answer's assignment must bind and pass the
 * DLA simulator (checked once per distinct assignment).
 * Thread-safe.
 */
class ResponseChecker
{
  public:
    ResponseChecker(heron::hw::DlaSpec spec,
                    const std::vector<ServedKey> &keys);

    /** True when @p response is a correct answer for key @p key. */
    bool check(int key, const std::string &response,
               std::string *why) const;

  private:
    heron::hw::DlaSpec spec_;
    const std::vector<ServedKey> &keys_;
    mutable std::mutex mu_;
    /** key index + assignment text already validated. */
    mutable std::set<std::string> verified_;
};

/**
 * Open-loop rate of exact lookups, requests/s, over 2 connections.
 * At 5k-10k the server threads sleep between requests and their
 * wake-up latency swings 1.5-2x with the shared machine's state (the
 * median read 37-83 us over 10 runs of one build); at 30k the server
 * saturates when the machine cuts its capacity (the closed loop read
 * 23k-92k req/s across runs).
 */
constexpr double kLookupRate = 15000.0;

/** How to build one serving stack. */
struct StackConfig {
    heron::hw::DlaSpec spec = heron::hw::DlaSpec::v100();
    /** DurableStore directory ("" = no store). */
    std::string store_dir;
    /** Background tuning + graph serving (serve-cold). */
    bool tuning = false;
    heron::autotune::TuneConfig tune;
};

/**
 * Store -> registry -> (queue, graph) -> 2-worker server, started in
 * that order by start() and torn down in reverse by the destructor.
 */
class ServingStack
{
  public:
    explicit ServingStack(StackConfig config);
    ~ServingStack();

    ServingStack(const ServingStack &) = delete;
    ServingStack &operator=(const ServingStack &) = delete;

    /** Replay the store, load the registry, listen. */
    bool start(std::string *error);

    uint16_t port() const { return server_->port(); }
    heron::serve::KernelRegistry &registry() { return *registry_; }
    heron::serve::Server &server() { return *server_; }
    heron::serve::TuneQueue *queue() { return queue_.get(); }
    heron::serve::DurableStore *store() { return store_.get(); }

  private:
    StackConfig config_;
    std::unique_ptr<heron::serve::DurableStore> store_;
    std::unique_ptr<heron::serve::KernelRegistry> registry_;
    std::unique_ptr<heron::serve::TuneQueue> queue_;
    std::unique_ptr<heron::serve::GraphTuneScheduler> scheduler_;
    std::unique_ptr<heron::serve::GraphService> graph_;
    std::unique_ptr<heron::serve::Server> server_;
};

/** Client-side results of one open-loop phase. */
struct LoadStats {
    std::vector<double> latency_us;
    std::vector<double> lag_us;
};

/**
 * Drive an open loop at @p rate over @p conns connections that looks
 * up keys[key_seq[i]] as request i, check every response, and append
 * the latencies of correct answers to @p stats (failures go to
 * @p report).
 */
void open_loop_phase(uint16_t port, int conns, double rate,
                     const std::vector<ServedKey> &keys,
                     const std::vector<int> &key_seq,
                     const ResponseChecker &checker, Report &report,
                     LoadStats &stats,
                     const std::atomic<bool> *stop = nullptr);

/**
 * Closed loop for @p seconds over keys drawn uniformly from
 * @p key_pool (indices into @p keys; repeat an index to skew the
 * mix); returns the throughput in responses/s and counts failures
 * in @p report.
 */
double closed_loop_phase(uint16_t port, const std::vector<ServedKey> &keys,
                         const std::vector<int> &key_pool,
                         const ResponseChecker &checker, double seconds,
                         uint64_t seed, Report &report);

} // namespace perfbench

#endif // HERON_PERFBENCH_SERVE_STACK_H
