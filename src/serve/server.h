/**
 * @file
 * serve::Server: the TCP front-end of the serving layer. An
 * epoll-based event loop speaks the NDJSON protocol (serve/
 * protocol.h) over many concurrent pipelined connections, wrapping
 * one KernelRegistry (+ optional TuneQueue) with the robustness
 * layers a public-facing service needs:
 *
 *   admission control    hard connection cap, per-IP connection
 *                        cap, and two pending-request watermarks:
 *                        at the soft one (half the budget) the loop
 *                        stops reading from every connection until
 *                        answers bring pending back below it, then
 *                        gives the paused ones a read each in turn; at
 *                        the hard one requests are answered
 *                        {"error":"overloaded"} instead of queueing
 *                        unboundedly.
 *   deadline propagation per-request "deadline_ms" budgets thread
 *                        into KernelRegistry::lookup (nearest-tier
 *                        solver budgets shrink to the remaining
 *                        time); requests that expire answer
 *                        {"error":"deadline_exceeded"}.
 *   slow-client defense  idle connections time out; request lines
 *                        are size-capped and oversized ones are
 *                        streamed to the bit bucket (conn.h); each
 *                        connection's output queue is bounded and a
 *                        client that stops reading is disconnected
 *                        on overflow.
 *   graceful drain       request_drain() (wired to SIGTERM by
 *                        heron_serve) stops accepting, finishes
 *                        every accepted in-flight request, flushes,
 *                        compacts the store, and exits 0 — with a
 *                        hard-kill fallback timer so a wedged
 *                        client cannot hold the process hostage.
 *
 * Threading: one event-loop thread owns every socket and Conn;
 * `workers` executor threads run the actual request handlers
 * (lookups can cost milliseconds on the nearest tier) and hand
 * responses back through a completion queue. Requests from one
 * connection always run on the same worker, so per-connection
 * pipelined responses stay in request order; load-shed error
 * responses are emitted by the loop thread and may overtake them
 * (responses are correlated by "id").
 */
#ifndef HERON_SERVE_SERVER_H
#define HERON_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/access_log.h"
#include "serve/conn.h"
#include "serve/observe.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/store_wal.h"
#include "serve/tune_queue.h"

namespace heron::serve {

/** Server sizing, budgets, and robustness knobs. */
struct ServerConfig {
    /** Bind address (IPv4 dotted quad). */
    std::string host = "127.0.0.1";
    /** Bind port (0 = ephemeral; see Server::port()). */
    uint16_t port = 0;
    /** Hard cap on concurrent connections. */
    int max_connections = 256;
    /** Concurrent-connection cap per peer IP (accept throttle). */
    int max_connections_per_ip = 64;
    /** Request executor threads. */
    int workers = 2;
    /**
     * Hard pending-request watermark: requests admitted to the
     * executor but not yet answered. At the watermark every new
     * request is shed with "overloaded". At the soft watermark
     * (half, rounded up) reads pause on every connection, so pending
     * overshoots it by at most the lines of one 16 KiB read (16 KiB
     * / line length); paused connections then read in turn.
     */
    size_t max_pending_requests = 1024;
    /** Per-line byte cap (longer NDJSON lines are rejected). */
    size_t max_line_bytes = 1 << 20;
    /** Per-connection output-queue byte cap (overflow = close). */
    size_t max_output_bytes = 4u << 20;
    /** Idle connections (no progress, no in-flight) are closed. */
    double idle_timeout_ms = 30000.0;
    /** Drain grace period before the hard-kill fallback fires. */
    double drain_grace_ms = 10000.0;
    /** Event-loop housekeeping granularity. */
    double tick_ms = 50.0;
    /**
     * WAL-backed durable store (nullable). The tick loop drives its
     * degraded-mode recovery probes and logs state transitions;
     * drain compacts it.
     */
    DurableStore *store = nullptr;
    /**
     * Test hook: stall each worker this long per request, so chaos
     * tests can saturate the pending watermark deterministically.
     */
    double debug_stall_ms = 0.0;
    /** Sliding-window sizing for the per-server quantiles. */
    RequestMetricsConfig request_metrics;
    /** JSONL access log (path empty = disabled). */
    AccessLogConfig access_log;
    /** Requests slower than this dump a span breakdown (0=off). */
    double slow_request_ms = 0.0;
    /**
     * Whole-network graph serving (nullable = graph requests are
     * rejected). Must outlive the server.
     */
    GraphService *graph = nullptr;
};

/** Monotonic server counters (mirrored to support/metrics). */
struct ServerStats {
    int64_t accepted_conns = 0;
    int64_t closed_conns = 0;
    /** Accepts refused by the connection cap. */
    int64_t rejected_conn_limit = 0;
    /** Accepts refused by the per-IP cap. */
    int64_t rejected_ip_limit = 0;
    int64_t requests = 0;
    int64_t responses = 0;
    /** Requests answered "overloaded" by admission control. */
    int64_t shed_overloaded = 0;
    /** Requests answered "deadline_exceeded". */
    int64_t deadline_exceeded = 0;
    /** Lines over max_line_bytes (discarded, answered with error). */
    int64_t oversized_lines = 0;
    int64_t parse_errors = 0;
    int64_t idle_disconnects = 0;
    /** Clients disconnected for output-queue overflow. */
    int64_t overflow_disconnects = 0;
    /** Drains begun (SIGTERM / shutdown cmd / request_drain). */
    int64_t drains = 0;
    /** Drains finished by the hard-kill fallback. */
    int64_t hard_kills = 0;
};

/** What the transport should do after delivering a response. */
enum class RequestAction : uint8_t {
    kNone = 0,
    /** Close this connection once the response is flushed (quit). */
    kCloseConn,
    /** Gracefully drain the whole server (shutdown). */
    kDrainServer,
};

/** execute_request outcome: the response line plus follow-up. */
struct ExecutedRequest {
    std::string response;
    RequestAction action = RequestAction::kNone;
    /** Observability: which tier answered (lookups only). */
    LookupTier tier = LookupTier::kMiss;
    /** False when the response is an error line. */
    bool ok = true;
    bool deadline_exceeded = false;
    /** Registry/command execution time, microseconds. */
    double handle_us = 0.0;
    /** Response formatting time, microseconds. */
    double serialize_us = 0.0;
};

/**
 * Everything execute_request needs, bundled so the TCP workers, the
 * stdio loop, and tests share one handler signature. Only
 * `registry` is required; the observability members are nullable
 * and simply enrich the stats/metrics responses when present.
 */
struct ServeContext {
    KernelRegistry *registry = nullptr;
    TuneQueue *queue = nullptr;
    /** Aborts a blocking "drain" wait (server hard-kill). */
    const std::atomic<bool> *cancel = nullptr;
    /** Windowed quantiles for the metrics response (nullable). */
    const RequestMetrics *request_metrics = nullptr;
    /** Uptime/pid/build for the stats response (nullable). */
    const ServeRuntime *runtime = nullptr;
    /** Durable store for health/stats/save and the degraded flag
     * on miss responses (nullable). */
    DurableStore *store = nullptr;
    /** Graph serving front-end (nullable = graph cmds error). */
    GraphService *graph = nullptr;
};

/**
 * Execute one parsed request against @p ctx: the shared request
 * handler behind both the TCP workers and heron_serve's --stdio
 * loop. @p arrival anchors the request's deadline_ms budget;
 * expired requests answer "deadline_exceeded" without burning
 * solver time.
 */
ExecutedRequest
execute_request(const Request &request,
                std::chrono::steady_clock::time_point arrival,
                const ServeContext &ctx);

/** The epoll TCP serving front-end (see file header). */
class Server
{
  public:
    /**
     * @p registry and @p queue (nullable) must outlive the server.
     * The queue serves the drain/stats commands; miss handling
     * stays wired through the registry's miss handler exactly as
     * in stdio mode.
     */
    Server(KernelRegistry &registry, TuneQueue *queue,
           ServerConfig config = {});

    /** Drains (bounded by drain_grace_ms) and joins. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the event loop + workers. False with
     * @p error set when the socket cannot be bound.
     */
    bool start(std::string *error);

    /** Bound port (valid after start; useful with port = 0). */
    uint16_t port() const { return bound_port_; }

    /**
     * Begin a graceful drain: stop accepting, finish in-flight
     * requests, flush, compact the store, exit the loop. Safe to
     * call from a signal handler (atomic flag + eventfd write) and
     * idempotent.
     */
    void request_drain();

    /**
     * Block until the loop has exited (a drain completed). Returns
     * 0 for a graceful drain, 1 when the hard-kill fallback fired.
     */
    int wait();

    /** request_drain() + wait(). */
    int stop();

    ServerStats stats() const;

    /** Windowed per-endpoint/per-tier quantiles (thread-safe). */
    const RequestMetrics &request_metrics() const
    {
        return request_metrics_;
    }

    /** Access-log accounting (zeros when disabled). */
    AccessLogStats access_log_stats() const
    {
        return access_log_.stats();
    }

  private:
    struct WorkItem {
        uint64_t conn_id = 0;
        Request request;
        std::chrono::steady_clock::time_point arrival;
        /** parse_request() cost, stamped by the loop thread. */
        double parse_us = 0.0;
    };

    struct Completion {
        uint64_t conn_id = 0;
        std::string response;
        RequestAction action = RequestAction::kNone;
        /** Lifecycle record; write_us/total filled at delivery. */
        RequestObservation obs;
    };

    /** One executor thread's queue (per-connection affinity). */
    struct Worker {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<WorkItem> items;
        std::thread thread;
    };

    KernelRegistry &registry_;
    TuneQueue *queue_;
    ServerConfig config_;

    /** Observability state (see serve/observe.h). */
    RequestMetrics request_metrics_;
    AccessLog access_log_;
    ServeRuntime runtime_;
    ObserveConfig observe_config_;
    /** The context workers execute requests against. */
    ServeContext exec_ctx_;

    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int wake_fd_ = -1;
    uint16_t bound_port_ = 0;

    std::thread loop_thread_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::atomic<bool> workers_running_{false};
    /** Cancels blocking drain-cmd waits on hard-kill. */
    std::atomic<bool> drain_cancel_{false};

    /** Loop-thread-owned connection table and accounting. */
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    std::unordered_map<std::string, int> conns_per_ip_;
    uint64_t next_conn_id_ = 2; // 0 = listener, 1 = wake fd
    size_t pending_requests_ = 0;
    /** (max_pending_requests + 1) / 2: reads pause at this mark. */
    size_t soft_watermark_ = 0;
    /** Set when pending reaches soft_watermark_; cleared by
     * resume_reads() once answers bring it back below. */
    bool reads_paused_ = false;
    /** Connections paused with reads wanted, in the order they were
     * refused; resume_reads() gives them their turns. */
    std::deque<uint64_t> read_waiters_;

    /** Worker -> loop completion handoff. */
    std::mutex completions_mu_;
    std::vector<Completion> completions_;

    std::atomic<bool> drain_requested_{false};
    bool drain_active_ = false;
    /** Last store state seen by tick(), for transition events. */
    StoreState last_store_state_ = StoreState::kHealthy;
    std::chrono::steady_clock::time_point drain_deadline_{};
    bool loop_running_ = false;
    bool graceful_exit_ = true;
    std::atomic<bool> exited_{false};

    /** Counters (relaxed atomics; snapshot via stats()). */
    std::atomic<int64_t> accepted_conns_{0};
    std::atomic<int64_t> closed_conns_{0};
    std::atomic<int64_t> rejected_conn_limit_{0};
    std::atomic<int64_t> rejected_ip_limit_{0};
    std::atomic<int64_t> requests_{0};
    std::atomic<int64_t> responses_{0};
    std::atomic<int64_t> shed_overloaded_{0};
    std::atomic<int64_t> deadline_exceeded_{0};
    std::atomic<int64_t> oversized_lines_{0};
    std::atomic<int64_t> parse_errors_{0};
    std::atomic<int64_t> idle_disconnects_{0};
    std::atomic<int64_t> overflow_disconnects_{0};
    std::atomic<int64_t> drains_{0};
    std::atomic<int64_t> hard_kills_{0};

    void loop();
    void worker_loop(Worker &worker);

    void accept_ready();
    void conn_readable(Conn &conn);
    void conn_writable(Conn &conn);
    /** Handle one complete request line from @p conn. */
    void on_line(Conn &conn, const std::string &line, bool overflow,
                 bool *kill_conn);
    /**
     * Admission control: "" admits the request, "hard_watermark"
     * sheds it. The soft watermark never sheds; it pauses reads.
     */
    const char *shed_reason() const;
    /** Record a finished/shed request everywhere it should land. */
    void observe(RequestObservation &obs,
                 std::chrono::steady_clock::time_point now);
    /** Stamp total/deadline-slack, then observe(). */
    void finish_observation(
        RequestObservation &obs,
        std::chrono::steady_clock::time_point now);
    void process_completions();
    /** Lift the read pause and serve queued read turns in order. */
    void resume_reads();
    void begin_drain();
    /** Close everything, compact the store, stop the loop. */
    void finish_drain(bool graceful);
    void tick(std::chrono::steady_clock::time_point now);

    /** Flush + refresh epoll interest; closes on fatal error. */
    void flush_and_update(Conn &conn);
    /** Close when EOF seen, nothing in flight, nothing queued. */
    void maybe_close_quiesced(Conn &conn);
    void update_interest(Conn &conn);
    void close_conn(Conn &conn);
    Conn *find_conn(uint64_t id);

    int64_t now_ms() const;
};

} // namespace heron::serve

#endif // HERON_SERVE_SERVER_H
