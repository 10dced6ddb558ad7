#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/json_util.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;

bool
set_nonblocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/**
 * Best-effort single write used for connections refused at accept
 * time (cap/per-IP): the socket was never registered, so a partial
 * or failed write just means the client learns nothing before the
 * close — acceptable for a rejection path.
 */
void
send_reject_and_close(int fd, const std::string &line)
{
    std::string wire = line + "\n";
    (void)::send(fd, wire.data(), wire.size(),
                 MSG_DONTWAIT | MSG_NOSIGNAL);
    ::close(fd);
}

} // namespace

ExecutedRequest
execute_request(const Request &request, Clock::time_point arrival,
                const ServeContext &ctx)
{
    HERON_TRACE_SCOPE("serve/request");
    KernelRegistry &registry = *ctx.registry;
    TuneQueue *queue = ctx.queue;
    ExecutedRequest out;
    Clock::time_point handle_start = Clock::now();
    // Serialize time is whatever happens after the handler body
    // stamps this (response formatting); handlers that never stamp
    // it report the whole cost as handle time.
    Clock::time_point serialize_start = handle_start;
    switch (request.kind) {
      case Request::Kind::kLookup: {
        LookupOptions options;
        if (request.deadline_ms > 0.0)
            options.deadline =
                arrival +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        request.deadline_ms));
        if (options.deadline &&
            handle_start >= *options.deadline) {
            // Expired while queued: answering "late but right"
            // helps nobody and burns solver time the next request
            // needs. Answer the failure explicitly and move on.
            HERON_COUNTER_INC("serve.request.deadline_exceeded");
            out.response = format_error_response(
                request.id, "deadline_exceeded");
            out.ok = false;
            out.deadline_exceeded = true;
            break;
        }
        LookupResult result =
            registry.lookup(request.workload, options);
        serialize_start = Clock::now();
        out.tier = result.tier;
        if (!result.hit() && result.deadline_expired) {
            HERON_COUNTER_INC("serve.request.deadline_exceeded");
            out.response = format_error_response(
                request.id, "deadline_exceeded");
            out.ok = false;
            out.deadline_exceeded = true;
            break;
        }
        // A degraded store pauses tune intake; flag the miss so
        // clients can tell the pause from a full queue.
        bool degraded =
            ctx.store != nullptr && !ctx.store->healthy();
        out.response =
            format_lookup_response(request.id, result, degraded);
        break;
      }
      case Request::Kind::kGraph: {
        if (ctx.graph == nullptr) {
            out.response = format_error_response(
                request.id, "graph serving disabled");
            out.ok = false;
            break;
        }
        LookupOptions options;
        if (request.deadline_ms > 0.0)
            options.deadline =
                arrival +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        request.deadline_ms));
        GraphResult result = ctx.graph->handle_graph(
            request.network, options, request.graph_inline);
        serialize_start = Clock::now();
        out.response = format_graph_response(request.id, result);
        break;
      }
      case Request::Kind::kGraphStatus: {
        if (ctx.graph == nullptr) {
            out.response = format_error_response(
                request.id, "graph serving disabled");
            out.ok = false;
            break;
        }
        auto result = ctx.graph->handle_status(request.graph_id);
        serialize_start = Clock::now();
        if (result) {
            out.response =
                format_graph_response(request.id, *result);
        } else {
            out.response = format_error_response(
                request.id,
                "unknown graph " +
                    std::to_string(request.graph_id));
            out.ok = false;
        }
        break;
      }
      case Request::Kind::kStats: {
        GraphServiceStats graph_stats;
        if (ctx.graph)
            graph_stats = ctx.graph->stats();
        serialize_start = Clock::now();
        out.response = format_stats_response(
            request.id, registry, queue, ctx.runtime, ctx.store,
            ctx.graph ? &graph_stats : nullptr);
        break;
      }
      case Request::Kind::kMetrics: {
        serialize_start = Clock::now();
        out.response = format_metrics_response(request.id, registry,
                                               ctx.request_metrics);
        break;
      }
      case Request::Kind::kDrain: {
        bool drained = true;
        if (queue) {
            if (ctx.cancel) {
                // Poll instead of blocking in TuneQueue::drain so a
                // server hard-kill can cancel the wait.
                for (;;) {
                    if (ctx.cancel->load(
                            std::memory_order_relaxed)) {
                        drained = false;
                        break;
                    }
                    TuneQueueLoad load = queue->load();
                    if (load.depth == 0 && !load.in_flight)
                        break;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
            } else {
                queue->drain();
            }
        }
        serialize_start = Clock::now();
        out.response =
            format_ack_response(request.id, "drained", drained);
        break;
      }
      case Request::Kind::kSave: {
        bool saved = ctx.store != nullptr && ctx.store->compact_now();
        serialize_start = Clock::now();
        out.response =
            format_ack_response(request.id, "saved", saved);
        break;
      }
      case Request::Kind::kHealth: {
        serialize_start = Clock::now();
        out.response =
            format_health_response(request.id, ctx.store);
        break;
      }
      case Request::Kind::kQuit:
        out.response =
            format_ack_response(request.id, "quitting", true);
        out.action = RequestAction::kCloseConn;
        break;
      case Request::Kind::kShutdown:
        out.response =
            format_ack_response(request.id, "shutting_down", true);
        out.action = RequestAction::kDrainServer;
        break;
    }
    Clock::time_point done = Clock::now();
    out.handle_us =
        std::chrono::duration<double, std::micro>(
            serialize_start - handle_start)
            .count();
    out.serialize_us = std::chrono::duration<double, std::micro>(
                           done - serialize_start)
                           .count();
    return out;
}

Server::Server(KernelRegistry &registry, TuneQueue *queue,
               ServerConfig config)
    : registry_(registry), queue_(queue),
      config_(std::move(config)),
      request_metrics_(config_.request_metrics),
      access_log_(config_.access_log),
      runtime_(ServeRuntime::current())
{
    config_.max_connections = std::max(1, config_.max_connections);
    config_.max_connections_per_ip =
        std::max(1, config_.max_connections_per_ip);
    config_.workers = std::max(1, config_.workers);
    config_.max_pending_requests =
        std::max<size_t>(1, config_.max_pending_requests);
    config_.tick_ms = std::max(1.0, config_.tick_ms);
    soft_watermark_ = (config_.max_pending_requests + 1) / 2;
    observe_config_.slow_request_ms = config_.slow_request_ms;
    exec_ctx_.registry = &registry_;
    exec_ctx_.queue = queue_;
    exec_ctx_.cancel = &drain_cancel_;
    exec_ctx_.request_metrics = &request_metrics_;
    exec_ctx_.runtime = &runtime_;
    exec_ctx_.store = config_.store;
    exec_ctx_.graph = config_.graph;
}

Server::~Server()
{
    if (loop_thread_.joinable())
        stop();
    if (wake_fd_ >= 0) {
        ::close(wake_fd_);
        wake_fd_ = -1;
    }
}

bool
Server::start(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what + ": " + std::strerror(errno);
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
        if (epoll_fd_ >= 0)
            ::close(epoll_fd_);
        if (wake_fd_ >= 0)
            ::close(wake_fd_);
        listen_fd_ = epoll_fd_ = wake_fd_ = -1;
        return false;
    };

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        return fail("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (!set_nonblocking(listen_fd_))
        return fail("fcntl");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(),
                    &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("inet_pton " + config_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind " + config_.host + ":" +
                    std::to_string(config_.port));
    if (::listen(listen_fd_, 128) != 0)
        return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    bound_port_ = ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0)
        return fail("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0)
        return fail("eventfd");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
        return fail("epoll_ctl listener");
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0)
        return fail("epoll_ctl wake");

    if (!config_.access_log.path.empty()) {
        std::string log_error;
        if (!access_log_.open(&log_error)) {
            HERON_WARN << "serve: " << log_error
                       << "; continuing without an access log";
        }
    }

    workers_running_.store(true);
    for (int i = 0; i < config_.workers; ++i) {
        workers_.push_back(std::make_unique<Worker>());
        Worker &worker = *workers_.back();
        worker.thread =
            std::thread([this, &worker] { worker_loop(worker); });
    }
    loop_running_ = true;
    loop_thread_ = std::thread([this] { loop(); });
    HERON_INFO << "serve: listening on " << config_.host << ":"
               << bound_port_ << " (" << config_.workers
               << " workers, " << config_.max_connections
               << " conns max)";
    return true;
}

void
Server::request_drain()
{
    // Async-signal-safe: one atomic store and one write(2).
    drain_requested_.store(true, std::memory_order_release);
    uint64_t one = 1;
    ssize_t ignored [[maybe_unused]] =
        ::write(wake_fd_, &one, sizeof(one));
}

int
Server::wait()
{
    if (loop_thread_.joinable())
        loop_thread_.join();
    // The loop has exited; release the executors. drain_cancel_
    // unblocks any worker still polling inside a "drain" command.
    drain_cancel_.store(true, std::memory_order_relaxed);
    workers_running_.store(false);
    for (auto &worker : workers_) {
        {
            std::lock_guard<std::mutex> lock(worker->mu);
        }
        worker->cv.notify_all();
    }
    for (auto &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();
    // Workers are gone; now the loop's fds can close safely.
    // wake_fd_ stays open until destruction so a late
    // request_drain() (e.g. a second SIGTERM) writes to a dead-but-
    // owned fd instead of whatever reused the number.
    if (epoll_fd_ >= 0) {
        ::close(epoll_fd_);
        epoll_fd_ = -1;
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    return graceful_exit_ ? 0 : 1;
}

int
Server::stop()
{
    request_drain();
    return wait();
}

ServerStats
Server::stats() const
{
    ServerStats stats;
    stats.accepted_conns =
        accepted_conns_.load(std::memory_order_relaxed);
    stats.closed_conns =
        closed_conns_.load(std::memory_order_relaxed);
    stats.rejected_conn_limit =
        rejected_conn_limit_.load(std::memory_order_relaxed);
    stats.rejected_ip_limit =
        rejected_ip_limit_.load(std::memory_order_relaxed);
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.responses = responses_.load(std::memory_order_relaxed);
    stats.shed_overloaded =
        shed_overloaded_.load(std::memory_order_relaxed);
    stats.deadline_exceeded =
        deadline_exceeded_.load(std::memory_order_relaxed);
    stats.oversized_lines =
        oversized_lines_.load(std::memory_order_relaxed);
    stats.parse_errors =
        parse_errors_.load(std::memory_order_relaxed);
    stats.idle_disconnects =
        idle_disconnects_.load(std::memory_order_relaxed);
    stats.overflow_disconnects =
        overflow_disconnects_.load(std::memory_order_relaxed);
    stats.drains = drains_.load(std::memory_order_relaxed);
    stats.hard_kills = hard_kills_.load(std::memory_order_relaxed);
    return stats;
}

int64_t
Server::now_ms() const
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now().time_since_epoch())
        .count();
}

Conn *
Server::find_conn(uint64_t id)
{
    auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : it->second.get();
}

void
Server::update_interest(Conn &conn)
{
    uint32_t want = 0;
    // Reads stop at EOF and during drain (no new requests), and
    // pause on every connection while pending work is at the soft
    // watermark: pipelining clients then wait in their socket
    // buffers for answers instead of pushing the server, together,
    // past the hard watermark. A paused connection joins the FIFO of
    // read turns that resume_reads() serves. Writes are
    // level-triggered only while output is queued.
    if (!conn.saw_eof() && !drain_active_) {
        if (!reads_paused_) {
            want |= EPOLLIN;
        } else if (!conn.read_waiting) {
            conn.read_waiting = true;
            read_waiters_.push_back(conn.id());
        }
    }
    if (conn.has_output())
        want |= EPOLLOUT;
    if (want == conn.interest)
        return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd(), &ev);
    conn.interest = want;
}

void
Server::close_conn(Conn &conn)
{
    uint64_t id = conn.id();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd(), nullptr);
    ::close(conn.fd());
    auto ip = conns_per_ip_.find(conn.peer_ip());
    if (ip != conns_per_ip_.end() && --ip->second <= 0)
        conns_per_ip_.erase(ip);
    conns_.erase(id);
    closed_conns_.fetch_add(1, std::memory_order_relaxed);
    HERON_COUNTER_INC("serve.server.closed_conns");
}

void
Server::accept_ready()
{
    for (;;) {
        sockaddr_in addr{};
        socklen_t len = sizeof(addr);
        int fd = ::accept4(listen_fd_,
                           reinterpret_cast<sockaddr *>(&addr),
                           &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // EAGAIN = drained the backlog; EMFILE/ENFILE etc. are
            // transient — log and retry on the next readable event.
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                HERON_WARN << "serve: accept failed: "
                           << std::strerror(errno);
            }
            return;
        }
        if (drain_active_) {
            ::close(fd);
            continue;
        }
        if (conns_.size() >=
            static_cast<size_t>(config_.max_connections)) {
            rejected_conn_limit_.fetch_add(
                1, std::memory_order_relaxed);
            HERON_COUNTER_INC("serve.server.rejected_conn_limit");
            send_reject_and_close(
                fd, format_error_response(0, "overloaded"));
            continue;
        }
        char ip_text[INET_ADDRSTRLEN] = "?";
        ::inet_ntop(AF_INET, &addr.sin_addr, ip_text,
                    sizeof(ip_text));
        std::string ip(ip_text);
        int &per_ip = conns_per_ip_[ip];
        if (per_ip >= config_.max_connections_per_ip) {
            if (per_ip <= 0)
                conns_per_ip_.erase(ip);
            rejected_ip_limit_.fetch_add(1,
                                         std::memory_order_relaxed);
            HERON_COUNTER_INC("serve.server.rejected_ip_limit");
            send_reject_and_close(
                fd, format_error_response(0, "overloaded"));
            continue;
        }
        ++per_ip;
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));

        uint64_t id = next_conn_id_++;
        auto conn = std::make_unique<Conn>(
            fd, id, ip, config_.max_line_bytes,
            config_.max_output_bytes);
        conn->last_activity_ms = now_ms();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            if (--conns_per_ip_[ip] <= 0)
                conns_per_ip_.erase(ip);
            continue;
        }
        conn->interest = EPOLLIN;
        conns_.emplace(id, std::move(conn));
        accepted_conns_.fetch_add(1, std::memory_order_relaxed);
        HERON_COUNTER_INC("serve.server.accepted_conns");
    }
}

const char *
Server::shed_reason() const
{
    return pending_requests_ >= config_.max_pending_requests
               ? "hard_watermark"
               : "";
}

void
Server::on_line(Conn &conn, const std::string &line, bool overflow,
                bool *kill_conn)
{
    if (*kill_conn)
        return; // a previous line already doomed the connection
    auto queue_or_kill = [&](const std::string &response) {
        if (!conn.queue_line(response)) {
            overflow_disconnects_.fetch_add(
                1, std::memory_order_relaxed);
            HERON_COUNTER_INC("serve.server.overflow_disconnects");
            *kill_conn = true;
        } else {
            responses_.fetch_add(1, std::memory_order_relaxed);
        }
    };

    if (overflow) {
        oversized_lines_.fetch_add(1, std::memory_order_relaxed);
        HERON_COUNTER_INC("serve.server.oversized_lines");
        queue_or_kill(format_error_response(
            0, "request line exceeds " +
                   std::to_string(config_.max_line_bytes) +
                   " bytes"));
        return;
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos)
        return;

    requests_.fetch_add(1, std::memory_order_relaxed);
    HERON_COUNTER_INC("serve.server.requests");
    Clock::time_point parse_start = Clock::now();
    std::string error;
    auto request = parse_request(line, registry_.spec(), &error);
    Clock::time_point parsed = Clock::now();
    double parse_us = std::chrono::duration<double, std::micro>(
                          parsed - parse_start)
                          .count();
    if (!request) {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        HERON_COUNTER_INC("serve.server.parse_errors");
        int64_t id = 0;
        if (auto token = json_extract(line, "id"))
            id = std::atoll(token->c_str());
        RequestObservation obs;
        obs.id = id;
        obs.endpoint = "invalid";
        obs.ok = false;
        obs.parse_us = parse_us;
        obs.total_us = parse_us;
        obs.arrival = parse_start;
        observe(obs, parsed);
        queue_or_kill(format_error_response(id, error));
        return;
    }

    const char *shed = shed_reason();
    if (*shed) {
        shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
        HERON_COUNTER_INC("serve.server.shed_overloaded");
        RequestObservation obs;
        obs.id = request->id;
        obs.endpoint = request_kind_name(request->kind);
        obs.ok = false;
        obs.shed_reason = shed;
        obs.parse_us = parse_us;
        obs.total_us = parse_us;
        obs.arrival = parse_start;
        observe(obs, parsed);
        queue_or_kill(
            format_error_response(request->id, "overloaded"));
        return;
    }

    WorkItem item;
    item.conn_id = conn.id();
    item.request = std::move(*request);
    item.arrival = parsed;
    item.parse_us = parse_us;
    ++pending_requests_;
    ++conn.in_flight;
    if (pending_requests_ >= soft_watermark_)
        reads_paused_ = true;
    // Per-connection worker affinity keeps pipelined responses in
    // request order.
    Worker &worker =
        *workers_[conn.id() % workers_.size()];
    {
        std::lock_guard<std::mutex> lock(worker.mu);
        worker.items.push_back(std::move(item));
    }
    worker.cv.notify_one();
}

void
Server::conn_readable(Conn &conn)
{
    // One read per readiness event. epoll is level-triggered, so a
    // socket with more input is reported again on the next wait,
    // and process_completions() runs in between: pending_requests_
    // drops as answers come back instead of only after the whole
    // backlog is admitted. A pipelined burst larger than the
    // watermark is then answered, not shed, and one busy connection
    // cannot monopolize the loop. A readiness event can be stale:
    // an earlier connection in the same epoll_wait batch may have
    // raised pending to the soft watermark, so re-check the pause
    // here, leave the bytes in the socket buffer and queue for a
    // turn.
    if (reads_paused_) {
        update_interest(conn);
        return;
    }
    char buf[16384];
    ssize_t n;
    do {
        n = ::read(conn.fd(), buf, sizeof(buf));
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
        conn.last_activity_ms = now_ms();
        bool kill_conn = false;
        conn.scanner().feed(
            buf, static_cast<size_t>(n),
            [&](const std::string &line, bool overflow) {
                on_line(conn, line, overflow, &kill_conn);
            });
        if (kill_conn) {
            close_conn(conn);
            return;
        }
    } else if (n == 0) {
        // Half-close: the client finished sending but may still be
        // reading. Stop expecting requests; the connection dies
        // once in-flight responses are delivered.
        conn.set_saw_eof();
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        close_conn(conn);
        return;
    }
    flush_and_update(conn);
}

void
Server::conn_writable(Conn &conn)
{
    conn.last_activity_ms = now_ms();
    flush_and_update(conn);
}

void
Server::flush_and_update(Conn &conn)
{
    if (!conn.flush()) {
        close_conn(conn);
        return;
    }
    if (!conn.has_output() && conn.close_after_flush()) {
        close_conn(conn);
        return;
    }
    maybe_close_quiesced(conn);
}

void
Server::maybe_close_quiesced(Conn &conn)
{
    if (conn.saw_eof() && conn.in_flight == 0 &&
        !conn.has_output()) {
        close_conn(conn);
        return;
    }
    update_interest(conn);
}

void
Server::process_completions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completions_mu_);
        batch.swap(completions_);
    }
    for (auto &completion : batch) {
        if (pending_requests_ > 0)
            --pending_requests_;
        if (completion.action == RequestAction::kDrainServer)
            drain_requested_.store(true,
                                   std::memory_order_release);
        Conn *conn = find_conn(completion.conn_id);
        RequestObservation &obs = completion.obs;
        if (!conn) {
            // Client died before its answer was ready; still a
            // finished request for the latency windows.
            finish_observation(obs, Clock::now());
            continue;
        }
        if (conn->in_flight > 0)
            --conn->in_flight;
        Clock::time_point write_start = Clock::now();
        if (!conn->queue_line(completion.response)) {
            overflow_disconnects_.fetch_add(
                1, std::memory_order_relaxed);
            HERON_COUNTER_INC("serve.server.overflow_disconnects");
            finish_observation(obs, write_start);
            close_conn(*conn);
            continue;
        }
        responses_.fetch_add(1, std::memory_order_relaxed);
        if (completion.action == RequestAction::kCloseConn)
            conn->set_close_after_flush();
        flush_and_update(*conn);
        Clock::time_point written = Clock::now();
        obs.write_us = std::chrono::duration<double, std::micro>(
                           written - write_start)
                           .count();
        finish_observation(obs, written);
    }
}

void
Server::resume_reads()
{
    // Once answers bring pending below the soft watermark, paused
    // connections take one read each, oldest turn first, until a
    // read fills the mark again; the rest keep their place. A client
    // that refills its socket as fast as it is read rejoins at the
    // back, so it cannot starve the others. Each read re-arms its
    // connection, so an emptied queue leaves none paused.
    if (!reads_paused_ || drain_active_ ||
        pending_requests_ >= soft_watermark_)
        return;
    reads_paused_ = false;
    while (!reads_paused_ && !read_waiters_.empty()) {
        uint64_t id = read_waiters_.front();
        read_waiters_.pop_front();
        if (Conn *conn = find_conn(id)) {
            conn->read_waiting = false;
            conn_readable(*conn);
        }
    }
}

void
Server::finish_observation(RequestObservation &obs,
                           Clock::time_point now)
{
    obs.total_us = std::chrono::duration<double, std::micro>(
                       now - obs.arrival)
                       .count() +
                   obs.parse_us;
    if (obs.has_deadline)
        obs.deadline_slack_ms =
            obs.deadline_ms - obs.total_us / 1e3;
    observe(obs, now);
}

void
Server::begin_drain()
{
    if (drain_active_)
        return;
    drain_active_ = true;
    drains_.fetch_add(1, std::memory_order_relaxed);
    HERON_COUNTER_INC("serve.server.drains");
    HERON_INFO << "serve: draining (" << conns_.size()
               << " conns, " << pending_requests_
               << " in-flight requests)";
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Stop reading: accepted requests finish, new bytes wait in
    // kernel buffers that die with the connection.
    for (auto &[id, conn] : conns_)
        update_interest(*conn);
    drain_deadline_ =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               config_.drain_grace_ms));
}

void
Server::finish_drain(bool graceful)
{
    if (!graceful) {
        hard_kills_.fetch_add(1, std::memory_order_relaxed);
        HERON_COUNTER_INC("serve.server.hard_kills");
        HERON_WARN << "serve: drain grace expired; hard-killing "
                   << conns_.size() << " connection(s) with "
                   << pending_requests_ << " request(s) in flight";
        // Unblock any worker still waiting inside a drain command.
        drain_cancel_.store(true, std::memory_order_relaxed);
    }
    while (!conns_.empty()) {
        Conn &conn = *conns_.begin()->second;
        conn.flush(); // best effort
        close_conn(conn);
    }
    // The WAL already holds every acknowledged record; the
    // compaction just leaves a tidy snapshot behind.
    if (config_.store != nullptr && !config_.store->compact_now()) {
        HERON_WARN << "serve: drain compaction failed (WAL "
                      "segments remain authoritative)";
    }
    // The access-log tail is part of the drain contract: whatever
    // was observed before the drain finishes must be on disk.
    access_log_.flush();
    graceful_exit_ = graceful;
    loop_running_ = false;
}

void
Server::observe(RequestObservation &obs, Clock::time_point now)
{
    observe_request(obs, &request_metrics_,
                    access_log_.enabled() ? &access_log_ : nullptr,
                    observe_config_, now);
}

void
Server::tick(Clock::time_point now)
{
    if (config_.store != nullptr) {
        // Drive degraded-mode recovery probes even when no tune
        // completes, and log state transitions unsampled so an
        // operator can line them up against the failed requests.
        config_.store->tick(now);
        StoreState state = config_.store->state();
        if (state != last_store_state_) {
            last_store_state_ = state;
            HERON_GAUGE_SET("serve.store.degraded",
                            state == StoreState::kDegraded ? 1.0
                                                           : 0.0);
            if (access_log_.enabled()) {
                std::ostringstream line;
                line << "{\"event\":\""
                     << (state == StoreState::kDegraded
                             ? "store_degraded"
                             : "store_recovered")
                     << "\",\"store\":"
                     << config_.store->stats().to_json() << "}";
                access_log_.append(line.str(), /*always=*/true);
            }
        }
    }
    if (drain_active_) {
        bool workers_idle = true;
        // pending_requests_ counts admitted-but-unanswered work;
        // zero means every accepted request has its response queued
        // (or its connection died).
        if (pending_requests_ > 0)
            workers_idle = false;
        bool flushed = true;
        for (auto &[id, conn] : conns_)
            if (conn->has_output())
                flushed = false;
        if (workers_idle && flushed) {
            finish_drain(true);
            return;
        }
        if (now >= drain_deadline_) {
            finish_drain(false);
            return;
        }
        return;
    }

    // Idle sweep: a connection with no read/write progress and no
    // request in flight is a slow-loris seat — reclaim it. One that
    // waits for a read turn (reads paused at the soft watermark) is
    // waiting on the server, not idle.
    int64_t now_ms_value =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now.time_since_epoch())
            .count();
    std::vector<uint64_t> idle;
    for (auto &[id, conn] : conns_) {
        if (conn->in_flight == 0 &&
            now_ms_value - conn->last_activity_ms >
                static_cast<int64_t>(config_.idle_timeout_ms) &&
            !conn->read_waiting)
            idle.push_back(id);
    }
    for (uint64_t id : idle) {
        if (Conn *conn = find_conn(id)) {
            idle_disconnects_.fetch_add(1,
                                        std::memory_order_relaxed);
            HERON_COUNTER_INC("serve.server.idle_disconnects");
            close_conn(*conn);
        }
    }
}

void
Server::loop()
{
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    while (loop_running_) {
        int timeout = static_cast<int>(config_.tick_ms);
        int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                             timeout);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            HERON_WARN << "serve: epoll_wait failed: "
                       << std::strerror(errno);
            break;
        }
        for (int i = 0; i < n; ++i) {
            uint64_t id = events[i].data.u64;
            uint32_t mask = events[i].events;
            if (id == kWakeId) {
                uint64_t drained;
                while (::read(wake_fd_, &drained,
                              sizeof(drained)) > 0) {
                }
                continue;
            }
            if (id == kListenerId) {
                if (listen_fd_ >= 0)
                    accept_ready();
                continue;
            }
            Conn *conn = find_conn(id);
            if (!conn)
                continue; // closed earlier in this batch
            if (mask & (EPOLLERR | EPOLLHUP)) {
                // Flush whatever still fits (the peer may have
                // only half-closed), then drop.
                conn->flush();
                close_conn(*conn);
                continue;
            }
            if (mask & EPOLLIN) {
                conn_readable(*conn);
                conn = find_conn(id);
                if (!conn)
                    continue;
            }
            if (mask & EPOLLOUT)
                conn_writable(*conn);
        }
        process_completions();
        if (drain_requested_.load(std::memory_order_acquire))
            begin_drain();
        resume_reads();
        tick(Clock::now());
    }
    // fds stay open: workers still write wake_fd_ until wait()
    // joins them, and closing here would race (and risk fd reuse).
    exited_.store(true, std::memory_order_release);
}

void
Server::worker_loop(Worker &worker)
{
    std::vector<WorkItem> batch;
    for (;;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(worker.mu);
            worker.cv.wait(lock, [&] {
                return !worker.items.empty() ||
                       !workers_running_.load(
                           std::memory_order_relaxed);
            });
            if (worker.items.empty())
                return; // stopping and drained
            // Drain the whole queue under one lock: a pipelined
            // connection's burst is then answered without retaking
            // it per request.
            while (!worker.items.empty()) {
                batch.push_back(std::move(worker.items.front()));
                worker.items.pop_front();
            }
        }

        for (WorkItem &item : batch) {
            Clock::time_point dispatched = Clock::now();
            if (config_.debug_stall_ms > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        config_.debug_stall_ms));
            ExecutedRequest executed = execute_request(
                item.request, item.arrival, exec_ctx_);
            if (executed.deadline_exceeded)
                deadline_exceeded_.fetch_add(
                    1, std::memory_order_relaxed);
            Completion completion;
            completion.conn_id = item.conn_id;
            completion.response = std::move(executed.response);
            completion.action = executed.action;
            completion.obs = executed_observation(
                item.request, executed, item.parse_us, item.arrival);
            // debug_stall_ms burns inside the "queue" phase on
            // purpose: it models a starved executor, which is
            // queueing delay.
            completion.obs.queue_us =
                std::chrono::duration<double, std::micro>(
                    dispatched - item.arrival)
                    .count() +
                config_.debug_stall_ms * 1e3;
            {
                std::lock_guard<std::mutex> lock(completions_mu_);
                completions_.push_back(std::move(completion));
            }
        }
        uint64_t one = 1;
        ssize_t ignored [[maybe_unused]] =
            ::write(wake_fd_, &one, sizeof(one));
    }
}

} // namespace heron::serve
