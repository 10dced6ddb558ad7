/**
 * @file
 * heron_serve: the kernel-library server.
 *
 * Loads a tuned-schedule store for one DLA and answers workload
 * lookups over a newline-delimited JSON protocol (see
 * serve/protocol.h). By default it fronts a TCP server
 * (serve/server.h) with admission control, per-request deadlines,
 * slow-client defenses, and SIGTERM-triggered graceful drain:
 *
 *   heron_serve --dla v100 --store-dir tuned --port 7717 &
 *   printf '%s\n' \
 *     '{"id":1,"op":"gemm","shape":[512,512,512]}' \
 *     '{"id":2,"cmd":"stats"}' \
 *   | nc 127.0.0.1 7717
 *
 * With --stdio it reads requests from stdin and answers on stdout,
 * one process per pipeline, same protocol and the same bounded
 * line framing (a request line over --max-line-bytes is answered
 * with an error instead of buffered without limit):
 *
 *   printf '%s\n' '{"id":1,"op":"gemm","shape":[512,512,512]}' \
 *   | heron_serve --stdio --dla v100 --store-dir tuned
 *
 * Lookups answer in three tiers: exact (the shape is in the store),
 * nearest (a close shape whose schedule still binds against the
 * query's constraint space), and miss. With --tune-on-miss, missed
 * workloads are tuned by a background worker and hot-swapped into
 * the registry, so repeated traffic converges to exact hits; each
 * tuned record is appended to the --store-dir write-ahead log
 * before it is served.
 *
 * Usage:
 *   heron_serve --dla <v100|t4|a100|dlboost|vta>
 *               [--stdio | --host H --port P [--port-file FILE]]
 *               [--store-dir DIR] [--tune-on-miss] [--trials N]
 *               [--seed S] [--queue-capacity N] [--shards N]
 *               [--no-fallback] [--max-distance D]
 *               [--negative-threshold N] [--measure-workers N]
 *               [--max-connections N] [--max-conns-per-ip N]
 *               [--server-workers N] [--max-pending N]
 *               [--max-line-bytes N] [--max-output-bytes N]
 *               [--idle-timeout-ms D] [--drain-grace-ms D]
 *               [--metrics FILE] [--trace FILE]
 *               [--metrics-port P [--metrics-port-file FILE]]
 *               [--access-log FILE] [--access-log-sample N]
 *               [--slow-request-ms D]
 *               [--window-slot-s D] [--window-slots N]
 */
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <unistd.h>

#include "serve/access_log.h"
#include "serve/conn.h"
#include "serve/graph.h"
#include "serve/observe.h"
#include "serve/prometheus.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store_wal.h"
#include "support/fs_util.h"
#include "support/json_util.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace heron;

namespace {

struct CliArgs {
    std::string dla = "v100";
    /** WAL-backed store directory ("" = nothing persists). */
    std::string store_dir;
    size_t segment_bytes = 1u << 20;
    int compact_segments = 4;
    double store_retry_ms = 1000.0;
    std::string metrics_path;
    std::string trace_path;
    bool tune_on_miss = false;
    bool fallback = true;
    /** Whole-network graph serving ({"cmd":"graph"}). */
    bool graph = false;
    /** Emit directory for graph dispatch headers ("" = inline). */
    std::string graph_dir;
    int max_graphs = 64;
    int trials = 60;
    uint64_t seed = 1;
    int queue_capacity = 64;
    int shards = 8;
    int measure_workers = 1;
    int negative_threshold = 3;
    double max_distance = 6.0;

    /** Transport: TCP server by default, --stdio for pipelines. */
    bool stdio = false;
    std::string port_file;
    serve::ServerConfig server;

    /** Prometheus endpoint (--metrics-port; off unless given). */
    bool metrics_port_set = false;
    uint16_t metrics_port = 0;
    std::string metrics_port_file;
};

enum ExitCode {
    kExitSuccess = 0,
    /** The drain hard-kill fallback fired (TCP mode). */
    kExitHardKill = 1,
    /** Bad command line. */
    kExitUsage = 2,
    /** The listen socket could not be bound. */
    kExitBind = 3,
    /** The durable store directory could not be opened. */
    kExitStore = 4,
};

void
print_usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: heron_serve --dla <v100|t4|a100|dlboost|vta>\n"
        "                   [--stdio | --host H --port P\n"
        "                    [--port-file FILE]]\n"
        "                   [--store-dir DIR\n"
        "                    [--segment-bytes N]\n"
        "                    [--compact-segments N]\n"
        "                    [--store-retry-ms D]]\n"
        "                   [--tune-on-miss]\n"
        "                   [--graph | --graph-dir DIR]\n"
        "                   [--max-graphs N]\n"
        "                   [--trials N] [--seed S]\n"
        "                   [--queue-capacity N] [--shards N]\n"
        "                   [--no-fallback] [--max-distance D]\n"
        "                   [--negative-threshold N]\n"
        "                   [--measure-workers N]\n"
        "                   [--max-connections N]\n"
        "                   [--max-conns-per-ip N]\n"
        "                   [--server-workers N] [--max-pending N]\n"
        "                   [--max-line-bytes N]\n"
        "                   [--max-output-bytes N]\n"
        "                   [--idle-timeout-ms D]\n"
        "                   [--drain-grace-ms D]\n"
        "                   [--metrics FILE] [--trace FILE]\n"
        "                   [--metrics-port P\n"
        "                    [--metrics-port-file FILE]]\n"
        "                   [--access-log FILE]\n"
        "                   [--access-log-sample N]\n"
        "                   [--slow-request-ms D]\n"
        "                   [--window-slot-s D] [--window-slots N]\n"
        "\n"
        "Admission: once half of --max-pending requests are\n"
        "admitted but unanswered, the server stops reading from\n"
        "every connection until answers bring that count back\n"
        "below half, then lets the paused connections read in\n"
        "turn. The read that crosses half is admitted whole (up\n"
        "to 16 KiB of request lines); a request that arrives while\n"
        "--max-pending are unanswered is answered\n"
        "{\"error\":\"overloaded\"}.\n"
        "\n"
        "Observability: --metrics-port exposes Prometheus text\n"
        "exposition on http://host:P/metrics (0 = ephemeral,\n"
        "written to --metrics-port-file); {\"cmd\":\"metrics\"}\n"
        "answers the same data as NDJSON. --access-log appends one\n"
        "JSON line per request (errors/sheds/slow always; healthy\n"
        "requests sampled every Nth with --access-log-sample).\n"
        "\n"
        "Graph serving: --graph enables whole-network requests\n"
        "({\"cmd\":\"graph\",\"network\":\"resnet50\",\"batch\":16}\n"
        "or an explicit \"layers\" array). Layers sharing a\n"
        "canonical key are deduped, each distinct key resolves\n"
        "with one registry lookup, misses are queued for tuning\n"
        "in payoff order (count x FLOPs x tier gap), and the model\n"
        "compiles into one dispatch header written to --graph-dir\n"
        "(or returned inline with \"emit\":\"inline\"). Poll\n"
        "{\"cmd\":\"graph_status\",\"graph\":ID} until\n"
        "\"converged\":true.\n"
        "\n"
        "Durability: --store-dir serves from a write-ahead-logged\n"
        "store (crash-safe O(1) appends, background compaction,\n"
        "corrupted files quarantined at startup). On persist\n"
        "failure the server degrades to read-only — lookups keep\n"
        "answering, tunes are rejected \"degraded\" — and probes\n"
        "the log every --store-retry-ms until writes succeed\n"
        "again. {\"cmd\":\"health\"} and GET /healthz on the\n"
        "metrics port report ok/degraded.\n"
        "\n"
        "TCP mode (default): serves the NDJSON protocol on\n"
        "--host:--port (port 0 picks an ephemeral port, written to\n"
        "--port-file when set). SIGTERM/SIGINT drain gracefully:\n"
        "in-flight requests finish, the store is compacted, and\n"
        "the process exits 0.\n"
        "\n"
        "--stdio: one JSON request per stdin line, one JSON\n"
        "response per stdout line; EOF or {\"cmd\":\"quit\"} stops\n"
        "the server (compacting the --store-dir store).\n"
        "Requests:\n"
        "  {\"id\":1,\"op\":\"gemm\",\"shape\":[512,512,512],\n"
        "   \"deadline_ms\":50}\n"
        "  {\"id\":2,\"cmd\":\"stats\"|\"drain\"|\"save\"|\"quit\"|"
        "\"shutdown\"}\n");
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "heron_serve: %s\n", msg);
    print_usage(stderr);
    std::exit(kExitUsage);
}

CliArgs
parse(int argc, char **argv)
{
    CliArgs args;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) {
            if (i + 1 >= argc)
                usage(
                    (std::string(flag) + " needs a value").c_str());
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--dla")) {
            args.dla = need("--dla");
        } else if (!std::strcmp(argv[i], "--store-dir")) {
            args.store_dir = need("--store-dir");
        } else if (!std::strcmp(argv[i], "--segment-bytes")) {
            args.segment_bytes = static_cast<size_t>(std::max(
                1, std::atoi(need("--segment-bytes"))));
        } else if (!std::strcmp(argv[i], "--compact-segments")) {
            args.compact_segments =
                std::atoi(need("--compact-segments"));
        } else if (!std::strcmp(argv[i], "--store-retry-ms")) {
            args.store_retry_ms =
                std::atof(need("--store-retry-ms"));
        } else if (!std::strcmp(argv[i], "--metrics")) {
            args.metrics_path = need("--metrics");
        } else if (!std::strcmp(argv[i], "--trace")) {
            args.trace_path = need("--trace");
        } else if (!std::strcmp(argv[i], "--tune-on-miss")) {
            args.tune_on_miss = true;
        } else if (!std::strcmp(argv[i], "--graph")) {
            args.graph = true;
        } else if (!std::strcmp(argv[i], "--graph-dir")) {
            args.graph = true;
            args.graph_dir = need("--graph-dir");
        } else if (!std::strcmp(argv[i], "--max-graphs")) {
            args.max_graphs = std::atoi(need("--max-graphs"));
        } else if (!std::strcmp(argv[i], "--no-fallback")) {
            args.fallback = false;
        } else if (!std::strcmp(argv[i], "--trials")) {
            args.trials = std::atoi(need("--trials"));
        } else if (!std::strcmp(argv[i], "--seed")) {
            args.seed =
                static_cast<uint64_t>(std::atoll(need("--seed")));
        } else if (!std::strcmp(argv[i], "--queue-capacity")) {
            args.queue_capacity =
                std::atoi(need("--queue-capacity"));
        } else if (!std::strcmp(argv[i], "--shards")) {
            args.shards = std::atoi(need("--shards"));
        } else if (!std::strcmp(argv[i], "--measure-workers")) {
            args.measure_workers =
                std::atoi(need("--measure-workers"));
        } else if (!std::strcmp(argv[i], "--negative-threshold")) {
            args.negative_threshold =
                std::atoi(need("--negative-threshold"));
        } else if (!std::strcmp(argv[i], "--max-distance")) {
            args.max_distance = std::atof(need("--max-distance"));
        } else if (!std::strcmp(argv[i], "--stdio")) {
            args.stdio = true;
        } else if (!std::strcmp(argv[i], "--host")) {
            args.server.host = need("--host");
        } else if (!std::strcmp(argv[i], "--port")) {
            args.server.port = static_cast<uint16_t>(
                std::atoi(need("--port")));
        } else if (!std::strcmp(argv[i], "--port-file")) {
            args.port_file = need("--port-file");
        } else if (!std::strcmp(argv[i], "--max-connections")) {
            args.server.max_connections =
                std::atoi(need("--max-connections"));
        } else if (!std::strcmp(argv[i], "--max-conns-per-ip")) {
            args.server.max_connections_per_ip =
                std::atoi(need("--max-conns-per-ip"));
        } else if (!std::strcmp(argv[i], "--server-workers")) {
            args.server.workers =
                std::atoi(need("--server-workers"));
        } else if (!std::strcmp(argv[i], "--max-pending")) {
            args.server.max_pending_requests = static_cast<size_t>(
                std::max(1, std::atoi(need("--max-pending"))));
        } else if (!std::strcmp(argv[i], "--max-line-bytes")) {
            args.server.max_line_bytes = static_cast<size_t>(
                std::max(1, std::atoi(need("--max-line-bytes"))));
        } else if (!std::strcmp(argv[i], "--max-output-bytes")) {
            args.server.max_output_bytes = static_cast<size_t>(
                std::max(1,
                         std::atoi(need("--max-output-bytes"))));
        } else if (!std::strcmp(argv[i], "--idle-timeout-ms")) {
            args.server.idle_timeout_ms =
                std::atof(need("--idle-timeout-ms"));
        } else if (!std::strcmp(argv[i], "--drain-grace-ms")) {
            args.server.drain_grace_ms =
                std::atof(need("--drain-grace-ms"));
        } else if (!std::strcmp(argv[i], "--metrics-port")) {
            args.metrics_port_set = true;
            args.metrics_port = static_cast<uint16_t>(
                std::atoi(need("--metrics-port")));
        } else if (!std::strcmp(argv[i], "--metrics-port-file")) {
            args.metrics_port_file = need("--metrics-port-file");
        } else if (!std::strcmp(argv[i], "--access-log")) {
            args.server.access_log.path = need("--access-log");
        } else if (!std::strcmp(argv[i], "--access-log-sample")) {
            args.server.access_log.sample_every = std::max(
                1, std::atoi(need("--access-log-sample")));
        } else if (!std::strcmp(argv[i], "--slow-request-ms")) {
            args.server.slow_request_ms =
                std::atof(need("--slow-request-ms"));
        } else if (!std::strcmp(argv[i], "--window-slot-s")) {
            args.server.request_metrics.slot_seconds =
                std::atof(need("--window-slot-s"));
        } else if (!std::strcmp(argv[i], "--window-slots")) {
            args.server.request_metrics.slots =
                std::max(1, std::atoi(need("--window-slots")));
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            print_usage(stdout);
            std::exit(kExitSuccess);
        } else {
            usage(
                (std::string("unknown flag ") + argv[i]).c_str());
        }
    }
    return args;
}

hw::DlaSpec
spec_for(const std::string &name)
{
    if (name == "v100")
        return hw::DlaSpec::v100();
    if (name == "t4")
        return hw::DlaSpec::t4();
    if (name == "a100")
        return hw::DlaSpec::a100();
    if (name == "dlboost")
        return hw::DlaSpec::dlboost();
    if (name == "vta")
        return hw::DlaSpec::vta();
    usage("unknown --dla");
}

void
write_port_file(const std::string &path, uint16_t port,
                const char *what)
{
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f) {
        std::fprintf(f, "%u\n", port);
        std::fclose(f);
    } else {
        std::fprintf(stderr,
                     "heron_serve: cannot write %s file %s\n", what,
                     path.c_str());
    }
}

/** /healthz callback: 200 "ok" / 503 "degraded" + store stats. */
serve::PromExporter::HealthFn
health_probe(serve::DurableStore *store)
{
    return [store]() -> std::pair<bool, std::string> {
        if (store == nullptr)
            return {true, "{\"status\":\"ok\",\"store\":null}"};
        serve::DurableStoreStats stats = store->stats();
        bool healthy =
            stats.state == serve::StoreState::kHealthy;
        return {healthy,
                std::string("{\"status\":\"") +
                    (healthy ? "ok" : "degraded") +
                    "\",\"store\":" + stats.to_json() + "}"};
    };
}

serve::Server *g_server = nullptr;

/** SIGTERM/SIGINT: begin a graceful drain (async-signal-safe). */
void
on_terminate_signal(int)
{
    if (g_server)
        g_server->request_drain();
}

/**
 * --stdio: serve the protocol over stdin/stdout with the same
 * bounded line framing as TCP connections — a request line over
 * max_line_bytes is answered with an error once its newline
 * arrives, never accumulated.
 */
int
run_stdio(const CliArgs &args, serve::KernelRegistry &registry,
          serve::TuneQueue &queue, serve::DurableStore *store,
          serve::GraphService *graph)
{
    using Clock = std::chrono::steady_clock;
    serve::TuneQueue *stats_queue =
        args.tune_on_miss ? &queue : nullptr;

    // The same observability surfaces as TCP mode, minus the
    // queue/write phases a pipeline doesn't have.
    serve::RequestMetrics request_metrics(
        args.server.request_metrics);
    serve::AccessLog access_log(args.server.access_log);
    if (!args.server.access_log.path.empty()) {
        std::string log_error;
        if (!access_log.open(&log_error))
            std::fprintf(stderr, "heron_serve: %s\n",
                         log_error.c_str());
    }
    serve::ServeRuntime runtime = serve::ServeRuntime::current();
    serve::ObserveConfig observe_config;
    observe_config.slow_request_ms = args.server.slow_request_ms;

    serve::ServeContext ctx;
    ctx.registry = &registry;
    ctx.queue = stats_queue;
    ctx.store = store;
    ctx.request_metrics = &request_metrics;
    ctx.runtime = &runtime;
    ctx.graph = graph;

    std::unique_ptr<serve::PromExporter> exporter;
    if (args.metrics_port_set) {
        exporter = std::make_unique<serve::PromExporter>(
            "127.0.0.1", args.metrics_port, [&] {
                return serve::render_prometheus(
                    serve::metrics_snapshot(registry),
                    request_metrics.snapshot_all(Clock::now()));
            });
        exporter->set_health(health_probe(store));
        std::string exporter_error;
        if (!exporter->start(&exporter_error)) {
            std::fprintf(stderr, "heron_serve: %s\n",
                         exporter_error.c_str());
            exporter.reset();
        } else {
            write_port_file(args.metrics_port_file,
                            exporter->port(), "metrics-port");
        }
    }

    serve::LineScanner scanner(args.server.max_line_bytes);
    bool quit = false;
    char buf[16384];
    while (!quit) {
        ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        scanner.feed(
            buf, static_cast<size_t>(n),
            [&](const std::string &line, bool overflow) {
                if (quit)
                    return;
                if (overflow) {
                    std::printf(
                        "%s\n",
                        serve::format_error_response(
                            0, "request line exceeds " +
                                   std::to_string(
                                       args.server.max_line_bytes) +
                                   " bytes")
                            .c_str());
                    std::fflush(stdout);
                    return;
                }
                if (line.find_first_not_of(" \t\r") ==
                    std::string::npos)
                    return;
                Clock::time_point parse_start = Clock::now();
                std::string error;
                auto request = serve::parse_request(
                    line, registry.spec(), &error);
                Clock::time_point arrival = Clock::now();
                double parse_us =
                    std::chrono::duration<double, std::micro>(
                        arrival - parse_start)
                        .count();
                if (!request) {
                    int64_t id = 0;
                    if (auto token = json_extract(line, "id"))
                        id = std::atoll(token->c_str());
                    serve::RequestObservation obs;
                    obs.id = id;
                    obs.endpoint = "invalid";
                    obs.ok = false;
                    obs.parse_us = parse_us;
                    obs.total_us = parse_us;
                    obs.arrival = parse_start;
                    serve::observe_request(
                        obs, &request_metrics,
                        access_log.enabled() ? &access_log
                                             : nullptr,
                        observe_config, arrival);
                    std::printf("%s\n",
                                serve::format_error_response(id,
                                                             error)
                                    .c_str());
                    std::fflush(stdout);
                    return;
                }
                serve::ExecutedRequest executed =
                    serve::execute_request(*request, arrival, ctx);
                Clock::time_point done = Clock::now();
                std::printf("%s\n", executed.response.c_str());
                std::fflush(stdout);
                serve::RequestObservation obs =
                    serve::executed_observation(*request, executed,
                                                parse_us, arrival);
                obs.total_us =
                    parse_us +
                    std::chrono::duration<double, std::micro>(
                        done - arrival)
                        .count();
                if (obs.has_deadline)
                    obs.deadline_slack_ms =
                        obs.deadline_ms - obs.total_us / 1e3;
                serve::observe_request(
                    obs, &request_metrics,
                    access_log.enabled() ? &access_log : nullptr,
                    observe_config, done);
                // quit and shutdown both end a stdio session.
                if (executed.action != serve::RequestAction::kNone)
                    quit = true;
            });
    }

    if (exporter)
        exporter->stop();
    access_log.flush();
    queue.stop();
    if (store != nullptr && !store->compact_now())
        std::fprintf(stderr,
                     "heron_serve: exit compaction failed "
                     "(WAL segments remain authoritative)\n");
    return kExitSuccess;
}

/** Default mode: front the epoll TCP server until it drains. */
int
run_tcp(const CliArgs &args, serve::KernelRegistry &registry,
        serve::TuneQueue &queue, serve::DurableStore *store,
        serve::GraphService *graph)
{
    serve::ServerConfig config = args.server;
    config.store = store;
    config.graph = graph;
    serve::Server server(registry, args.tune_on_miss ? &queue
                                                     : nullptr,
                         config);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "heron_serve: %s\n", error.c_str());
        return kExitBind;
    }
    write_port_file(args.port_file, server.port(), "port");

    std::unique_ptr<serve::PromExporter> exporter;
    if (args.metrics_port_set) {
        exporter = std::make_unique<serve::PromExporter>(
            "127.0.0.1", args.metrics_port, [&server, &registry] {
                auto now = std::chrono::steady_clock::now();
                return serve::render_prometheus(
                    serve::metrics_snapshot(registry),
                    server.request_metrics().snapshot_all(now));
            });
        exporter->set_health(health_probe(store));
        std::string exporter_error;
        if (!exporter->start(&exporter_error)) {
            std::fprintf(stderr, "heron_serve: %s\n",
                         exporter_error.c_str());
            exporter.reset();
        } else {
            write_port_file(args.metrics_port_file,
                            exporter->port(), "metrics-port");
        }
    }

    g_server = &server;
    struct sigaction action{};
    action.sa_handler = on_terminate_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    int rc = server.wait();
    g_server = nullptr;
    if (exporter)
        exporter->stop();
    queue.stop();

    serve::ServerStats server_stats = server.stats();
    serve::AccessLogStats log_stats = server.access_log_stats();
    std::fprintf(
        stderr,
        "heron_serve: %s; %lld conn(s), %lld request(s), "
        "%lld shed, %lld deadline-exceeded, "
        "access-log %lld written %lld dropped\n",
        rc == 0 ? "drained gracefully" : "drain hard-killed",
        static_cast<long long>(server_stats.accepted_conns),
        static_cast<long long>(server_stats.requests),
        static_cast<long long>(server_stats.shed_overloaded),
        static_cast<long long>(server_stats.deadline_exceeded),
        static_cast<long long>(log_stats.written),
        static_cast<long long>(log_stats.dropped));
    return rc == 0 ? kExitSuccess : kExitHardKill;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args = parse(argc, argv);
    hw::DlaSpec spec = spec_for(args.dla);
    if (!args.trace_path.empty())
        trace::Tracer::global().set_enabled(true);
    fsfault::arm_from_env();

    serve::RegistryConfig registry_config;
    registry_config.shards = args.shards;
    registry_config.enable_fallback = args.fallback;
    registry_config.max_fallback_distance = args.max_distance;
    registry_config.negative_threshold = args.negative_threshold;
    serve::KernelRegistry registry(spec, registry_config);

    std::unique_ptr<serve::DurableStore> store;
    if (!args.store_dir.empty()) {
        serve::DurableStoreConfig store_config;
        store_config.dir = args.store_dir;
        store_config.segment_max_bytes = args.segment_bytes;
        store_config.compact_min_segments = args.compact_segments;
        store_config.retry_backoff_ms = args.store_retry_ms;
        store =
            std::make_unique<serve::DurableStore>(store_config);
        std::string store_error;
        if (!store->open(&store_error)) {
            std::fprintf(stderr,
                         "heron_serve: cannot open store dir %s: "
                         "%s\n",
                         args.store_dir.c_str(),
                         store_error.c_str());
            return kExitStore;
        }
        serve::StoreLoadStats load_stats;
        registry.load_records(store->records(), &load_stats);
        serve::DurableStoreStats store_stats = store->stats();
        std::fprintf(stderr,
                     "heron_serve: %s on %s: loaded %lld record(s) "
                     "from %s (%lld skipped, %lld quarantined "
                     "file(s), replay %.1f ms)\n",
                     args.tune_on_miss ? "serving+tuning"
                                       : "serving",
                     spec.name.c_str(),
                     static_cast<long long>(load_stats.loaded),
                     args.store_dir.c_str(),
                     static_cast<long long>(load_stats.unparsable +
                                            load_stats.foreign_dla +
                                            load_stats.invalid),
                     static_cast<long long>(
                         store_stats.quarantined),
                     store_stats.last_replay_ms);
    }

    serve::TuneQueueConfig queue_config;
    queue_config.capacity =
        static_cast<size_t>(std::max(1, args.queue_capacity));
    queue_config.tune.trials = args.trials;
    queue_config.tune.seed = args.seed;
    queue_config.tune.measure_workers = args.measure_workers;
    queue_config.store = store.get();
    serve::TuneQueue queue(registry, queue_config);
    if (args.tune_on_miss) {
        queue.start();
        registry.set_miss_handler(
            [&queue](const ops::Workload &workload,
                     const serve::WorkloadKey &) {
                return queue.enqueue(workload) ==
                       serve::EnqueueOutcome::kAccepted;
            });
    }

    // Whole-network graph serving: the scheduler splits the tune
    // queue's budget across concurrently converging graphs, so it
    // only sees the queue when background tuning is actually on.
    serve::GraphTuneScheduler graph_scheduler(
        args.tune_on_miss ? &queue : nullptr);
    std::unique_ptr<serve::GraphService> graph_service;
    if (args.graph) {
        serve::GraphServiceConfig graph_config;
        graph_config.emit_dir = args.graph_dir;
        graph_config.max_graphs = static_cast<size_t>(
            std::max(1, args.max_graphs));
        graph_service = std::make_unique<serve::GraphService>(
            registry, graph_scheduler, graph_config);
    }

    int rc =
        args.stdio
            ? run_stdio(args, registry, queue, store.get(),
                        graph_service.get())
            : run_tcp(args, registry, queue, store.get(),
                      graph_service.get());
    if (store)
        store->close();

    if (!args.metrics_path.empty() &&
        !serve::metrics_snapshot(registry).write_json(
            args.metrics_path))
        std::fprintf(stderr,
                     "heron_serve: cannot write metrics to %s\n",
                     args.metrics_path.c_str());
    if (!args.trace_path.empty() &&
        !trace::Tracer::global().write_chrome_trace(
            args.trace_path))
        std::fprintf(stderr,
                     "heron_serve: cannot write trace to %s\n",
                     args.trace_path.c_str());

    serve::RegistryStats stats = registry.stats();
    std::fprintf(stderr,
                 "heron_serve: served %lld exact, %lld nearest, "
                 "%lld negative, %lld miss; %zu record(s) indexed\n",
                 static_cast<long long>(stats.exact_hits),
                 static_cast<long long>(stats.nearest_hits),
                 static_cast<long long>(stats.negative_hits),
                 static_cast<long long>(stats.misses),
                 registry.size());
    return rc;
}
