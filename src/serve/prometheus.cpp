#include "serve/prometheus.h"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/logging.h"

namespace heron::serve {

namespace {

/** heron_ prefix + [a-zA-Z0-9_:] body ('.' and '-' become '_'). */
std::string
sanitize_name(const std::string &name)
{
    std::string out = "heron_";
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) ||
            c == '_' || c == ':')
            out += c;
        else
            out += '_';
    }
    return out;
}

void
emit_header(std::ostringstream &out, const std::string &name,
            const char *type, const std::string &source)
{
    out << "# HELP " << name << " Heron metric " << source << "\n";
    out << "# TYPE " << name << " " << type << "\n";
}

} // namespace

std::string
render_prometheus(const metrics::MetricsSnapshot &snapshot,
                  const std::vector<RequestMetrics::Named> &windows)
{
    std::ostringstream out;
    out << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    // Names already emitted: a collision after sanitization would
    // produce a duplicate family, which scrapers reject outright.
    std::set<std::string> seen;
    auto claim = [&](const std::string &name) {
        return seen.insert(name).second;
    };

    for (const auto &[name, value] : snapshot.counters) {
        std::string prom = sanitize_name(name);
        if (!claim(prom))
            continue;
        emit_header(out, prom, "counter", name);
        out << prom << " " << value << "\n";
    }
    for (const auto &[name, value] : snapshot.gauges) {
        std::string prom = sanitize_name(name);
        if (!claim(prom))
            continue;
        emit_header(out, prom, "gauge", name);
        out << prom << " " << value << "\n";
    }
    for (const auto &[name, h] : snapshot.histograms) {
        std::string prom = sanitize_name(name);
        if (!claim(prom))
            continue;
        emit_header(out, prom, "histogram", name);
        int64_t cum = 0;
        for (size_t b = 0; b < h.counts.size(); ++b) {
            cum += h.counts[b];
            if (b < h.bounds.size())
                out << prom << "_bucket{le=\"" << h.bounds[b]
                    << "\"} " << cum << "\n";
            else
                out << prom << "_bucket{le=\"+Inf\"} " << cum
                    << "\n";
        }
        out << prom << "_sum " << h.sum << "\n";
        out << prom << "_count " << h.count << "\n";
    }

    for (const auto &named : windows) {
        std::string prom = sanitize_name(named.name);
        if (!claim(prom))
            continue;
        const auto &w = named.window;
        emit_header(out, prom, "summary", named.name);
        // Literal labels: streaming 0.95 at max_digits10 precision
        // would render quantile="0.94999999999999996".
        struct {
            const char *label;
            double p;
        } quantiles[] = {{"0.5", 50.0},
                         {"0.95", 95.0},
                         {"0.99", 99.0}};
        for (const auto &q : quantiles)
            out << prom << "{quantile=\"" << q.label << "\"} "
                << w.percentile(q.p) << "\n";
        out << prom << "_sum " << w.sum << "\n";
        out << prom << "_count " << w.count << "\n";
        std::string span = prom + "_window_seconds";
        if (claim(span)) {
            emit_header(out, span, "gauge", named.name);
            out << span << " " << w.window_seconds << "\n";
        }
    }

    return out.str();
}

PromExporter::PromExporter(std::string host, uint16_t port,
                           RenderFn render)
    : host_(std::move(host)), port_(port), render_(std::move(render))
{
}

PromExporter::~PromExporter()
{
    stop();
}

bool
PromExporter::start(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what + ": " + std::strerror(errno);
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        return false;
    };
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        return fail("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("inet_pton " + host_);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind " + host_ + ":" + std::to_string(port_));
    if (::listen(listen_fd_, 16) != 0)
        return fail("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    bound_port_ = ntohs(addr.sin_port);
    running_.store(true);
    thread_ = std::thread([this] { serve_loop(); });
    HERON_INFO << "serve: metrics endpoint on " << host_ << ":"
               << bound_port_ << "/metrics";
    return true;
}

void
PromExporter::stop()
{
    if (!running_.exchange(false)) {
        if (thread_.joinable())
            thread_.join();
        return;
    }
    if (thread_.joinable())
        thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void
PromExporter::serve_loop()
{
    while (running_.load(std::memory_order_relaxed)) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0)
            continue;
        int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        // Read the request head; a scrape is always small. The
        // request-line path routes /healthz, everything else
        // answers the metrics page.
        char buf[4096];
        struct timeval tv{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ssize_t got = ::recv(fd, buf, sizeof(buf) - 1, 0);
        std::string path;
        if (got > 0) {
            buf[got] = '\0';
            // "GET <path> HTTP/1.x" — take the second token.
            std::string head(buf);
            size_t sp1 = head.find(' ');
            if (sp1 != std::string::npos) {
                size_t sp2 = head.find(' ', sp1 + 1);
                if (sp2 != std::string::npos)
                    path = head.substr(sp1 + 1, sp2 - sp1 - 1);
            }
        }
        std::string body;
        const char *status = "200 OK";
        const char *content_type =
            "text/plain; version=0.0.4; charset=utf-8";
        if (health_ && path == "/healthz") {
            auto [healthy, detail] = health_();
            status = healthy ? "200 OK"
                             : "503 Service Unavailable";
            content_type = "application/json";
            body = detail.empty()
                       ? std::string(healthy ? "{\"status\":\"ok\"}"
                                             : "{\"status\":"
                                               "\"degraded\"}")
                       : detail;
            body += "\n";
        } else {
            body = render_ ? render_() : std::string();
        }
        std::ostringstream response;
        response << "HTTP/1.0 " << status << "\r\n"
                 << "Content-Type: " << content_type << "\r\n"
                 << "Content-Length: " << body.size() << "\r\n"
                 << "Connection: close\r\n\r\n"
                 << body;
        std::string wire = response.str();
        size_t off = 0;
        while (off < wire.size()) {
            ssize_t n = ::send(fd, wire.data() + off,
                               wire.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            off += static_cast<size_t>(n);
        }
        ::close(fd);
    }
}

} // namespace heron::serve
