#include "tcp_client.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.h"

namespace perfbench {

LineConn::~LineConn()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineConn::connect_to(uint16_t port, std::string *error)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct timeval timeout{};
    timeout.tv_sec = 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        *error = std::string("connect: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
LineConn::send_all(const std::string &data)
{
    size_t sent = 0;
    while (sent < data.size()) {
        ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
LineConn::read_line(std::string *line)
{
    for (;;) {
        size_t nl = buf_.find('\n', off_);
        if (nl != std::string::npos) {
            line->assign(buf_, off_, nl - off_);
            off_ = nl + 1;
            if (off_ > 65536) {
                buf_.erase(0, off_);
                off_ = 0;
            }
            return true;
        }
        char chunk[65536];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<size_t>(n));
    }
}

bool
LineConn::round_trip(const std::string &line, std::string *response)
{
    return send_all(line + "\n") && read_line(response);
}

void
LineConn::finish_sending()
{
    ::shutdown(fd_, SHUT_WR);
}

int64_t
response_id(const std::string &response)
{
    static const char kKey[] = "{\"id\":";
    if (response.compare(0, sizeof(kKey) - 1, kKey) != 0)
        return -1;
    return std::strtoll(response.c_str() + sizeof(kKey) - 1, nullptr,
                        10);
}

OpenLoopResult
run_open_loop(uint16_t port, int conns, double rate,
              const std::vector<int> &keys,
              const std::function<std::string(int64_t, int)> &make_line,
              const std::function<bool(int, const std::string &)> &verify,
              const std::atomic<bool> *stop)
{
    const size_t n = keys.size();
    OpenLoopResult out;
    out.latency_us.assign(n, -1.0);
    out.lag_us.assign(n, 0.0);
    std::vector<Clock::time_point> due(n);

    std::vector<std::unique_ptr<LineConn>> links;
    for (int c = 0; c < conns; ++c) {
        links.push_back(std::make_unique<LineConn>());
        std::string error;
        if (!links.back()->connect_to(port, &error))
            return out; // nothing sent
    }

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    for (size_t i = 0; i < n; ++i)
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) / rate));

    // Receivers read until the server closes the half-closed
    // connection, i.e. after answering everything that was sent.
    std::vector<std::thread> receivers;
    for (int c = 0; c < conns; ++c) {
        receivers.emplace_back([&, c] {
            std::string line;
            while (links[static_cast<size_t>(c)]->read_line(&line)) {
                Clock::time_point now = Clock::now();
                int64_t id = response_id(line);
                if (id < 0 || static_cast<size_t>(id) >= n)
                    continue;
                size_t i = static_cast<size_t>(id);
                out.latency_us[i] =
                    verify(keys[i], line)
                        ? std::chrono::duration<double, std::micro>(
                              now - due[i])
                              .count()
                        : -2.0;
            }
        });
    }

    // Sleep precision is the generator's lag: drop the default 50 us
    // timer slack while sending.
    const int slack = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    ::prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    size_t sent = 0;
    for (; sent < n; ++sent) {
        if (stop != nullptr && stop->load())
            break;
        std::string line =
            make_line(static_cast<int64_t>(sent), keys[sent]) + "\n";
        std::this_thread::sleep_until(due[sent]);
        out.lag_us[sent] = std::chrono::duration<double, std::micro>(
                               Clock::now() - due[sent])
                               .count();
        if (!links[sent % static_cast<size_t>(conns)]->send_all(line))
            break;
    }
    if (slack > 0)
        ::prctl(PR_SET_TIMERSLACK, slack, 0, 0, 0);
    for (auto &link : links)
        link->finish_sending();
    for (std::thread &t : receivers)
        t.join();
    out.sent = sent;
    return out;
}

ClosedLoopResult
run_closed_loop(uint16_t port, int window, double seconds, uint64_t seed,
                const std::function<int(heron::Rng &)> &pick_key,
                const std::function<std::string(int64_t, int)> &make_line,
                const std::function<bool(int, const std::string &)> &verify)
{
    // Response ids carry the key: id = sequence * kKeySpace + key.
    constexpr int64_t kKeySpace = 4096;
    ClosedLoopResult out;
    heron::Rng rng(seed);
    int64_t seq = 0;
    auto next_line = [&] {
        int key = pick_key(rng);
        return make_line(++seq * kKeySpace + key, key) + "\n";
    };
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    LineConn link;
    std::string error;
    std::string batch;
    for (int i = 0; i < window; ++i)
        batch += next_line();
    int64_t outstanding = window;
    if (!link.connect_to(port, &error) || !link.send_all(batch)) {
        out.lost = window;
        outstanding = 0;
    }
    std::string line;
    while (outstanding > 0) {
        if (!link.read_line(&line)) {
            out.lost += outstanding;
            break;
        }
        --outstanding;
        ++out.responses;
        int64_t id = response_id(line);
        if (id < 0 || !verify(static_cast<int>(id % kKeySpace), line))
            ++out.rejected;
        if (Clock::now() < end) {
            if (!link.send_all(next_line())) {
                out.lost += outstanding + 1;
                break;
            }
            ++outstanding;
        }
    }
    out.seconds = seconds_between(start, Clock::now());
    return out;
}

} // namespace perfbench
