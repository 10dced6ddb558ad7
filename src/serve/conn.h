/**
 * @file
 * Per-connection plumbing for the serving front-end: bounded NDJSON
 * line framing and a backpressured output queue. Both pieces are
 * transport-agnostic plain classes (no sockets), so the slow-client
 * defenses are unit-testable byte-by-byte and shared between the
 * TCP server and heron_serve's --stdio loop.
 *
 * Defenses implemented here:
 *   - LineScanner caps the bytes one request line may buffer. An
 *     oversized line is *streamed to the bit bucket* (never
 *     accumulated) until its terminating newline, then reported
 *     once as an overflow, so a hostile client cannot grow server
 *     memory by withholding '\n'.
 *   - Conn caps the bytes queued toward one client. A client that
 *     stops reading while pipelining requests overflows its output
 *     budget and is disconnected instead of growing the queue.
 */
#ifndef HERON_SERVE_CONN_H
#define HERON_SERVE_CONN_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace heron::serve {

/**
 * Incremental newline-delimited framing over arbitrary byte chunks
 * (torn frames welcome) with a hard per-line size cap.
 */
class LineScanner
{
  public:
    /** @p max_line_bytes excludes the newline (>= 1 enforced). */
    explicit LineScanner(size_t max_line_bytes);

    /**
     * Called once per terminated line: the line's text (without the
     * newline) and whether it overflowed the cap. Overflowed lines
     * arrive with empty text — their bytes were discarded as they
     * streamed.
     */
    using LineHandler =
        std::function<void(const std::string &line, bool overflow)>;

    /** Feed @p n bytes; invokes @p on_line per completed line. */
    void feed(const char *data, size_t n,
              const LineHandler &on_line);

    /** Bytes buffered for the (incomplete) current line. */
    size_t buffered() const { return buffer_.size(); }

    /** True while discarding an oversized line. */
    bool discarding() const { return discarding_; }

  private:
    size_t max_line_bytes_;
    std::string buffer_;
    bool discarding_ = false;
};

/**
 * One client connection's state: identity, line framing, and the
 * bounded output queue. Socket I/O stays in the server event loop;
 * Conn only manages bytes and budgets, which keeps it synchronous
 * and single-owner (the loop thread).
 */
class Conn
{
  public:
    Conn(int fd, uint64_t id, std::string peer_ip,
         size_t max_line_bytes, size_t max_output_bytes);

    int fd() const { return fd_; }
    uint64_t id() const { return id_; }
    const std::string &peer_ip() const { return peer_ip_; }

    LineScanner &scanner() { return scanner_; }

    /**
     * Queue @p line (a newline is appended) for delivery. False
     * when the per-connection output budget would be exceeded — the
     * caller should disconnect; nothing is queued in that case.
     */
    bool queue_line(const std::string &line);

    /**
     * Write as much queued output as the socket accepts (partial
     * writes resume where they left off). Returns false on a fatal
     * write error (the connection should be closed).
     */
    bool flush();

    /** Bytes still queued toward the client. */
    size_t output_bytes() const { return output_bytes_; }

    bool has_output() const { return !output_.empty(); }

    /** Close once the output queue empties (quit / half-close). */
    void set_close_after_flush() { close_after_flush_ = true; }
    bool close_after_flush() const { return close_after_flush_; }

    /** Peer sent EOF; stop expecting new requests. */
    void set_saw_eof() { saw_eof_ = true; }
    bool saw_eof() const { return saw_eof_; }

    /** Requests dispatched to workers, response not yet queued. */
    int in_flight = 0;
    /** Last read/write progress, ms on the server's clock. */
    int64_t last_activity_ms = 0;
    /** Registered epoll interest mask (owned by the event loop). */
    uint32_t interest = 0;
    /** Queued for a read turn while reads are paused. */
    bool read_waiting = false;

  private:
    int fd_;
    uint64_t id_;
    std::string peer_ip_;
    LineScanner scanner_;
    size_t max_output_bytes_;

    std::deque<std::string> output_;
    /** Total bytes across output_ minus what front_sent_ consumed. */
    size_t output_bytes_ = 0;
    /** Bytes of output_.front() already written. */
    size_t front_sent_ = 0;
    bool close_after_flush_ = false;
    bool saw_eof_ = false;
};

} // namespace heron::serve

#endif // HERON_SERVE_CONN_H
