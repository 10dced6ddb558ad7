/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * histograms with cheap thread-safe updates and a snapshot API.
 *
 * Hot paths use the HERON_COUNTER_* / HERON_HISTOGRAM_OBSERVE
 * macros, which cache the metric reference in a function-local
 * static so the steady-state cost is one relaxed atomic add. The
 * HERON_DISABLE_TRACING compile-time macro removes the
 * instrumentation entirely.
 */
#ifndef HERON_SUPPORT_METRICS_H
#define HERON_SUPPORT_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace heron::metrics {

/** Monotonic event count. */
class Counter
{
  public:
    void add(int64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** A settable/accumulable double (e.g. simulated seconds). */
class Gauge
{
  public:
    void set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Atomic accumulate (CAS loop; gauges are not hot). */
    void add(double delta);

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Estimate the @p p-th percentile (p in [0, 100]) of a bucketed
 * distribution by linear interpolation inside the bucket holding
 * that rank (the first bucket interpolates from 0; ranks landing in
 * the overflow bucket clamp to the last finite bound, the best
 * honest answer bucket counts can give). Returns 0 when empty.
 */
double bucket_percentile(const std::vector<double> &bounds,
                         const std::vector<int64_t> &counts,
                         double p);

/** Snapshot of one histogram. */
struct HistogramSnapshot {
    /** Upper bounds of each finite bucket (last bucket = overflow). */
    std::vector<double> bounds;
    /** Per-bucket observation counts (bounds.size() + 1 entries). */
    std::vector<int64_t> counts;
    int64_t count = 0;
    double sum = 0.0;

    /** bucket_percentile over this snapshot (p in [0, 100]). */
    double percentile(double p) const
    {
        return bucket_percentile(bounds, counts, p);
    }
};

/**
 * Fixed-bucket histogram. Observations are bucketed by upper bound;
 * values past the last bound land in the overflow bucket.
 */
class Histogram
{
  public:
    /** Default bounds: exponential 1,2,4,...,4096. */
    explicit Histogram(std::vector<double> bounds = {});

    void observe(double value);

    HistogramSnapshot snapshot() const;

    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<int64_t>> buckets_;
    std::atomic<int64_t> count_{0};
    Gauge sum_;
};

/**
 * Merged view of the live slots of a WindowedHistogram: the same
 * shape as HistogramSnapshot plus how much wall time the window
 * actually spans, so quantiles computed from it are honestly scoped
 * ("p95 over the last ~60 s", never a process-lifetime average).
 */
struct WindowSnapshot {
    std::vector<double> bounds;
    /** Merged per-bucket counts (bounds.size() + 1 entries). */
    std::vector<int64_t> counts;
    int64_t count = 0;
    double sum = 0.0;
    /** Configured window span (slots * slot_seconds). */
    double window_seconds = 0.0;
    /** Live (non-expired) slots merged into this snapshot. */
    int live_slots = 0;

    /** bucket_percentile over the window (p in [0, 100]). */
    double percentile(double p) const
    {
        return bucket_percentile(bounds, counts, p);
    }
};

/**
 * Sliding-window histogram: a ring of fixed-bucket histograms, one
 * per time slot, rotated as the clock crosses slot boundaries. A
 * snapshot merges only the slots younger than the window, so
 * quantiles reflect recent traffic instead of process lifetime.
 *
 * The hot path is lock-free: each slot carries the absolute slot
 * index it belongs to; an observation into a fresh slot takes a
 * mutex once per rotation to zero the expired slot, every other
 * observation is a tag load plus relaxed atomic adds. A packed
 * (slot index, ring position) cache keeps the steady state free of
 * integer divisions: locating the current slot is one relaxed load,
 * one multiply, and two compares. Observations racing a rotation
 * may land in (or be zeroed out of) a boundary slot — an accepted,
 * bounded error for monitoring data.
 *
 * Callers pass the timestamp in (they already have one from the
 * latency measurement being recorded), so the window costs no extra
 * clock reads and tests can drive rotation deterministically.
 */
class WindowedHistogram
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * @p bounds defaults to the exponential 1,2,4,...,4096 set;
     * @p slots ring slots (>= 1); @p slot_seconds per-slot span.
     */
    explicit WindowedHistogram(std::vector<double> bounds = {},
                               int slots = 6,
                               double slot_seconds = 10.0);

    void observe(double value) { observe(value, Clock::now()); }
    void observe(double value, Clock::time_point now)
    {
        observe_in_bucket(bucket_index(value), value, now);
    }

    /**
     * Bucket index @p value falls into. Callers recording the same
     * value into several windows with identical bounds can search
     * once and reuse the index via observe_in_bucket.
     */
    size_t bucket_index(double value) const;

    /** observe() with the bucket search already done. */
    void observe_in_bucket(size_t bucket, double value,
                           Clock::time_point now);

    WindowSnapshot snapshot() const
    {
        return snapshot(Clock::now());
    }
    WindowSnapshot snapshot(Clock::time_point now) const;

    /** Zero every slot (the configuration survives). */
    void reset();

    double slot_seconds() const { return slot_ns_ / 1e9; }
    int slots() const { return static_cast<int>(ring_.size()); }
    double window_seconds() const
    {
        return slots() * slot_seconds();
    }

  private:
    struct Slot {
        /** Absolute slot index this slot's data belongs to. */
        std::atomic<int64_t> abs{-1};
        /** Per-bucket counts (the slot total is their sum). */
        std::vector<std::atomic<int64_t>> buckets;
        /** Sum scaled by kSumScale (integer adds beat CAS loops). */
        std::atomic<int64_t> scaled_sum{0};
    };

    static constexpr double kSumScale = 1024.0;
    /** Ring positions packed into the cache's low bits. */
    static constexpr int kRingBits = 6;
    static constexpr int64_t kNoCache = -1;

    std::vector<double> bounds_;
    /** Bounds are exactly 1,2,4,...: bucket search by exponent. */
    bool pow2_bounds_ = false;
    int64_t slot_ns_;
    Clock::time_point epoch_;
    std::vector<std::unique_ptr<Slot>> ring_;
    /**
     * (abs_slot << kRingBits) | ring_index of the slot most
     * recently observed into, or kNoCache. Lets the hot path skip
     * both the abs division and the ring modulo.
     */
    mutable std::atomic<int64_t> cached_slot_{kNoCache};
    /** Serializes slot zeroing on rotation (not observations). */
    mutable std::mutex rotate_mu_;

    int64_t abs_slot(Clock::time_point now) const;
    /** Claim @p slot for @p abs, zeroing stale contents. */
    void rotate(Slot &slot, int64_t abs);
};

/** Full registry snapshot, convertible to JSON. */
struct MetricsSnapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** One JSON object: {"counters":{...},"gauges":{...},...}. */
    std::string to_json() const;

    /** Atomically replace @p path with to_json(). False on I/O error. */
    bool write_json(const std::string &path) const;
};

/**
 * Name -> metric registry. Lookup takes a lock; returned references
 * stay valid for the life of the process (reset() zeroes values but
 * never removes a metric), so call sites may cache them.
 */
class Registry
{
  public:
    /** The process-wide registry used by the HERON_* macros. */
    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** @p bounds is honored only by the call that creates @p name. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds = {});

    MetricsSnapshot snapshot() const;

    /** Write snapshot().to_json() to @p path. False on I/O error. */
    bool write_json(const std::string &path) const;

    /** Zero every metric (registrations survive). */
    void reset();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace heron::metrics

#if !defined(HERON_DISABLE_TRACING)

/** Add @p delta to the named process-wide counter. */
#define HERON_COUNTER_ADD(name, delta)                              \
    do {                                                            \
        static ::heron::metrics::Counter &heron_metric_counter =    \
            ::heron::metrics::Registry::global().counter(name);     \
        heron_metric_counter.add(delta);                            \
    } while (0)

/** Increment the named process-wide counter by one. */
#define HERON_COUNTER_INC(name) HERON_COUNTER_ADD(name, 1)

/** Accumulate @p delta into the named process-wide gauge. */
#define HERON_GAUGE_ADD(name, delta)                                \
    do {                                                            \
        static ::heron::metrics::Gauge &heron_metric_gauge =        \
            ::heron::metrics::Registry::global().gauge(name);       \
        heron_metric_gauge.add(delta);                              \
    } while (0)

/** Set the named process-wide gauge to @p value (last write wins). */
#define HERON_GAUGE_SET(name, value)                                \
    do {                                                            \
        static ::heron::metrics::Gauge &heron_metric_gauge_set =    \
            ::heron::metrics::Registry::global().gauge(name);       \
        heron_metric_gauge_set.set(value);                          \
    } while (0)

/** Record @p value into the named process-wide histogram. */
#define HERON_HISTOGRAM_OBSERVE(name, value)                        \
    do {                                                            \
        static ::heron::metrics::Histogram &heron_metric_histo =    \
            ::heron::metrics::Registry::global().histogram(name);   \
        heron_metric_histo.observe(value);                          \
    } while (0)

#else

#define HERON_COUNTER_ADD(name, delta)                              \
    do {                                                            \
    } while (0)
#define HERON_COUNTER_INC(name)                                     \
    do {                                                            \
    } while (0)
#define HERON_GAUGE_ADD(name, delta)                                \
    do {                                                            \
    } while (0)
#define HERON_GAUGE_SET(name, value)                                \
    do {                                                            \
    } while (0)
#define HERON_HISTOGRAM_OBSERVE(name, value)                        \
    do {                                                            \
    } while (0)

#endif // HERON_DISABLE_TRACING

#endif // HERON_SUPPORT_METRICS_H
