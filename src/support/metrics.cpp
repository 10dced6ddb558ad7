#include "support/metrics.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "support/fs_util.h"
#include "support/json_util.h"

namespace heron::metrics {

double
bucket_percentile(const std::vector<double> &bounds,
                  const std::vector<int64_t> &counts, double p)
{
    int64_t total = 0;
    for (int64_t c : counts)
        total += c;
    if (total <= 0 || bounds.empty())
        return 0.0;
    p = std::min(100.0, std::max(0.0, p));
    // Rank of the requested percentile, 1-based so p=100 lands on
    // the last observation.
    double rank = p / 100.0 * static_cast<double>(total);
    if (rank < 1.0)
        rank = 1.0;
    int64_t cum = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
        int64_t prev = cum;
        cum += counts[b];
        if (static_cast<double>(cum) < rank)
            continue;
        if (b >= bounds.size())
            // Overflow bucket: no upper bound to interpolate
            // toward, so clamp to the last finite bound.
            return bounds.back();
        double lo = b == 0 ? 0.0 : bounds[b - 1];
        double hi = bounds[b];
        double frac = counts[b] > 0
                          ? (rank - static_cast<double>(prev)) /
                                static_cast<double>(counts[b])
                          : 1.0;
        return lo + (hi - lo) * frac;
    }
    return bounds.back();
}

void
Gauge::add(double delta)
{
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed))
        ;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    if (bounds_.empty())
        for (double b = 1.0; b <= 4096.0; b *= 2.0)
            bounds_.push_back(b);
    std::sort(bounds_.begin(), bounds_.end());
    buckets_ = std::vector<std::atomic<int64_t>>(bounds_.size() + 1);
}

void
Histogram::observe(double value)
{
    size_t b = static_cast<size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.add(value);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.bounds = bounds_;
    snap.counts.reserve(buckets_.size());
    for (const auto &b : buckets_)
        snap.counts.push_back(b.load(std::memory_order_relaxed));
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.value();
    return snap;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.reset();
}

WindowedHistogram::WindowedHistogram(std::vector<double> bounds,
                                     int slots,
                                     double slot_seconds)
    : bounds_(std::move(bounds)),
      slot_ns_(static_cast<int64_t>(
          std::max(slot_seconds, 1e-3) * 1e9)),
      epoch_(Clock::now())
{
    if (bounds_.empty())
        for (double b = 1.0; b <= 4096.0; b *= 2.0)
            bounds_.push_back(b);
    std::sort(bounds_.begin(), bounds_.end());
    pow2_bounds_ = !bounds_.empty() && bounds_[0] == 1.0 &&
                   bounds_.size() <= 53;
    for (size_t b = 1; pow2_bounds_ && b < bounds_.size(); ++b)
        pow2_bounds_ = bounds_[b] == 2.0 * bounds_[b - 1];
    if (slots < 1)
        slots = 1;
    // The ring index shares an atomic with the abs slot tag.
    slots = std::min(slots, 1 << kRingBits);
    ring_.reserve(static_cast<size_t>(slots));
    for (int i = 0; i < slots; ++i) {
        auto slot = std::make_unique<Slot>();
        slot->buckets =
            std::vector<std::atomic<int64_t>>(bounds_.size() + 1);
        ring_.push_back(std::move(slot));
    }
}

int64_t
WindowedHistogram::abs_slot(Clock::time_point now) const
{
    int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - epoch_)
            .count();
    if (ns < 0)
        ns = 0;
    return ns / slot_ns_;
}

void
WindowedHistogram::rotate(Slot &slot, int64_t abs)
{
    std::lock_guard<std::mutex> lock(rotate_mu_);
    if (slot.abs.load(std::memory_order_acquire) == abs)
        return; // Another thread already rotated this slot.
    for (auto &b : slot.buckets)
        b.store(0, std::memory_order_relaxed);
    slot.scaled_sum.store(0, std::memory_order_relaxed);
    slot.abs.store(abs, std::memory_order_release);
}

size_t
WindowedHistogram::bucket_index(double value) const
{
    if (pow2_bounds_) {
        // Power-of-two bounds: the bucket is the value's binary
        // exponent, read straight from the double's bit pattern
        // (NaN and values under 1 both land in the first bucket;
        // real latencies are neither).
        if (!(value >= 1.0))
            return 0;
        uint64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        auto exponent = static_cast<size_t>(
            ((bits >> 52) & 0x7ff) - 1023);
        return std::min(exponent + 1, bounds_.size());
    }
    return static_cast<size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
}

void
WindowedHistogram::observe_in_bucket(size_t bucket, double value,
                                     Clock::time_point now)
{
    int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - epoch_)
            .count();
    if (ns < 0)
        ns = 0;
    // Steady state: the cached (abs, ring index) pair still covers
    // `now`, so the slot resolves with one multiply and two
    // compares — no division, no modulo.
    int64_t cached = cached_slot_.load(std::memory_order_relaxed);
    int64_t abs;
    size_t index;
    if (cached != kNoCache &&
        ns >= (abs = cached >> kRingBits) * slot_ns_ &&
        ns < (abs + 1) * slot_ns_) {
        index = static_cast<size_t>(cached & ((1 << kRingBits) - 1));
    } else {
        abs = ns / slot_ns_;
        index = static_cast<size_t>(
            abs % static_cast<int64_t>(ring_.size()));
        cached_slot_.store((abs << kRingBits) |
                               static_cast<int64_t>(index),
                           std::memory_order_relaxed);
    }
    Slot &slot = *ring_[index];
    if (slot.abs.load(std::memory_order_acquire) != abs)
        rotate(slot, abs);
    slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    slot.scaled_sum.fetch_add(
        static_cast<int64_t>(value * kSumScale),
        std::memory_order_relaxed);
}

WindowSnapshot
WindowedHistogram::snapshot(Clock::time_point now) const
{
    WindowSnapshot snap;
    snap.bounds = bounds_;
    snap.counts.assign(bounds_.size() + 1, 0);
    snap.window_seconds = window_seconds();
    int64_t now_abs = abs_slot(now);
    int64_t n = static_cast<int64_t>(ring_.size());
    for (const auto &slot : ring_) {
        int64_t abs = slot->abs.load(std::memory_order_acquire);
        // Live slots are the last `n` absolute indices up to and
        // including the current one; anything older is expired data
        // awaiting rotation, anything newer is impossible.
        if (abs < 0 || abs > now_abs || abs <= now_abs - n)
            continue;
        ++snap.live_slots;
        for (size_t b = 0; b < slot->buckets.size(); ++b) {
            int64_t c = slot->buckets[b].load(
                std::memory_order_relaxed);
            snap.counts[b] += c;
            snap.count += c;
        }
        snap.sum += static_cast<double>(slot->scaled_sum.load(
                        std::memory_order_relaxed)) /
                    kSumScale;
    }
    return snap;
}

void
WindowedHistogram::reset()
{
    std::lock_guard<std::mutex> lock(rotate_mu_);
    cached_slot_.store(kNoCache, std::memory_order_relaxed);
    for (auto &slot : ring_) {
        for (auto &b : slot->buckets)
            b.store(0, std::memory_order_relaxed);
        slot->scaled_sum.store(0, std::memory_order_relaxed);
        slot->abs.store(-1, std::memory_order_release);
    }
}

std::string
MetricsSnapshot::to_json() const
{
    std::ostringstream out;
    out << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    out << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "" : ",") << "\"" << json_escape(name)
            << "\":" << value;
        first = false;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        out << (first ? "" : ",") << "\"" << json_escape(name)
            << "\":" << value;
        first = false;
    }
    out << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms) {
        out << (first ? "" : ",") << "\"" << json_escape(name)
            << "\":{\"bounds\":[";
        for (size_t i = 0; i < h.bounds.size(); ++i)
            out << (i ? "," : "") << h.bounds[i];
        out << "],\"counts\":[";
        for (size_t i = 0; i < h.counts.size(); ++i)
            out << (i ? "," : "") << h.counts[i];
        out << "],\"count\":" << h.count << ",\"sum\":" << h.sum
            << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    for (const auto &[name, c] : counters_)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        snap.gauges[name] = g->value();
    for (const auto &[name, h] : histograms_)
        snap.histograms[name] = h->snapshot();
    return snap;
}

bool
MetricsSnapshot::write_json(const std::string &path) const
{
    // Snapshot files are read by external tooling; replace them
    // atomically so a crash mid-write never leaves torn JSON.
    return atomic_write_file(path, to_json() + "\n");
}

bool
Registry::write_json(const std::string &path) const
{
    return snapshot().write_json(path);
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

} // namespace heron::metrics
