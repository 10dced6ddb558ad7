/**
 * @file
 * Layer attribution from the tracer's Chrome trace events: rebuilds
 * span nesting per thread from the event intervals and sums each
 * label's self time (its duration minus the part its child spans
 * cover), so per-layer seconds add up to the wall-clock of the
 * thread that did the work.
 */
#ifndef HERON_PERFBENCH_TRACE_ATTR_H
#define HERON_PERFBENCH_TRACE_ATTR_H

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One complete ("ph":"X") span from the Chrome trace export. */
struct SpanEvent {
    std::string name;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
};

/** Parse heron::trace::Tracer::chrome_trace_json() output. */
std::vector<SpanEvent> parse_chrome_trace(const std::string &json);

/** Per-label seconds on one set of threads. */
struct LayerTimes {
    /** Label -> self seconds (children subtracted). */
    std::map<std::string, double> self_s;
    /** Label -> inclusive seconds. */
    std::map<std::string, double> inclusive_s;
    /** Label -> completed spans. */
    std::map<std::string, long long> count;

    double self(const std::string &label) const;
    double inclusive(const std::string &label) const;
    /** Sum of every label's self time. */
    double total_self() const;
    /** Merge @p other into this. */
    void add(const LayerTimes &other);
};

/**
 * Attribute the spans of every thread that recorded a @p root span
 * (e.g. "tuner/tune": the threads that ran a tune), keeping only
 * spans that lie inside one of that thread's root spans. Threads
 * without a root span (solver and measurement workers running in
 * parallel) are left out, so the result sums to the tuning threads'
 * wall-clock.
 */
LayerTimes attribute(const std::vector<SpanEvent> &events,
                     const std::string &root);

} // namespace perfbench

#endif // HERON_PERFBENCH_TRACE_ATTR_H
