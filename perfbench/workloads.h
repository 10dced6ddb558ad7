/**
 * @file
 * The three workloads and the per-layer metric table they share.
 */
#ifndef HERON_PERFBENCH_WORKLOADS_H
#define HERON_PERFBENCH_WORKLOADS_H

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "serve_stack.h"
#include "trace_attr.h"

namespace perfbench {

/** Offline library build: 9 tunes, then the library is served. */
Report run_tune_library(const Options &options);

/** Exact-hit serving from a replayed 256-record store. */
Report run_serve_hot(const Options &options);

/** Cold ResNet-50 graph on v100: tuning beside serving. */
Report run_serve_cold(const Options &options);

/**
 * Regenerate the frozen serving store at @p path (data/v100_store.jsonl)
 * with the solver and simulator of this build. False on a write error.
 */
bool write_frozen_store(const std::string &path);

/** Every per-layer metric name with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &layer_metrics();

/** Set every per-layer metric to 0 (a layer the run never uses). */
void zero_layer_metrics(Report &report);

/**
 * Fill the tune-side layers (rules, csp, cga, model, hw, autotune)
 * from span attribution on the tuning threads and from the
 * process-wide counters, which the caller reset before the traced
 * phase. @p tune_wall_s is the wall-clock the spans must add up to.
 */
void tune_layer_metrics(Report &report, const LayerTimes &layers,
                        double tune_wall_s);

/**
 * Fill the serve-side layers from the stack's counters, the
 * request-phase histograms, span totals, and direct registry
 * probes of @p exact and @p nearest keys.
 */
void serve_layer_metrics(Report &report, ServingStack &stack,
                         const std::vector<ServedKey> &exact,
                         const std::vector<ServedKey> &nearest);

/**
 * The @p q quantile of each chunk of 1000 consecutive requests,
 * medianed over the chunks.
 */
double chunked_quantile(const std::vector<double> &latency_us, double q);

/** Fill the open-loop latency metrics (and generator lag). */
void latency_metrics(Report &report, const LoadStats &stats);

} // namespace perfbench

#endif // HERON_PERFBENCH_WORKLOADS_H
