/**
 * @file
 * End-to-end tuners: the full Heron pipeline (paper Fig. 3 /
 * Algorithm 2) and the baseline systems it is compared against.
 *
 * Every tuner shares the same DLA measurement path; they differ in
 * which search space they generate (template flavor) and how they
 * explore it:
 *
 *   Heron    Heron space    + CGA evolved on cost-model fitness,
 *                             epsilon-greedy measurement selection
 *   AutoTVM  manual space   + simulated annealing
 *   Ansor    no-tensorize   + evolutionary search
 *   AMOS     mapping space  + model-ranked random sampling
 *   AKG      polyhedral-style deterministic schedule (GEMM/C2D)
 *   Vendor   fixed expert schedule (cuDNN/oneDNN stand-in)
 */
#ifndef HERON_AUTOTUNE_TUNER_H
#define HERON_AUTOTUNE_TUNER_H

#include <memory>
#include <string>

#include "hw/fault_injection.h"
#include "hw/measurer.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "search/common.h"

namespace heron::autotune {

/** Tuning budget and hyperparameters. */
struct TuneConfig {
    /** Hardware measurement budget per workload. */
    int trials = 200;
    /** CGA population size. */
    int population = 24;
    /** Model-fitness CGA generations per measurement round. */
    int generations = 3;
    /** Candidates measured per round. */
    int measure_per_round = 12;
    /** Fraction of measured candidates chosen at random. */
    double epsilon = 0.15;
    /** Key variables per CGA crossover. */
    int key_vars = 8;
    uint64_t seed = 1;
    hw::MeasureConfig measure;
    /** Solver budgets and wall-clock deadline. */
    csp::SolverConfig solver;
    /** Fault injection on the measurement path (all-zero = off). */
    hw::FaultConfig faults;
    /**
     * JSONL measurement journal for checkpoint/resume ("" = off).
     * Every measurement is appended and flushed; an existing
     * journal is replayed on startup so a killed run resumes
     * bit-identically.
     */
    std::string journal_path;
    /**
     * Consecutive rounds the solver (or candidate generation) may
     * come up empty before the tuner stops early.
     */
    int max_barren_rounds = 3;
    /**
     * Per-generation telemetry stream ("" = off): the Heron tuner
     * appends one GenerationStats JSONL record per measurement
     * round, alongside the measurement journal (see
     * support/profiler.h).
     */
    std::string telemetry_path;

    /**
     * Measurement-pool worker threads for the Heron tuner (<= 1
     * measures serially on the tuning thread). Results, journals,
     * and accounting are bit-identical across worker counts.
     */
    int measure_workers = 1;
    /**
     * Worker threads for CSP solving: population draws and CGA
     * crossover children (<= 1 solves serially on the tuning
     * thread). Populations, offspring and solver statistics are
     * bit-identical across worker counts — see csp::SampleBatch.
     */
    int sample_workers = 1;
    /** Per-candidate watchdog deadline, wall-clock milliseconds. */
    double watchdog_deadline_ms = 2000.0;
    /** Grace after cancellation before a worker is abandoned, ms. */
    double watchdog_grace_ms = 100.0;
    /** Abandoned workers tolerated before degrading to serial. */
    int max_abandoned_workers = 2;
    /**
     * Invalid/hung strikes against one schedule signature before it
     * is quarantined for the rest of the run (0 disables).
     */
    int quarantine_threshold = 3;
    /**
     * Crash injection for the journal (testing): after this many
     * successful appends the next append is torn mid-line and the
     * journal goes dead (< 0 disables). See autotune::CrashPlan.
     */
    int64_t journal_crash_after = -1;
    /** Bytes of the fatal record reaching the file when crashing. */
    size_t journal_crash_bytes = 8;
};

/** Why a tuning run ended. */
enum class StopReason : uint8_t {
    /** Ran the full measurement budget. */
    kBudgetComplete = 0,
    /** Solver/candidate generation came up empty too many rounds. */
    kBarren,
    /** Every remaining candidate was quarantined. */
    kAllQuarantined,
    /** The solver's wall-clock deadline expired. */
    kDeadline,
};

/** Name of a stop reason ("budget-complete", "barren", ...). */
const char *stop_reason_name(StopReason reason);

/** What a tuning run produced, plus its cost accounting. */
struct TuneOutcome {
    std::string tuner;
    std::string workload;
    search::SearchResult result;
    /** Simulated hardware measurement time (dominant in Tab. 10). */
    double measure_seconds = 0.0;
    /** Wall-clock spent in search (solver + genetic operators). */
    double search_seconds = 0.0;
    /** Wall-clock spent training/querying the cost model. */
    double model_seconds = 0.0;
    /** Per-category measurement failure/retry accounting. */
    hw::MeasureStats measure_stats;
    /** Measurements restored from the journal instead of re-run. */
    int64_t replayed = 0;
    /** Why the run ended. */
    StopReason stop_reason = StopReason::kBudgetComplete;
    /** Measurements resolved by the watchdog (cancel or abandon). */
    int64_t watchdog_fires = 0;
    /** Worker threads abandoned as wedged (wall-clock domain). */
    int64_t abandoned_workers = 0;
    /** True when worker attrition degraded the pool to serial. */
    bool pool_degraded = false;
    /** Schedule signatures quarantined during this run. */
    int64_t quarantined_signatures = 0;
    /** Candidates skipped because their signature was quarantined. */
    int64_t quarantine_skips = 0;
    /**
     * Aggregated CSP solver counters for the run: the tuner's own
     * relaxation solver plus every sampling worker's engine,
     * summed via csp::SolverStats::operator+=.
     */
    csp::SolverStats solver_stats;
    /** True when span recording was on during this run. */
    bool profiled = false;
    /**
     * Decomposition drift: (search_seconds + model_seconds) minus
     * the profiler's "phase/search" + "phase/model" span totals for
     * this run. Asserted near-zero in debug builds when profiling
     * is enabled; reported in the end-of-run summary. Only the
     * wall-clock components participate — measure_seconds is
     * simulated time and reconciles against the measurer directly.
     */
    double profile_delta_seconds = 0.0;

    /** Total "compilation" time (Table 10 / Fig. 14). */
    double
    compile_seconds() const
    {
        return measure_seconds + search_seconds + model_seconds;
    }
};

/** A complete tuning system (space generation + exploration). */
class Tuner
{
  public:
    virtual ~Tuner() = default;

    /** Display name ("Heron", "AutoTVM", ...). */
    virtual std::string name() const = 0;

    /** True when the tuner supports this operator kind. */
    virtual bool supports(const ops::Workload &workload) const;

    /** The DLA this tuner targets. */
    virtual const hw::DlaSpec &spec() const = 0;

    /** Tune one workload to the configured budget. */
    virtual TuneOutcome tune(const ops::Workload &workload) = 0;
};

/** Full Heron (constrained generation + CGA, Algorithm 2). */
std::unique_ptr<Tuner> make_heron_tuner(hw::DlaSpec spec,
                                        TuneConfig config = {});

/** AutoTVM-like: manual template + simulated annealing. */
std::unique_ptr<Tuner> make_autotvm_tuner(hw::DlaSpec spec,
                                          TuneConfig config = {});

/** Ansor-like: rule template without tensorize + evolution. */
std::unique_ptr<Tuner> make_ansor_tuner(hw::DlaSpec spec,
                                        TuneConfig config = {});

/** AMOS-like: intrinsic mapping space + model-ranked sampling. */
std::unique_ptr<Tuner> make_amos_tuner(hw::DlaSpec spec,
                                       TuneConfig config = {});

/** AKG-like: deterministic polyhedral-style schedule, no search. */
std::unique_ptr<Tuner> make_akg_tuner(hw::DlaSpec spec,
                                      TuneConfig config = {});

/** Vendor hand-tuned library (cuDNN/cuBLAS/oneDNN stand-in). */
std::unique_ptr<Tuner> make_vendor_library(hw::DlaSpec spec,
                                           TuneConfig config = {});

/**
 * Heron with rule/search ablation switches, for the ablation
 * benches (rule families off, CGA-1, model-free selection).
 */
struct HeronAblation {
    rules::Options options = rules::Options::heron();
    /** CGA-1: random key variables. */
    bool random_key_vars = false;
    /** Replace epsilon-greedy by uniform measurement selection. */
    bool random_measure_selection = false;
    std::string label = "Heron";
};

std::unique_ptr<Tuner> make_heron_tuner_ablated(
    hw::DlaSpec spec, TuneConfig config, HeronAblation ablation);

} // namespace heron::autotune

#endif // HERON_AUTOTUNE_TUNER_H
