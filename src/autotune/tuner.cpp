#include "autotune/tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "autotune/checkpoint.h"
#include "csp/sample_batch.h"
#include "hw/measure_pool.h"
#include "model/cost_model.h"
#include "search/algorithms.h"
#include "search/cga.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/profiler.h"
#include "support/trace.h"

namespace heron::autotune {

const char *
stop_reason_name(StopReason reason)
{
    switch (reason) {
      case StopReason::kBudgetComplete: return "budget-complete";
      case StopReason::kBarren: return "barren";
      case StopReason::kAllQuarantined: return "all-quarantined";
      case StopReason::kDeadline: return "deadline";
    }
    return "?";
}

using csp::Assignment;
using csp::RandSatSolver;
using csp::VarId;
using schedule::LoopRole;
using search::Evaluator;
using search::SearchConfig;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

uint64_t
hash_assignment(const Assignment &a)
{
    uint64_t h = 0x9e3779b9;
    for (int64_t v : a)
        h = hash_combine(h, static_cast<uint64_t>(v));
    return h;
}

/** Span labels for the wall-clock phase decomposition. */
constexpr const char *kSearchPhase = "phase/search";
constexpr const char *kModelPhase = "phase/model";

/**
 * Times one contiguous region into both accountings at once: the
 * TuneOutcome seconds accumulator and the profiler (same start/end
 * timestamps, so the two decompositions reconcile by construction
 * and the debug assert catches a region added to only one of them).
 */
class PhaseSpan
{
  public:
    PhaseSpan(const char *label, double &acc)
        : label_(label), acc_(&acc), start_(Clock::now())
    {
    }

    ~PhaseSpan() { stop(); }

    PhaseSpan(const PhaseSpan &) = delete;
    PhaseSpan &operator=(const PhaseSpan &) = delete;

    /** End the region early (idempotent). */
    void
    stop()
    {
        if (!acc_)
            return;
        auto end = Clock::now();
        *acc_ +=
            std::chrono::duration<double>(end - start_).count();
        trace::Tracer::global().record_span(label_, start_, end);
        acc_ = nullptr;
    }

  private:
    const char *label_;
    double *acc_;
    Clock::time_point start_;
};

/** Crossover relaxation-ladder steps taken so far, process-wide. */
int64_t
relaxation_count()
{
    return metrics::Registry::global()
        .counter("cga.relaxations")
        .value();
}

/** Common base: holds the DLA spec and config. */
class TunerBase : public Tuner
{
  public:
    TunerBase(hw::DlaSpec spec, TuneConfig config)
        : spec_(std::move(spec)), config_(config)
    {
    }

    bool
    supports(const ops::Workload &workload) const override
    {
        if (spec_.kind == hw::DlaKind::kVta ||
            spec_.kind == hw::DlaKind::kTpu)
            return rules::workload_tensorizable(spec_, workload);
        return true;
    }

    const hw::DlaSpec &spec() const override { return spec_; }

  protected:
    hw::DlaSpec spec_;
    TuneConfig config_;

    hw::MeasureConfig
    measure_config() const
    {
        hw::MeasureConfig mc = config_.measure;
        mc.seed = config_.seed * 7919 + 13;
        return mc;
    }

    /** Measurer honoring the configured fault injection. */
    std::unique_ptr<hw::Measurer>
    make_tuner_measurer() const
    {
        return hw::make_measurer(spec_, measure_config(),
                                 config_.faults);
    }
};

/** The full Heron pipeline (Algorithm 2), with ablation knobs. */
class HeronTuner : public TunerBase
{
  public:
    HeronTuner(hw::DlaSpec spec, TuneConfig config,
               HeronAblation ablation)
        : TunerBase(std::move(spec), config),
          ablation_(std::move(ablation))
    {
    }

    std::string name() const override { return ablation_.label; }

    TuneOutcome
    tune(const ops::Workload &workload) override
    {
        HERON_TRACE_SCOPE("tuner/tune");
        trace::Tracer &tracer = trace::Tracer::global();
        // Phase totals before this run, so the reconciliation below
        // works on this run's delta even after several tune calls.
        const double search_span0 =
            tracer.total_seconds(kSearchPhase);
        const double model_span0 = tracer.total_seconds(kModelPhase);
        auto tune_start = Clock::now();

        TuneOutcome outcome;
        outcome.tuner = name();
        outcome.workload = workload.name;

        if (!config_.telemetry_path.empty() &&
            !telemetry_.is_open())
            telemetry_.open(config_.telemetry_path);

        PhaseSpan setup_span(kSearchPhase, outcome.search_seconds);
        rules::SpaceGenerator generator(spec_, ablation_.options);
        auto space = [&] {
            HERON_TRACE_SCOPE("space/generate");
            HERON_COUNTER_INC("space.generated");
            return generator.generate(workload);
        }();
        // Every solve — population draws and crossover children
        // with their relaxation ladders — goes through the
        // deterministic parallel pool. Populations, offspring and
        // aggregate stats are bit-identical across worker counts.
        csp::SampleBatch batch(space.csp, config_.solver,
                               config_.sample_workers);
        // All measurement goes through the supervised pool: workers
        // <= 1 runs serially on this thread; either way results and
        // journals are bit-identical (indices are pre-assigned from
        // the pool's master counter).
        hw::PoolConfig pool_config;
        pool_config.workers = config_.measure_workers;
        pool_config.deadline_ms = config_.watchdog_deadline_ms;
        pool_config.grace_ms = config_.watchdog_grace_ms;
        pool_config.max_abandoned = config_.max_abandoned_workers;
        hw::MeasurePool pool(spec_, measure_config(),
                             config_.faults, pool_config);
        Evaluator evaluator(space);
        model::CostModel model(space.csp);
        Rng rng(config_.seed);

        // Checkpoint/resume: replay the journal's prefix instead of
        // re-measuring, then append every live measurement.
        TuningJournal journal;
        ReplayCursor replay;
        // Full journal contents (loaded + appended), mirrored for
        // the per-round atomic snapshot.
        std::vector<TuningRecord> all_records;
        if (!config_.journal_path.empty()) {
            auto loaded = TuningJournal::load(config_.journal_path);
            all_records = loaded;
            // Keep sequence numbers monotonic across the resume.
            int64_t next_seq = 1;
            for (const auto &rec : loaded)
                next_seq = std::max(next_seq, rec.seq + 1);
            replay = ReplayCursor(std::move(loaded), workload.name,
                                  spec_.name, name());
            if (replay.remaining() > 0) {
                HERON_INFO << "resuming " << workload.name
                           << " from journal ("
                           << replay.remaining()
                           << " measurement(s) to replay)";
            }
            journal.open(config_.journal_path, next_seq);
            if (config_.journal_crash_after >= 0)
                journal.set_crash_plan(
                    {config_.journal_crash_after,
                     config_.journal_crash_bytes});
        }
        setup_span.stop();

        // Quarantine: schedule signatures (structural program
        // hashes) striking out on invalid/hung measurements are
        // excluded for the rest of the run. State is rebuilt
        // deterministically on resume from the replayed outcomes.
        std::unordered_map<uint64_t, int> strikes;
        std::unordered_set<uint64_t> quarantined;
        auto quarantine_note = [&](const Assignment &a, uint64_t sig,
                                   bool valid,
                                   const std::string &failure) {
            if (config_.quarantine_threshold <= 0)
                return;
            if (valid) {
                // The signature demonstrably works; wipe its record.
                strikes.erase(sig);
                return;
            }
            // Only deterministic failure categories strike; a
            // transient or timed-out board is not the program's
            // fault.
            if (failure != "invalid" && failure != "hung")
                return;
            if (quarantined.count(sig))
                return;
            if (++strikes[sig] < config_.quarantine_threshold)
                return;
            quarantined.insert(sig);
            ++outcome.quarantined_signatures;
            HERON_COUNTER_INC("tuner.quarantined_signatures");
            HERON_WARN << "quarantining schedule signature "
                       << std::hex << sig << std::dec << " after "
                       << config_.quarantine_threshold << " "
                       << failure << " strike(s)";
            if (journal.is_open()) {
                TuningRecord event;
                event.workload = workload.name;
                event.dla = spec_.name;
                event.tuner = name();
                event.category = "quarantine";
                event.valid = false;
                event.failure = failure;
                event.assignment = a;
                event.seq = journal.next_seq();
                journal.append(event);
                all_records.push_back(std::move(event));
            }
        };

        std::unordered_set<uint64_t> measured;
        // (assignment, measured score) for survivor selection.
        std::vector<std::pair<Assignment, double>> archive;
        // Rounds in a row the solver/candidate pool came up empty;
        // a few barren rounds are survivable (randomized restarts),
        // a streak means the space is exhausted.
        int barren_rounds = 0;
        int64_t round_index = -1;

        while (evaluator.count() < config_.trials) {
            ++round_index;
            HERON_COUNTER_INC("tuner.rounds");
            const csp::SolverStats solver_before = batch.stats();
            const int64_t relax_before = relaxation_count();

            // Step 1: first generation = survivors + random valid.
            std::vector<Assignment> pop;
            {
                PhaseSpan search_span(kSearchPhase,
                                      outcome.search_seconds);
                std::vector<size_t> order(archive.size());
                for (size_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                std::stable_sort(
                    order.begin(), order.end(),
                    [&](size_t a, size_t b) {
                        return archive[a].second > archive[b].second;
                    });
                size_t survivors = std::min<size_t>(
                    order.size(),
                    static_cast<size_t>(config_.population / 2));
                for (size_t i = 0; i < survivors; ++i)
                    pop.push_back(archive[order[i]].first);
                int need = config_.population -
                           static_cast<int>(pop.size());
                for (auto &a : batch.sample(rng.next_u64(),
                                            std::max(need, 1)))
                    pop.push_back(std::move(a));
            }
            if (pop.empty()) {
                // Degrade gracefully: a randomized solver can fail
                // a whole round (budget/deadline) and still succeed
                // on the next attempt.
                HERON_COUNTER_INC("tuner.barren_rounds");
                if (++barren_rounds >= config_.max_barren_rounds) {
                    HERON_WARN
                        << "solver produced no candidates for "
                        << barren_rounds << " round(s) ("
                        << csp::solve_failure_name(
                               batch.last_failure())
                        << "); stopping " << workload.name
                        << " early";
                    outcome.stop_reason =
                        batch.last_failure() ==
                                csp::SolveFailure::kDeadline
                            ? StopReason::kDeadline
                            : StopReason::kBarren;
                    break;
                }
                continue;
            }

            // Step 2: evolve for several generations on predicted
            // fitness. Model queries and genetic operators are
            // timed into disjoint phases — the predict loops must
            // not also count as search time (that double-counting
            // was the old compile_seconds decomposition drift).
            if (model.trained()) {
                for (int g = 0; g < config_.generations; ++g) {
                    HERON_COUNTER_INC("tuner.generations");
                    std::vector<double> fitness;
                    {
                        PhaseSpan model_span(kModelPhase,
                                             outcome.model_seconds);
                        fitness.reserve(pop.size());
                        for (const auto &a : pop)
                            fitness.push_back(
                                std::max(0.0, model.predict(a)));
                    }

                    PhaseSpan search_span(kSearchPhase,
                                          outcome.search_seconds);
                    auto parents = search::roulette_select(
                        pop, fitness, config_.population, rng);
                    auto offspring =
                        search::constraint_crossover_mutation(
                            batch, model, parents,
                            config_.population, config_.key_vars,
                            ablation_.random_key_vars, rng);
                    pop = std::move(parents);
                    for (auto &child : offspring)
                        pop.push_back(std::move(child));
                }
            }

            // Step 3: epsilon-greedy measurement selection.
            std::vector<Assignment> candidates;
            {
                PhaseSpan search_span(kSearchPhase,
                                      outcome.search_seconds);
                for (auto &a : pop) {
                    uint64_t h = hash_assignment(a);
                    if (measured.count(h))
                        continue;
                    candidates.push_back(std::move(a));
                }
                if (candidates.empty())
                    for (auto &a : batch.sample(rng.next_u64(), 4))
                        candidates.push_back(std::move(a));
            }
            if (candidates.empty()) {
                HERON_COUNTER_INC("tuner.barren_rounds");
                if (++barren_rounds >= config_.max_barren_rounds) {
                    HERON_WARN << "no unmeasured candidates for "
                               << barren_rounds
                               << " round(s); stopping "
                               << workload.name << " early";
                    outcome.stop_reason =
                        batch.last_failure() ==
                                csp::SolveFailure::kDeadline
                            ? StopReason::kDeadline
                            : StopReason::kBarren;
                    break;
                }
                continue;
            }
            int budget_left =
                config_.trials - static_cast<int>(evaluator.count());
            int to_measure = std::min(
                {config_.measure_per_round, budget_left,
                 static_cast<int>(candidates.size())});

            std::vector<size_t> pick_order(candidates.size());
            for (size_t i = 0; i < pick_order.size(); ++i)
                pick_order[i] = i;
            std::vector<double> predicted;
            if (model.trained() &&
                !ablation_.random_measure_selection) {
                {
                    PhaseSpan model_span(kModelPhase,
                                         outcome.model_seconds);
                    predicted.resize(candidates.size());
                    for (size_t i = 0; i < candidates.size(); ++i)
                        predicted[i] = model.predict(candidates[i]);
                }
                PhaseSpan search_span(kSearchPhase,
                                      outcome.search_seconds);
                std::stable_sort(pick_order.begin(),
                                 pick_order.end(),
                                 [&](size_t a, size_t b) {
                                     return predicted[a] >
                                            predicted[b];
                                 });
                // epsilon fraction replaced by random picks.
                int random_picks = static_cast<int>(
                    config_.epsilon * to_measure);
                for (int i = 0; i < random_picks; ++i) {
                    size_t j =
                        rng.index(pick_order.size() -
                                  static_cast<size_t>(i)) +
                        static_cast<size_t>(i);
                    std::swap(pick_order[static_cast<size_t>(i)],
                              pick_order[j]);
                }
            } else {
                PhaseSpan search_span(kSearchPhase,
                                      outcome.search_seconds);
                rng.shuffle(pick_order);
            }

            // Step 4a: admission, in selection order. Quarantined
            // signatures are skipped (no budget consumed); the rest
            // either match the journal (replay) or reserve a
            // measurement index, so indices — and therefore every
            // derived noise/fault stream — are assigned exactly as
            // a serial uninterrupted run would assign them.
            struct RoundSlot {
                size_t cand = 0;
                const TuningRecord *rec = nullptr;
                int64_t index = -1;
                size_t task_pos = 0;
                uint64_t sig = 0;
            };
            std::vector<RoundSlot> slots;
            std::vector<schedule::ConcreteProgram> programs;
            int skipped_quarantined = 0;
            for (int i = 0; i < to_measure; ++i) {
                size_t cand = pick_order[static_cast<size_t>(i)];
                const Assignment &a = candidates[cand];
                auto program = space.bind(a);
                uint64_t sig = hw::detail::program_hash(program);
                if (quarantined.count(sig)) {
                    ++skipped_quarantined;
                    ++outcome.quarantine_skips;
                    HERON_COUNTER_INC("tuner.quarantine_skips");
                    continue;
                }
                RoundSlot slot;
                slot.cand = cand;
                slot.sig = sig;
                if (const TuningRecord *rec = replay.match(a)) {
                    slot.rec = rec;
                    pool.note_replayed();
                } else {
                    slot.index = pool.reserve_index();
                    slot.task_pos = programs.size();
                    programs.push_back(std::move(program));
                }
                slots.push_back(std::move(slot));
            }
            if (slots.empty()) {
                // The whole selection was quarantined: counts as a
                // barren round (no measurements happened).
                HERON_COUNTER_INC("tuner.barren_rounds");
                if (++barren_rounds >= config_.max_barren_rounds) {
                    HERON_WARN
                        << "every candidate quarantined for "
                        << barren_rounds << " round(s); stopping "
                        << workload.name << " early";
                    outcome.stop_reason =
                        skipped_quarantined > 0
                            ? StopReason::kAllQuarantined
                            : StopReason::kBarren;
                    break;
                }
                continue;
            }
            barren_rounds = 0;

            // Step 4b: fan the live measurements across the pool.
            // Program pointers stay valid: `programs` is fully built
            // before any task references it.
            std::vector<hw::MeasureTask> tasks;
            tasks.reserve(programs.size());
            for (const RoundSlot &slot : slots)
                if (slot.index >= 0)
                    tasks.push_back(
                        {&programs[slot.task_pos], slot.index});
            auto results = pool.measure_batch(tasks);

            // Step 4c: apply results in selection order — journal
            // appends, model samples, and quarantine strikes all
            // happen in the same order for every worker count.
            // Failed measurements score 0 and the round carries on.
            int round_valid = 0;
            double round_gflops_sum = 0.0;
            int to_measure_done = 0;
            for (const RoundSlot &slot : slots) {
                const Assignment &a = candidates[slot.cand];
                double score;
                if (slot.rec != nullptr) {
                    score = evaluator.replay(a, slot.rec->valid,
                                             slot.rec->latency_ms,
                                             slot.rec->gflops);
                    quarantine_note(a, slot.sig, slot.rec->valid,
                                    slot.rec->failure);
                } else {
                    const hw::MeasureResult &mr =
                        results[slot.task_pos];
                    score = evaluator.record(a, mr);
                    std::string failure =
                        mr.valid
                            ? ""
                            : hw::measure_failure_name(mr.failure);
                    if (journal.is_open()) {
                        TuningRecord rec;
                        rec.workload = workload.name;
                        rec.dla = spec_.name;
                        rec.tuner = name();
                        rec.valid = mr.valid;
                        rec.failure = failure;
                        rec.latency_ms = mr.latency_ms;
                        rec.gflops = mr.gflops;
                        rec.assignment = a;
                        rec.seq = journal.next_seq();
                        journal.append(rec);
                        all_records.push_back(std::move(rec));
                    }
                    quarantine_note(a, slot.sig, mr.valid, failure);
                }
                ++to_measure_done;
                if (evaluator.last_result().valid) {
                    ++round_valid;
                    round_gflops_sum +=
                        evaluator.last_result().gflops;
                }
                measured.insert(hash_assignment(a));
                model.add_scored_sample(a, score);
                archive.emplace_back(a, score);
            }
            to_measure = to_measure_done;

            // Durability: refresh the atomic journal snapshot each
            // round (either the previous or the new complete
            // snapshot exists on disk, never a torn one).
            if (journal.is_open())
                TuningJournal::write_snapshot(
                    config_.journal_path + ".snapshot",
                    all_records);
            {
                PhaseSpan model_span(kModelPhase,
                                     outcome.model_seconds);
                model.fit();
            }

            if (telemetry_.is_open()) {
                emit_generation_stats(
                    workload, outcome, evaluator, round_index,
                    to_measure, round_valid, round_gflops_sum,
                    predicted, pick_order, solver_before,
                    batch.stats(), relaxation_count() - relax_before,
                    seconds_since(tune_start));
            }
        }

        outcome.result = evaluator.result();
        outcome.solver_stats = batch.stats();
        outcome.measure_seconds = pool.simulated_seconds();
        outcome.measure_stats = pool.stats();
        outcome.replayed = replay.replayed();
        outcome.watchdog_fires = pool.watchdog_fires();
        outcome.abandoned_workers = pool.abandoned_workers();
        outcome.pool_degraded = pool.degraded();

        // Decomposition reconciliation: the profiler timed exactly
        // the regions the TuneOutcome accounting timed, so the two
        // must agree; a drift means someone added a timed region to
        // one bookkeeper but not the other.
        outcome.profiled = tracer.enabled();
        if (outcome.profiled) {
            double tracked = (tracer.total_seconds(kSearchPhase) -
                              search_span0) +
                             (tracer.total_seconds(kModelPhase) -
                              model_span0);
            double wall =
                outcome.search_seconds + outcome.model_seconds;
            outcome.profile_delta_seconds = wall - tracked;
#ifndef NDEBUG
            HERON_CHECK_LE(std::abs(outcome.profile_delta_seconds),
                           0.05 * wall + 0.01)
                << "TuneOutcome phase decomposition drifted from "
                   "profiler span totals (tracked "
                << tracked << " s, accounted " << wall << " s)";
#endif
        }
        return outcome;
    }

  private:
    HeronAblation ablation_;
    prof::TelemetryStream telemetry_;

    /** Build and append one per-round telemetry record. */
    void
    emit_generation_stats(
        const ops::Workload &workload, const TuneOutcome &outcome,
        const Evaluator &evaluator, int64_t round_index,
        int to_measure, int round_valid, double round_gflops_sum,
        const std::vector<double> &predicted,
        const std::vector<size_t> &pick_order,
        const csp::SolverStats &solver_before,
        const csp::SolverStats &solver_after, int64_t relaxations,
        double elapsed_seconds)
    {
        prof::GenerationStats gs;
        gs.round = round_index;
        gs.workload = workload.name;
        gs.tuner = outcome.tuner;
        gs.measured = evaluator.count();
        gs.best_latency_ms = evaluator.result().best_latency_ms;
        gs.best_gflops = evaluator.result().best_gflops;
        gs.round_measured = to_measure;
        gs.round_valid = round_valid;
        if (round_valid > 0)
            gs.round_mean_gflops = round_gflops_sum / round_valid;
        if (!predicted.empty() && to_measure > 0) {
            double best = 0.0, sum = 0.0;
            for (int i = 0; i < to_measure; ++i) {
                double p =
                    predicted[pick_order[static_cast<size_t>(i)]];
                best = std::max(best, p);
                sum += p;
            }
            gs.best_predicted = best;
            gs.mean_predicted = sum / to_measure;
        }
        gs.solver_unsat =
            solver_after.unsat - solver_before.unsat;
        gs.solver_budget = solver_after.budget_exhausted -
                           solver_before.budget_exhausted;
        gs.solver_deadline = solver_after.deadline_aborts -
                             solver_before.deadline_aborts;
        gs.relaxations = relaxations;
        gs.elapsed_seconds = elapsed_seconds;
        telemetry_.append(gs);
    }
};

/** Wraps one of the search-module algorithms over a fixed flavor. */
class SearchTuner : public TunerBase
{
  public:
    using Algorithm = search::SearchResult (*)(
        const rules::GeneratedSpace &, hw::Measurer &,
        const SearchConfig &);

    SearchTuner(hw::DlaSpec spec, TuneConfig config,
                std::string name, rules::Options options,
                Algorithm algorithm)
        : TunerBase(std::move(spec), config), name_(std::move(name)),
          options_(options), algorithm_(algorithm)
    {
    }

    std::string name() const override { return name_; }

    bool
    supports(const ops::Workload &workload) const override
    {
        if (spec_.kind == hw::DlaKind::kVta ||
            spec_.kind == hw::DlaKind::kTpu) {
            if (!options_.enable_tensorize)
                return false; // no scalar fallback
            return rules::workload_tensorizable(spec_, workload);
        }
        return true;
    }

    TuneOutcome
    tune(const ops::Workload &workload) override
    {
        HERON_TRACE_SCOPE("tuner/tune");
        TuneOutcome outcome;
        outcome.tuner = name_;
        outcome.workload = workload.name;

        auto start = Clock::now();
        rules::SpaceGenerator generator(spec_, options_);
        auto space = generator.generate(workload);
        auto measurer = make_tuner_measurer();

        SearchConfig sc;
        sc.trials = config_.trials;
        sc.population = config_.population;
        sc.seed = config_.seed;
        sc.sample_workers = config_.sample_workers;
        outcome.result = algorithm_(space, *measurer, sc);
        outcome.search_seconds = seconds_since(start);
        outcome.measure_seconds = measurer->simulated_seconds();
        outcome.measure_stats = measurer->stats();
        return outcome;
    }

  private:
    std::string name_;
    rules::Options options_;
    Algorithm algorithm_;
};

/** AMOS-like: model-ranked random sampling of valid mappings. */
class AmosTuner : public TunerBase
{
  public:
    AmosTuner(hw::DlaSpec spec, TuneConfig config)
        : TunerBase(std::move(spec), config)
    {
    }

    std::string name() const override { return "AMOS"; }

    TuneOutcome
    tune(const ops::Workload &workload) override
    {
        HERON_TRACE_SCOPE("tuner/tune");
        TuneOutcome outcome;
        outcome.tuner = name();
        outcome.workload = workload.name;

        auto start = Clock::now();
        rules::SpaceGenerator generator(spec_,
                                        rules::Options::amos());
        auto space = generator.generate(workload);
        RandSatSolver solver(space.csp, config_.solver);
        auto measurer = make_tuner_measurer();
        Evaluator evaluator(space, *measurer);
        model::CostModel model(space.csp);
        Rng rng(config_.seed);

        while (evaluator.count() < config_.trials) {
            auto pool =
                solver.solve_n(rng, 3 * config_.measure_per_round);
            if (pool.empty())
                break;
            std::vector<size_t> order(pool.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            if (model.trained()) {
                auto model_start = Clock::now();
                std::vector<double> predicted(pool.size());
                for (size_t i = 0; i < pool.size(); ++i)
                    predicted[i] = model.predict(pool[i]);
                std::stable_sort(order.begin(), order.end(),
                                 [&](size_t a, size_t b) {
                                     return predicted[a] >
                                            predicted[b];
                                 });
                outcome.model_seconds += seconds_since(model_start);
            } else {
                rng.shuffle(order);
            }
            int budget_left =
                config_.trials - static_cast<int>(evaluator.count());
            int to_measure =
                std::min({config_.measure_per_round, budget_left,
                          static_cast<int>(pool.size())});
            for (int i = 0; i < to_measure; ++i) {
                const Assignment &a =
                    pool[order[static_cast<size_t>(i)]];
                double score = evaluator.measure(a);
                model.add_scored_sample(a, score);
            }
            auto fit_start = Clock::now();
            model.fit();
            outcome.model_seconds += seconds_since(fit_start);
        }
        outcome.result = evaluator.result();
        outcome.solver_stats = solver.stats();
        outcome.search_seconds =
            seconds_since(start) - outcome.model_seconds;
        outcome.measure_seconds = measurer->simulated_seconds();
        outcome.measure_stats = measurer->stats();
        return outcome;
    }
};

/**
 * A fixed-recipe scheduler: preferences per loop role decoded to
 * the nearest feasible configuration. Used for both the vendor
 * library stand-in and the AKG-like polyhedral heuristic, with
 * different recipes.
 */
class RecipeTuner : public TunerBase
{
  public:
    struct Recipe {
        int64_t vthread = 1;
        int64_t thread = 2;
        int64_t spatial_serial = 4;
        int64_t reduce_serial = 4;
        int64_t buffer = 8;
        int64_t intrinsic_spatial = 16;
        int64_t vector_len = 8;
        int64_t pad = 8;
        int64_t unroll = 4;
    };

    RecipeTuner(hw::DlaSpec spec, TuneConfig config,
                std::string name, std::vector<Recipe> recipes,
                bool gemm_conv_only)
        : TunerBase(std::move(spec), config), name_(std::move(name)),
          recipes_(std::move(recipes)),
          gemm_conv_only_(gemm_conv_only)
    {
        HERON_CHECK(!recipes_.empty());
    }

    std::string name() const override { return name_; }

    bool
    supports(const ops::Workload &workload) const override
    {
        if (gemm_conv_only_ &&
            workload.kind != ops::OpKind::kGemm &&
            workload.kind != ops::OpKind::kC2d)
            return false;
        return TunerBase::supports(workload);
    }

    TuneOutcome
    tune(const ops::Workload &workload) override
    {
        HERON_TRACE_SCOPE("tuner/tune");
        TuneOutcome outcome;
        outcome.tuner = name_;
        outcome.workload = workload.name;

        auto start = Clock::now();
        rules::SpaceGenerator generator(spec_,
                                        rules::Options::heron());
        auto space = generator.generate(workload);
        auto measurer = make_tuner_measurer();
        Evaluator evaluator(space, *measurer);
        Rng rng(config_.seed);

        // A library ships several kernel variants and dispatches by
        // an internal heuristic; model that as trying each recipe.
        for (const Recipe &recipe : recipes_) {
            auto prefs = build_preferences(space, recipe);
            auto a = search::solve_with_preferences(space.csp, prefs,
                                                    rng);
            if (a)
                evaluator.measure(*a);
            else
                evaluator.measure_failure();
        }
        outcome.result = evaluator.result();
        outcome.search_seconds = seconds_since(start);
        outcome.measure_seconds = measurer->simulated_seconds();
        outcome.measure_stats = measurer->stats();
        return outcome;
    }

  private:
    std::string name_;
    std::vector<Recipe> recipes_;
    bool gemm_conv_only_;

    std::unordered_map<VarId, int64_t>
    build_preferences(const rules::GeneratedSpace &space,
                      const Recipe &recipe) const
    {
        std::unordered_map<VarId, int64_t> prefs;
        for (const auto &plan : space.tmpl.stages) {
            if (plan.role != schedule::StageRole::kMain) {
                VarId vec = space.csp.find_var("vec." + plan.name);
                if (vec >= 0)
                    prefs[vec] = recipe.vector_len;
                VarId pad = space.csp.find_var("pad." + plan.name);
                if (pad >= 0)
                    prefs[pad] = recipe.pad;
                VarId loc = space.csp.find_var("loc." + plan.name);
                if (loc >= 0)
                    prefs[loc] = 0; // outermost reduce attach
                continue;
            }
            VarId unroll =
                space.csp.find_var("unroll." + plan.name);
            if (unroll >= 0)
                prefs[unroll] = recipe.unroll;
            for (const auto &axis : plan.axes) {
                for (int l = 1; l < axis.num_levels(); ++l) {
                    VarId tile = space.csp.find_var(
                        "tile." + axis.level_name(plan.name, l));
                    if (tile < 0)
                        continue;
                    prefs[tile] = preference_for(
                        recipe, axis.roles[static_cast<size_t>(l)],
                        axis.reduce);
                }
            }
        }
        return prefs;
    }

    static int64_t
    preference_for(const Recipe &recipe, LoopRole role, bool reduce)
    {
        switch (role) {
          case LoopRole::kVThread: return recipe.vthread;
          case LoopRole::kThread: return recipe.thread;
          case LoopRole::kBuffer: return recipe.buffer;
          case LoopRole::kIntrinsic:
            return reduce ? 16 : recipe.intrinsic_spatial;
          case LoopRole::kSerial:
          default:
            return reduce ? recipe.reduce_serial
                          : recipe.spatial_serial;
        }
    }
};

} // namespace

bool
Tuner::supports(const ops::Workload &) const
{
    return true;
}

std::unique_ptr<Tuner>
make_heron_tuner(hw::DlaSpec spec, TuneConfig config)
{
    return std::make_unique<HeronTuner>(std::move(spec), config,
                                        HeronAblation{});
}

std::unique_ptr<Tuner>
make_heron_tuner_ablated(hw::DlaSpec spec, TuneConfig config,
                         HeronAblation ablation)
{
    return std::make_unique<HeronTuner>(std::move(spec), config,
                                        std::move(ablation));
}

std::unique_ptr<Tuner>
make_autotvm_tuner(hw::DlaSpec spec, TuneConfig config)
{
    return std::make_unique<SearchTuner>(
        std::move(spec), config, "AutoTVM",
        rules::Options::autotvm(),
        &search::template_consistent_sa);
}

std::unique_ptr<Tuner>
make_ansor_tuner(hw::DlaSpec spec, TuneConfig config)
{
    return std::make_unique<SearchTuner>(
        std::move(spec), config, "Ansor", rules::Options::ansor(),
        &search::genetic_algorithm);
}

std::unique_ptr<Tuner>
make_amos_tuner(hw::DlaSpec spec, TuneConfig config)
{
    return std::make_unique<AmosTuner>(std::move(spec), config);
}

std::unique_ptr<Tuner>
make_akg_tuner(hw::DlaSpec spec, TuneConfig config)
{
    // One balanced polyhedral-style tiling; no storage_align and no
    // variant dispatch.
    RecipeTuner::Recipe recipe;
    recipe.vthread = 1;
    recipe.thread = 4;
    recipe.spatial_serial = 4;
    recipe.reduce_serial = 4;
    recipe.intrinsic_spatial = 16;
    recipe.vector_len = 4;
    recipe.pad = 0;
    recipe.unroll = 1;
    return std::make_unique<RecipeTuner>(
        std::move(spec), config, "AKG",
        std::vector<RecipeTuner::Recipe>{recipe}, true);
}

std::unique_ptr<Tuner>
make_vendor_library(hw::DlaSpec spec, TuneConfig config)
{
    // A hand-tuned library ships several expert kernel variants
    // (conflict-free padding, wide vectors, different tile aspect
    // ratios) and dispatches among them — strong, but not
    // shape-specialized search.
    std::vector<RecipeTuner::Recipe> recipes;
    {
        RecipeTuner::Recipe r; // large-tile throughput kernel
        r.vthread = 2;
        r.thread = 2;
        r.spatial_serial = 4;
        r.reduce_serial = 4;
        r.buffer = 64;
        r.intrinsic_spatial = 16;
        r.vector_len = 8;
        r.pad = 8;
        r.unroll = 8;
        recipes.push_back(r);
    }
    {
        RecipeTuner::Recipe r; // wide-parallel kernel
        r.vthread = 1;
        r.thread = 4;
        r.spatial_serial = 2;
        r.reduce_serial = 8;
        r.intrinsic_spatial = 16;
        r.vector_len = 8;
        r.pad = 8;
        r.unroll = 4;
        recipes.push_back(r);
    }
    {
        RecipeTuner::Recipe r; // small-tile latency kernel
        r.vthread = 1;
        r.thread = 2;
        r.spatial_serial = 2;
        r.reduce_serial = 16;
        r.intrinsic_spatial = 16;
        r.vector_len = 4;
        r.pad = 8;
        r.unroll = 2;
        recipes.push_back(r);
    }
    {
        RecipeTuner::Recipe r; // deep-k split kernel
        r.vthread = 2;
        r.thread = 4;
        r.spatial_serial = 1;
        r.reduce_serial = 32;
        r.buffer = 32;
        r.intrinsic_spatial = 32;
        r.vector_len = 8;
        r.pad = 16;
        r.unroll = 8;
        recipes.push_back(r);
    }
    std::string name;
    switch (spec.kind) {
      case hw::DlaKind::kTensorCore: name = "cuDNN/cuBLAS"; break;
      case hw::DlaKind::kDlBoost: name = "oneDNN"; break;
      case hw::DlaKind::kVta: name = "VendorLib"; break;
      case hw::DlaKind::kTpu: name = "VendorLib"; break;
    }
    return std::make_unique<RecipeTuner>(std::move(spec), config,
                                         name, std::move(recipes),
                                         false);
}

} // namespace heron::autotune
