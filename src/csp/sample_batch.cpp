#include "csp/sample_batch.h"

#include <algorithm>
#include <unordered_set>

#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::csp {

SampleBatch::SampleBatch(const Csp &csp, SolverConfig config,
                         int workers)
    : csp_(csp), config_(config), workers_(std::max(1, workers))
{
}

SampleBatch::~SampleBatch()
{
    if (threads_.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(pool_mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
SampleBatch::ensure_solvers()
{
    if (!solvers_.empty())
        return;
    solvers_.reserve(static_cast<size_t>(workers_));
    for (int w = 0; w < workers_; ++w)
        solvers_.push_back(
            std::make_unique<RandSatSolver>(csp_, config_));
}

void
SampleBatch::ensure_threads()
{
    if (!threads_.empty() || workers_ == 1)
        return;
    threads_.reserve(static_cast<size_t>(workers_ - 1));
    for (int w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { worker_loop(w); });
}

void
SampleBatch::solve_slots(
    int w, uint64_t seed, size_t begin, size_t end,
    const std::vector<Constraint> &extra,
    std::vector<std::optional<Assignment>> *results,
    std::vector<SolveFailure> *failures)
{
    RandSatSolver &solver = *solvers_[static_cast<size_t>(w)];
    // First slot of this worker's residue class inside the wave.
    size_t s = begin +
               (static_cast<size_t>(w) + static_cast<size_t>(workers_) -
                begin % static_cast<size_t>(workers_)) %
                   static_cast<size_t>(workers_);
    for (; s < end; s += static_cast<size_t>(workers_)) {
        Rng rng = Rng::for_stream(seed, s);
        (*results)[s] = solver.solve_one(rng, extra);
        (*failures)[s] = solver.last_failure();
    }
}

void
SampleBatch::worker_loop(int w)
{
    uint64_t seen_gen = 0;
    for (;;) {
        uint64_t seed;
        size_t begin, end;
        const std::vector<Constraint> *extra;
        std::vector<std::optional<Assignment>> *results;
        std::vector<SolveFailure> *failures;
        {
            std::unique_lock<std::mutex> lock(pool_mu_);
            work_cv_.wait(lock, [&] {
                return stop_ || wave_gen_ != seen_gen;
            });
            if (stop_)
                return;
            seen_gen = wave_gen_;
            seed = wave_seed_;
            begin = wave_begin_;
            end = wave_end_;
            extra = wave_extra_;
            results = wave_results_;
            failures = wave_failures_;
        }
        solve_slots(w, seed, begin, end, *extra, results, failures);
        {
            std::lock_guard<std::mutex> lock(pool_mu_);
            if (--outstanding_ == 0)
                done_cv_.notify_one();
        }
    }
}

void
SampleBatch::run_wave(uint64_t seed, size_t begin, size_t end,
                      const std::vector<Constraint> &extra,
                      std::vector<std::optional<Assignment>> *results,
                      std::vector<SolveFailure> *failures)
{
    if (workers_ == 1) {
        solve_slots(0, seed, begin, end, extra, results, failures);
        return;
    }
    if (end - begin == 1) {
        // Single-slot waves gain nothing from a pool dispatch; run
        // inline. Slot->solver mapping must still match the
        // parallel path so stats stay invariant.
        int w = static_cast<int>(begin %
                                 static_cast<size_t>(workers_));
        solve_slots(w, seed, begin, end, extra, results, failures);
        return;
    }

    ensure_threads();
    {
        std::lock_guard<std::mutex> lock(pool_mu_);
        wave_seed_ = seed;
        wave_begin_ = begin;
        wave_end_ = end;
        wave_extra_ = &extra;
        wave_results_ = results;
        wave_failures_ = failures;
        outstanding_ = workers_ - 1;
        ++wave_gen_;
    }
    work_cv_.notify_all();
    // The caller is worker 0: it solves its own residue class
    // instead of blocking, so a wave costs workers_-1 wakeups and
    // zero thread creations.
    solve_slots(0, seed, begin, end, extra, results, failures);
    std::unique_lock<std::mutex> lock(pool_mu_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

std::vector<Assignment>
SampleBatch::sample(uint64_t seed, int n,
                    const std::vector<Constraint> &extra)
{
    HERON_TRACE_SCOPE("csp/sample_batch");
    std::vector<Assignment> out;
    if (n <= 0)
        return out;
    ensure_solvers();
    last_failure_ = SolveFailure::kNone;

    // Same over-draw allowance as RandSatSolver::solve_n: a few
    // extra attempts absorb duplicate draws in tight spaces.
    const size_t cap = static_cast<size_t>(n) +
                       static_cast<size_t>(std::max(4, n / 2));
    results_.assign(cap, std::nullopt);
    failures_.assign(cap, SolveFailure::kNone);
    std::unordered_set<uint64_t> seen;

    out.reserve(static_cast<size_t>(n));
    size_t solved = 0;  // slots solved so far (wave frontier)
    size_t merged = 0;  // slots consumed by the merge
    bool failed = false;
    while (!failed && out.size() < static_cast<size_t>(n) &&
           solved < cap) {
        // Deficit-driven wave sizing: depends only on merge results,
        // never on the worker count.
        size_t wave = std::min(
            cap - solved, static_cast<size_t>(n) - out.size());
        run_wave(seed, solved, solved + wave, extra, &results_,
                 &failures_);
        solved += wave;
        for (; merged < solved && out.size() < static_cast<size_t>(n);
             ++merged) {
            if (!results_[merged]) {
                // Mirror solve_n: stop at the first failed slot (the
                // subproblem is likely too tight to keep drawing).
                last_failure_ = failures_[merged];
                failed = true;
                break;
            }
            uint64_t h = assignment_hash(*results_[merged]);
            if (seen.insert(h).second)
                out.push_back(std::move(*results_[merged]));
        }
    }
    HERON_COUNTER_ADD("csp.batch_slots",
                      static_cast<int64_t>(solved));
    return out;
}

SolverStats
SampleBatch::stats() const
{
    SolverStats total;
    for (const auto &s : solvers_)
        total += s->stats();
    return total;
}

} // namespace heron::csp
