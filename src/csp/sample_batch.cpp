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
SampleBatch::solve_slots(int w, const Wave &wave)
{
    RandSatSolver &solver = *solvers_[static_cast<size_t>(w)];
    // Claim slots one at a time until the wave runs dry.
    for (size_t s = next_slot_.fetch_add(1, std::memory_order_relaxed);
         s < wave.end;
         s = next_slot_.fetch_add(1, std::memory_order_relaxed)) {
        Rng rng = Rng::for_stream(wave.seed, s);
        SlotResult &cell = slots_[s];
        const std::vector<Constraint> &first =
            wave.each ? (*wave.each)[s] : *wave.extra;
        cell.relaxations = 0;
        cell.solved = solver.solve_into(rng, first, cell.assignment);
        cell.failure = solver.last_failure();
        if (!wave.each)
            continue;
        // Relaxation ladder: every rung keeps validity w.r.t. the
        // base problem; with every extra dropped it is the base
        // problem itself.
        std::vector<Constraint> &extra = (*wave.each)[s];
        while (!cell.solved && !extra.empty()) {
            extra.erase(extra.begin() +
                        static_cast<long>(rng.index(extra.size())));
            ++cell.relaxations;
            cell.solved = solver.solve_into(rng, extra, cell.assignment);
        }
    }
}

void
SampleBatch::worker_loop(int w)
{
    uint64_t seen_gen = 0;
    for (;;) {
        Wave wave;
        {
            std::unique_lock<std::mutex> lock(pool_mu_);
            work_cv_.wait(lock, [&] {
                return stop_ || wave_gen_ != seen_gen;
            });
            if (stop_)
                return;
            seen_gen = wave_gen_;
            wave = wave_;
        }
        solve_slots(w, wave);
        {
            std::lock_guard<std::mutex> lock(pool_mu_);
            if (--outstanding_ == 0)
                done_cv_.notify_one();
        }
    }
}

void
SampleBatch::run_wave(const Wave &wave)
{
    ensure_solvers();
    if (slots_.size() < wave.end)
        slots_.resize(wave.end);
    next_slot_.store(wave.begin, std::memory_order_relaxed);
    if (workers_ == 1 || wave.end - wave.begin == 1) {
        // Single-slot waves gain nothing from a pool dispatch.
        solve_slots(0, wave);
        return;
    }

    ensure_threads();
    {
        std::lock_guard<std::mutex> lock(pool_mu_);
        wave_ = wave;
        outstanding_ = workers_ - 1;
        ++wave_gen_;
    }
    work_cv_.notify_all();
    // The caller is worker 0: it claims slots too instead of
    // blocking, so a wave costs workers_-1 wakeups and zero thread
    // creations.
    solve_slots(0, wave);
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
    last_failure_ = SolveFailure::kNone;

    // Same over-draw allowance as RandSatSolver::solve_n: a few
    // extra attempts absorb duplicate draws in tight spaces.
    const size_t cap = static_cast<size_t>(n) +
                       static_cast<size_t>(std::max(4, n / 2));
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
        run_wave({seed, solved, solved + wave, &extra, nullptr});
        solved += wave;
        for (; merged < solved && out.size() < static_cast<size_t>(n);
             ++merged) {
            const SlotResult &cell = slots_[merged];
            if (!cell.solved) {
                // Mirror solve_n: stop at the first failed slot (the
                // subproblem is likely too tight to keep drawing).
                last_failure_ = cell.failure;
                failed = true;
                break;
            }
            // Copy, not move: the cell keeps its capacity for the
            // next wave.
            if (seen.insert(assignment_hash(cell.assignment)).second)
                out.push_back(cell.assignment);
        }
    }
    HERON_COUNTER_ADD("csp.batch_slots",
                      static_cast<int64_t>(solved));
    return out;
}

std::span<const SlotResult>
SampleBatch::solve_each(uint64_t seed,
                        std::vector<std::vector<Constraint>> &subproblems)
{
    if (subproblems.empty())
        return {};
    run_wave({seed, 0, subproblems.size(), nullptr, &subproblems});
    HERON_COUNTER_ADD("csp.batch_slots",
                      static_cast<int64_t>(subproblems.size()));
    return {slots_.data(), subproblems.size()};
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
