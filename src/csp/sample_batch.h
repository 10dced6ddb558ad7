/**
 * @file
 * Deterministic parallel population sampling.
 *
 * CGA and the tuner draw whole populations of random valid
 * assignments at once. SampleBatch fans those draws out over a
 * persistent worker pool while keeping the result *bit-identical
 * for any worker count*, so turning parallelism on can never change
 * a tuning trajectory.
 *
 * Determinism contract: the returned assignments (values and order)
 * depend only on (seed, n, extra) — never on the worker count or on
 * thread scheduling. This holds because:
 *  - work is split into numbered slots; slot s always uses the RNG
 *    stream Rng::for_stream(seed, s), which is independent of which
 *    worker runs it and of every other slot;
 *  - slots are assigned statically (slot s -> worker s % workers),
 *    and each worker writes only its own slots' result cells;
 *  - the merge walks slots in increasing order, deduplicates by
 *    assignment hash, and stops at the first failed slot — exactly
 *    the sequential solve_n semantics;
 *  - slot waves are sized by merge results only (deficit-driven),
 *    so the *set* of slots solved is also worker-count invariant,
 *    which makes the aggregate solver statistics invariant too.
 *
 * Pool lifecycle: worker threads are spawned once, on the first
 * multi-worker wave, and parked on a condition variable between
 * waves; the calling thread always participates as worker 0. Each
 * worker keeps its RandSatSolver — and with it the memoized root
 * fixpoint, trail pool, and domain storage — warm on the same
 * thread across waves, sample() calls, and CGA generations, so the
 * steady-state per-wave cost is one wakeup instead of thread
 * creation plus a cold solver.
 */
#ifndef HERON_CSP_SAMPLE_BATCH_H
#define HERON_CSP_SAMPLE_BATCH_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "csp/solver.h"

namespace heron::csp {

/**
 * Parallel front-end over per-worker RandSatSolver instances.
 *
 * The object itself is not thread-safe (one sample() at a time);
 * it *owns* a persistent internal thread pool used by every batch.
 */
class SampleBatch
{
  public:
    /**
     * @param workers worker-pool size (clamped to >= 1). Solvers
     *        are created lazily on the first sample() call; pool
     *        threads on the first multi-worker wave.
     */
    explicit SampleBatch(const Csp &csp, SolverConfig config = {},
                         int workers = 1);

    /** Stops and joins the worker pool. */
    ~SampleBatch();

    SampleBatch(const SampleBatch &) = delete;
    SampleBatch &operator=(const SampleBatch &) = delete;

    /**
     * Draw up to @p n distinct random valid assignments of the base
     * problem plus @p extra. Fewer may be returned when the
     * subproblem is tight or a slot fails (UNSAT/budget/deadline) —
     * mirroring RandSatSolver::solve_n, the merge stops at the first
     * failed slot.
     *
     * The result is a pure function of (seed, n, extra): bit-equal
     * across worker counts and repeat calls.
     */
    std::vector<Assignment>
    sample(uint64_t seed, int n,
           const std::vector<Constraint> &extra = {});

    /**
     * Aggregate statistics over all workers, worker-count invariant
     * (see the determinism contract above). solve_calls counts
     * slots, not sample() invocations.
     */
    SolverStats stats() const;

    /**
     * Failure reason of the first failed slot of the most recent
     * sample() call (kNone when every merged slot succeeded). Used
     * by callers to distinguish a barren subspace from an exhausted
     * budget.
     */
    SolveFailure last_failure() const { return last_failure_; }

    /** Worker-pool size. */
    int workers() const { return workers_; }

    /** True once pool threads have been spawned. */
    bool pool_started() const { return !threads_.empty(); }

    /** The problem the batch samples from. */
    const Csp &csp() const { return csp_; }

  private:
    const Csp &csp_;
    SolverConfig config_;
    int workers_;
    /** Lazily created; index w serves slots with s % workers_ == w. */
    std::vector<std::unique_ptr<RandSatSolver>> solvers_;
    SolveFailure last_failure_ = SolveFailure::kNone;

    // ---- Persistent pool (workers 1..workers_-1; the caller runs
    // worker 0 inline). The wave_* task fields are written by the
    // caller and read by workers under pool_mu_.
    std::vector<std::thread> threads_;
    std::mutex pool_mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    uint64_t wave_gen_ = 0;
    int outstanding_ = 0;
    bool stop_ = false;
    uint64_t wave_seed_ = 0;
    size_t wave_begin_ = 0;
    size_t wave_end_ = 0;
    const std::vector<Constraint> *wave_extra_ = nullptr;
    std::vector<std::optional<Assignment>> *wave_results_ = nullptr;
    std::vector<SolveFailure> *wave_failures_ = nullptr;

    // ---- Per-call slot cells, reused so their capacity survives
    // across sample() calls.
    std::vector<std::optional<Assignment>> results_;
    std::vector<SolveFailure> failures_;

    void ensure_solvers();
    void ensure_threads();
    /** Worker w's residue-class loop over [begin, end). */
    void solve_slots(int w, uint64_t seed, size_t begin, size_t end,
                     const std::vector<Constraint> &extra,
                     std::vector<std::optional<Assignment>> *results,
                     std::vector<SolveFailure> *failures);
    void worker_loop(int w);

    /**
     * Solve slots [begin, end) into @p results / @p failures (cells
     * indexed by slot). Dispatches the static slot->worker
     * partition onto the persistent pool when workers_ > 1.
     */
    void run_wave(uint64_t seed, size_t begin, size_t end,
                  const std::vector<Constraint> &extra,
                  std::vector<std::optional<Assignment>> *results,
                  std::vector<SolveFailure> *failures);
};

} // namespace heron::csp

#endif // HERON_CSP_SAMPLE_BATCH_H
