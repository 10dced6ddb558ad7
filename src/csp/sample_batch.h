/**
 * @file
 * Deterministic parallel CSP solving.
 *
 * The tuner and CGA solve CSPs in batches: whole populations of
 * random valid assignments, and one crossover subproblem per CGA
 * offspring. SampleBatch fans those solves out over a persistent
 * worker pool while keeping the result *bit-identical for any
 * worker count*, so turning parallelism on can never change a
 * tuning trajectory.
 *
 * Work runs in waves of numbered slots, of two kinds:
 *  - sample(): n draws of one subproblem (base problem plus one
 *    shared extra set), merged like RandSatSolver::solve_n;
 *  - solve_each(): one draw per subproblem, slot s solving the base
 *    problem plus subproblems[s]. A slot whose solve fails walks its
 *    own relaxation ladder: it drops one random extra constraint and
 *    retries, until a solve succeeds or no extras are left.
 *
 * Determinism contract: results (values, order, ladder depths,
 * failure reasons) depend only on the call's arguments — never on
 * the worker count or on thread scheduling. This holds because:
 *  - slot s always uses the RNG stream Rng::for_stream(seed, s),
 *    for its solves and for its ladder's choices alike; the stream
 *    is independent of which worker runs the slot and of every
 *    other slot;
 *  - a slot's solves do not depend on which solver runs them or on
 *    what that solver ran before: every solve starts from the
 *    solver's memoized root fixpoint and pops back to it (trail
 *    levels undone, revision queue drained, extras unregistered).
 *    So workers claim slots dynamically — whichever is free takes
 *    the next one, which balances waves whose slots differ widely
 *    in cost — and each slot writes only its own result cell;
 *  - sample()'s merge walks slots in increasing order, deduplicates
 *    by assignment hash, and stops at the first failed slot —
 *    exactly the sequential solve_n semantics — and its waves are
 *    sized by merge results only (deficit-driven);
 *  - so the *set* of solves is worker-count invariant, which makes
 *    the aggregate solver statistics invariant too.
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

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "csp/solver.h"

namespace heron::csp {

/** One slot's outcome in a SampleBatch wave. */
struct SlotResult {
    /** The draw; meaningful only when solved. */
    Assignment assignment;
    bool solved = false;
    /** Why the slot's first solve failed (kNone if it succeeded). */
    SolveFailure failure = SolveFailure::kNone;
    /** solve_each(): extras the slot's ladder dropped. */
    int relaxations = 0;
};

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
     * One draw per subproblem: slot s solves the base problem plus
     * @p subproblems[s] with Rng::for_stream(seed, s), relaxing on
     * failure (see the file comment). The ladder erases the
     * constraints it drops, so on return subproblems[s] holds the
     * extras slot s last solved with.
     *
     * @return one cell per subproblem, valid until the next call; a
     *         pure function of (seed, subproblems).
     */
    std::span<const SlotResult>
    solve_each(uint64_t seed,
               std::vector<std::vector<Constraint>> &subproblems);

    /**
     * Aggregate statistics over all workers, worker-count invariant
     * (see the determinism contract above). solve_calls counts
     * slots, not sample() invocations.
     */
    SolverStats stats() const;

    /**
     * Failure reason of the first failed slot of the most recent
     * sample() call (kNone when every merged slot succeeded;
     * solve_each() leaves it alone). Used by callers to distinguish
     * a barren subspace from an exhausted budget.
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
    /** Lazily created; one per worker. */
    std::vector<std::unique_ptr<RandSatSolver>> solvers_;
    SolveFailure last_failure_ = SolveFailure::kNone;

    /** Slots [begin, end) of one wave, and what they solve. */
    struct Wave {
        uint64_t seed = 0;
        size_t begin = 0;
        size_t end = 0;
        /** sample(): every slot's extras. */
        const std::vector<Constraint> *extra = nullptr;
        /** solve_each(): slot s's extras, relaxed in place. */
        std::vector<std::vector<Constraint>> *each = nullptr;
    };

    // ---- Persistent pool (workers 1..workers_-1; the caller runs
    // worker 0 inline). wave_ is written by the caller and read by
    // workers under pool_mu_.
    std::vector<std::thread> threads_;
    std::mutex pool_mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    uint64_t wave_gen_ = 0;
    int outstanding_ = 0;
    bool stop_ = false;
    Wave wave_;
    /** Next unclaimed slot of the current wave. */
    std::atomic<size_t> next_slot_{0};

    // Slot cells, indexed by slot. They only ever grow, so each
    // cell's assignment keeps its capacity across waves and calls.
    std::vector<SlotResult> slots_;

    void ensure_solvers();
    void ensure_threads();
    /** Worker w's loop: claim and solve slots until none are left. */
    void solve_slots(int w, const Wave &wave);
    void worker_loop(int w);

    /**
     * Solve the wave's slots into slots_, on the persistent pool
     * when workers_ > 1 and the wave has more than one slot.
     */
    void run_wave(const Wave &wave);
};

} // namespace heron::csp

#endif // HERON_CSP_SAMPLE_BATCH_H
