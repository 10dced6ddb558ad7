/**
 * @file
 * Constraint propagation engine.
 *
 * Runs per-constraint-type filtering to a fixpoint over a working
 * copy of all variable domains. Used by the RandSAT solver after
 * every branching decision and by CGA to pre-prune offspring CSPs.
 *
 * Backtracking is trail-based: every domain mutation made inside a
 * push_level() scope records the overwritten domain on an undo
 * trail, and pop_level() replays the trail backwards. This replaces
 * the historical full-domain-vector snapshot per decision, which
 * dominated solve time on Heron-scale problems (hundreds of
 * variables). Propagation is watcher-driven throughout: a domain
 * change only wakes the constraints watching that variable.
 *
 * Extra constraints (CGA crossover IN sets) are pushed and popped
 * dynamically with push_extras()/pop_extras(), so one engine — and
 * its already-computed base-problem fixpoint — is reused across
 * thousands of offspring subproblem solves.
 */
#ifndef HERON_CSP_PROPAGATE_H
#define HERON_CSP_PROPAGATE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "csp/csp.h"

namespace heron::metrics {
class Counter;
} // namespace heron::metrics

namespace heron::csp {

/**
 * Mutable propagation state: the current domains of every variable
 * plus the machinery to reach a propagation fixpoint.
 *
 * The engine owns a combined view of the base problem's constraints
 * and an optional set of extra constraints (CGA crossover adds IN
 * constraints without copying the whole problem).
 */
class PropagationEngine
{
  public:
    /** Propagation work counters (monotonic over engine lifetime). */
    struct Stats {
        /** propagate() fixpoint computations. */
        int64_t propagations = 0;
        /** Individual constraint revise() executions. */
        int64_t revisions = 0;
    };

    /**
     * Legacy one-shot construction: engine over @p csp plus @p extra
     * constraints, with every constraint queued for the first
     * propagate() call. Both must outlive the engine.
     */
    PropagationEngine(const Csp &csp,
                      const std::vector<Constraint> &extra);

    /**
     * Engine over just the base problem, every base constraint
     * queued. Use push_extras() to add subproblem constraints later.
     */
    explicit PropagationEngine(const Csp &csp);

    /** Current domain of a variable. */
    const Domain &domain(VarId id) const
    {
        return domains_[static_cast<size_t>(id)];
    }

    /** All current domains (for snapshot/restore by legacy users). */
    const std::vector<Domain> &domains() const { return domains_; }

    /**
     * Restore a previously captured domain snapshot. Legacy
     * API for snapshot-style backtracking; must not be called with
     * open trail levels (trail and snapshot styles don't mix).
     */
    void restore(std::vector<Domain> snapshot);

    /**
     * Mark a variable changed so its constraints are reconsidered by
     * the next propagate() call.
     */
    void touch(VarId id);

    // ---- Trail-based backtracking -------------------------------

    /** Open an undo scope; mutations after this call are recorded. */
    void push_level();

    /** Undo every mutation since the matching push_level(). */
    void pop_level();

    /** Number of open trail levels (extras scope included). */
    size_t depth() const { return level_marks_.size(); }

    /** pop_level() until depth() == @p depth. */
    void pop_to_depth(size_t depth);

    /**
     * Register @p extra constraints on top of the base problem,
     * open an undo scope for their domain effects, queue them, and
     * propagate. Only valid at depth() == 0 with no extras active;
     * @p extra must stay alive until pop_extras().
     * @return false if propagation wiped out a domain (the
     *         subproblem is unsatisfiable); the engine stays in the
     *         conflicting state until pop_extras().
     */
    bool push_extras(const std::vector<Constraint> &extra);

    /**
     * Undo the extras' domain effects and unregister them. All
     * decision levels pushed above the extras must be popped first.
     */
    void pop_extras();

    /** True while an extras set is registered. */
    bool has_extras() const { return has_extras_; }

    // ---- Propagation --------------------------------------------

    /**
     * Run propagation to a fixpoint.
     * @return false if some domain became empty (conflict).
     */
    bool propagate();

    /**
     * Assign a value and propagate.
     * @return false on conflict.
     */
    bool assign_and_propagate(VarId id, int64_t value);

    /** True when all variables are singletons. */
    bool all_assigned() const;

    /** Extract the assignment; requires all_assigned(). */
    Assignment extract() const;

    /**
     * extract() into @p out, resized in place so a reused buffer
     * keeps its capacity.
     */
    void extract_into(Assignment &out) const;

    /** Number of constraints (base + extra). */
    size_t num_constraints() const { return all_constraints_.size(); }

    /** Propagation work counters. */
    const Stats &stats() const { return stats_; }

  private:
    /** One overwritten domain awaiting undo. */
    struct TrailEntry {
        VarId var;
        Domain saved;
    };

    const Csp &csp_;
    std::vector<const Constraint *> all_constraints_;
    std::vector<Domain> domains_;
    // Flat bound caches mirroring domains_ (empty <=> min > max).
    // The arithmetic propagators only need bounds, and reading two
    // flat arrays beats chasing into Domain's heap-backed value
    // sets; every domain mutation refreshes the cache.
    std::vector<int64_t> var_min_;
    std::vector<int64_t> var_max_;
    // Subtree entailment: when every variable a constraint can
    // filter is fixed (and the constraint holds), further revisions
    // are no-ops for as long as the trail level that was current at
    // discovery stays open. entail_depth_ records that depth and
    // entail_token_ the level's identity token (the epoch value at
    // its push), so stale marks from a popped level invalidate
    // themselves — no cleanup on pop. kPermanentEntailed is the IN
    // constraints' stronger mark: once intersect_values has been
    // applied the result domain only ever shrinks (backtracking
    // never climbs above a post-application state), so the filtering
    // stays a no-op for the constraint's registered lifetime.
    static constexpr uint32_t kNotEntailed = 0xffffffffu;
    static constexpr uint32_t kPermanentEntailed = 0xfffffffeu;
    std::vector<uint32_t> entail_depth_;
    std::vector<uint64_t> entail_token_;
    // Identity token of each open level (epoch at its push).
    std::vector<uint64_t> level_tokens_;
    // var -> constraint indices mentioning it, CSR layout for the
    // base problem (one contiguous array beats a vector-of-vectors
    // on the wake path); extras watch via a per-var overlay that is
    // only consulted while extras are registered.
    std::vector<int32_t> watch_flat_;
    std::vector<uint32_t> watch_off_; // size num_vars + 1
    std::vector<std::vector<int>> extra_watchers_;
    // Constraints whose filtering is triggered only by bound moves
    // (PROD/SUM/LE run off the flat bound caches; PROD's divisor
    // rule reads which operands are fixed and the result's value,
    // also bounds): a mutation that removes interior values without
    // moving min/max cannot change their filtering, so such wakes
    // skip them.
    std::vector<bool> bounds_only_;
    // PROD/SUM constraints whose arithmetic provably cannot overflow
    // (folded over the variables' *initial* bounds, which every
    // reachable state shrinks): their revise loops use raw i64
    // multiplies/adds instead of checked_mul. Also implies PROD
    // operands are proven non-negative at registration.
    std::vector<bool> arith_safe_;
    // Per-constraint csp.wipeouts.<note> counter (the rule family a
    // wipeout is charged to), resolved at registration so the
    // failure path does no string work.
    std::vector<metrics::Counter *> wipeout_counters_;
    // note -> counter, one entry per distinct note seen.
    std::vector<std::pair<std::string, metrics::Counter *>>
        family_counters_;
    std::vector<bool> queued_;
    // LIFO revision queue (depth-first wake order reaches the
    // fixpoint with the fewest revisions on the rule-emitted
    // constraint graphs; the fixpoint itself is order-independent).
    // queue_head_ exists so drain_queue() can also handle a
    // partially consumed queue.
    std::vector<int> queue_;
    size_t queue_head_ = 0;
    // Constraint currently being revised, when its filter is known
    // to exit at a local fixpoint (PROD/SUM iterate in place, the
    // binary kinds get there in one pass): mutations it makes to its
    // own watched variables don't re-enqueue it. -1 otherwise.
    int revising_ci_ = -1;
    Stats stats_;

    // Undo trail. level_marks_ holds the trail size at each
    // push_level(); saved_epoch_[v] == epoch_ means v's pre-mutation
    // domain is already on the trail for the current scope segment
    // (epoch_ is bumped on every push AND pop, so marks from closed
    // scopes can never be mistaken for current ones).
    //
    // Entries are pooled: trail_ only ever grows and trail_size_ is
    // the live prefix. Saving copy-assigns into a recycled entry and
    // popping copy-assigns back, so after warmup the save/undo cycle
    // performs no heap allocation (Domain's value-set buffers keep
    // their capacity on both sides).
    std::vector<TrailEntry> trail_;
    size_t trail_size_ = 0;
    std::vector<size_t> level_marks_;
    std::vector<uint64_t> saved_epoch_;
    uint64_t epoch_ = 1;

    // Extras bookkeeping for pop_extras().
    bool has_extras_ = false;
    size_t base_constraint_count_ = 0;
    std::vector<VarId> extra_watch_vars_;

    // Scratch buffers for revise_prod's bound caches and
    // prefix/suffix products, engine-owned so the hot path never
    // allocates.
    std::vector<int64_t> scratch_min_;
    std::vector<int64_t> scratch_max_;
    std::vector<int64_t> scratch_suf_min_;
    std::vector<int64_t> scratch_suf_max_;
    // Snapshot of a SELECT constraint's selector domain for
    // revise_select, engine-owned for the same reason.
    std::vector<int64_t> scratch_sel_;

    void build(const std::vector<Constraint> &extra);
    void reserve_scratch(size_t arity);
    /** The csp.wipeouts.<note> counter ("unnoted" when empty). */
    metrics::Counter &family_counter(const std::string &note);
    /**
     * Overflow-safety check for PROD (see arith_safe_), folded over
     * the *current* flat bounds — valid for every state reachable
     * from the current one, since domains only shrink below it.
     */
    bool compute_arith_safe(const Constraint &c) const;
    /**
     * Recompute arith_safe_ from the current bounds. Called at
     * build, after a root-level propagation fixpoint (bounds just
     * shrank: more constraints qualify), and on restore() (bounds
     * may have widened: marks must be re-derived).
     */
    void refresh_arith_safety();
    /**
     * Wake @p id's watchers. @p bounds_changed false means the
     * mutation only removed interior values (min/max intact), which
     * lets bounds-only constraints sleep through it.
     */
    void enqueue_watchers(VarId id, bool bounds_changed = true);
    void drain_queue();

    /**
     * Record @p id's current domain on the trail if inside an undo
     * scope and not already recorded for the current segment.
     * @return true when a new trail entry was pushed.
     */
    bool save(VarId id);

    // Mutation helpers: every domain change flows through one of
    // these so the trail sees it. Each enqueues watchers on change.
    bool clamp(VarId id, int64_t lo, int64_t hi);
    bool try_assign(VarId id, int64_t value);
    void remove_value(VarId id, int64_t value);
    bool intersect_with(VarId id, const Domain &other);
    bool intersect_values_with(VarId id,
                               const std::vector<int64_t> &values);
    /**
     * Keep only the divisors of @p n (n > 0) in @p id's explicit
     * domain, in place (the trail entry saved first keeps its
     * buffer). Call only when some value does not divide @p n.
     * @return false on wipeout.
     */
    bool keep_divisors(VarId id, int64_t n);

    /** Re-read a variable's bounds into the flat caches. */
    void refresh_bounds(VarId id)
    {
        const Domain &d = domains_[static_cast<size_t>(id)];
        if (d.empty()) {
            var_min_[static_cast<size_t>(id)] = 1;
            var_max_[static_cast<size_t>(id)] = 0;
        } else {
            var_min_[static_cast<size_t>(id)] = d.min();
            var_max_[static_cast<size_t>(id)] = d.max();
        }
    }

    /** Mark @p ci entailed for the current subtree (see above). */
    void mark_entailed(int ci)
    {
        entail_depth_[static_cast<size_t>(ci)] =
            static_cast<uint32_t>(level_marks_.size());
        entail_token_[static_cast<size_t>(ci)] =
            level_marks_.empty() ? 0 : level_tokens_.back();
    }

    /** True when @p ci's filtering is currently a proven no-op. */
    bool constraint_entailed(int ci) const
    {
        uint32_t d = entail_depth_[static_cast<size_t>(ci)];
        if (d == kNotEntailed)
            return false; // common case: one load, one compare
        if (d == 0 || d == kPermanentEntailed)
            return true; // root entailment: valid until restore()
        return d <= level_marks_.size() &&
               level_tokens_[d - 1] ==
                   entail_token_[static_cast<size_t>(ci)];
    }

    /**
     * Apply one constraint's filtering. Returns false on wipeout;
     * touched variables are re-queued internally.
     */
    bool revise(const Constraint &c, int ci);

    bool revise_prod(const Constraint &c, int ci);
    /**
     * Shared PROD filter body. @tparam Safe selects raw i64
     * arithmetic (proven overflow-free and non-negative via
     * arith_safe_) over saturating checked_mul.
     */
    template <bool Safe>
    bool revise_prod_impl(const Constraint &c, int ci);
    bool revise_sum(const Constraint &c, int ci);
    bool revise_eq(const Constraint &c, int ci);
    bool revise_le(const Constraint &c, int ci);
    bool revise_in(const Constraint &c, int ci);
    bool revise_select(const Constraint &c, int ci);
};

} // namespace heron::csp

#endif // HERON_CSP_PROPAGATE_H
