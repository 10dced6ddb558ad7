#include "csp/propagate.h"

#include <algorithm>
#include <limits>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/metrics.h"

namespace heron::csp {

namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max();

/** saved_epoch_ value that matches no live scope. */
constexpr uint64_t kNoEpoch = 0;

#if !defined(HERON_DISABLE_TRACING)
/**
 * Count a domain wipeout against the failing constraint's kind and
 * against its rule family (@p family, resolved at registration).
 */
void
count_constraint_failure(ConstraintKind kind, metrics::Counter *family)
{
    // One counter per kind, resolved once; the failure path only
    // pays atomic increments.
    static metrics::Counter *by_kind[] = {
        &metrics::Registry::global().counter("csp.fail.prod"),
        &metrics::Registry::global().counter("csp.fail.sum"),
        &metrics::Registry::global().counter("csp.fail.eq"),
        &metrics::Registry::global().counter("csp.fail.le"),
        &metrics::Registry::global().counter("csp.fail.in"),
        &metrics::Registry::global().counter("csp.fail.select"),
    };
    by_kind[static_cast<size_t>(kind)]->add(1);
    family->add(1);
}
#else
void
count_constraint_failure(ConstraintKind, metrics::Counter *)
{
}
#endif

} // namespace

PropagationEngine::PropagationEngine(const Csp &csp,
                                     const std::vector<Constraint> &extra)
    : csp_(csp)
{
    build(extra);
}

PropagationEngine::PropagationEngine(const Csp &csp) : csp_(csp)
{
    build({});
}

namespace {

/** Visit every variable @p c watches, in registration order. */
template <typename Fn>
void
for_each_watch(const Constraint &c, Fn &&fn)
{
    if (c.result >= 0)
        fn(c.result);
    for (VarId op : c.operands)
        if (op >= 0)
            fn(op);
    if (c.selector >= 0)
        fn(c.selector);
}

} // namespace

bool
PropagationEngine::compute_arith_safe(const Constraint &c) const
{
    // Only PROD carries checked arithmetic on its hot path (SUM
    // already folds raw). Safe means: over the current bounds —
    // which bound every reachable descendant state from above — all
    // operands are non-negative and the full product of upper bounds
    // leaves slack for the filter's intermediate sums (ceil_div adds
    // the divisor before dividing).
    if (c.kind != ConstraintKind::kProd)
        return false;
    int64_t prod_max = 1;
    for (VarId op : c.operands) {
        const size_t o = static_cast<size_t>(op);
        if (var_min_[o] > var_max_[o] || var_min_[o] < 0)
            return false;
        prod_max = checked_mul(prod_max, var_max_[o]);
        if (prod_max > (kInf >> 2))
            return false;
    }
    return true;
}

void
PropagationEngine::refresh_arith_safety()
{
    arith_safe_.resize(all_constraints_.size());
    for (size_t ci = 0; ci < all_constraints_.size(); ++ci)
        arith_safe_[ci] = compute_arith_safe(*all_constraints_[ci]);
}

void
PropagationEngine::build(const std::vector<Constraint> &extra)
{
    domains_.reserve(csp_.num_vars());
    for (const auto &v : csp_.vars())
        domains_.push_back(v.initial);
    saved_epoch_.assign(csp_.num_vars(), kNoEpoch);
    var_min_.resize(csp_.num_vars());
    var_max_.resize(csp_.num_vars());
    for (size_t i = 0; i < domains_.size(); ++i)
        refresh_bounds(static_cast<VarId>(i));

    all_constraints_.reserve(csp_.constraints().size() + extra.size());
    for (const auto &c : csp_.constraints())
        all_constraints_.push_back(&c);
    for (const auto &c : extra)
        all_constraints_.push_back(&c);
    base_constraint_count_ = all_constraints_.size();

    // CSR watcher lists for the base problem: count, prefix-sum,
    // fill. Filling in ascending ci keeps each variable's watcher
    // order identical to the historical per-var push_back order.
    watch_off_.assign(csp_.num_vars() + 1, 0);
    for (const Constraint *c : all_constraints_)
        for_each_watch(*c, [&](VarId v) {
            ++watch_off_[static_cast<size_t>(v) + 1];
        });
    for (size_t i = 1; i < watch_off_.size(); ++i)
        watch_off_[i] += watch_off_[i - 1];
    watch_flat_.resize(watch_off_.back());
    std::vector<uint32_t> cursor(watch_off_.begin(),
                                 watch_off_.end() - 1);
    for (size_t ci = 0; ci < all_constraints_.size(); ++ci)
        for_each_watch(*all_constraints_[ci], [&](VarId v) {
            watch_flat_[cursor[static_cast<size_t>(v)]++] =
                static_cast<int32_t>(ci);
        });
    extra_watchers_.assign(csp_.num_vars(), {});

    bounds_only_.clear();
    bounds_only_.reserve(all_constraints_.size());
    for (const Constraint *c : all_constraints_)
        bounds_only_.push_back(c->kind == ConstraintKind::kProd ||
                               c->kind == ConstraintKind::kSum ||
                               c->kind == ConstraintKind::kLe);

    wipeout_counters_.clear();
    wipeout_counters_.reserve(all_constraints_.size());
    for (const Constraint *c : all_constraints_)
        wipeout_counters_.push_back(&family_counter(c->note));

    refresh_arith_safety();

    queued_.assign(all_constraints_.size(), true);
    entail_depth_.assign(all_constraints_.size(), kNotEntailed);
    entail_token_.assign(all_constraints_.size(), 0);
    queue_.clear();
    queue_.reserve(all_constraints_.size());
    for (size_t ci = 0; ci < all_constraints_.size(); ++ci)
        queue_.push_back(static_cast<int>(ci));

    // Pre-size the revise scratch buffers to the widest constraint
    // so the hot path never reallocates.
    size_t max_arity = 1;
    for (const Constraint *c : all_constraints_)
        max_arity = std::max(max_arity, c->operands.size());
    reserve_scratch(max_arity);
}

metrics::Counter &
PropagationEngine::family_counter(const std::string &note)
{
    // A problem carries a few dozen distinct notes at most, and
    // extras repeat one ("CGA:crossover"), so a linear scan beats
    // hashing and keeps the registry's lock off the per-solve
    // push_extras() path.
    for (const auto &[seen, counter] : family_counters_)
        if (seen == note)
            return *counter;
    metrics::Counter &counter = metrics::Registry::global().counter(
        "csp.wipeouts." + (note.empty() ? std::string("unnoted") : note));
    family_counters_.emplace_back(note, &counter);
    return counter;
}

void
PropagationEngine::reserve_scratch(size_t arity)
{
    if (scratch_min_.size() < arity + 1) {
        scratch_min_.resize(arity + 1);
        scratch_max_.resize(arity + 1);
        scratch_suf_min_.resize(arity + 1);
        scratch_suf_max_.resize(arity + 1);
    }
}

void
PropagationEngine::restore(std::vector<Domain> snapshot)
{
    HERON_CHECK_EQ(snapshot.size(), domains_.size());
    HERON_CHECK(level_marks_.empty())
        << "restore() with open trail levels";
    domains_ = std::move(snapshot);
    for (size_t i = 0; i < domains_.size(); ++i)
        refresh_bounds(static_cast<VarId>(i));
    entail_depth_.assign(entail_depth_.size(), kNotEntailed);
    refresh_arith_safety(); // bounds may have widened
    drain_queue();
}

void
PropagationEngine::touch(VarId id)
{
    enqueue_watchers(id);
}

void
PropagationEngine::enqueue_watchers(VarId id, bool bounds_changed)
{
    auto wake = [&](int ci) {
        if (queued_[static_cast<size_t>(ci)] || ci == revising_ci_)
            return;
        if (!bounds_changed && bounds_only_[static_cast<size_t>(ci)])
            return;
        if (constraint_entailed(ci))
            return;
        queued_[static_cast<size_t>(ci)] = true;
        queue_.push_back(ci);
    };
    const size_t v = static_cast<size_t>(id);
    const int32_t *it = watch_flat_.data() + watch_off_[v];
    const int32_t *end = watch_flat_.data() + watch_off_[v + 1];
    for (; it != end; ++it)
        wake(*it);
    if (has_extras_)
        for (int ci : extra_watchers_[v])
            wake(ci);
}

void
PropagationEngine::drain_queue()
{
    for (size_t i = queue_head_; i < queue_.size(); ++i)
        queued_[static_cast<size_t>(queue_[i])] = false;
    queue_.clear();
    queue_head_ = 0;
}

void
PropagationEngine::push_level()
{
    level_marks_.push_back(trail_size_);
    ++epoch_;
    level_tokens_.push_back(epoch_);
}

void
PropagationEngine::pop_level()
{
    HERON_CHECK(!level_marks_.empty());
    size_t mark = level_marks_.back();
    level_marks_.pop_back();
    level_tokens_.pop_back();
    while (trail_size_ > mark) {
        // Copy (not move) so the pooled entry keeps its buffer for
        // the next save; the target's capacity already fits because
        // the entry was copied from it.
        TrailEntry &entry = trail_[--trail_size_];
        domains_[static_cast<size_t>(entry.var)] = entry.saved;
        refresh_bounds(entry.var);
    }
    // A conflicting propagate() can leave work queued; the queued
    // revisions refer to the popped state, so drop them.
    drain_queue();
    // Bump the epoch so save-marks taken inside the popped scope
    // (or in the parent before this scope opened) are stale and the
    // next mutation re-records.
    ++epoch_;
}

void
PropagationEngine::pop_to_depth(size_t depth)
{
    while (level_marks_.size() > depth)
        pop_level();
}

bool
PropagationEngine::push_extras(const std::vector<Constraint> &extra)
{
    HERON_CHECK(!has_extras_) << "extras already pushed";
    HERON_CHECK(level_marks_.empty())
        << "push_extras() above decision levels";
    has_extras_ = true;
    extra_watch_vars_.clear();
    for (const auto &c : extra) {
        int ci = static_cast<int>(all_constraints_.size());
        all_constraints_.push_back(&c);
        for_each_watch(c, [&](VarId v) {
            extra_watchers_[static_cast<size_t>(v)].push_back(ci);
            extra_watch_vars_.push_back(v);
        });
        arith_safe_.push_back(compute_arith_safe(c));
        bounds_only_.push_back(c.kind == ConstraintKind::kProd ||
                               c.kind == ConstraintKind::kSum ||
                               c.kind == ConstraintKind::kLe);
        wipeout_counters_.push_back(&family_counter(c.note));
        queued_.push_back(false);
        entail_depth_.push_back(kNotEntailed);
        entail_token_.push_back(0);
        reserve_scratch(c.operands.size());
    }
    push_level();
    for (size_t ci = base_constraint_count_;
         ci < all_constraints_.size(); ++ci) {
        if (!queued_[ci]) {
            queued_[ci] = true;
            queue_.push_back(static_cast<int>(ci));
        }
    }
    return propagate();
}

void
PropagationEngine::pop_extras()
{
    HERON_CHECK(has_extras_);
    HERON_CHECK_EQ(level_marks_.size(), size_t{1})
        << "pop decision levels before pop_extras()";
    pop_level();
    for (VarId v : extra_watch_vars_)
        extra_watchers_[static_cast<size_t>(v)].pop_back();
    extra_watch_vars_.clear();
    all_constraints_.resize(base_constraint_count_);
    arith_safe_.resize(base_constraint_count_);
    bounds_only_.resize(base_constraint_count_);
    wipeout_counters_.resize(base_constraint_count_);
    queued_.resize(base_constraint_count_);
    entail_depth_.resize(base_constraint_count_);
    entail_token_.resize(base_constraint_count_);
    has_extras_ = false;
}

bool
PropagationEngine::save(VarId id)
{
    if (level_marks_.empty())
        return false; // base state: mutations are permanent
    uint64_t &mark = saved_epoch_[static_cast<size_t>(id)];
    if (mark == epoch_)
        return false; // already recorded for this segment
    mark = epoch_;
    if (trail_size_ == trail_.size())
        trail_.emplace_back();
    TrailEntry &e = trail_[trail_size_++];
    e.var = id;
    e.saved = domains_[static_cast<size_t>(id)]; // reuses capacity
    return true;
}

bool
PropagationEngine::propagate()
{
    HERON_COUNTER_INC("csp.propagations");
    ++stats_.propagations;
    while (queue_head_ < queue_.size()) {
        int ci = queue_.back();
        queue_.pop_back();
        queued_[static_cast<size_t>(ci)] = false;
        const Constraint &c =
            *all_constraints_[static_cast<size_t>(ci)];
        ++stats_.revisions;
        if (!revise(c, ci)) {
            HERON_COUNTER_INC("csp.domain_wipeouts");
            count_constraint_failure(
                c.kind, wipeout_counters_[static_cast<size_t>(ci)]);
            return false;
        }
    }
    queue_.clear();
    queue_head_ = 0;
    // A root-level fixpoint permanently tightens every bound below
    // its build/restore state; re-derive overflow safety so PROD
    // constraints whose *initial* bounds were too wide for the raw
    // arithmetic path can graduate onto it.
    if (level_marks_.empty())
        refresh_arith_safety();
    return true;
}

bool
PropagationEngine::assign_and_propagate(VarId id, int64_t value)
{
    if (!try_assign(id, value))
        return false;
    return propagate();
}

bool
PropagationEngine::all_assigned() const
{
    for (const auto &d : domains_)
        if (!d.is_singleton())
            return false;
    return true;
}

Assignment
PropagationEngine::extract() const
{
    Assignment a;
    extract_into(a);
    return a;
}

void
PropagationEngine::extract_into(Assignment &out) const
{
    out.resize(domains_.size());
    for (size_t i = 0; i < domains_.size(); ++i) {
        HERON_CHECK(domains_[i].is_singleton())
            << "variable " << csp_.var(static_cast<VarId>(i)).name
            << " not assigned";
        out[i] = domains_[i].value();
    }
}

bool
PropagationEngine::clamp(VarId id, int64_t lo, int64_t hi)
{
    const int64_t cur_min = var_min_[static_cast<size_t>(id)];
    const int64_t cur_max = var_max_[static_cast<size_t>(id)];
    if (cur_min > cur_max)
        return false;
    if (cur_min >= lo && cur_max <= hi)
        return true; // no change, nothing to trail or wake
    save(id);
    Domain &d = domains_[static_cast<size_t>(id)];
    d.restrict_bounds(lo, hi);
    refresh_bounds(id);
    enqueue_watchers(id);
    return !d.empty();
}

bool
PropagationEngine::try_assign(VarId id, int64_t value)
{
    Domain &d = domains_[static_cast<size_t>(id)];
    if (!d.contains(value))
        return false;
    if (!d.is_singleton()) {
        save(id);
        d.assign(value);
        refresh_bounds(id);
        enqueue_watchers(id);
    }
    return true;
}

void
PropagationEngine::remove_value(VarId id, int64_t value)
{
    Domain &d = domains_[static_cast<size_t>(id)];
    if (!d.contains(value))
        return;
    const size_t i = static_cast<size_t>(id);
    const int64_t old_min = var_min_[i], old_max = var_max_[i];
    save(id);
    d.remove(value);
    refresh_bounds(id);
    enqueue_watchers(id, var_min_[i] != old_min ||
                             var_max_[i] != old_max);
}

bool
PropagationEngine::intersect_with(VarId id, const Domain &other)
{
    // Change detection needs the mutation itself, so trail first and
    // retract the entry when nothing changed.
    const size_t i = static_cast<size_t>(id);
    const int64_t old_min = var_min_[i], old_max = var_max_[i];
    bool fresh = save(id);
    bool changed = domains_[static_cast<size_t>(id)].intersect(other);
    if (changed) {
        refresh_bounds(id);
        enqueue_watchers(id, var_min_[i] != old_min ||
                                 var_max_[i] != old_max);
    } else if (fresh) {
        --trail_size_; // retract the pooled entry, keep its buffer
        saved_epoch_[static_cast<size_t>(id)] = kNoEpoch;
    }
    return changed;
}

bool
PropagationEngine::intersect_values_with(
    VarId id, const std::vector<int64_t> &values)
{
    const size_t i = static_cast<size_t>(id);
    const int64_t old_min = var_min_[i], old_max = var_max_[i];
    bool fresh = save(id);
    bool changed = domains_[static_cast<size_t>(id)].intersect_values(
        values);
    if (changed) {
        refresh_bounds(id);
        enqueue_watchers(id, var_min_[i] != old_min ||
                                 var_max_[i] != old_max);
    } else if (fresh) {
        --trail_size_; // retract the pooled entry, keep its buffer
        saved_epoch_[static_cast<size_t>(id)] = kNoEpoch;
    }
    return changed;
}

bool
PropagationEngine::keep_divisors(VarId id, int64_t n)
{
    const size_t i = static_cast<size_t>(id);
    const int64_t old_min = var_min_[i], old_max = var_max_[i];
    save(id);
    Domain &d = domains_[i];
    d.filter([n](int64_t v) { return v > 0 && n % v == 0; });
    refresh_bounds(id);
    enqueue_watchers(id, var_min_[i] != old_min ||
                             var_max_[i] != old_max);
    return !d.empty();
}

bool
PropagationEngine::revise(const Constraint &c, int ci)
{
    // A constraint queued before it became entailed may still be
    // dequeued afterwards; answer it here without running a filter.
    if (constraint_entailed(ci))
        return true;
    bool ok = false;
    switch (c.kind) {
      case ConstraintKind::kProd:
      case ConstraintKind::kSum:
      case ConstraintKind::kEq:
      case ConstraintKind::kLe:
      case ConstraintKind::kIn:
        // These filters exit at their own fixpoint, so mutations
        // they make to their own watched variables need not wake
        // them again. SELECT's doesn't (selector pruning can enable
        // further result pruning only on a later pass), so it keeps
        // self-wakes.
        revising_ci_ = ci;
        break;
      case ConstraintKind::kSelect:
        break;
    }
    switch (c.kind) {
      case ConstraintKind::kProd: ok = revise_prod(c, ci); break;
      case ConstraintKind::kSum: ok = revise_sum(c, ci); break;
      case ConstraintKind::kEq: ok = revise_eq(c, ci); break;
      case ConstraintKind::kLe: ok = revise_le(c, ci); break;
      case ConstraintKind::kIn: ok = revise_in(c, ci); break;
      case ConstraintKind::kSelect: ok = revise_select(c, ci); break;
    }
    revising_ci_ = -1;
    return ok;
}

bool
PropagationEngine::revise_prod(const Constraint &c, int ci)
{
    return arith_safe_[static_cast<size_t>(ci)]
               ? revise_prod_impl<true>(c, ci)
               : revise_prod_impl<false>(c, ci);
}

template <bool Safe>
bool
PropagationEngine::revise_prod_impl(const Constraint &c, int ci)
{
    // All product operands are non-negative in Heron-generated
    // problems (tile sizes, loop lengths, byte counts). With
    // Safe == true this — and freedom from overflow — was proven
    // from the initial bounds at registration, so the folds below
    // compile to raw multiplies.
    auto mul = [](int64_t a, int64_t b) {
        if constexpr (Safe)
            return a * b;
        else
            return checked_mul(a, b);
    };
    const size_t n = c.operands.size();
    const size_t rv = static_cast<size_t>(c.result);
    if (var_min_[rv] > var_max_[rv])
        return false;

    // The filter repeats until it stops pruning its own operands:
    // one pass uses suffix products computed before that pass's
    // clamps, and the divisor rule below can fix an operand or move
    // a bound, so a pass that prunes may enable further pruning. The
    // loop replaces re-enqueueing this constraint for a whole fresh
    // revision (revise() suppresses self-wakes).
    bool all_fixed;
    for (;;) {
        // One backward pass caches every operand's bounds and builds
        // the suffix products off the flat bound caches. The product
        // fold is associative (checked_mul absorbs zero before
        // saturating), so assembling "product of all j != i" from a
        // suffix array and a running prefix is exact and O(n) total
        // instead of the naive O(n^2) folds.
        scratch_suf_min_[n] = 1;
        scratch_suf_max_[n] = 1;
        all_fixed = true;
        for (size_t i = n; i-- > 0;) {
            const size_t op = static_cast<size_t>(c.operands[i]);
            if (var_min_[op] > var_max_[op])
                return false;
            if constexpr (!Safe) {
                HERON_CHECK_GE(var_min_[op], 0)
                    << "PROD operand may be negative: "
                    << csp_.var(c.operands[i]).name;
            }
            scratch_min_[i] = var_min_[op];
            scratch_max_[i] = var_max_[op];
            all_fixed =
                all_fixed && scratch_min_[i] == scratch_max_[i];
            scratch_suf_min_[i] =
                mul(scratch_suf_min_[i + 1], scratch_min_[i]);
            scratch_suf_max_[i] =
                mul(scratch_suf_max_[i + 1], scratch_max_[i]);
        }
        if (!clamp(c.result, scratch_suf_min_[0],
                   scratch_suf_max_[0]))
            return false;
        // Every operand fixed: the clamp above pinned the result to
        // the exact product, and no per-operand filtering can prune
        // further while the current level stays open.
        if (all_fixed) {
            mark_entailed(ci);
            return true;
        }
        const int64_t v_min = var_min_[rv], v_max = var_max_[rv];

        if constexpr (Safe) {
            // Free result: its bounds equal the interval product,
            // which makes every per-operand quotient bound at least
            // as loose as the operand's current bounds (lo_i =
            // ceil(min_i * others_min_i / others_max_i) <= min_i and
            // symmetrically for hi_i), and the exactness pass
            // vacuous. This is the common wake — an operand moved,
            // the result is a derived variable nothing else
            // constrains — and skipping the filter avoids n
            // divisions. Requires exact (unsaturated) suffix
            // products, hence Safe only.
            if (v_min == scratch_suf_min_[0] &&
                v_max == scratch_suf_max_[0])
                return true;
        }

        bool pruned_self = false;
        int64_t pre_min = 1, pre_max = 1;
        for (size_t i = 0; i < n; ++i) {
            int64_t others_min =
                mul(pre_min, scratch_suf_min_[i + 1]);
            int64_t others_max =
                mul(pre_max, scratch_suf_max_[i + 1]);
            int64_t lo = 0, hi = kInf;
            if (others_max > 0 && others_max != kInf && v_min > 0)
                lo = ceil_div(v_min, others_max);
            if (others_min > 0 && v_max != kInf)
                hi = v_max / others_min;
            if (lo > scratch_min_[i] || hi < scratch_max_[i]) {
                if (!clamp(c.operands[i], lo, hi))
                    return false;
                scratch_min_[i] =
                    var_min_[static_cast<size_t>(c.operands[i])];
                scratch_max_[i] =
                    var_max_[static_cast<size_t>(c.operands[i])];
                pruned_self = true;
            }
            pre_min = mul(pre_min, scratch_min_[i]);
            pre_max = mul(pre_max, scratch_max_[i]);
        }
        if (pruned_self)
            continue;

        // Divisor rule. With the result fixed to r > 0 and the fixed
        // operands multiplying to f > 0, every open operand must
        // divide r / f. Bounds cannot express that (4 lies inside
        // [1, 7] but does not divide 7), so explicit operand domains
        // lose their non-divisors here; interval domains are left
        // to the bounds pass. The rule reads only which operands are
        // fixed and the result's value, both bounds events, so
        // bounds_only_ still holds for PROD.
        if (v_min != v_max || v_min <= 0)
            break;
        int64_t fixed = 1;
        for (size_t i = 0; i < n; ++i)
            if (scratch_min_[i] == scratch_max_[i])
                fixed = mul(fixed, scratch_min_[i]);
        if (fixed <= 0)
            break;
        if (v_min % fixed != 0)
            return false;
        const int64_t quotient = v_min / fixed;
        for (size_t i = 0; i < n; ++i) {
            if (scratch_min_[i] == scratch_max_[i])
                continue;
            const VarId op = c.operands[i];
            const Domain &d = domains_[static_cast<size_t>(op)];
            if (!d.is_explicit() || d.all_divide(quotient))
                continue;
            if (!keep_divisors(op, quotient))
                return false;
            pruned_self = true;
        }
        if (!pruned_self)
            break;
    }

    // Exactness: when all but at most one participant is fixed.
    size_t unassigned = 0;
    int64_t fixed_prod = 1;
    size_t open_idx = n;
    for (size_t i = 0; i < n; ++i) {
        if (scratch_min_[i] == scratch_max_[i]) {
            fixed_prod = mul(fixed_prod, scratch_min_[i]);
        } else {
            ++unassigned;
            open_idx = i;
        }
    }

    if (unassigned == 0)
        return try_assign(c.result, fixed_prod);
    if (unassigned == 1 && var_min_[rv] == var_max_[rv]) {
        int64_t target = var_min_[rv];
        VarId open = c.operands[open_idx];
        if (fixed_prod == 0) {
            // 0 * x == target requires target == 0; x unconstrained.
            return target == 0;
        }
        if (target % fixed_prod != 0)
            return false;
        return try_assign(open, target / fixed_prod);
    }
    return true;
}

bool
PropagationEngine::revise_sum(const Constraint &c, int ci)
{
    const size_t n = c.operands.size();
    const size_t rv = static_cast<size_t>(c.result);
    if (var_min_[rv] > var_max_[rv])
        return false;

    // As in revise_prod_impl: repeat until a pass stops pruning its
    // own operands, since revise() suppresses self-wakes.
    for (;;) {
        // Bound caches + totals in one pass; "sum of all j != i" is
        // then total minus the i-th term (addition is associative),
        // making the filter O(n) instead of O(n^2). Infinite upper
        // bounds are tracked by count so excluding one term stays
        // exact.
        int64_t min_sum = 0, max_sum = 0;
        size_t inf_count = 0;
        bool all_fixed = true;
        for (size_t i = 0; i < n; ++i) {
            const size_t op = static_cast<size_t>(c.operands[i]);
            if (var_min_[op] > var_max_[op])
                return false;
            scratch_min_[i] = var_min_[op];
            scratch_max_[i] = var_max_[op];
            all_fixed =
                all_fixed && scratch_min_[i] == scratch_max_[i];
            min_sum += scratch_min_[i];
            if (scratch_max_[i] == kInf)
                ++inf_count;
            else
                max_sum += scratch_max_[i];
        }
        if (!clamp(c.result, min_sum, inf_count > 0 ? kInf : max_sum))
            return false;
        // Every operand fixed: the result is pinned to the exact sum
        // and per-operand filtering cannot prune further while the
        // current level stays open.
        if (all_fixed) {
            mark_entailed(ci);
            return true;
        }
        const int64_t v_min = var_min_[rv], v_max = var_max_[rv];

        // Free result: bounds equal to the interval sum make every
        // per-operand difference bound at least as loose as the
        // operand's current bounds (lo_i = min_sum - others_max_i <=
        // min_i, hi_i = max_sum - others_min_i >= max_i), so the
        // filter below is a no-op. Common wake path for derived
        // byte/latency totals.
        if (v_min == min_sum &&
            v_max == (inf_count > 0 ? kInf : max_sum))
            return true;

        bool pruned_self = false;
        for (size_t i = 0; i < n; ++i) {
            int64_t others_min = min_sum - scratch_min_[i];
            bool others_max_inf =
                inf_count > (scratch_max_[i] == kInf ? 1u : 0u);
            int64_t others_max =
                max_sum -
                (scratch_max_[i] == kInf ? 0 : scratch_max_[i]);
            int64_t lo = others_max_inf
                             ? std::numeric_limits<int64_t>::min()
                             : v_min - others_max;
            int64_t hi = v_max == kInf ? kInf : v_max - others_min;
            if (lo > scratch_min_[i] || hi < scratch_max_[i]) {
                if (!clamp(c.operands[i], lo, hi))
                    return false;
                pruned_self = true;
            }
        }
        if (!pruned_self)
            return true;
    }
}

bool
PropagationEngine::revise_eq(const Constraint &c, int ci)
{
    VarId a = c.result;
    VarId b = c.operands[0];
    // Both singleton: decide on the flat bounds without touching the
    // heap-backed domains (the generic path below runs a full value
    // intersection each way).
    const size_t ai = static_cast<size_t>(a);
    const size_t bi = static_cast<size_t>(b);
    if (var_min_[ai] == var_max_[ai] &&
        var_min_[bi] == var_max_[bi]) {
        if (var_min_[ai] != var_min_[bi])
            return false;
        mark_entailed(ci);
        return true;
    }
    intersect_with(a, domains_[static_cast<size_t>(b)]);
    intersect_with(b, domains_[static_cast<size_t>(a)]);
    if (domains_[static_cast<size_t>(a)].empty() ||
        domains_[static_cast<size_t>(b)].empty())
        return false;
    // Both sides pinned to the same value: nothing left to filter
    // in this subtree.
    if (var_min_[static_cast<size_t>(a)] ==
            var_max_[static_cast<size_t>(a)] &&
        var_min_[static_cast<size_t>(b)] ==
            var_max_[static_cast<size_t>(b)])
        mark_entailed(ci);
    return true;
}

bool
PropagationEngine::revise_le(const Constraint &c, int ci)
{
    const size_t a = static_cast<size_t>(c.result);
    const size_t b = static_cast<size_t>(c.operands[0]);
    if (var_min_[a] > var_max_[a] || var_min_[b] > var_max_[b])
        return false;
    if (!clamp(c.result, std::numeric_limits<int64_t>::min(),
               var_max_[b]))
        return false;
    if (!clamp(c.operands[0], var_min_[a], kInf))
        return false;
    // a.max <= b.min: both clamps stay no-ops under any further
    // shrinking, so the constraint is entailed for this subtree.
    if (var_max_[a] <= var_min_[b])
        mark_entailed(ci);
    return true;
}

bool
PropagationEngine::revise_in(const Constraint &c, int ci)
{
    // Once applied, the result domain only ever shrinks (and
    // backtracking never climbs above a post-application state), so
    // the subset relation — and with it this constraint's filtering
    // — holds for the constraint's registered lifetime.
    intersect_values_with(c.result, c.constants);
    if (domains_[static_cast<size_t>(c.result)].empty())
        return false;
    entail_depth_[static_cast<size_t>(ci)] = kPermanentEntailed;
    return true;
}

bool
PropagationEngine::revise_select(const Constraint &c, int ci)
{
    const int64_t n = static_cast<int64_t>(c.operands.size());
    if (!clamp(c.selector, 0, n - 1))
        return false;
    const Domain &du = domains_[static_cast<size_t>(c.selector)];
    const Domain &dv = domains_[static_cast<size_t>(c.result)];
    if (du.empty() || dv.empty())
        return false;

    // Prune selector values whose selected variable cannot equal v.
    // The loop walks a snapshot in engine-owned scratch:
    // remove_value() mutates the domain it would otherwise iterate.
    std::vector<int64_t> &sel = scratch_sel_;
    if (du.is_explicit() || du.size() <= 64) {
        du.values_into(sel);
        for (int64_t u : sel) {
            const Domain &dop =
                domains_[static_cast<size_t>(c.operands[static_cast<size_t>(u)])];
            bool feasible =
                !dop.empty() && dop.max() >= dv.min() && dop.min() <= dv.max();
            if (!feasible)
                remove_value(c.selector, u);
        }
        if (du.empty())
            return false;
    }

    // v is bounded by the union of candidate operand bounds.
    int64_t lo = kInf, hi = std::numeric_limits<int64_t>::min();
    du.values_into(sel);
    for (int64_t u : sel) {
        const Domain &dop =
            domains_[static_cast<size_t>(c.operands[static_cast<size_t>(u)])];
        if (dop.empty())
            return false;
        lo = std::min(lo, dop.min());
        hi = std::max(hi, dop.max());
    }
    if (!clamp(c.result, lo, hi))
        return false;

    // Fixed selector degenerates to EQ(v, op_u).
    if (du.is_singleton()) {
        VarId op = c.operands[static_cast<size_t>(du.value())];
        intersect_with(c.result, domains_[static_cast<size_t>(op)]);
        intersect_with(op, domains_[static_cast<size_t>(c.result)]);
        if (domains_[static_cast<size_t>(c.result)].empty() ||
            domains_[static_cast<size_t>(op)].empty())
            return false;
        // Selector fixed and both ends pinned: with the selector a
        // singleton the filter only ever touches (selector, result,
        // op_u), all now immutable in this subtree.
        if (var_min_[static_cast<size_t>(c.result)] ==
                var_max_[static_cast<size_t>(c.result)] &&
            var_min_[static_cast<size_t>(op)] ==
                var_max_[static_cast<size_t>(op)])
            mark_entailed(ci);
        return true;
    }
    return true;
}

} // namespace heron::csp
