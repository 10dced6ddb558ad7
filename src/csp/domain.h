/**
 * @file
 * Finite domains for CSP variables.
 *
 * Two representations are supported behind one interface:
 *  - an explicit sorted value set (tile-size candidates, intrinsic
 *    shapes, boolean flags), used for variables the solver branches on;
 *  - a pure interval [lo, hi], used for derived variables (loop
 *    lengths, memory footprints) that propagation determines once the
 *    branching variables are assigned.
 */
#ifndef HERON_CSP_DOMAIN_H
#define HERON_CSP_DOMAIN_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "support/logging.h"

namespace heron::csp {

/** The set of values a CSP variable may still take. */
class Domain
{
  public:
    /** Empty domain (immediately failed). */
    Domain();

    /** Singleton domain {value}. */
    static Domain singleton(int64_t value);

    /** Interval domain [lo, hi]. */
    static Domain interval(int64_t lo, int64_t hi);

    /** Explicit set domain; input need not be sorted or unique. */
    static Domain of(std::vector<int64_t> values);

    // The simple accessors below are defined in the header: they
    // dominate the propagation inner loop (tens of millions of calls
    // per tuning round) and must inline.

    /** True when no value remains. */
    bool empty() const { return explicit_ ? set_.empty() : lo_ > hi_; }

    /** True when exactly one value remains. */
    bool is_singleton() const
    {
        return explicit_ ? set_.size() == 1 : lo_ == hi_;
    }

    /** True when the domain stores an explicit value set. */
    bool is_explicit() const { return explicit_; }

    /** Smallest remaining value. Requires non-empty. */
    int64_t min() const
    {
        HERON_CHECK(!empty());
        return explicit_ ? set_.front() : lo_;
    }

    /** Largest remaining value. Requires non-empty. */
    int64_t max() const
    {
        HERON_CHECK(!empty());
        return explicit_ ? set_.back() : hi_;
    }

    /** The single value of a singleton domain. */
    int64_t value() const
    {
        HERON_CHECK(is_singleton());
        return min();
    }

    /**
     * Number of remaining values. For interval domains this is
     * hi - lo + 1 (saturating).
     */
    int64_t size() const
    {
        if (explicit_)
            return static_cast<int64_t>(set_.size());
        if (lo_ > hi_)
            return 0;
        if (hi_ - lo_ == std::numeric_limits<int64_t>::max())
            return std::numeric_limits<int64_t>::max();
        return hi_ - lo_ + 1;
    }

    /** Membership test. */
    bool contains(int64_t v) const;

    /**
     * Shrink to [lo, hi]. @return true if the domain changed.
     */
    bool restrict_bounds(int64_t lo, int64_t hi);

    /** Shrink to the single value @p v. @return true if changed. */
    bool assign(int64_t v);

    /** Remove one value. @return true if changed. */
    bool remove(int64_t v);

    /**
     * Intersect with an explicit candidate list. Converts interval
     * domains to explicit form. @return true if changed.
     */
    bool intersect_values(const std::vector<int64_t> &values);

    /**
     * intersect_values for a list already sorted and unique:
     * in-place, allocation-free on explicit domains.
     */
    bool intersect_sorted(const std::vector<int64_t> &values);

    /** Intersect with another domain. @return true if changed. */
    bool intersect(const Domain &other);

    /**
     * Keep only values satisfying @p pred. Only valid on explicit
     * domains; in place, so the value buffer keeps its capacity.
     * @return true if changed.
     */
    bool filter(const std::function<bool(int64_t)> &pred);

    /**
     * True when every value divides @p n (n > 0); zero and negative
     * values never do. Only valid on explicit domains.
     */
    bool all_divide(int64_t n) const;

    /**
     * Remaining values as a vector. Interval domains are
     * materialized; callers must ensure the interval is small.
     */
    std::vector<int64_t> values() const;

    /**
     * values() into a caller-owned buffer, which keeps its capacity
     * (allocation-free once the buffer has grown to fit).
     */
    void values_into(std::vector<int64_t> &out) const;

    /** Human-readable rendering ("{1,2,4}" or "[0..48152]"). */
    std::string to_string() const;

  private:
    bool explicit_;
    // Explicit representation (valid when explicit_).
    std::vector<int64_t> set_;
    // Interval representation (valid when !explicit_). Empty iff
    // lo_ > hi_.
    int64_t lo_;
    int64_t hi_;
};

} // namespace heron::csp

#endif // HERON_CSP_DOMAIN_H
