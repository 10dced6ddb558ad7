#include "csp/domain.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/logging.h"

namespace heron::csp {

Domain::Domain() : explicit_(false), lo_(1), hi_(0) {}

Domain
Domain::singleton(int64_t value)
{
    return interval(value, value);
}

Domain
Domain::interval(int64_t lo, int64_t hi)
{
    Domain d;
    d.explicit_ = false;
    d.lo_ = lo;
    d.hi_ = hi;
    return d;
}

Domain
Domain::of(std::vector<int64_t> values)
{
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    Domain d;
    d.explicit_ = true;
    d.set_ = std::move(values);
    return d;
}







bool
Domain::contains(int64_t v) const
{
    if (explicit_)
        return std::binary_search(set_.begin(), set_.end(), v);
    return v >= lo_ && v <= hi_;
}

bool
Domain::restrict_bounds(int64_t lo, int64_t hi)
{
    if (explicit_) {
        size_t before = set_.size();
        auto first = std::lower_bound(set_.begin(), set_.end(), lo);
        auto last = std::upper_bound(first, set_.end(), hi);
        if (first == set_.begin() && last == set_.end())
            return false;
        set_.assign(first, last);
        return set_.size() != before;
    }
    int64_t new_lo = std::max(lo_, lo);
    int64_t new_hi = std::min(hi_, hi);
    bool changed = new_lo != lo_ || new_hi != hi_;
    lo_ = new_lo;
    hi_ = new_hi;
    return changed;
}

bool
Domain::assign(int64_t v)
{
    if (!contains(v)) {
        // Wipe out.
        bool was_empty = empty();
        explicit_ = false;
        lo_ = 1;
        hi_ = 0;
        return !was_empty;
    }
    if (is_singleton())
        return false;
    explicit_ = false;
    lo_ = v;
    hi_ = v;
    return true;
}

bool
Domain::remove(int64_t v)
{
    if (!contains(v))
        return false;
    if (explicit_) {
        auto it = std::lower_bound(set_.begin(), set_.end(), v);
        set_.erase(it);
        return true;
    }
    if (lo_ == hi_) {
        hi_ = lo_ - 1;
        return true;
    }
    if (v == lo_) {
        ++lo_;
        return true;
    }
    if (v == hi_) {
        --hi_;
        return true;
    }
    // Removing an interior interval value would need a gap; fall back
    // to materializing. Interior removal only happens on small
    // domains in practice.
    HERON_CHECK_LE(hi_ - lo_, int64_t{1} << 20);
    std::vector<int64_t> vals;
    vals.reserve(static_cast<size_t>(hi_ - lo_));
    for (int64_t x = lo_; x <= hi_; ++x)
        if (x != v)
            vals.push_back(x);
    explicit_ = true;
    set_ = std::move(vals);
    return true;
}

bool
Domain::intersect_values(const std::vector<int64_t> &values)
{
    std::vector<int64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<int64_t> kept;
    for (int64_t v : sorted)
        if (contains(v))
            kept.push_back(v);
    bool changed = !explicit_ ||
                   kept.size() != set_.size();
    explicit_ = true;
    set_ = std::move(kept);
    return changed;
}

bool
Domain::intersect_sorted(const std::vector<int64_t> &values)
{
    if (explicit_) {
        // In-place two-pointer sweep over two sorted unique lists:
        // no allocation, no re-sort. This is the EQ propagator's
        // inner loop.
        size_t w = 0, i = 0, j = 0;
        const size_t n = set_.size(), m = values.size();
        while (i < n && j < m) {
            if (set_[i] < values[j]) {
                ++i;
            } else if (values[j] < set_[i]) {
                ++j;
            } else {
                set_[w++] = set_[i];
                ++i;
                ++j;
            }
        }
        bool changed = w != n;
        set_.resize(w);
        return changed;
    }
    std::vector<int64_t> kept;
    kept.reserve(values.size());
    for (int64_t v : values)
        if (v >= lo_ && v <= hi_)
            kept.push_back(v);
    explicit_ = true;
    set_ = std::move(kept);
    // Representation change counts as a change, matching
    // intersect_values.
    return true;
}

bool
Domain::intersect(const Domain &other)
{
    if (!other.explicit_)
        return restrict_bounds(other.lo_, other.hi_);
    // set_ is maintained sorted and unique by every mutator.
    return intersect_sorted(other.set_);
}

bool
Domain::filter(const std::function<bool(int64_t)> &pred)
{
    HERON_CHECK(explicit_);
    size_t before = set_.size();
    set_.erase(std::remove_if(set_.begin(), set_.end(),
                              [&](int64_t v) { return !pred(v); }),
               set_.end());
    return set_.size() != before;
}

bool
Domain::all_divide(int64_t n) const
{
    HERON_CHECK(explicit_);
    return std::all_of(set_.begin(), set_.end(), [n](int64_t v) {
        return v > 0 && n % v == 0;
    });
}

std::vector<int64_t>
Domain::values() const
{
    std::vector<int64_t> vals;
    values_into(vals);
    return vals;
}

void
Domain::values_into(std::vector<int64_t> &out) const
{
    if (explicit_) {
        out.assign(set_.begin(), set_.end());
        return;
    }
    HERON_CHECK(!empty());
    HERON_CHECK_LE(hi_ - lo_, int64_t{1} << 20);
    out.clear();
    for (int64_t x = lo_; x <= hi_; ++x)
        out.push_back(x);
}

std::string
Domain::to_string() const
{
    std::ostringstream out;
    if (empty())
        return "{}";
    if (explicit_) {
        out << "{";
        for (size_t i = 0; i < set_.size(); ++i)
            out << (i ? "," : "") << set_[i];
        out << "}";
    } else {
        out << "[" << lo_ << ".." << hi_ << "]";
    }
    return out.str();
}

} // namespace heron::csp
