/**
 * @file
 * Constraint satisfaction problem representation.
 *
 * Heron formulates the constrained search space as a CSP
 * (CSP_initial in the paper). The six constraint types mirror
 * Table 7 of the paper:
 *
 *   PROD(v, [v1..vn])        v = v1 * ... * vn
 *   SUM(v, [v1..vn])         v = v1 + ... + vn
 *   EQ(v1, v2)               v1 = v2
 *   LE(v1, v2)               v1 <= v2
 *   IN(v, [c1..cn])          v in {c1..cn}        (constants)
 *   SELECT(v, u, [v1..vn])   v = v_u              (u is a variable)
 */
#ifndef HERON_CSP_CSP_H
#define HERON_CSP_CSP_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "csp/domain.h"

namespace heron::csp {

/** Index of a variable within a Csp. */
using VarId = int32_t;

/** A complete value assignment, indexed by VarId. */
using Assignment = std::vector<int64_t>;

/** Constraint types (paper Table 7). */
enum class ConstraintKind : uint8_t {
    kProd,
    kSum,
    kEq,
    kLe,
    kIn,
    kSelect,
};

/** Name of a constraint kind ("PROD", ...). */
const char *constraint_kind_name(ConstraintKind kind);

/**
 * Content hash of an assignment (for dedup and memo keys). Stable
 * across runs; not cryptographic.
 */
uint64_t assignment_hash(const Assignment &a);

/**
 * One constraint. Fields used depend on kind:
 *  - kProd/kSum: result = f(operands)
 *  - kEq/kLe:    result (v1) vs operands[0] (v2)
 *  - kIn:        result in constants
 *  - kSelect:    result = operands[selector's value]
 */
struct Constraint {
    ConstraintKind kind;
    VarId result = -1;
    std::vector<VarId> operands;
    VarId selector = -1;
    std::vector<int64_t> constants;
    /** Provenance, e.g. the generation rule that emitted it. */
    std::string note;

    /** Human-readable form using the owning problem's names. */
    std::string to_string(const class Csp &csp) const;
};

/** Variable metadata. */
struct VarInfo {
    std::string name;
    Domain initial;
    /**
     * Tunable variables are the chromosome genes: the solver
     * branches on them and search algorithms mutate them.
     */
    bool tunable = false;
};

/**
 * A finite-domain constraint satisfaction problem.
 *
 * Construction-only API: rules add variables and constraints; the
 * propagation engine and solver consume the finished problem.
 */
class Csp
{
  public:
    /** Add a variable; names must be unique. @return its id. */
    VarId add_var(const std::string &name, Domain initial,
                  bool tunable = false);

    /** Add (or reuse) a constant variable with a singleton domain. */
    VarId add_const(int64_t value);

    /** v = v1 * ... * vn */
    void add_prod(VarId v, std::vector<VarId> operands,
                  std::string note = {});

    /** v = v1 + ... + vn */
    void add_sum(VarId v, std::vector<VarId> operands,
                 std::string note = {});

    /** v1 = v2 */
    void add_eq(VarId v1, VarId v2, std::string note = {});

    /** v1 <= v2 */
    void add_le(VarId v1, VarId v2, std::string note = {});

    /** v in {c1..cn} */
    void add_in(VarId v, std::vector<int64_t> constants,
                std::string note = {});

    /** v = operands[u] */
    void add_select(VarId v, VarId u, std::vector<VarId> operands,
                    std::string note = {});

    /** Append a prebuilt constraint (used by CGA offspring CSPs). */
    void add_constraint(Constraint c);

    /** Variable count. */
    size_t num_vars() const { return vars_.size(); }

    /** Constraint count. */
    size_t num_constraints() const { return constraints_.size(); }

    /** Metadata for one variable. */
    const VarInfo &var(VarId id) const { return vars_[id]; }

    /** All variables. */
    const std::vector<VarInfo> &vars() const { return vars_; }

    /** All constraints. */
    const std::vector<Constraint> &constraints() const
    {
        return constraints_;
    }

    /** Ids of tunable variables, in insertion order. */
    const std::vector<VarId> &tunable_vars() const
    {
        return tunables_;
    }

    /** Lookup by name; -1 when absent. */
    VarId find_var(const std::string &name) const;

    /** Lookup by name; aborts when absent. */
    VarId var_id(const std::string &name) const;

    /**
     * True when @p a satisfies constraint @p c exactly (concrete
     * evaluation, no propagation).
     */
    bool satisfies(const Constraint &c, const Assignment &a) const;

    /** Number of constraints violated by @p a. */
    int count_violations(const Assignment &a) const;

    /** True when @p a satisfies every constraint. */
    bool valid(const Assignment &a) const;

    /** Multi-line dump of all variables and constraints. */
    std::string to_string() const;

  private:
    std::vector<VarInfo> vars_;
    std::vector<Constraint> constraints_;
    std::vector<VarId> tunables_;
    std::unordered_map<std::string, VarId> by_name_;
    std::unordered_map<int64_t, VarId> const_cache_;
};

} // namespace heron::csp

#endif // HERON_CSP_CSP_H
