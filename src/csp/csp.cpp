#include "csp/csp.h"

#include <algorithm>
#include <sstream>

#include "support/logging.h"
#include "support/math_util.h"

namespace heron::csp {

const char *
constraint_kind_name(ConstraintKind kind)
{
    switch (kind) {
      case ConstraintKind::kProd: return "PROD";
      case ConstraintKind::kSum: return "SUM";
      case ConstraintKind::kEq: return "EQ";
      case ConstraintKind::kLe: return "LE";
      case ConstraintKind::kIn: return "IN";
      case ConstraintKind::kSelect: return "SELECT";
    }
    return "?";
}

uint64_t
assignment_hash(const Assignment &a)
{
    uint64_t h = 0x12345678;
    for (int64_t v : a)
        h = hash_combine(h, static_cast<uint64_t>(v));
    return h;
}

std::string
Constraint::to_string(const Csp &csp) const
{
    std::ostringstream out;
    out << constraint_kind_name(kind) << "(";
    out << csp.var(result).name;
    switch (kind) {
      case ConstraintKind::kProd:
      case ConstraintKind::kSum:
        out << ", [";
        for (size_t i = 0; i < operands.size(); ++i)
            out << (i ? ", " : "") << csp.var(operands[i]).name;
        out << "]";
        break;
      case ConstraintKind::kEq:
      case ConstraintKind::kLe:
        out << ", " << csp.var(operands[0]).name;
        break;
      case ConstraintKind::kIn:
        out << ", {";
        for (size_t i = 0; i < constants.size(); ++i)
            out << (i ? ", " : "") << constants[i];
        out << "}";
        break;
      case ConstraintKind::kSelect:
        out << ", " << csp.var(selector).name << ", [";
        for (size_t i = 0; i < operands.size(); ++i)
            out << (i ? ", " : "") << csp.var(operands[i]).name;
        out << "]";
        break;
    }
    out << ")";
    if (!note.empty())
        out << "  # " << note;
    return out.str();
}

VarId
Csp::add_var(const std::string &name, Domain initial, bool tunable)
{
    HERON_CHECK(by_name_.find(name) == by_name_.end())
        << "duplicate variable name: " << name;
    VarId id = static_cast<VarId>(vars_.size());
    vars_.push_back(VarInfo{name, std::move(initial), tunable});
    by_name_.emplace(name, id);
    if (tunable)
        tunables_.push_back(id);
    return id;
}

VarId
Csp::add_const(int64_t value)
{
    auto it = const_cache_.find(value);
    if (it != const_cache_.end())
        return it->second;
    std::string name = "const." + std::to_string(value);
    // Name may clash if users made a var of this name; disambiguate.
    while (by_name_.count(name))
        name += "'";
    VarId id = add_var(name, Domain::singleton(value), false);
    const_cache_.emplace(value, id);
    return id;
}

void
Csp::add_prod(VarId v, std::vector<VarId> operands, std::string note)
{
    HERON_CHECK(!operands.empty());
    Constraint c;
    c.kind = ConstraintKind::kProd;
    c.result = v;
    c.operands = std::move(operands);
    c.note = std::move(note);
    constraints_.push_back(std::move(c));
}

void
Csp::add_sum(VarId v, std::vector<VarId> operands, std::string note)
{
    HERON_CHECK(!operands.empty());
    Constraint c;
    c.kind = ConstraintKind::kSum;
    c.result = v;
    c.operands = std::move(operands);
    c.note = std::move(note);
    constraints_.push_back(std::move(c));
}

void
Csp::add_eq(VarId v1, VarId v2, std::string note)
{
    Constraint c;
    c.kind = ConstraintKind::kEq;
    c.result = v1;
    c.operands = {v2};
    c.note = std::move(note);
    constraints_.push_back(std::move(c));
}

void
Csp::add_le(VarId v1, VarId v2, std::string note)
{
    Constraint c;
    c.kind = ConstraintKind::kLe;
    c.result = v1;
    c.operands = {v2};
    c.note = std::move(note);
    constraints_.push_back(std::move(c));
}

void
Csp::add_in(VarId v, std::vector<int64_t> constants, std::string note)
{
    HERON_CHECK(!constants.empty());
    Constraint c;
    c.kind = ConstraintKind::kIn;
    c.result = v;
    c.constants = std::move(constants);
    c.note = std::move(note);
    constraints_.push_back(std::move(c));
}

void
Csp::add_select(VarId v, VarId u, std::vector<VarId> operands,
                std::string note)
{
    HERON_CHECK(!operands.empty());
    Constraint c;
    c.kind = ConstraintKind::kSelect;
    c.result = v;
    c.selector = u;
    c.operands = std::move(operands);
    c.note = std::move(note);
    constraints_.push_back(std::move(c));
}

void
Csp::add_constraint(Constraint c)
{
    constraints_.push_back(std::move(c));
}

VarId
Csp::find_var(const std::string &name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? -1 : it->second;
}

VarId
Csp::var_id(const std::string &name) const
{
    VarId id = find_var(name);
    HERON_CHECK_GE(id, 0) << "unknown variable: " << name;
    return id;
}

bool
Csp::satisfies(const Constraint &c, const Assignment &a) const
{
    auto val = [&](VarId id) { return a[static_cast<size_t>(id)]; };
    switch (c.kind) {
      case ConstraintKind::kProd: {
        int64_t prod = 1;
        for (VarId op : c.operands)
            prod = checked_mul(prod, val(op));
        return val(c.result) == prod;
      }
      case ConstraintKind::kSum: {
        int64_t sum = 0;
        for (VarId op : c.operands)
            sum += val(op);
        return val(c.result) == sum;
      }
      case ConstraintKind::kEq:
        return val(c.result) == val(c.operands[0]);
      case ConstraintKind::kLe:
        return val(c.result) <= val(c.operands[0]);
      case ConstraintKind::kIn:
        return std::find(c.constants.begin(), c.constants.end(),
                         val(c.result)) != c.constants.end();
      case ConstraintKind::kSelect: {
        int64_t u = val(c.selector);
        if (u < 0 || u >= static_cast<int64_t>(c.operands.size()))
            return false;
        return val(c.result) == val(c.operands[static_cast<size_t>(u)]);
      }
    }
    return false;
}

int
Csp::count_violations(const Assignment &a) const
{
    HERON_CHECK_EQ(a.size(), vars_.size());
    int violations = 0;
    for (const auto &c : constraints_)
        if (!satisfies(c, a))
            ++violations;
    // Domain membership is part of validity as well.
    for (size_t i = 0; i < vars_.size(); ++i)
        if (!vars_[i].initial.contains(a[i]))
            ++violations;
    return violations;
}

bool
Csp::valid(const Assignment &a) const
{
    return count_violations(a) == 0;
}

std::string
Csp::to_string() const
{
    std::ostringstream out;
    out << "CSP with " << vars_.size() << " variables, "
        << constraints_.size() << " constraints\n";
    for (size_t i = 0; i < vars_.size(); ++i) {
        out << "  " << (vars_[i].tunable ? "[T] " : "    ")
            << vars_[i].name << " in " << vars_[i].initial.to_string()
            << "\n";
    }
    for (const auto &c : constraints_)
        out << "  " << c.to_string(*this) << "\n";
    return out.str();
}

} // namespace heron::csp
