/**
 * @file
 * Constrained search space generation (paper §4, Algorithm 1).
 *
 * The SpaceGenerator walks the compute DAG in reverse topological
 * order applying schedule generation rules (Table 6: S1 Tensorize,
 * S2 Add Multi-Level SPM, S3 Add Multi-Scope SPM, plus the generic
 * multi-level tiling and annotation rules), producing a
 * ScheduleTemplate. It then scans the emitted schedule primitives
 * applying constraint generation rules (Table 8: C1 AddLoopSplit,
 * C2 AddLoopFuse, C3 AddCandidates, C4 AddStageFuse, C5 AddMemLimit,
 * C6 AddDLASpecific), producing CSP_initial.
 *
 * The same machinery parameterized by Options also builds the
 * baseline search spaces (AutoTVM-like manual template, Ansor-like
 * rule template without DLA constraints, AMOS-like mapping space),
 * so all generators share one measurement path.
 */
#ifndef HERON_RULES_SPACE_GENERATOR_H
#define HERON_RULES_SPACE_GENERATOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "csp/csp.h"
#include "hw/dla_spec.h"
#include "ir/dag.h"
#include "ops/op_library.h"
#include "schedule/concrete.h"
#include "schedule/template.h"

namespace heron::rules {

/** Which generator produced the space (drives template structure). */
enum class TemplateFlavor : uint8_t {
    kHeron,   ///< full rule set, all constraints
    kAutoTvm, ///< manual fixed template, fixed intrinsic, no memory
              ///< constraints in the space description
    kAmos,    ///< mapping exploration: intrinsic constraints +
              ///< memory, but fixed attach / no storage_align
    kAnsor,   ///< no tensorize (CUDA-core / scalar path)
};

/** Flavor name. */
const char *template_flavor_name(TemplateFlavor flavor);

/** Generation options (rule toggles; used for ablations too). */
struct Options {
    TemplateFlavor flavor = TemplateFlavor::kHeron;
    /** Rule-S1. */
    bool enable_tensorize = true;
    /** Rule-S2 (multi-level SPM caches). */
    bool enable_multi_level_cache = true;
    /** Rule-S3 (multi-scope SPM caches). */
    bool enable_multi_scope_cache = true;
    /** Rule-C5 (memory capacity constraints). */
    bool enable_mem_constraints = true;
    /** Rule-C6 (DLA-specific constraints). */
    bool enable_dla_specific = true;
    /** Tunable compute_at locations (SELECT constraints, C4). */
    bool tunable_attach = true;
    bool enable_vthread = true;
    bool enable_storage_align = true;
    bool enable_unroll = true;
    /**
     * Stage weights through a cache-friendly packed layout
     * (oneDNN-style OhwI16o4i blocking; paper §7.1 credits ~30% on
     * DL Boost). Baselines that cannot re-layout lack this.
     */
    bool enable_packed_layout = true;

    /** Canonical option presets for the four flavors. */
    static Options heron();
    static Options autotvm();
    static Options amos();
    static Options ansor();
};

/** Variable counts by category (paper Tables 4 and 5). */
struct SpaceStats {
    int arch_vars = 0;
    int loop_vars = 0;
    int tunable_vars = 0;
    int other_vars = 0;
    int constraints = 0;

    int total_vars() const
    {
        return arch_vars + loop_vars + tunable_vars + other_vars;
    }
};

/**
 * A generated constrained search space: template + CSP_initial plus
 * everything needed to turn solver assignments into measurable
 * programs.
 */
struct GeneratedSpace {
    ops::Workload workload;
    ir::ComputeDag dag;
    hw::DlaSpec spec;
    Options options;
    schedule::ScheduleTemplate tmpl;
    csp::Csp csp;
    SpaceStats stats;

    /**
     * Bind a complete valid assignment to a concrete program.
     * Aborts on malformed input; only for assignments produced by
     * the solver against this space.
     */
    schedule::ConcreteProgram bind(const csp::Assignment &a) const;

    /**
     * Validating bind for untrusted assignments (tuning logs,
     * journals, user input): returns nullopt and fills @p error
     * instead of aborting when the assignment does not fit this
     * space.
     */
    std::optional<schedule::ConcreteProgram>
    try_bind(const csp::Assignment &a,
             std::string *error = nullptr) const;
};

/** Generates constrained search spaces for one DLA. */
class SpaceGenerator
{
  public:
    explicit SpaceGenerator(hw::DlaSpec spec, Options options = {});

    /** Run Algorithm 1 for @p workload. */
    GeneratedSpace generate(const ops::Workload &workload) const;

  private:
    hw::DlaSpec spec_;
    Options options_;
};

/**
 * Bounded memo of generated spaces keyed by workload/options hash.
 *
 * Constraint-space generation for a repeated workload shape is pure
 * — same workload, spec, and options always yield the same space —
 * so serving paths memoize it here. Entries are
 * shared_ptr<const GeneratedSpace>: immutable once published,
 * usable without any lock after retrieval. One mutex guards the
 * map; generation itself runs *outside* the lock (first insert wins
 * when two threads race on the same key). The map is reset
 * wholesale when it reaches kCapacity, so a client sending distinct
 * shapes cannot grow it without bound; pointers already handed out
 * stay valid.
 */
class SpaceCache
{
  public:
    /** Entries kept before the map is reset wholesale. */
    static constexpr size_t kCapacity = 512;

    /** Memoize @p make() under @p key (first insert wins). */
    std::shared_ptr<const GeneratedSpace> get_or_generate(
        uint64_t key,
        const std::function<GeneratedSpace()> &make);

    /** Cached spaces. */
    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::shared_ptr<const GeneratedSpace>>
        map_;
};

/**
 * True when @p target can be written as a product of per-axis
 * factors f_i with f_i dividing extents[i] (tensorize
 * applicability: can the intrinsic dimension be carved out of
 * these axes?).
 */
bool can_partition(int64_t target,
                   const std::vector<int64_t> &extents);

/**
 * Rule-S1 applicability for a whole workload on a DLA: the main
 * stage is a contraction whose m/n/k role extents can realize one
 * of the DLA's intrinsic shapes.
 */
bool workload_tensorizable(const hw::DlaSpec &spec,
                           const ops::Workload &workload);

} // namespace heron::rules

#endif // HERON_RULES_SPACE_GENERATOR_H
