#include "rules/space_generator.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "rules/attach.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace heron::rules {

using csp::Csp;
using csp::Domain;
using csp::VarId;
using ir::ComputeDag;
using ir::ComputeStage;
using ir::ContractionRoles;
using ir::LinearExpr;
using schedule::LoopRef;
using schedule::LoopRole;
using schedule::MemScope;
using schedule::Primitive;
using schedule::PrimitiveKind;
using schedule::ScheduleTemplate;
using schedule::StagePlan;
using schedule::StageRole;

const char *
template_flavor_name(TemplateFlavor flavor)
{
    switch (flavor) {
      case TemplateFlavor::kHeron: return "Heron";
      case TemplateFlavor::kAutoTvm: return "AutoTVM";
      case TemplateFlavor::kAmos: return "AMOS";
      case TemplateFlavor::kAnsor: return "Ansor";
    }
    return "?";
}

Options
Options::heron()
{
    return Options{};
}

Options
Options::autotvm()
{
    Options o;
    o.flavor = TemplateFlavor::kAutoTvm;
    // Manual templates: fixed attach points, no vthread striding, no
    // storage_align, and crucially no memory-capacity constraints in
    // the space description (invalid candidates surface as
    // measurement failures).
    o.tunable_attach = false;
    o.enable_vthread = false;
    o.enable_storage_align = false;
    o.enable_mem_constraints = false;
    o.enable_packed_layout = false;
    return o;
}

Options
Options::amos()
{
    Options o;
    o.flavor = TemplateFlavor::kAmos;
    // Mapping exploration with intrinsic + memory constraints, but
    // fixed compute locations and no storage_align (paper §7.1).
    o.tunable_attach = false;
    o.enable_vthread = false;
    o.enable_storage_align = false;
    o.enable_packed_layout = false;
    return o;
}

Options
Options::ansor()
{
    Options o;
    o.flavor = TemplateFlavor::kAnsor;
    // Rule-generated templates for general-purpose cores: no
    // tensorize, no DLA-specific constraints.
    o.enable_tensorize = false;
    o.enable_dla_specific = false;
    o.enable_storage_align = false;
    o.enable_packed_layout = false;
    return o;
}

bool
can_partition(int64_t target, const std::vector<int64_t> &extents)
{
    if (target == 1)
        return true;
    if (extents.empty())
        return false;
    for (int64_t f : divisors(extents[0])) {
        if (target % f != 0)
            continue;
        std::vector<int64_t> rest(extents.begin() + 1, extents.end());
        if (can_partition(target / f, rest))
            return true;
    }
    return false;
}

namespace {

bool
roles_fit_intrinsic(const hw::DlaSpec &spec,
                    const ir::ComputeStage &stage,
                    const ir::ContractionRoles &roles)
{
    auto extents = [&](const std::vector<int> &axes) {
        std::vector<int64_t> e;
        for (int a : axes)
            e.push_back(stage.axes[static_cast<size_t>(a)].extent);
        return e;
    };
    auto fits = [&](int64_t m, int64_t n, int64_t k) {
        return can_partition(m, extents(roles.m_axes)) &&
               can_partition(n, extents(roles.n_axes)) &&
               can_partition(k, extents(roles.k_axes));
    };
    if (spec.fixed_m > 0)
        return fits(spec.fixed_m, spec.fixed_n, spec.fixed_k);
    for (int64_t m : spec.intrinsic_mnk_candidates)
        for (int64_t n : spec.intrinsic_mnk_candidates)
            for (int64_t k : spec.intrinsic_mnk_candidates)
                if (m * n * k == spec.intrinsic_volume &&
                    fits(m, n, k))
                    return true;
    return false;
}

} // namespace

bool
workload_tensorizable(const hw::DlaSpec &spec,
                      const ops::Workload &workload)
{
    ir::ComputeDag dag = workload.build();
    for (const auto &stage : dag.stages()) {
        auto roles = ir::analyze_contraction(stage);
        if (roles && roles_fit_intrinsic(spec, stage, *roles))
            return true;
    }
    return false;
}

namespace {

/** Per-(DLA, flavor, tensorized) loop structure description. */
struct Structure {
    std::vector<LoopRole> spatial_roles;
    std::vector<LoopRole> reduce_roles;
    /** Loop nest slot order: (is_reduce, level) outermost first. */
    std::vector<std::pair<bool, int>> slots;
    /** Spatial level after which the accumulator stage attaches. */
    int acc_attach_slot = 0;
    /**
     * Spatial level after which the output store attaches (deeper
     * than the accumulator on GPUs: the epilogue stores the block
     * tile in per-iteration slices through shared memory).
     */
    int store_attach_slot = 0;
    /** Reduce levels usable as cache attach candidates. */
    std::vector<int> cache_attach_reduce_levels;
};

Structure
make_structure(const hw::DlaSpec &spec, const Options &options,
               bool tensorized)
{
    Structure s;
    bool vthread = options.enable_vthread;
    // AutoTVM's manual templates and AMOS's mapping templates both
    // use a shallower tiling structure than Heron's rule-generated
    // multi-level tiling (paper SS7.1).
    bool shallow = options.flavor == TemplateFlavor::kAutoTvm ||
                   options.flavor == TemplateFlavor::kAmos;
    switch (spec.kind) {
      case hw::DlaKind::kTensorCore:
        if (tensorized) {
            if (shallow) {
                s.spatial_roles = {LoopRole::kGrid, LoopRole::kThread,
                                   LoopRole::kSerial,
                                   LoopRole::kIntrinsic};
                s.reduce_roles = {LoopRole::kSerial,
                                  LoopRole::kIntrinsic};
                s.slots = {{false, 0}, {false, 1}, {true, 0},
                           {false, 2}, {true, 1}, {false, 3}};
                s.acc_attach_slot = 1;
                s.store_attach_slot = 2;
                s.cache_attach_reduce_levels = {0};
            } else {
                if (vthread) {
                    s.spatial_roles = {LoopRole::kGrid,
                                       LoopRole::kVThread,
                                       LoopRole::kThread,
                                       LoopRole::kSerial,
                                       LoopRole::kIntrinsic};
                } else {
                    s.spatial_roles = {LoopRole::kGrid,
                                       LoopRole::kThread,
                                       LoopRole::kSerial,
                                       LoopRole::kSerial,
                                       LoopRole::kIntrinsic};
                }
                s.reduce_roles = {LoopRole::kSerial, LoopRole::kSerial,
                                  LoopRole::kIntrinsic};
                s.slots = {{false, 0}, {false, 1}, {false, 2},
                           {true, 0},  {true, 1},  {false, 3},
                           {true, 2},  {false, 4}};
                s.acc_attach_slot = 2;
                s.store_attach_slot = 3;
                s.cache_attach_reduce_levels = {0, 1};
            }
        } else {
            s.spatial_roles = {LoopRole::kGrid,
                               vthread ? LoopRole::kVThread
                                       : LoopRole::kSerial,
                               LoopRole::kThread, LoopRole::kSerial};
            s.reduce_roles = {LoopRole::kSerial, LoopRole::kSerial};
            s.slots = {{false, 0}, {false, 1}, {false, 2}, {true, 0},
                       {true, 1},  {false, 3}};
            s.acc_attach_slot = 2;
            s.store_attach_slot = 3;
            s.cache_attach_reduce_levels = {0, 1};
        }
        break;
      case hw::DlaKind::kDlBoost:
        if (tensorized) {
            if (shallow) {
                s.spatial_roles = {LoopRole::kCore, LoopRole::kSerial,
                                   LoopRole::kIntrinsic};
                s.reduce_roles = {LoopRole::kSerial,
                                  LoopRole::kIntrinsic};
                s.slots = {{false, 0}, {true, 0}, {false, 1},
                           {true, 1}, {false, 2}};
                s.acc_attach_slot = 0;
                s.store_attach_slot = 0;
                s.cache_attach_reduce_levels = {0};
            } else {
                s.spatial_roles = {LoopRole::kCore, LoopRole::kSerial,
                                   LoopRole::kSerial,
                                   LoopRole::kIntrinsic};
                s.reduce_roles = {LoopRole::kSerial, LoopRole::kSerial,
                                  LoopRole::kIntrinsic};
                s.slots = {{false, 0}, {true, 0}, {false, 1},
                           {true, 1},  {false, 2}, {true, 2},
                           {false, 3}};
                s.acc_attach_slot = 2;
                s.store_attach_slot = 2;
                s.cache_attach_reduce_levels = {0, 1};
            }
        } else {
            s.spatial_roles = {LoopRole::kCore, LoopRole::kSerial,
                               LoopRole::kSerial};
            s.reduce_roles = {LoopRole::kSerial, LoopRole::kSerial};
            s.slots = {{false, 0}, {true, 0}, {false, 1}, {true, 1},
                       {false, 2}};
            s.acc_attach_slot = 2;
            s.store_attach_slot = 2;
            s.cache_attach_reduce_levels = {0, 1};
        }
        break;
      case hw::DlaKind::kVta:
      case hw::DlaKind::kTpu:
        s.spatial_roles = {LoopRole::kSerial, LoopRole::kBuffer,
                           LoopRole::kIntrinsic};
        s.reduce_roles = {LoopRole::kSerial, LoopRole::kBuffer,
                          LoopRole::kIntrinsic};
        s.slots = {{false, 0}, {true, 0}, {false, 1}, {true, 1},
                   {false, 2}, {true, 2}};
        s.acc_attach_slot = 1; // after {S,1} (buffer spatial tile)
        s.store_attach_slot = 1;
        s.cache_attach_reduce_levels =
            options.flavor == TemplateFlavor::kAutoTvm
                ? std::vector<int>{0}
                : std::vector<int>{0, 1};
        break;
    }
    return s;
}

/** The whole generation state for one workload. */
class Generation
{
  public:
    Generation(const hw::DlaSpec &spec, const Options &options,
               const ops::Workload &workload)
        : spec_(spec), options_(options), workload_(workload),
          dag_(workload.build())
    {
    }

    GeneratedSpace
    run()
    {
        // Step 1 (Algorithm 1): schedule template generation over
        // DAG nodes in reverse topological order.
        for (int node : dag_.reverse_topological())
            schedule_node(node);
        // Step 2: constraint generation by scanning primitives.
        generate_constraints();

        GeneratedSpace space;
        space.workload = workload_;
        space.dag = std::move(dag_);
        space.spec = spec_;
        space.options = options_;
        space.tmpl = std::move(tmpl_);
        space.csp = std::move(csp_);
        space.stats = stats_;
        return space;
    }

  private:
    const hw::DlaSpec &spec_;
    const Options &options_;
    const ops::Workload &workload_;
    ComputeDag dag_;
    ScheduleTemplate tmpl_;
    Csp csp_;
    SpaceStats stats_;

    // ---- Step 1: schedule rules -------------------------------

    /** Rule-S1 condition: Tensorizable(S, i). */
    bool
    tensorizable(const ComputeStage &stage,
                 const ContractionRoles &roles) const
    {
        if (!options_.enable_tensorize)
            return false;
        return roles_fit_intrinsic(spec_, stage, roles);
    }

    void
    schedule_node(int node)
    {
        const ComputeStage &stage = dag_.stage(node);
        auto roles = ir::analyze_contraction(stage);
        bool tensorize = roles && tensorizable(stage, *roles);
        if (spec_.kind == hw::DlaKind::kVta ||
            spec_.kind == hw::DlaKind::kTpu) {
            HERON_CHECK(tensorize)
                << dla_kind_name(spec_.kind)
                << " cannot execute non-tensorizable stage "
                << stage.name;
        }

        Structure structure =
            make_structure(spec_, options_, tensorize);
        StagePlan main = build_main_plan(stage, node, structure,
                                         tensorize, roles);
        add_annotations(main);
        int attach_pos_acc =
            slot_end_position(main, structure, false,
                              structure.acc_attach_slot);
        int attach_pos_store =
            slot_end_position(main, structure, false,
                              structure.store_attach_slot);
        if (attach_pos_store < 0)
            attach_pos_store = attach_pos_acc;
        std::vector<int> cache_candidates;
        for (int level : structure.cache_attach_reduce_levels) {
            int pos = slot_end_position(main, structure, true, level);
            if (pos >= 0)
                cache_candidates.push_back(pos);
        }
        if (!options_.tunable_attach && cache_candidates.size() > 1)
            cache_candidates.resize(1);
        std::sort(cache_candidates.begin(), cache_candidates.end());
        cache_candidates.erase(std::unique(cache_candidates.begin(),
                                           cache_candidates.end()),
                               cache_candidates.end());

        int stream_attach =
            std::max(0,
                     static_cast<int>(main.loop_order.size()) - 2);
        std::string main_name = main.name;
        bool reuse = stage.has_data_reuse();
        // Pushing the main plan may reallocate; use copies below.
        tmpl_.stages.push_back(std::move(main));

        if (reuse &&
            (options_.enable_multi_scope_cache || tensorize)) {
            add_write_stages(stage, main_name, attach_pos_acc,
                             attach_pos_store, tensorize);
        }
        if (reuse && options_.enable_multi_level_cache) {
            add_read_stages(stage, main_name, cache_candidates,
                            tensorize);
        }
        if (!reuse) {
            add_streaming_stages(stage, main_name, stream_attach);
        }
    }

    StagePlan
    build_main_plan(const ComputeStage &stage, int node,
                    const Structure &structure, bool tensorize,
                    const std::optional<ContractionRoles> &roles)
    {
        StagePlan plan;
        plan.name = stage.name;
        plan.role = StageRole::kMain;
        plan.ir_stage = node;
        plan.scope = MemScope::kGlobal;
        plan.tensorized = tensorize;

        bool scan = stage.combiner == ir::CombinerKind::kScan;
        for (size_t a = 0; a < stage.axes.size(); ++a) {
            const auto &axis = stage.axes[a];
            schedule::TiledAxis tiled;
            tiled.name = axis.name;
            tiled.extent = axis.extent;
            tiled.reduce = axis.reduce;
            bool sequential =
                scan && static_cast<int>(a) ==
                            stage.num_spatial - 1;
            if (sequential) {
                tiled.roles = {LoopRole::kSerial};
            } else if (axis.reduce) {
                tiled.roles = structure.reduce_roles;
            } else {
                tiled.roles = structure.spatial_roles;
            }
            plan.axes.push_back(std::move(tiled));
        }

        if (tensorize && roles) {
            plan.m_axes = roles->m_axes;
            plan.n_axes = roles->n_axes;
            plan.k_axes = roles->k_axes;
            // Batch axes tile like m but never enter the intrinsic:
            // pin their intrinsic level to length 1 by dropping it.
            // Manual/mapping templates (AutoTVM, AMOS) bind the
            // whole batch axis to the grid.
            bool shallow =
                options_.flavor == TemplateFlavor::kAutoTvm ||
                options_.flavor == TemplateFlavor::kAmos;
            for (int a : roles->batch_axes) {
                auto &r = plan.axes[static_cast<size_t>(a)].roles;
                if (shallow &&
                    spec_.kind == hw::DlaKind::kTensorCore) {
                    r = {LoopRole::kGrid};
                    continue;
                }
                if (!r.empty() &&
                    r.back() == LoopRole::kIntrinsic)
                    r.pop_back();
            }
            if (spec_.fixed_m > 0) {
                plan.intrinsic_m_candidates = {spec_.fixed_m};
                plan.intrinsic_n_candidates = {spec_.fixed_n};
                plan.intrinsic_k_candidates = {spec_.fixed_k};
            } else if (options_.flavor == TemplateFlavor::kAutoTvm) {
                // Manual templates hard-code one intrinsic shape:
                // 16x16x16 when the shape admits it, else the first
                // feasible alternative the template author shipped.
                auto extents = [&](const std::vector<int> &axes) {
                    std::vector<int64_t> e;
                    for (int a : axes)
                        e.push_back(
                            stage.axes[static_cast<size_t>(a)]
                                .extent);
                    return e;
                };
                auto fits = [&](int64_t m, int64_t n, int64_t k) {
                    return m * n * k == spec_.intrinsic_volume &&
                           can_partition(m,
                                         extents(roles->m_axes)) &&
                           can_partition(n,
                                         extents(roles->n_axes)) &&
                           can_partition(k, extents(roles->k_axes));
                };
                int64_t bm = 16, bn = 16, bk = 16;
                if (!fits(bm, bn, bk)) {
                    for (int64_t m : spec_.intrinsic_mnk_candidates)
                        for (int64_t n :
                             spec_.intrinsic_mnk_candidates)
                            for (int64_t k :
                                 spec_.intrinsic_mnk_candidates)
                                if (fits(m, n, k)) {
                                    bm = m;
                                    bn = n;
                                    bk = k;
                                    goto found;
                                }
                  found:;
                }
                plan.intrinsic_m_candidates = {bm};
                plan.intrinsic_n_candidates = {bn};
                plan.intrinsic_k_candidates = {bk};
            } else {
                plan.intrinsic_m_candidates =
                    spec_.intrinsic_mnk_candidates;
                plan.intrinsic_n_candidates =
                    spec_.intrinsic_mnk_candidates;
                plan.intrinsic_k_candidates =
                    spec_.intrinsic_mnk_candidates;
                plan.intrinsic_volume = spec_.intrinsic_volume;
            }
        }

        // Flattened loop order from the structure's slot sequence.
        for (auto [is_reduce, level] : structure.slots) {
            for (int a = 0; a < static_cast<int>(plan.axes.size());
                 ++a) {
                const auto &axis = plan.axes[static_cast<size_t>(a)];
                if (axis.reduce != is_reduce)
                    continue;
                if (axis.num_levels() ==
                    static_cast<int>((is_reduce
                                          ? structure.reduce_roles
                                          : structure.spatial_roles)
                                         .size())) {
                    if (level < axis.num_levels())
                        plan.loop_order.push_back(LoopRef{a, level});
                } else if (!is_reduce && axis.num_levels() == 1) {
                    if (axis.roles[0] == LoopRole::kGrid) {
                        // Grid-bound batch axis: outermost slot.
                        if (level == 0)
                            plan.loop_order.push_back(LoopRef{a, 0});
                    } else if (level ==
                               static_cast<int>(
                                   structure.spatial_roles.size()) -
                                   1) {
                        // Sequential (scan) axis: innermost serial
                        // slot.
                        plan.loop_order.push_back(LoopRef{a, 0});
                    }
                } else {
                    // Axis with a trimmed intrinsic level (batch).
                    if (level < axis.num_levels())
                        plan.loop_order.push_back(LoopRef{a, level});
                }
            }
        }

        emit_main_primitives(plan);
        return plan;
    }

    /** Position of the last loop of slot (is_reduce, level); -1 if
     * the slot is empty. */
    int
    slot_end_position(const StagePlan &plan, const Structure &,
                      bool is_reduce, int level) const
    {
        int pos = -1;
        for (int i = 0; i < static_cast<int>(plan.loop_order.size());
             ++i) {
            const LoopRef &ref =
                plan.loop_order[static_cast<size_t>(i)];
            const auto &axis =
                plan.axes[static_cast<size_t>(ref.axis)];
            if (axis.reduce == is_reduce && ref.level == level)
                pos = i;
        }
        return pos;
    }

    void
    emit_main_primitives(const StagePlan &plan)
    {
        for (const auto &axis : plan.axes) {
            for (int l = 1; l < axis.num_levels(); ++l) {
                Primitive p;
                p.kind = PrimitiveKind::kSplit;
                p.stage = plan.name;
                p.loops = {axis.name};
                p.results = {axis.level_name(plan.name, l - 1),
                             axis.level_name(plan.name, l)};
                p.param = "tile." + axis.level_name(plan.name, l);
                tmpl_.primitives.push_back(std::move(p));
            }
        }
        Primitive reorder;
        reorder.kind = PrimitiveKind::kReorder;
        reorder.stage = plan.name;
        for (const auto &ref : plan.loop_order)
            reorder.loops.push_back(
                plan.axes[static_cast<size_t>(ref.axis)].level_name(
                    plan.name, ref.level));
        tmpl_.primitives.push_back(std::move(reorder));

        // Bind parallel levels.
        for (const auto &axis : plan.axes) {
            for (int l = 0; l < axis.num_levels(); ++l) {
                LoopRole role = axis.roles[static_cast<size_t>(l)];
                const char *target = nullptr;
                if (role == LoopRole::kGrid)
                    target = "blockIdx";
                else if (role == LoopRole::kThread)
                    target = "threadIdx";
                else if (role == LoopRole::kVThread)
                    target = "vthread";
                else if (role == LoopRole::kCore)
                    target = "cpu_core";
                if (!target)
                    continue;
                Primitive p;
                p.kind = role == LoopRole::kCore
                             ? PrimitiveKind::kParallel
                             : PrimitiveKind::kBind;
                p.stage = plan.name;
                p.loops = {axis.level_name(plan.name, l)};
                p.target = target;
                tmpl_.primitives.push_back(std::move(p));
            }
        }

        if (plan.tensorized) {
            // Fuse the intrinsic levels of multi-axis roles, then
            // tensorize (the im2col view of convolutions).
            auto fuse_role = [&](const std::vector<int> &axes,
                                 const char *role_name) {
                Primitive p;
                p.kind = PrimitiveKind::kFuse;
                p.stage = plan.name;
                for (int a : axes) {
                    const auto &axis =
                        plan.axes[static_cast<size_t>(a)];
                    int l = axis.num_levels() - 1;
                    p.loops.push_back(
                        axis.level_name(plan.name, l));
                }
                p.results = {plan.name + ".wmmafuse." + role_name};
                tmpl_.primitives.push_back(std::move(p));
            };
            fuse_role(plan.m_axes, "m");
            fuse_role(plan.n_axes, "n");
            fuse_role(plan.k_axes, "k");

            Primitive t;
            t.kind = PrimitiveKind::kTensorize;
            t.stage = plan.name;
            t.loops = {plan.name + ".wmmafuse.m",
                       plan.name + ".wmmafuse.n",
                       plan.name + ".wmmafuse.k"};
            t.target = spec_.kind == hw::DlaKind::kTensorCore
                           ? "mma_sync"
                           : (spec_.kind == hw::DlaKind::kDlBoost
                                  ? "vpdpbusd"
                                  : "vta_gemm");
            t.candidates = plan.intrinsic_m_candidates;
            tmpl_.primitives.push_back(std::move(t));
        }
    }

    /** Rule-S3: accumulator cache write + output store staging. */
    void
    add_write_stages(const ComputeStage &stage,
                     const std::string &main_name, int attach_pos,
                     int store_attach_pos, bool tensorized)
    {
        MemScope acc_scope;
        switch (spec_.kind) {
          case hw::DlaKind::kTensorCore:
            acc_scope = tensorized ? MemScope::kFragment
                                   : MemScope::kRegister;
            break;
          case hw::DlaKind::kDlBoost:
            acc_scope = MemScope::kRegister;
            break;
          case hw::DlaKind::kVta:
          case hw::DlaKind::kTpu:
            acc_scope = MemScope::kAccBuffer;
            break;
          default:
            acc_scope = MemScope::kRegister;
        }

        StagePlan acc;
        acc.name = main_name + ".acc";
        acc.role = StageRole::kCacheWrite;
        acc.tensor = stage.output.name;
        acc.scope = acc_scope;
        acc.compute_at = main_name;
        acc.attach_candidates = {attach_pos};
        emit_cache_primitives(acc, true);
        tmpl_.stages.push_back(std::move(acc));

        // Output store staging: through shared memory on GPUs,
        // direct vectorized store elsewhere.
        StagePlan store;
        store.name = main_name + ".store";
        store.role = StageRole::kCacheWrite;
        store.tensor = stage.output.name;
        store.scope = spec_.kind == hw::DlaKind::kTensorCore &&
                              tensorized
                          ? MemScope::kShared
                          : MemScope::kGlobal;
        store.compute_at = main_name;
        store.attach_candidates = {store_attach_pos};
        store.has_vectorize = true;
        store.vector_candidates = spec_.vector_lengths;
        emit_cache_primitives(store, true);
        tmpl_.stages.push_back(std::move(store));
    }

    /** Rule-S2: multi-level cache reads for each input operand. */
    void
    add_read_stages(const ComputeStage &stage,
                    const std::string &main_name,
                    const std::vector<int> &candidates,
                    bool tensorized)
    {
        int frag_attach =
            candidates.empty() ? 0 : candidates.back();
        for (size_t r = 0; r < stage.reads.size(); ++r) {
            const std::string &tensor = stage.reads[r].tensor;
            MemScope outer_scope, inner_scope;
            bool has_inner = true;
            switch (spec_.kind) {
              case hw::DlaKind::kTensorCore:
                outer_scope = MemScope::kShared;
                inner_scope = tensorized ? MemScope::kFragment
                                         : MemScope::kRegister;
                break;
              case hw::DlaKind::kDlBoost:
                outer_scope = MemScope::kL2;
                inner_scope = MemScope::kL1;
                break;
              case hw::DlaKind::kVta:
              case hw::DlaKind::kTpu:
                outer_scope = r == 0 ? MemScope::kInputBuffer
                                     : MemScope::kWeightBuffer;
                has_inner = false;
                inner_scope = MemScope::kRegister;
                break;
              default:
                outer_scope = MemScope::kShared;
                inner_scope = MemScope::kRegister;
            }

            StagePlan outer;
            outer.name = tensor + "." + mem_scope_name(outer_scope);
            outer.role = StageRole::kCacheRead;
            outer.tensor = tensor;
            outer.scope = outer_scope;
            outer.compute_at = main_name;
            outer.attach_candidates = candidates;
            outer.has_vectorize = true;
            outer.vector_candidates = spec_.vector_lengths;
            if (options_.enable_storage_align &&
                outer_scope == MemScope::kShared) {
                outer.has_storage_align = true;
                outer.storage_align_candidates = {0, 4, 8, 16, 24};
            }
            // Weight operands are re-laid-out into a packed
            // cache-friendly blocking when the generator supports
            // it (Heron and vendor libraries; cf. oneDNN layouts).
            if (options_.enable_packed_layout && r == 1)
                outer.packed_layout = true;
            emit_cache_primitives(outer, false);
            tmpl_.stages.push_back(std::move(outer));

            if (has_inner && options_.enable_multi_scope_cache) {
                StagePlan inner;
                inner.name =
                    tensor + "." + mem_scope_name(inner_scope);
                inner.role = StageRole::kCacheRead;
                inner.tensor = tensor;
                inner.scope = inner_scope;
                inner.compute_at = main_name;
                inner.attach_candidates = {frag_attach};
                emit_cache_primitives(inner, false);
                tmpl_.stages.push_back(std::move(inner));
            }
        }
    }

    /** Streaming loads/stores for stages without data reuse. */
    void
    add_streaming_stages(const ComputeStage &stage,
                         const std::string &main_name, int attach)
    {
        for (const auto &read : stage.reads) {
            StagePlan s;
            s.name = read.tensor + ".stream";
            s.role = StageRole::kCacheRead;
            s.tensor = read.tensor;
            s.scope = MemScope::kGlobal;
            s.compute_at = main_name;
            s.attach_candidates = {attach};
            s.has_vectorize = true;
            s.vector_candidates = spec_.vector_lengths;
            emit_cache_primitives(s, false);
            tmpl_.stages.push_back(std::move(s));
        }
        StagePlan out;
        out.name = main_name + ".store";
        out.role = StageRole::kCacheWrite;
        out.tensor = stage.output.name;
        out.scope = MemScope::kGlobal;
        out.compute_at = main_name;
        out.attach_candidates = {attach};
        out.has_vectorize = true;
        out.vector_candidates = spec_.vector_lengths;
        emit_cache_primitives(out, true);
        tmpl_.stages.push_back(std::move(out));
    }

    void
    emit_cache_primitives(const StagePlan &plan, bool is_write)
    {
        Primitive c;
        c.kind = is_write ? PrimitiveKind::kCacheWrite
                          : PrimitiveKind::kCacheRead;
        c.stage = plan.name;
        c.target = plan.tensor;
        c.scope = mem_scope_name(plan.scope);
        tmpl_.primitives.push_back(std::move(c));

        Primitive at;
        at.kind = PrimitiveKind::kComputeAt;
        at.stage = plan.name;
        at.target = plan.compute_at;
        at.param = "loc." + plan.name;
        at.candidates.assign(plan.attach_candidates.begin(),
                             plan.attach_candidates.end());
        tmpl_.primitives.push_back(std::move(at));

        if (plan.has_vectorize) {
            Primitive v;
            v.kind = PrimitiveKind::kVectorize;
            v.stage = plan.name;
            v.param = "vec." + plan.name;
            v.candidates = plan.vector_candidates;
            tmpl_.primitives.push_back(std::move(v));
        }
        if (plan.has_storage_align) {
            Primitive p;
            p.kind = PrimitiveKind::kStorageAlign;
            p.stage = plan.name;
            p.param = "pad." + plan.name;
            p.candidates = plan.storage_align_candidates;
            tmpl_.primitives.push_back(std::move(p));
        }
    }

    void
    add_annotations(StagePlan &main)
    {
        if (!options_.enable_unroll)
            return;
        main.has_unroll = true;
        main.unroll_candidates = {1, 2, 4, 8, 16};
        Primitive u;
        u.kind = PrimitiveKind::kUnroll;
        u.stage = main.name;
        u.param = "unroll." + main.name;
        u.candidates = main.unroll_candidates;
        tmpl_.primitives.push_back(std::move(u));
    }

    // ---- Step 2: constraint rules -----------------------------

    VarId
    loop_var(const std::string &stage_name, const std::string &axis,
             int level)
    {
        std::ostringstream name;
        name << stage_name << "." << axis << "." << level;
        return csp_.var_id(name.str());
    }

    void
    generate_constraints()
    {
        // Loop-length variables first: every tile level of every
        // main stage gets a loop var with a divisor domain.
        for (const auto &plan : tmpl_.stages) {
            if (plan.role != StageRole::kMain)
                continue;
            for (const auto &axis : plan.axes) {
                std::vector<VarId> levels;
                auto divs = divisors(axis.extent);
                for (int l = 0; l < axis.num_levels(); ++l) {
                    VarId v = csp_.add_var(
                        axis.level_name(plan.name, l),
                        Domain::of(divs), false);
                    levels.push_back(v);
                    ++stats_.loop_vars;
                }
                VarId extent = csp_.add_const(axis.extent);
                csp_.add_prod(extent, levels, "C1:extent");
            }
        }

        // Scan primitives in emission order (Algorithm 1 step 2).
        for (const auto &p : tmpl_.primitives) {
            switch (p.kind) {
              case PrimitiveKind::kSplit:
                rule_c1_split(p);
                break;
              case PrimitiveKind::kFuse:
                rule_c2_fuse(p);
                break;
              case PrimitiveKind::kComputeAt:
                rule_c4_stage_fuse(p);
                break;
              case PrimitiveKind::kVectorize:
              case PrimitiveKind::kUnroll:
              case PrimitiveKind::kStorageAlign:
                rule_c3_candidates(p);
                break;
              case PrimitiveKind::kTensorize:
                rule_c6_tensorize(p);
                break;
              default:
                break;
            }
        }

        if (options_.enable_mem_constraints)
            rule_c5_mem_limits();
        // Generic platform constraints (thread caps, aligned
        // vectorization) apply to every generator; only the truly
        // DLA-specific extras are gated.
        rule_generic_platform();
        if (options_.enable_dla_specific)
            rule_c6_dla_extras();

        stats_.constraints =
            static_cast<int>(csp_.num_constraints());
        // Constants and anything not otherwise categorized count as
        // "other" variables (paper Table 4).
        stats_.other_vars =
            static_cast<int>(csp_.num_vars()) - stats_.arch_vars -
            stats_.loop_vars - stats_.tunable_vars;
    }

    /** C1 AddLoopSplit: tunable tile parameter == loop length. */
    void
    rule_c1_split(const Primitive &p)
    {
        const StagePlan &plan = tmpl_.stage(p.stage);
        // p.results[1] is "<stage>.<axis>.<level>".
        VarId lv = csp_.var_id(p.results[1]);
        int axis = plan.find_axis(p.loops[0]);
        HERON_CHECK_GE(axis, 0);
        const auto &tiled = plan.axes[static_cast<size_t>(axis)];
        auto divs = divisors(tiled.extent);
        // The level index is the suffix of the produced loop name.
        int level = std::atoi(p.results[1]
                                  .substr(p.results[1].rfind('.') + 1)
                                  .c_str());
        // Intrinsic levels of large-intrinsic DLAs (e.g. the TPU's
        // 256-wide matrix unit) are hard-coded by template authors
        // and keep their full candidates; small intrinsics fit the
        // manual candidate list anyway.
        bool exempt_intrinsic =
            level < tiled.num_levels() &&
            tiled.roles[static_cast<size_t>(level)] ==
                LoopRole::kIntrinsic &&
            std::max({spec_.fixed_m, spec_.fixed_n,
                      spec_.fixed_k}) > 32;
        if (options_.flavor == TemplateFlavor::kAutoTvm &&
            !exempt_intrinsic) {
            // Manual templates enumerate small hand-picked factor
            // candidates (powers of two plus small odd factors for
            // convolution windows) instead of all divisors.
            // Hand-picked factor candidates; intrinsic levels keep
            // their full candidates (the template hard-codes them).
            std::vector<int64_t> manual;
            for (int64_t d : divs)
                if ((is_pow2(d) && d <= 32) || (d > 1 && d <= 7))
                    manual.push_back(d);
            if (!manual.empty()) {
                if (manual.front() != 1)
                    manual.insert(manual.begin(), 1);
                divs = std::move(manual);
            }
        }
        VarId tile = csp_.add_var(p.param, Domain::of(divs), true);
        ++stats_.tunable_vars;
        csp_.add_eq(tile, lv, "C1:split");
    }

    /** C2 AddLoopFuse: fused length == product of parts. */
    void
    rule_c2_fuse(const Primitive &p)
    {
        std::vector<VarId> parts;
        int64_t max_prod = 1;
        for (const auto &loop : p.loops) {
            VarId v = csp_.var_id(loop);
            parts.push_back(v);
            max_prod = checked_mul(max_prod,
                                   csp_.var(v).initial.max());
        }
        VarId fused = csp_.add_var(
            p.results[0], Domain::interval(1, max_prod), false);
        ++stats_.loop_vars;
        if (parts.empty())
            return;
        csp_.add_prod(fused, parts, "C2:fuse");
    }

    /** C3 AddCandidates: IN constraints for candidate parameters. */
    void
    rule_c3_candidates(const Primitive &p)
    {
        VarId v =
            csp_.add_var(p.param, Domain::of(p.candidates), true);
        ++stats_.tunable_vars;
        csp_.add_in(v, p.candidates, "C3:candidates");
    }

    /**
     * C4 AddStageFuse: per-candidate footprint variables plus a
     * SELECT on the tunable compute location, then the staged
     * region size (used later by C5).
     */
    void
    rule_c4_stage_fuse(const Primitive &p)
    {
        const StagePlan &plan = tmpl_.stage(p.stage);
        const StagePlan &consumer = tmpl_.stage(p.target);
        const ComputeStage &ir_stage =
            dag_.stage(consumer.ir_stage);

        // The access this stage stages: a read of plan.tensor, or
        // the output store.
        const std::vector<LinearExpr> *access = nullptr;
        if (plan.role == StageRole::kCacheRead) {
            for (const auto &read : ir_stage.reads)
                if (read.tensor == plan.tensor)
                    access = &read.indices;
        } else {
            access = &ir_stage.output_indices;
        }
        HERON_CHECK(access != nullptr);

        int num_cands =
            static_cast<int>(plan.attach_candidates.size());
        HERON_CHECK_GE(num_cands, 1);
        VarId loc = -1;
        if (num_cands > 1) {
            std::vector<int64_t> locs;
            for (int i = 0; i < num_cands; ++i)
                locs.push_back(i);
            loc = csp_.add_var(p.param, Domain::of(locs), true);
            ++stats_.tunable_vars;
        }

        // Per candidate, per consumer axis: region length variable.
        std::vector<std::vector<VarId>> axis_len(
            static_cast<size_t>(num_cands));
        for (int c = 0; c < num_cands; ++c) {
            AttachInfo info = analyze_attach(
                consumer, plan.scope, plan.role,
                plan.attach_candidates[static_cast<size_t>(c)]);
            for (size_t a = 0; a < consumer.axes.size(); ++a) {
                const auto &levels = info.region_levels[a];
                std::ostringstream name;
                name << plan.name << ".c" << c << "."
                     << consumer.axes[a].name;
                if (levels.empty()) {
                    axis_len[static_cast<size_t>(c)].push_back(
                        csp_.add_const(1));
                    continue;
                }
                std::vector<VarId> parts;
                for (int l : levels)
                    parts.push_back(loop_var(consumer.name,
                                             consumer.axes[a].name,
                                             l));
                VarId v = csp_.add_var(
                    name.str(),
                    Domain::interval(1, consumer.axes[a].extent),
                    false);
                ++stats_.loop_vars;
                csp_.add_prod(v, parts, "C4:region");
                axis_len[static_cast<size_t>(c)].push_back(v);
            }
        }

        // Per tensor dimension: footprint per candidate + SELECT.
        std::vector<VarId> dims;
        for (size_t j = 0; j < access->size(); ++j) {
            std::vector<VarId> per_cand;
            for (int c = 0; c < num_cands; ++c) {
                std::ostringstream name;
                name << plan.name << ".c" << c << ".d" << j;
                per_cand.push_back(footprint_var(
                    name.str(), (*access)[j],
                    axis_len[static_cast<size_t>(c)]));
            }
            std::ostringstream name;
            name << plan.name << ".d" << j;
            VarId dim = csp_.add_var(
                name.str(),
                Domain::interval(1, int64_t{1} << 40), false);
            ++stats_.loop_vars;
            if (num_cands == 1) {
                csp_.add_eq(dim, per_cand[0], "C4:fixed-loc");
            } else {
                csp_.add_select(dim, loc, per_cand, "C4:select");
            }
            dims.push_back(dim);
        }

    }

    /**
     * Footprint of one affine tensor index over region lengths:
     * sum(|coef| * (len - 1)) + 1 expressed with SUM/PROD.
     */
    VarId
    footprint_var(const std::string &name, const LinearExpr &expr,
                  const std::vector<VarId> &axis_len)
    {
        // Fast path: single unit-coefficient term.
        if (expr.terms.size() == 1 && expr.terms[0].coef == 1)
            return axis_len[static_cast<size_t>(expr.terms[0].axis)];
        if (expr.terms.empty())
            return csp_.add_const(1);

        VarId one = csp_.add_const(1);
        std::vector<VarId> terms;
        for (size_t t = 0; t < expr.terms.size(); ++t) {
            VarId len =
                axis_len[static_cast<size_t>(expr.terms[t].axis)];
            int64_t len_max = csp_.var(len).initial.max();
            std::ostringstream m1name;
            m1name << name << ".t" << t << "m1";
            VarId lm1 = csp_.add_var(
                m1name.str(), Domain::interval(0, len_max - 1),
                false);
            ++stats_.other_vars;
            // len = lm1 + 1
            csp_.add_sum(len, {lm1, one}, "C4:footprint");
            int64_t coef = std::abs(expr.terms[t].coef);
            if (coef == 1) {
                terms.push_back(lm1);
            } else {
                std::ostringstream tname;
                tname << name << ".t" << t;
                VarId term = csp_.add_var(
                    tname.str(),
                    Domain::interval(0, coef * (len_max - 1)),
                    false);
                ++stats_.other_vars;
                csp_.add_prod(term, {lm1, csp_.add_const(coef)},
                              "C4:footprint");
                terms.push_back(term);
            }
        }
        terms.push_back(one);
        VarId fp = csp_.add_var(
            name, Domain::interval(1, int64_t{1} << 40), false);
        ++stats_.loop_vars;
        csp_.add_sum(fp, terms, "C4:footprint");
        return fp;
    }

    /**
     * C5 AddMemLimit: per-cache-stage memory variables (rows *
     * (row + pad) * element size, matching the allocation the
     * storage_align primitive produces) plus per-scope capacity
     * constraints.
     */
    void
    rule_c5_mem_limits()
    {
        std::map<MemScope, std::vector<VarId>> by_scope;
        for (const auto &plan : tmpl_.stages) {
            if (plan.role == StageRole::kMain)
                continue;
            VarId mem = make_mem_var(plan);
            if (mem < 0)
                continue;
            by_scope[plan.scope].push_back(mem);
        }
        for (auto &[scope, mems] : by_scope) {
            int64_t cap = scope_capacity(scope);
            if (cap <= 0)
                continue;
            VarId total = csp_.add_var(
                std::string("mem.") + mem_scope_name(scope),
                Domain::interval(0, int64_t{1} << 50), false);
            ++stats_.other_vars;
            csp_.add_sum(total, mems, "C5:total");
            csp_.add_le(total, csp_.add_const(cap), "C5:capacity");
        }
    }

    /** Memory consumption variable of one cache stage; -1 when the
     * stage has no footprint variables (e.g. streaming). */
    VarId
    make_mem_var(const StagePlan &plan)
    {
        const ir::Tensor &tensor = dag_.tensor(plan.tensor);
        int ndim = tensor.ndim();
        std::vector<VarId> dims;
        for (int j = 0; j < ndim; ++j) {
            std::ostringstream name;
            name << plan.name << ".d" << j;
            VarId d = csp_.find_var(name.str());
            if (d < 0)
                return -1;
            dims.push_back(d);
        }
        // rows = product of all but the innermost dim.
        VarId rows;
        if (dims.size() == 1) {
            rows = csp_.add_const(1);
        } else {
            rows = csp_.add_var(
                plan.name + ".rows",
                Domain::interval(1, int64_t{1} << 40), false);
            std::vector<VarId> outer(dims.begin(), dims.end() - 1);
            csp_.add_prod(rows, outer, "C5:rows");
        }
        // padded row = row + storage_align pad.
        VarId row = dims.back();
        VarId padded_row = row;
        VarId pad = csp_.find_var("pad." + plan.name);
        if (pad >= 0) {
            padded_row = csp_.add_var(
                plan.name + ".rowpad",
                Domain::interval(1, int64_t{1} << 40), false);
            csp_.add_sum(padded_row, {row, pad}, "C5:rowpad");
        }
        VarId mem = csp_.add_var(
            "mem." + plan.name,
            Domain::interval(0, int64_t{1} << 50), false);
        csp_.add_prod(
            mem,
            {rows, padded_row,
             csp_.add_const(ir::dtype_bytes(tensor.dtype))},
            "C5:mem");
        return mem;
    }

    int64_t
    scope_capacity(MemScope scope) const
    {
        switch (scope) {
          case MemScope::kShared: return spec_.shared_capacity;
          case MemScope::kFragment: return spec_.fragment_capacity;
          case MemScope::kRegister: return spec_.fragment_capacity;
          case MemScope::kL2: return spec_.shared_capacity;
          case MemScope::kL1: return spec_.l1_capacity;
          case MemScope::kInputBuffer:
            return spec_.input_buffer_capacity;
          case MemScope::kWeightBuffer:
            return spec_.weight_buffer_capacity;
          case MemScope::kAccBuffer:
            return spec_.acc_buffer_capacity;
          default: return 0;
        }
    }

    /** C6 (tensorize part): intrinsic shape variables. */
    void
    rule_c6_tensorize(const Primitive &p)
    {
        const StagePlan &plan = tmpl_.stage(p.stage);
        auto make_wmma = [&](const char *role,
                             const std::vector<int64_t> &cands) {
            VarId v = csp_.add_var(plan.name + ".wmma." + role,
                                   Domain::of(cands), false);
            ++stats_.arch_vars;
            csp_.add_in(v, cands, "C6:intrinsic");
            // The fused intrinsic loop equals the intrinsic dim.
            VarId fused = csp_.var_id(plan.name + ".wmmafuse." +
                                      std::string(role));
            csp_.add_eq(fused, v, "C6:intrinsic");
            return v;
        };
        VarId m = make_wmma("m", plan.intrinsic_m_candidates);
        VarId n = make_wmma("n", plan.intrinsic_n_candidates);
        VarId k = make_wmma("k", plan.intrinsic_k_candidates);
        if (plan.intrinsic_volume > 0) {
            VarId vol = csp_.add_const(plan.intrinsic_volume);
            csp_.add_prod(vol, {m, n, k}, "C6:volume");
        }
    }

    /** Generic platform constraints: GPU thread caps and aligned
     * vectorized access (known to every generator, not only
     * Heron). */
    void
    rule_generic_platform()
    {
        for (const auto &plan : tmpl_.stages) {
            if (plan.role == StageRole::kMain) {
                if (spec_.kind == hw::DlaKind::kTensorCore)
                    add_gpu_thread_caps(plan);
                continue;
            }
            // Vectorized accesses must divide the innermost staged
            // dimension: row == vec * q.
            VarId vec = csp_.find_var("vec." + plan.name);
            if (vec < 0)
                continue;
            const ir::Tensor &tensor = dag_.tensor(plan.tensor);
            // Transaction width limit: vec * element size must fit
            // the widest load/store.
            std::vector<int64_t> allowed;
            for (int64_t len : spec_.vector_lengths)
                if (len * ir::dtype_bytes(tensor.dtype) <=
                    spec_.max_vector_bytes)
                    allowed.push_back(len);
            if (!allowed.empty())
                csp_.add_in(vec, allowed, "C6:vector-width");
            // Innermost tensor dimension footprint of this stage.
            std::ostringstream row_name;
            row_name << plan.name << ".d" << (tensor.ndim() - 1);
            VarId row = csp_.find_var(row_name.str());
            if (row < 0)
                continue;
            int64_t row_max = csp_.var(row).initial.max();
            VarId q = csp_.add_var(
                "vecq." + plan.name,
                Domain::interval(1, row_max), false);
            ++stats_.other_vars;
            csp_.add_prod(row, {vec, q}, "C6:vector-divides");
        }
    }

    /** C6 (DLA extras): VTA accumulator write gap. */
    void
    rule_c6_dla_extras()
    {
        if (spec_.kind != hw::DlaKind::kVta)
            return;
        for (const auto &plan : tmpl_.stages)
            if (plan.role == StageRole::kMain)
                add_vta_write_gap(plan);
    }

    void
    add_gpu_thread_caps(const StagePlan &plan)
    {
        std::vector<VarId> warp_levels, vthread_levels;
        for (const auto &axis : plan.axes) {
            for (int l = 0; l < axis.num_levels(); ++l) {
                if (axis.roles[static_cast<size_t>(l)] ==
                    LoopRole::kThread)
                    warp_levels.push_back(
                        loop_var(plan.name, axis.name, l));
                if (axis.roles[static_cast<size_t>(l)] ==
                    LoopRole::kVThread)
                    vthread_levels.push_back(
                        loop_var(plan.name, axis.name, l));
            }
        }
        int64_t max_units = plan.tensorized
                                ? spec_.max_threads_per_block /
                                      spec_.warp_size
                                : spec_.max_threads_per_block;
        if (!warp_levels.empty()) {
            VarId warps = csp_.add_var(
                plan.name + ".warps",
                Domain::interval(1, int64_t{1} << 30), false);
            ++stats_.arch_vars;
            csp_.add_prod(warps, warp_levels, "C6:threads");
            csp_.add_le(warps, csp_.add_const(max_units),
                        "C6:threads");
        }
        if (!vthread_levels.empty()) {
            VarId vt = csp_.add_var(
                plan.name + ".vthreads",
                Domain::interval(1, int64_t{1} << 30), false);
            ++stats_.arch_vars;
            csp_.add_prod(vt, vthread_levels, "C6:vthreads");
            csp_.add_le(vt, csp_.add_const(32), "C6:vthreads");
        }
    }

    void
    add_vta_write_gap(const StagePlan &plan)
    {
        // Innermost (last) reduce axis: its innermost non-intrinsic
        // level must run for >= 2 cycles between accumulator writes.
        for (int a = static_cast<int>(plan.axes.size()) - 1; a >= 0;
             --a) {
            const auto &axis = plan.axes[static_cast<size_t>(a)];
            if (!axis.reduce)
                continue;
            for (int l = axis.num_levels() - 1; l >= 0; --l) {
                if (axis.roles[static_cast<size_t>(l)] ==
                    LoopRole::kIntrinsic)
                    continue;
                VarId v = loop_var(plan.name, axis.name, l);
                csp_.add_le(csp_.add_const(2), v, "C6:access-cycle");
                return;
            }
            return;
        }
    }
};

} // namespace

SpaceGenerator::SpaceGenerator(hw::DlaSpec spec, Options options)
    : spec_(std::move(spec)), options_(options)
{
}

GeneratedSpace
SpaceGenerator::generate(const ops::Workload &workload) const
{
    Generation generation(spec_, options_, workload);
    return generation.run();
}

std::shared_ptr<const GeneratedSpace>
SpaceCache::get_or_generate(
    uint64_t key, const std::function<GeneratedSpace()> &make)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end())
            return it->second;
    }
    // Generate outside the lock: a slow generation for one shape
    // must not block hits on every other shape.
    auto made =
        std::make_shared<const GeneratedSpace>(make());
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end())
        return it->second; // first insert wins: one canonical space
    if (map_.size() >= kCapacity)
        map_.clear();
    return map_.emplace(key, std::move(made)).first->second;
}

size_t
SpaceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

} // namespace heron::rules
