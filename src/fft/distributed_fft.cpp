#include "fft/distributed_fft.hpp"

#include <algorithm>
#include <span>

#include "telemetry/telemetry.hpp"

namespace beatnik::fft {

DistributedFFT2D::StagePlan DistributedFFT2D::make_stage_plan(std::array<int, 2> global,
                                                              std::array<int, 2> topo_dims,
                                                              FFTConfig config) {
    const int p = topo_dims[0] * topo_dims[1];
    StagePlan plan;
    plan.bricks = brick_boxes(global, topo_dims);
    if (config.use_pencils) {
        plan.stage1 = pencil_boxes(global, p, /*long_axis=*/1);
        plan.stage2 = pencil_boxes(global, p, /*long_axis=*/0);
    } else {
        plan.stage1 = row_band_boxes(global, topo_dims);
        plan.stage2 = column_band_boxes(global, topo_dims);
    }
    plan.stage2_fast_axis = config.use_reorder ? 0 : 1;
    return plan;
}

DistributedFFT2D::DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global,
                                   std::array<int, 2> topo_dims, FFTConfig config)
    : DistributedFFT2D(comm, global, config, make_stage_plan(global, topo_dims, config)) {
    BEATNIK_REQUIRE(comm.size() == topo_dims[0] * topo_dims[1],
                    "communicator size must match the topology");
}

DistributedFFT2D::DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global,
                                   FFTConfig config, const StagePlan& plan)
    : comm_(&comm), global_(global), config_(config),
      brick_layout_{plan.bricks[static_cast<std::size_t>(comm.rank())], 1},
      // Stage 1 transforms axis 1; its mesh-native layout (j fastest) is
      // already unit-stride for that axis, so reorder only affects stage 2.
      stage1_{Layout2D{plan.stage1[static_cast<std::size_t>(comm.rank())], 1}, 1},
      stage2_{Layout2D{plan.stage2[static_cast<std::size_t>(comm.rank())],
                       plan.stage2_fast_axis},
              0},
      to_stage1_(comm.rank(), plan.bricks, plan.stage1),
      stage1_to_stage2_(comm.rank(), plan.stage1, plan.stage2),
      stage2_to_brick_(comm.rank(), plan.stage2, plan.bricks),
      to_stage2_(comm.rank(), plan.bricks, plan.stage2),
      stage2_to_stage1_(comm.rank(), plan.stage2, plan.stage1),
      stage1_to_brick_(comm.rank(), plan.stage1, plan.bricks),
      plans_{&plan_for(static_cast<std::size_t>(global[0])),
             &plan_for(static_cast<std::size_t>(global[1]))} {
    for (const Stage* st : {&stage1_, &stage2_}) {
        const SerialFFT1D& p = *plans_[static_cast<std::size_t>(st->axis)];
        line_scratch_.resize(
            std::max(line_scratch_.size(), p.scratch_size(st->layout.stride(st->axis))));
    }
    const std::array<detail::BoxReshape<Box2D>*, 6> family{
        &to_stage1_, &stage1_to_stage2_, &stage2_to_brick_,
        &to_stage2_, &stage2_to_stage1_, &stage1_to_brick_};
    ReshapePlan::share_dense_exchange(family);
}

void DistributedFFT2D::transform_stage(std::vector<cplx>& data, const Stage& stage,
                                       bool inverse) {
    const Box2D& box = stage.layout.box;
    const int axis = stage.axis;
    const int n = axis == 0 ? box.i.extent() : box.j.extent();
    BEATNIK_REQUIRE(n == global_[static_cast<std::size_t>(axis)],
                    "stage must own complete lines along its transform axis");
    // Local offsets start at 0 and are affine in the cross index, so the
    // stage's lines are one batch: line_stride apart along the other axis.
    const SerialFFT1D& plan = *plans_[static_cast<std::size_t>(axis)];
    const auto count = static_cast<std::size_t>(axis == 0 ? box.j.extent() : box.i.extent());
    const std::size_t line_stride = stage.layout.stride(1 - axis);
    const std::size_t elem_stride = stage.layout.stride(axis);
    if (inverse) {
        plan.inverse_lines(data.data(), count, line_stride, elem_stride, line_scratch_);
    } else {
        plan.forward_lines(data.data(), count, line_stride, elem_stride, line_scratch_);
    }
}

void DistributedFFT2D::enable_device(par::device::Queue& q) {
    // Both stage buffers see both intermediate layouts across the
    // forward/inverse routes; size them to the larger once so the pinned
    // range survives every later resize().
    const std::size_t smax = std::max(stage1_.layout.size(), stage2_.layout.size());
    work_.reserve(smax);
    work2_.reserve(smax);
    work_.resize(smax);
    work2_.resize(smax);
    pinned_.clear();
    pinned_.emplace_back(std::span<const cplx>(work_.data(), smax));
    pinned_.emplace_back(std::span<const cplx>(work2_.data(), smax));
    for (ReshapePlan* rp : {&to_stage1_, &stage1_to_stage2_, &stage2_to_brick_, &to_stage2_,
                            &stage2_to_stage1_, &stage1_to_brick_}) {
        rp->enable_device(q);
    }
}

void DistributedFFT2D::forward(std::vector<cplx>& data) {
    telemetry::Scope span("fft.forward", data.size() * sizeof(cplx));
    BEATNIK_REQUIRE(data.size() == brick_layout_.size(), "forward: data/brick size mismatch");
    to_stage1_.execute(*comm_, brick_layout_, data, stage1_.layout, work_, config_.use_alltoall);
    transform_stage(work_, stage1_, /*inverse=*/false);
    stage1_to_stage2_.execute(*comm_, stage1_.layout, work_, stage2_.layout, work2_,
                              config_.use_alltoall);
    transform_stage(work2_, stage2_, /*inverse=*/false);
    stage2_to_brick_.execute(*comm_, stage2_.layout, work2_, brick_layout_, data,
                             config_.use_alltoall);
}

void DistributedFFT2D::inverse(std::vector<cplx>& data) {
    telemetry::Scope span("fft.inverse", data.size() * sizeof(cplx));
    BEATNIK_REQUIRE(data.size() == brick_layout_.size(), "inverse: data/brick size mismatch");
    // Reverse path: brick -> stage2 -> stage1 -> brick.
    to_stage2_.execute(*comm_, brick_layout_, data, stage2_.layout, work_, config_.use_alltoall);
    transform_stage(work_, stage2_, /*inverse=*/true);
    stage2_to_stage1_.execute(*comm_, stage2_.layout, work_, stage1_.layout, work2_,
                              config_.use_alltoall);
    transform_stage(work2_, stage1_, /*inverse=*/true);
    stage1_to_brick_.execute(*comm_, stage1_.layout, work2_, brick_layout_, data,
                             config_.use_alltoall);
}

std::vector<PlannedPhase> DistributedFFT2D::plan_schedule(std::array<int, 2> global,
                                                          std::array<int, 2> topo_dims,
                                                          FFTConfig config) {
    const int p = topo_dims[0] * topo_dims[1];
    auto plan = make_stage_plan(global, topo_dims, config);

    auto phase_of = [&](const std::string& label, const std::vector<Box2D>& src,
                        const std::vector<Box2D>& dst, int fft_axis_after) {
        PlannedPhase phase;
        phase.label = label;
        phase.is_alltoall = config.use_alltoall;
        for (int r = 0; r < p; ++r) {
            for (const auto& t : detail::overlaps(src[static_cast<std::size_t>(r)], dst)) {
                if (t.peer == r) continue; // self copies cost no network
                phase.messages.push_back({r, t.peer, t.box.size() * sizeof(cplx)});
            }
        }
        phase.flops_per_rank.assign(static_cast<std::size_t>(p), 0.0);
        if (fft_axis_after >= 0) {
            const auto& boxes = fft_axis_after == 1 ? plan.stage1 : plan.stage2;
            for (int r = 0; r < p; ++r) {
                const Box2D& b = boxes[static_cast<std::size_t>(r)];
                int n = fft_axis_after == 0 ? b.i.extent() : b.j.extent();
                int lines = fft_axis_after == 0 ? b.j.extent() : b.i.extent();
                // flop model mirrors SerialFFT1D::flops without a plan.
                double dn = static_cast<double>(n);
                double fl = is_pow2(static_cast<std::size_t>(n))
                                ? 5.0 * dn * std::log2(dn > 1 ? dn : 2.0)
                                : 15.0 * dn * std::log2(dn > 1 ? dn : 2.0);
                // Strided second stage pays a gather/scatter penalty.
                if (fft_axis_after == 0 && !config.use_reorder) fl *= 1.6;
                phase.flops_per_rank[static_cast<std::size_t>(r)] = fl * lines;
            }
        }
        return phase;
    };

    std::vector<PlannedPhase> phases;
    phases.push_back(phase_of("brick->stage1", plan.bricks, plan.stage1, 1));
    phases.push_back(phase_of("stage1->stage2", plan.stage1, plan.stage2, 0));
    phases.push_back(phase_of("stage2->brick", plan.stage2, plan.bricks, -1));
    return phases;
}

} // namespace beatnik::fft
