#include "fft/distributed_fft3d.hpp"

#include <algorithm>
#include <cmath>

namespace beatnik::fft {

// --------------------------------------------------------------- Reshape3D

void Reshape3D::copy_box(const Layout3D& from, const cplx* in, const Layout3D& to, cplx* out,
                         const Box3D& b) {
    // Both k-fastest (the wire order and the brick layout): each k-run is
    // contiguous on both sides and moves as one block copy.
    const bool runs = from.fast_axis == 2 && to.fast_axis == 2;
    for (int i = b.i.begin; i < b.i.end; ++i) {
        for (int j = b.j.begin; j < b.j.end; ++j) {
            if (runs) {
                std::copy_n(in + from.offset(i, j, b.k.begin),
                            static_cast<std::size_t>(b.k.extent()),
                            out + to.offset(i, j, b.k.begin));
                continue;
            }
            for (int k = b.k.begin; k < b.k.end; ++k) {
                out[to.offset(i, j, k)] = in[from.offset(i, j, k)];
            }
        }
    }
}

void Reshape3D::execute(comm::Communicator& comm, const Layout3D& src, std::span<const cplx> in,
                        const Layout3D& dst, std::vector<cplx>& out, bool use_alltoall) const {
    prepare(src, in, dst, out);
    exchange(use_alltoall).execute(comm, route(use_alltoall), sends_, recvs_, src, in, dst, out,
                                   copy_box);
}

// --------------------------------------------------------- DistributedFFT3D

namespace {

std::vector<Box3D> brick_boxes_3d(std::array<int, 3> g, std::array<int, 2> dims) {
    std::vector<Box3D> boxes;
    for (int ci = 0; ci < dims[0]; ++ci) {
        for (int cj = 0; cj < dims[1]; ++cj) {
            boxes.push_back({grid::block_partition(g[0], dims[0], ci),
                             grid::block_partition(g[1], dims[1], cj),
                             {0, g[2]}});
        }
    }
    return boxes;
}

/// j-pencils: full j, (i, k) partitioned by the rank grid.
std::vector<Box3D> j_pencil_boxes(std::array<int, 3> g, std::array<int, 2> dims) {
    std::vector<Box3D> boxes;
    for (int ci = 0; ci < dims[0]; ++ci) {
        for (int cj = 0; cj < dims[1]; ++cj) {
            boxes.push_back({grid::block_partition(g[0], dims[0], ci),
                             {0, g[1]},
                             grid::block_partition(g[2], dims[1], cj)});
        }
    }
    return boxes;
}

/// i-pencils: full i, (j, k) partitioned by the rank grid.
std::vector<Box3D> i_pencil_boxes(std::array<int, 3> g, std::array<int, 2> dims) {
    std::vector<Box3D> boxes;
    for (int ci = 0; ci < dims[0]; ++ci) {
        for (int cj = 0; cj < dims[1]; ++cj) {
            boxes.push_back({{0, g[0]},
                             grid::block_partition(g[1], dims[0], ci),
                             grid::block_partition(g[2], dims[1], cj)});
        }
    }
    return boxes;
}

/// k-slabs: full (i, j) planes, k partitioned over all P ranks.
std::vector<Box3D> k_slab_boxes(std::array<int, 3> g, int p) {
    std::vector<Box3D> boxes;
    for (int r = 0; r < p; ++r) {
        boxes.push_back({{0, g[0]}, {0, g[1]}, grid::block_partition(g[2], p, r)});
    }
    return boxes;
}

double fft_flops_est(int n) {
    double dn = static_cast<double>(n);
    return is_pow2(static_cast<std::size_t>(n)) ? 5.0 * dn * std::log2(dn > 1 ? dn : 2.0)
                                                : 15.0 * dn * std::log2(dn > 1 ? dn : 2.0);
}

} // namespace

DistributedFFT3D::StagePlan DistributedFFT3D::make_plan(std::array<int, 3> global,
                                                        std::array<int, 2> topo_dims,
                                                        FFTConfig config) {
    StagePlan plan;
    plan.bricks = brick_boxes_3d(global, topo_dims);
    if (config.use_pencils) {
        plan.stage_b = j_pencil_boxes(global, topo_dims);
        plan.stage_c = i_pencil_boxes(global, topo_dims);
    } else {
        plan.stage_b = k_slab_boxes(global, topo_dims[0] * topo_dims[1]);
    }
    return plan;
}

DistributedFFT3D::DistributedFFT3D(comm::Communicator& comm, std::array<int, 3> global,
                                   std::array<int, 2> topo_dims, FFTConfig config)
    : comm_(&comm), global_(global), config_(config),
      plans_{&plan_for(static_cast<std::size_t>(global[0])),
             &plan_for(static_cast<std::size_t>(global[1])),
             &plan_for(static_cast<std::size_t>(global[2]))} {
    BEATNIK_REQUIRE(comm.size() == topo_dims[0] * topo_dims[1],
                    "communicator size must match the topology");
    auto plan = make_plan(global, topo_dims, config);
    const auto r = static_cast<std::size_t>(comm.rank());
    brick_ = Layout3D{plan.bricks[r], 2}; // k-fastest mesh-native order
    if (config.use_pencils) {
        stage_b_ = Layout3D{plan.stage_b[r], config.use_reorder ? 1 : 2};
        stage_c_ = Layout3D{plan.stage_c[r], config.use_reorder ? 0 : 2};
        forward_path_.emplace_back(comm.rank(), plan.bricks, plan.stage_b);
        forward_path_.emplace_back(comm.rank(), plan.stage_b, plan.stage_c);
        forward_path_.emplace_back(comm.rank(), plan.stage_c, plan.bricks);
        inverse_path_.emplace_back(comm.rank(), plan.bricks, plan.stage_c);
        inverse_path_.emplace_back(comm.rank(), plan.stage_c, plan.stage_b);
        inverse_path_.emplace_back(comm.rank(), plan.stage_b, plan.bricks);
    } else {
        stage_b_ = Layout3D{plan.stage_b[r], config.use_reorder ? 1 : 2};
        forward_path_.emplace_back(comm.rank(), plan.bricks, plan.stage_b);
        forward_path_.emplace_back(comm.rank(), plan.stage_b, plan.bricks);
        inverse_path_ = forward_path_; // symmetric two-hop path
    }
    std::vector<detail::BoxReshape<Box3D>*> family;
    for (auto* path : {&forward_path_, &inverse_path_}) {
        for (auto& r : *path) family.push_back(&r);
    }
    Reshape3D::share_dense_exchange(family);
    // Every (layout, axis) pair transform() runs; the slab path leaves
    // stage_c_ empty.
    for (const auto& [layout, axis] : {std::pair{&brick_, 2}, std::pair{&stage_b_, 1},
                                       std::pair{&stage_b_, 0}, std::pair{&stage_c_, 0}}) {
        if (layout->size() == 0) continue;
        const std::size_t need =
            plans_[static_cast<std::size_t>(axis)]->scratch_size(layout->stride(axis));
        line_scratch_.resize(std::max(line_scratch_.size(), need));
    }
}

void DistributedFFT3D::transform_axis(std::vector<cplx>& data, const Layout3D& layout, int axis,
                                      bool inverse) {
    const Box3D& b = layout.box;
    const std::array<grid::Range, 3> ranges{b.i, b.j, b.k};
    const grid::Range line = ranges[static_cast<std::size_t>(axis)];
    BEATNIK_REQUIRE(line.begin == 0 &&
                        line.end == global_[static_cast<std::size_t>(axis)],
                    "stage must own complete lines along its transform axis");
    // The lines are indexed by the two cross axes; local offsets start at 0
    // and are affine in each. Take the cross axis with the smaller stride
    // as the batch axis; when the other one continues it at the same
    // stride (inner extent * inner stride), every line is one batch.
    int inner = axis == 0 ? 1 : 0;
    int outer = 3 - axis - inner;
    if (layout.stride(outer) < layout.stride(inner)) std::swap(inner, outer);
    auto extent = [&](int a) {
        return static_cast<std::size_t>(ranges[static_cast<std::size_t>(a)].extent());
    };
    std::size_t count = extent(inner);
    std::size_t planes = extent(outer);
    const std::size_t line_stride = layout.stride(inner);
    const std::size_t plane_stride = layout.stride(outer);
    if (plane_stride == count * line_stride) {
        count *= planes;
        planes = 1;
    }
    const SerialFFT1D& plan = *plans_[static_cast<std::size_t>(axis)];
    const std::size_t elem_stride = layout.stride(axis);
    for (std::size_t p = 0; p < planes; ++p) {
        cplx* first = data.data() + p * plane_stride;
        if (inverse) {
            plan.inverse_lines(first, count, line_stride, elem_stride, line_scratch_);
        } else {
            plan.forward_lines(first, count, line_stride, elem_stride, line_scratch_);
        }
    }
}

void DistributedFFT3D::transform(std::vector<cplx>& data, bool inverse) {
    BEATNIK_REQUIRE(data.size() == brick_.size(), "fft3d: data/brick size mismatch");
    const bool a2a = config_.use_alltoall;
    if (config_.use_pencils) {
        if (!inverse) {
            transform_axis(data, brick_, 2, false);
            forward_path_[0].execute(*comm_, brick_, data, stage_b_, work_b_, a2a);
            transform_axis(work_b_, stage_b_, 1, false);
            forward_path_[1].execute(*comm_, stage_b_, work_b_, stage_c_, work_c_, a2a);
            transform_axis(work_c_, stage_c_, 0, false);
            forward_path_[2].execute(*comm_, stage_c_, work_c_, brick_, data, a2a);
        } else {
            inverse_path_[0].execute(*comm_, brick_, data, stage_c_, work_c_, a2a);
            transform_axis(work_c_, stage_c_, 0, true);
            inverse_path_[1].execute(*comm_, stage_c_, work_c_, stage_b_, work_b_, a2a);
            transform_axis(work_b_, stage_b_, 1, true);
            inverse_path_[2].execute(*comm_, stage_b_, work_b_, brick_, data, a2a);
            transform_axis(data, brick_, 2, true);
        }
        return;
    }
    // Slab path: k in the brick, then (i, j) planes in the slab.
    if (!inverse) {
        transform_axis(data, brick_, 2, false);
        forward_path_[0].execute(*comm_, brick_, data, stage_b_, work_b_, a2a);
        transform_axis(work_b_, stage_b_, 1, false);
        transform_axis(work_b_, stage_b_, 0, false);
        forward_path_[1].execute(*comm_, stage_b_, work_b_, brick_, data, a2a);
    } else {
        inverse_path_[0].execute(*comm_, brick_, data, stage_b_, work_b_, a2a);
        transform_axis(work_b_, stage_b_, 0, true);
        transform_axis(work_b_, stage_b_, 1, true);
        inverse_path_[1].execute(*comm_, stage_b_, work_b_, brick_, data, a2a);
        transform_axis(data, brick_, 2, true);
    }
}

std::vector<PlannedPhase> DistributedFFT3D::plan_schedule(std::array<int, 3> global,
                                                          std::array<int, 2> topo_dims,
                                                          FFTConfig config) {
    const int p = topo_dims[0] * topo_dims[1];
    auto plan = make_plan(global, topo_dims, config);

    auto phase_of = [&](const std::string& label, const std::vector<Box3D>& src,
                        const std::vector<Box3D>& dst, double flops_per_elem_after,
                        const std::vector<Box3D>& compute_boxes) {
        PlannedPhase phase;
        phase.label = label;
        phase.is_alltoall = config.use_alltoall;
        for (int r = 0; r < p; ++r) {
            for (const auto& t : detail::overlaps(src[static_cast<std::size_t>(r)], dst)) {
                if (t.peer == r) continue;
                phase.messages.push_back({r, t.peer, t.box.size() * sizeof(cplx)});
            }
        }
        phase.flops_per_rank.assign(static_cast<std::size_t>(p), 0.0);
        if (flops_per_elem_after > 0.0) {
            for (int r = 0; r < p; ++r) {
                phase.flops_per_rank[static_cast<std::size_t>(r)] =
                    flops_per_elem_after *
                    static_cast<double>(compute_boxes[static_cast<std::size_t>(r)].size());
            }
        }
        return phase;
    };

    std::vector<PlannedPhase> phases;
    // Leading brick-local axis-2 transform appears as a compute-only phase.
    PlannedPhase head;
    head.label = "brick k-transform";
    head.flops_per_rank.assign(static_cast<std::size_t>(p), 0.0);
    for (int r = 0; r < p; ++r) {
        const auto& b = plan.bricks[static_cast<std::size_t>(r)];
        head.flops_per_rank[static_cast<std::size_t>(r)] =
            fft_flops_est(global[2]) / global[2] * static_cast<double>(b.size());
    }
    phases.push_back(std::move(head));
    if (config.use_pencils) {
        phases.push_back(phase_of("brick->jpencil", plan.bricks, plan.stage_b,
                                  fft_flops_est(global[1]) / global[1], plan.stage_b));
        phases.push_back(phase_of("jpencil->ipencil", plan.stage_b, plan.stage_c,
                                  fft_flops_est(global[0]) / global[0], plan.stage_c));
        phases.push_back(phase_of("ipencil->brick", plan.stage_c, plan.bricks, 0.0, {}));
    } else {
        double planar = fft_flops_est(global[0]) / global[0] +
                        fft_flops_est(global[1]) / global[1];
        phases.push_back(
            phase_of("brick->kslab", plan.bricks, plan.stage_b, planar, plan.stage_b));
        phases.push_back(phase_of("kslab->brick", plan.stage_b, plan.bricks, 0.0, {}));
    }
    return phases;
}

} // namespace beatnik::fft
