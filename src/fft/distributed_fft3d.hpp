/// \file distributed_fft3d.hpp
/// \brief Distributed 3D complex FFT — the dimension heFFTe was built
/// for, where the Pencils knob selects genuinely different intermediate
/// decompositions:
///
///   * pencils=true : brick -> k-lines -> j-pencils -> i-pencils -> brick,
///     three 1D transform stages over pencil partitions;
///   * pencils=false: brick -> k-slabs (full i,j planes; local 2D FFT)
///     -> i-slabs (full j,k; local 1D FFT along k... transform the
///     remaining axis) -> brick — fewer, larger reshapes.
///
/// Not used by the Beatnik solver itself (the surface mesh is 2D) but
/// part of the heFFTe-substitute scope: the cutoff solver's SpatialMesh
/// and future P3M-style far-field solvers (paper §6) are 3D consumers.
///
/// Data contract: in-place on the rank's brick in k-fastest row-major
/// order; unnormalized forward, 1/(N0*N1*N2) inverse.
#pragma once

#include <array>
#include <vector>

#include "fft/distributed_fft.hpp" // FFTConfig, detail::BoxReshape

namespace beatnik::fft {

/// A rectangular subset of the global 3D index space.
struct Box3D {
    grid::Range i, j, k;

    [[nodiscard]] std::size_t size() const {
        if (i.empty() || j.empty() || k.empty()) return 0;
        return static_cast<std::size_t>(i.extent()) * static_cast<std::size_t>(j.extent()) *
               static_cast<std::size_t>(k.extent());
    }
    [[nodiscard]] Box3D intersect(const Box3D& o) const {
        return {i.intersect(o.i), j.intersect(o.j), k.intersect(o.k)};
    }
    [[nodiscard]] bool empty() const { return size() == 0; }
};

/// Row-major layout with a selectable unit-stride axis; the other two
/// axes keep their natural (i, j, k) order.
struct Layout3D {
    Box3D box;
    int fast_axis = 2;

    [[nodiscard]] std::size_t size() const { return box.size(); }

    [[nodiscard]] std::size_t offset(int gi, int gj, int gk) const {
        auto li = static_cast<std::size_t>(gi - box.i.begin);
        auto lj = static_cast<std::size_t>(gj - box.j.begin);
        auto lk = static_cast<std::size_t>(gk - box.k.begin);
        auto ni = static_cast<std::size_t>(box.i.extent());
        auto nj = static_cast<std::size_t>(box.j.extent());
        auto nk = static_cast<std::size_t>(box.k.extent());
        switch (fast_axis) {
        case 0: return (lj * nk + lk) * ni + li;
        case 1: return (li * nk + lk) * nj + lj;
        default: return (li * nj + lj) * nk + lk;
        }
    }

    [[nodiscard]] std::size_t stride(int axis) const {
        if (axis == fast_axis) return 1;
        auto ni = static_cast<std::size_t>(box.i.extent());
        auto nj = static_cast<std::size_t>(box.j.extent());
        auto nk = static_cast<std::size_t>(box.k.extent());
        // Stride of `axis` given the fast axis is innermost and the other
        // two retain (i, j, k) ordering.
        switch (fast_axis) {
        case 0:
            return axis == 2 ? ni : nk * ni; // order: j, k, i(fast)
        case 1:
            return axis == 2 ? nj : nk * nj; // order: i, k, j(fast)
        default:
            return axis == 1 ? nk : nj * nk; // order: i, j, k(fast)
        }
    }
};

/// Planned repartition between 3D box lists (the 3D analogue of
/// ReshapePlan; heFFTe's box-intersection approach) on the same two
/// persistent exchange schedules (fft/plan_cache.hpp). Copies of a
/// Reshape3D share their exchanges (forward/inverse paths over identical
/// box lists reuse the same channels).
class Reshape3D : public detail::BoxReshape<Box3D> {
public:
    using BoxReshape::BoxReshape;

    void execute(comm::Communicator& comm, const Layout3D& src, std::span<const cplx> in,
                 const Layout3D& dst, std::vector<cplx>& out, bool use_alltoall) const;

private:
    /// Copy \p b from layout \p from at \p in to layout \p to at \p out:
    /// pack (into the wire order, `Layout3D{b}`), unpack (out of it) and
    /// the self rectangle are all this one copy.
    static void copy_box(const Layout3D& from, const cplx* in, const Layout3D& to, cplx* out,
                         const Box3D& b);
};

class DistributedFFT3D {
public:
    /// Bricks are a 2D decomposition over axes (i, j) with the full k
    /// extent per rank — the SpatialMesh-style decomposition (paper §3.2).
    DistributedFFT3D(comm::Communicator& comm, std::array<int, 3> global,
                     std::array<int, 2> topo_dims, FFTConfig config);

    [[nodiscard]] const Box3D& local_box() const { return brick_.box; }

    void forward(std::vector<cplx>& data) { transform(data, false); }
    void inverse(std::vector<cplx>& data) { transform(data, true); }

    /// Message schedule of one forward transform for the netsim model.
    [[nodiscard]] static std::vector<PlannedPhase> plan_schedule(std::array<int, 3> global,
                                                                 std::array<int, 2> topo_dims,
                                                                 FFTConfig config);

private:
    struct StagePlan {
        std::vector<Box3D> bricks;
        std::vector<Box3D> stage_a; ///< pencils: k-lines; slabs: k-slabs
        std::vector<Box3D> stage_b; ///< pencils: j-pencils; slabs: i-slabs
        std::vector<Box3D> stage_c; ///< pencils: i-pencils; slabs: unused (empty)
    };
    static StagePlan make_plan(std::array<int, 3> global, std::array<int, 2> topo_dims,
                               FFTConfig config);

    void transform(std::vector<cplx>& data, bool inverse);
    /// Transform every line of \p layout along \p axis: one batched call,
    /// or one per plane when the lines do not form a single progression.
    void transform_axis(std::vector<cplx>& data, const Layout3D& layout, int axis,
                        bool inverse);

    comm::Communicator* comm_;
    std::array<int, 3> global_;
    FFTConfig config_;
    Layout3D brick_;
    Layout3D stage_a_;
    Layout3D stage_b_;
    Layout3D stage_c_; ///< pencil path only
    std::vector<Reshape3D> forward_path_;   ///< shares one dense exchange
    std::vector<Reshape3D> inverse_path_;   ///< with the forward path
    // Persistent stage buffers, reused across transforms.
    std::vector<cplx> work_b_;
    std::vector<cplx> work_c_;
    /// Line plans per axis, resolved once from the process-wide cache.
    std::array<const SerialFFT1D*, 3> plans_;
    /// Gather buffer for strided lines and Bluestein convolutions, sized
    /// for every stage at construction.
    std::vector<cplx> line_scratch_;
};

} // namespace beatnik::fft
