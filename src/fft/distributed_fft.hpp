/// \file distributed_fft.hpp
/// \brief Distributed 2D complex FFT over a brick-decomposed array — the
/// heFFTe stand-in, including its three tuning knobs (paper Table 1):
///
///   * AllToAll — each reshape messages every other rank, zero-byte
///     blocks included, over one plan exchange shared by all six reshapes
///     (true), or only its overlapping peers over its own exchange (false);
///   * Pencils  — intermediate stages are generic 1D pencil partitions
///     over all P ranks (true) or brick-aligned band partitions whose
///     first/last reshapes stay inside row/column subgroups (false);
///   * Reorder  — intermediate buffers are laid out with the transform
///     axis unit-stride (true) or kept mesh-ordered, making the second
///     transform stage strided (false).
///
/// All eight knob combinations compute identical transforms (tested) but
/// generate different message schedules and memory behavior — which is
/// exactly the property Fig. 9 of the paper measures.
///
/// Data contract: forward()/inverse() operate in place on the rank's
/// brick in mesh-native layout (j fastest), matching the surface mesh's
/// owned block. Transforms are unnormalized forward, 1/(N0*N1) inverse.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/partition.hpp"
#include "fft/reshape.hpp"

namespace beatnik::fft {

/// heFFTe-style algorithm configuration (paper Table 1).
struct FFTConfig {
    bool use_alltoall = true;
    bool use_pencils = true;
    bool use_reorder = true;

    /// Table-1 numbering: configs 0..7 in the paper's order
    /// (AllToAll, Pencils, Reorder) with False < True.
    [[nodiscard]] int table1_index() const {
        return (use_alltoall ? 4 : 0) + (use_pencils ? 2 : 0) + (use_reorder ? 1 : 0);
    }
    [[nodiscard]] static FFTConfig from_table1_index(int idx) {
        return {(idx & 4) != 0, (idx & 2) != 0, (idx & 1) != 0};
    }
};

/// One point-to-point transfer in a planned schedule (world ranks).
struct PlannedMsg {
    int src = 0;
    int dst = 0;
    std::size_t bytes = 0;
};

/// A communication phase of the transform plus the per-rank compute that
/// follows it. Consumed by the netsim performance model.
struct PlannedPhase {
    std::string label;
    bool is_alltoall = false;          ///< collective (true) vs p2p list
    std::vector<PlannedMsg> messages;  ///< every rank's transfers
    std::vector<double> flops_per_rank; ///< local FFT work after this phase
};

class DistributedFFT2D {
public:
    /// Plan a transform of the \p global array distributed as bricks over
    /// a topo_dims[0] x topo_dims[1] rank grid (row-major rank order,
    /// matching CartTopology2D).
    DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global,
                     std::array<int, 2> topo_dims, FFTConfig config);

    [[nodiscard]] const Box2D& local_box() const { return brick_layout_.box; }
    [[nodiscard]] const FFTConfig& config() const { return config_; }
    [[nodiscard]] std::array<int, 2> global_dims() const { return global_; }

    /// In-place forward transform of this rank's brick (j-fastest order).
    void forward(std::vector<cplx>& data);
    /// In-place inverse transform (scaled so inverse(forward(x)) == x).
    void inverse(std::vector<cplx>& data);

    /// Route the reshape staging through the device: the persistent stage
    /// buffers are pre-sized to their high-water mark and pinned, and the
    /// reshapes (either schedule) pack/unpack with device kernels straight
    /// into the pinned plan transport buffers (ReshapePlan::enable_device).
    /// The caller's transform arrays must be pinned too. The butterflies
    /// stay host compute over the pinned lines — the cuFFT seam on real
    /// hardware.
    void enable_device(par::device::Queue& q);

    /// Signed integer mode for index m of an N-point axis
    /// (0, 1, ..., N/2, -(N/2-1), ..., -1).
    [[nodiscard]] static int signed_mode(int m, int n) { return m <= n / 2 ? m : m - n; }

    /// Build the full communication/computation schedule of one forward
    /// transform for any rank count, without a communicator or data.
    /// This is how the scaling benchmarks obtain P=1024 schedules.
    [[nodiscard]] static std::vector<PlannedPhase> plan_schedule(std::array<int, 2> global,
                                                                 std::array<int, 2> topo_dims,
                                                                 FFTConfig config);

private:
    struct Stage {
        Layout2D layout;   ///< data layout while transforming
        int axis = 0;      ///< axis transformed in this stage
    };

    /// Box lists / layouts for both intermediate stages, shared by the
    /// executing constructor and the static planner.
    struct StagePlan {
        std::vector<Box2D> bricks;
        std::vector<Box2D> stage1; ///< full j lines
        std::vector<Box2D> stage2; ///< full i lines
        int stage2_fast_axis = 0;
    };
    static StagePlan make_stage_plan(std::array<int, 2> global, std::array<int, 2> topo_dims,
                                     FFTConfig config);

    /// Delegation target that builds the stage plan exactly once.
    DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global, FFTConfig config,
                     const StagePlan& plan);

    /// Transform every line of \p stage along its axis: one batched call.
    void transform_stage(std::vector<cplx>& data, const Stage& stage, bool inverse);

    comm::Communicator* comm_;
    std::array<int, 2> global_;
    FFTConfig config_;
    Layout2D brick_layout_;
    Stage stage1_;
    Stage stage2_;
    // Forward-path reshapes. All six run one after another, so they share
    // one dense exchange: AllToAll keeps a single set of channels.
    ReshapePlan to_stage1_;
    ReshapePlan stage1_to_stage2_;
    ReshapePlan stage2_to_brick_;
    // Inverse-path reshapes (the reverse route).
    ReshapePlan to_stage2_;
    ReshapePlan stage2_to_stage1_;
    ReshapePlan stage1_to_brick_;
    // Persistent stage buffers: sized on the first transform, reused by
    // every subsequent one (reshape outputs resize() into them without a
    // zero-fill pass). Under enable_device they are pre-sized and pinned,
    // so later resizes never move the registered range.
    std::vector<cplx> work_;
    std::vector<cplx> work2_;
    std::vector<par::device::ScopedHostRegistration> pinned_;
    /// Line plans per axis, resolved once from the process-wide cache.
    std::array<const SerialFFT1D*, 2> plans_;
    /// Gather buffer for strided lines and Bluestein convolutions, sized
    /// for both stages at construction.
    std::vector<cplx> line_scratch_;
};

} // namespace beatnik::fft
