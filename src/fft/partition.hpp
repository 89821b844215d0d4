/// \file partition.hpp
/// \brief Box lists describing how each transform stage distributes the
/// global array over ranks.
///
/// The distributed FFT is a sequence of repartitions between these box
/// lists (README "The communication API"). Two families are provided:
///  * generic pencil partitions — 1D block partitions of the full index
///    space over all P ranks (heFFTe's pencil machinery);
///  * nested band partitions — sub-partitions aligned with the brick
///    decomposition, which keep early/late reshape phases inside row or
///    column subgroups (the `use_pencils == false` path).
#pragma once

#include <array>
#include <vector>

#include "fft/layout.hpp"
#include "grid/cart_topology.hpp"

namespace beatnik::fft {

/// Brick (block) boxes matching the surface-mesh decomposition: rank
/// (ci, cj) owns block_partition(i) x block_partition(j).
inline std::vector<Box2D> brick_boxes(std::array<int, 2> global, std::array<int, 2> topo_dims) {
    std::vector<Box2D> boxes;
    boxes.reserve(static_cast<std::size_t>(topo_dims[0] * topo_dims[1]));
    for (int ci = 0; ci < topo_dims[0]; ++ci) {
        for (int cj = 0; cj < topo_dims[1]; ++cj) {
            boxes.push_back({grid::block_partition(global[0], topo_dims[0], ci),
                             grid::block_partition(global[1], topo_dims[1], cj)});
        }
    }
    return boxes;
}

/// Pencil boxes: full extent along \p long_axis, the other axis block-
/// partitioned over all P ranks. Lines along long_axis are complete, so
/// that axis can be transformed locally.
inline std::vector<Box2D> pencil_boxes(std::array<int, 2> global, int nranks, int long_axis) {
    std::vector<Box2D> boxes;
    boxes.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        if (long_axis == 1) {
            boxes.push_back({grid::block_partition(global[0], nranks, r), {0, global[1]}});
        } else {
            boxes.push_back({{0, global[0]}, grid::block_partition(global[1], nranks, r)});
        }
    }
    return boxes;
}

/// Row-band boxes: rank (ci, cj) owns the cj-th sub-band of brick row
/// band I_ci, with the full j extent. Reaching this partition from bricks
/// only requires exchanges *within* each row subgroup.
inline std::vector<Box2D> row_band_boxes(std::array<int, 2> global, std::array<int, 2> topo_dims) {
    std::vector<Box2D> boxes;
    boxes.reserve(static_cast<std::size_t>(topo_dims[0] * topo_dims[1]));
    for (int ci = 0; ci < topo_dims[0]; ++ci) {
        auto band = grid::block_partition(global[0], topo_dims[0], ci);
        for (int cj = 0; cj < topo_dims[1]; ++cj) {
            auto sub = grid::block_partition(band.extent(), topo_dims[1], cj);
            boxes.push_back({{band.begin + sub.begin, band.begin + sub.end}, {0, global[1]}});
        }
    }
    return boxes;
}

/// Column-band boxes: rank (ci, cj) owns the ci-th sub-band of brick
/// column band J_cj, with the full i extent. Returning to bricks from
/// here only requires exchanges *within* each column subgroup.
inline std::vector<Box2D> column_band_boxes(std::array<int, 2> global,
                                            std::array<int, 2> topo_dims) {
    std::vector<Box2D> boxes;
    boxes.reserve(static_cast<std::size_t>(topo_dims[0] * topo_dims[1]));
    for (int ci = 0; ci < topo_dims[0]; ++ci) {
        for (int cj = 0; cj < topo_dims[1]; ++cj) {
            auto band = grid::block_partition(global[1], topo_dims[1], cj);
            auto sub = grid::block_partition(band.extent(), topo_dims[0], ci);
            boxes.push_back({{0, global[0]}, {band.begin + sub.begin, band.begin + sub.end}});
        }
    }
    return boxes;
}

/// Sanity check used by tests: a box list tiles the global index space
/// exactly (disjoint cover).
inline bool tiles_exactly(const std::vector<Box2D>& boxes, std::array<int, 2> global) {
    std::size_t total = 0;
    for (const auto& b : boxes) total += b.size();
    if (total != static_cast<std::size_t>(global[0]) * static_cast<std::size_t>(global[1])) {
        return false;
    }
    for (std::size_t a = 0; a < boxes.size(); ++a) {
        for (std::size_t b = a + 1; b < boxes.size(); ++b) {
            if (!boxes[a].intersect(boxes[b]).empty()) return false;
        }
    }
    return true;
}

} // namespace beatnik::fft
