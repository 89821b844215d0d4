/// \file layout.hpp
/// \brief Boxes (index sub-rectangles) and local memory layouts for the
/// distributed transforms.
#pragma once

#include <array>
#include <cstddef>

#include "base/error.hpp"
#include "grid/index_space.hpp"

namespace beatnik::fft {

/// A rectangular subset of the global 2D index space. Reuses the grid
/// module's index-space type — a box *is* an index rectangle.
using Box2D = grid::IndexSpace2D;

/// Memory layout of a box: row-major with a selectable fast (unit-stride)
/// axis. fast_axis == 1 is the mesh-native layout (j fastest); the
/// `reorder` knob flips intermediate stages to make the transform axis
/// contiguous, exactly heFFTe's reorder option.
struct Layout2D {
    Box2D box;
    int fast_axis = 1;

    [[nodiscard]] std::size_t size() const { return box.size(); }

    /// Linear offset of global index (gi, gj) inside this layout.
    [[nodiscard]] std::size_t offset(int gi, int gj) const {
        BEATNIK_ASSERT(box.contains(gi, gj));
        auto li = static_cast<std::size_t>(gi - box.i.begin);
        auto lj = static_cast<std::size_t>(gj - box.j.begin);
        if (fast_axis == 1) {
            return li * static_cast<std::size_t>(box.j.extent()) + lj;
        }
        return lj * static_cast<std::size_t>(box.i.extent()) + li;
    }

    /// Element stride between consecutive indices along \p axis.
    [[nodiscard]] std::size_t stride(int axis) const {
        if (axis == fast_axis) return 1;
        return static_cast<std::size_t>(fast_axis == 1 ? box.j.extent() : box.i.extent());
    }
};

} // namespace beatnik::fft
