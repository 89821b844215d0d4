/// \file params.hpp
/// \brief All user-facing solver parameters (the rocket-rig input deck).
#pragma once

#include <array>
#include <cstdint>

#include "base/error.hpp"
#include "core/types.hpp"
#include "fft/distributed_fft.hpp"

namespace beatnik {

/// Initial interface shape.
struct InitialCondition {
    enum class Kind {
        multimode,  ///< seeded random superposition of low modes (Fig. 1 case)
        singlemode, ///< one centered mode (Fig. 2 rollup case)
    };
    Kind kind = Kind::multimode;
    double magnitude = 0.05;   ///< perturbation amplitude
    int num_modes = 4;         ///< per axis, multimode only
    std::uint64_t seed = 42;   ///< mode phases/amplitudes (decomposition-independent)
};

/// Full problem specification for the Solver; defaults follow the paper's
/// rocket-rig setups (§5.1) scaled down to laptop size.
struct Params {
    // --- mesh & decomposition
    std::array<int, 2> num_nodes{128, 128};    ///< surface mesh nodes per axis
    std::array<int, 2> topo_dims{0, 0};        ///< rank grid ({0,0} = auto)
    Boundary boundary = Boundary::periodic;

    /// Initial surface extent (the FFT wavenumber box). The paper's
    /// low-order runs use (-19,19)^2; high-order runs use (-3,3)^2.
    std::array<double, 2> surface_low{-1.0, -1.0};
    std::array<double, 2> surface_high{1.0, 1.0};

    /// 3D spatial-mesh bounds for the cutoff solver (paper: (-3,3)^3).
    std::array<double, 3> box_low{-3.0, -3.0, -3.0};
    std::array<double, 3> box_high{3.0, 3.0, 3.0};

    // --- physics
    double atwood = 0.5;     ///< Atwood number A
    double gravity = 25.0;   ///< acceleration magnitude g (rocket rig drives hard)
    /// Artificial-viscosity coefficient; the effective viscosity is
    /// mu * sqrt(dx*dy) as in Beatnik's rocket-rig defaults.
    double mu = 1.0;
    /// Krasny desingularization coefficient; effective eps = epsilon *
    /// sqrt(dx*dy).
    double epsilon = 0.25;

    // --- solver selection
    Order order = Order::low;
    BRSolverKind br_solver = BRSolverKind::cutoff;
    double cutoff_distance = 0.5;  ///< cutoff solver interaction radius
    fft::FFTConfig fft;            ///< heFFTe-style knobs for low/medium order

    // --- time stepping
    double dt = 0.0;          ///< 0 = choose automatically (see Solver)
    double cfl = 0.5;         ///< safety factor for the automatic dt

    InitialCondition initial;

    void validate() const {
        BEATNIK_REQUIRE(num_nodes[0] >= 8 && num_nodes[1] >= 8,
                        "surface mesh must be at least 8x8");
        BEATNIK_REQUIRE(surface_high[0] > surface_low[0] && surface_high[1] > surface_low[1],
                        "surface bounds must be increasing");
        BEATNIK_REQUIRE(atwood > 0.0 && atwood <= 1.0, "Atwood number must be in (0, 1]");
        BEATNIK_REQUIRE(gravity > 0.0, "gravity must be positive");
        BEATNIK_REQUIRE(epsilon > 0.0, "desingularization epsilon must be positive");
        BEATNIK_REQUIRE(mu >= 0.0, "artificial viscosity must be non-negative");
        BEATNIK_REQUIRE(cutoff_distance > 0.0, "cutoff distance must be positive");
        BEATNIK_REQUIRE(order == Order::high || boundary == Boundary::periodic,
                        "low/medium order require periodic boundaries (FFT solver)");
        // The cutoff solver's periodic images are offset by the tile, so
        // its spatial box must be exactly the surface tile in x and y.
        const bool periodic_cutoff = order != Order::low && br_solver == BRSolverKind::cutoff &&
                                     boundary == Boundary::periodic;
        BEATNIK_REQUIRE(!periodic_cutoff ||
                            (box_low[0] == surface_low[0] && box_high[0] == surface_high[0] &&
                             box_low[1] == surface_low[1] && box_high[1] == surface_high[1]),
                        "periodic cutoff solves require the spatial box to equal the "
                        "surface tile");
    }
};

} // namespace beatnik
