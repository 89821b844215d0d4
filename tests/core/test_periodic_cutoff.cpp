// Periodic-image handling in the cutoff solver (the paper's §6 "periodic
// boundary conditions for scalable high-order solves" future-work item,
// implemented in this reproduction).
#include <gtest/gtest.h>

#include <cmath>

#include "core/beatnik.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace bg = beatnik::grid;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 120.0;
    bc::Context::run(nranks, fn, cfg);
}

b::Params periodic_params(int n, double cutoff) {
    b::Params p;
    p.num_nodes = {n, n};
    p.boundary = b::Boundary::periodic;
    p.order = b::Order::high;
    p.br_solver = b::BRSolverKind::cutoff;
    p.cutoff_distance = cutoff;
    p.surface_low = {-1.0, -1.0};
    p.surface_high = {1.0, 1.0};
    p.box_low = {-1.0, -1.0, -2.0};
    p.box_high = {1.0, 1.0, 2.0};
    p.initial.kind = b::InitialCondition::Kind::multimode;
    return p;
}

/// Velocity field of the periodic cutoff solver for a vorticity pattern
/// shifted cyclically by `shift` mesh nodes along i. If periodic images
/// are handled correctly, the velocity field shifts with the pattern.
std::vector<double> shifted_velocity(bc::Communicator& comm, int n, double cutoff, int shift) {
    auto params = periodic_params(n, cutoff);
    b::SurfaceMesh mesh(comm, params);
    b::ProblemManager pm(comm, mesh, params);
    const auto& local = mesh.local();

    // Flat sheet + localized vorticity bump at a shifted location.
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            int gi = (local.global_offset(0) + i - shift + 8 * n) % n;
            int gj = local.global_offset(1) + j;
            double u = 2.0 * std::numbers::pi * gi / n;
            double v = 2.0 * std::numbers::pi * gj / n;
            pm.position()(i, j, 0) = mesh.coordinate(0, i);
            pm.position()(i, j, 1) = mesh.coordinate(1, j);
            pm.position()(i, j, 2) = 0.0;
            pm.vorticity()(i, j, 0) = std::sin(u) + 0.3 * std::cos(2.0 * u + v);
            pm.vorticity()(i, j, 1) = std::cos(u) * std::sin(v);
        }
    }
    pm.gather_halos();

    const double dx = mesh.global().spacing(0), dy = mesh.global().spacing(1);
    bg::NodeField<double, 3> gamma(local);
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            auto g = b::operators::gamma_vector(pm.position(), pm.vorticity(), i, j, dx, dy);
            gamma(i, j, 0) = g.x;
            gamma(i, j, 1) = g.y;
            gamma(i, j, 2) = g.z;
        }
    }
    b::CutoffBRSolver solver(mesh, params);
    bg::NodeField<double, 3> vel(local);
    solver.compute_velocity(pm, gamma, vel);

    // Assemble the global field (unshifted frame) for comparison.
    const auto total = static_cast<std::size_t>(n) * static_cast<std::size_t>(n) * 3;
    std::vector<double> global(total, 0.0);
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            int gi = (local.global_offset(0) + i - shift + 8 * n) % n;
            int gj = local.global_offset(1) + j;
            for (int c = 0; c < 3; ++c) {
                global[(static_cast<std::size_t>(gi) * n + static_cast<std::size_t>(gj)) * 3 +
                       static_cast<std::size_t>(c)] = vel(i, j, c);
            }
        }
    }
    comm.allreduce(std::span<double>(global), bc::op::Sum{});
    return global;
}

TEST(PeriodicCutoff, VelocityIsTranslationInvariant) {
    // Shift the vorticity pattern halfway around the periodic tile; with
    // correct image handling the velocity field shifts with it. Without
    // images, points near the wrap boundary lose their nearby sources and
    // the fields disagree there.
    run(4, [](bc::Communicator& comm) {
        constexpr int n = 16;
        auto base = shifted_velocity(comm, n, /*cutoff=*/0.45, /*shift=*/0);
        auto moved = shifted_velocity(comm, n, /*cutoff=*/0.45, /*shift=*/n / 2);
        double max_err = 0.0, max_val = 0.0;
        for (std::size_t k = 0; k < base.size(); ++k) {
            max_err = std::max(max_err, std::abs(base[k] - moved[k]));
            max_val = std::max(max_val, std::abs(base[k]));
        }
        ASSERT_GT(max_val, 0.0);
        EXPECT_LT(max_err, 1e-10 * max_val)
            << "periodic image handling must make the solve translation-invariant";
    });
}

TEST(PeriodicCutoff, SelfImagesAppearOnSingleRank) {
    // With one rank and a cutoff reaching across the boundary, ghosts are
    // purely periodic self-images and must be nonzero.
    run(1, [](bc::Communicator& comm) {
        auto params = periodic_params(16, 0.45);
        b::Solver solver(comm, params);
        solver.step();
        const auto* cutoff = solver.cutoff_solver();
        ASSERT_NE(cutoff, nullptr);
        EXPECT_GT(cutoff->last_spatial_ghosts(), 0u)
            << "periodic tile must generate image ghosts even on one rank";
        EXPECT_EQ(cutoff->last_spatial_owned(), 16u * 16u);
    });
}

TEST(PeriodicCutoff, RankCountInvariance) {
    auto field_for = [](int nranks) {
        std::vector<double> out;
        run(nranks, [&](bc::Communicator& comm) {
            auto v = shifted_velocity(comm, 16, 0.3, 0);
            if (comm.rank() == 0) out = v;
        });
        return out;
    };
    auto f1 = field_for(1);
    auto f4 = field_for(4);
    ASSERT_EQ(f1.size(), f4.size());
    for (std::size_t k = 0; k < f1.size(); ++k) {
        EXPECT_NEAR(f1[k], f4[k], 1e-10 * std::max(1.0, std::abs(f1[k])));
    }
}

TEST(PeriodicCutoff, GrowsInstabilityStably) {
    run(4, [](bc::Communicator& comm) {
        auto params = periodic_params(24, 0.5);
        params.initial.magnitude = 0.05;
        b::Solver solver(comm, params);
        solver.advance(5);
        auto s = b::summarize(solver.state());
        EXPECT_TRUE(std::isfinite(s.max_height));
        EXPECT_GT(s.vorticity_l2, 0.0);
    });
}

TEST(PeriodicCutoff, RejectsMismatchedBoxAndTile) {
    run(1, [](bc::Communicator& comm) {
        auto params = periodic_params(16, 0.3);
        params.box_high = {2.0, 2.0, 2.0}; // box != tile
        EXPECT_THROW(b::Solver solver(comm, params), beatnik::Error);
    });
}

TEST(PeriodicCutoff, ValidateRejectsMismatchedBoxAndTile) {
    // Caught at Params::validate, before any mesh is built, and only where
    // a cutoff solver will run: low order (no BR solver), the exact solver
    // and free boundaries leave the box alone.
    auto params = periodic_params(16, 0.3);
    params.box_low = {-3.0, -3.0, -3.0};
    params.box_high = {3.0, 3.0, 3.0};
    for (auto order : {b::Order::medium, b::Order::high}) {
        params.order = order;
        try {
            params.validate();
            ADD_FAILURE() << "mismatched box must not validate";
        } catch (const beatnik::Error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "periodic cutoff solves require the spatial box to equal the surface tile"),
                      std::string::npos)
                << e.what();
        }
    }
    params.order = b::Order::low;
    EXPECT_NO_THROW(params.validate());
    params.order = b::Order::high;
    params.br_solver = b::BRSolverKind::exact;
    EXPECT_NO_THROW(params.validate());
    params.br_solver = b::BRSolverKind::cutoff;
    params.boundary = b::Boundary::free;
    EXPECT_NO_THROW(params.validate());
}

} // namespace
