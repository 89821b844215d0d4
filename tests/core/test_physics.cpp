// Physics validation: the implemented Z-Model must reproduce the analytic
// Rayleigh–Taylor dispersion relation sigma = sqrt(A*g*k) in the linear
// regime, conserve the mean interface height, and converge at the
// integrator's order. These are the checks that pin the self-derived
// equations (src/core/zmodel.hpp) to known theory.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/beatnik.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 120.0;
    bc::Context::run(nranks, fn, cfg);
}

/// Overwrite the solver state with a pure cosine mode of amplitude m along
/// x (mode number \p mode across the domain), zero vorticity.
void set_single_mode(b::Solver& solver, int mode, double amplitude) {
    auto& pm = solver.state();
    const auto& mesh = solver.mesh();
    const auto& local = mesh.local();
    constexpr double tau = 2.0 * std::numbers::pi;
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            double x = mesh.coordinate(0, i);
            double xhat = (x - mesh.global().low(0)) / mesh.global().extent(0);
            pm.position()(i, j, 0) = x;
            pm.position()(i, j, 1) = mesh.coordinate(1, j);
            pm.position()(i, j, 2) = amplitude * std::cos(tau * mode * xhat);
            pm.vorticity()(i, j, 0) = 0.0;
            pm.vorticity()(i, j, 1) = 0.0;
        }
    }
    pm.gather_halos();
}

b::Params linear_params(int n, b::Order order) {
    b::Params p;
    p.num_nodes = {n, n};
    p.boundary = b::Boundary::periodic;
    p.surface_low = {-1.0, -1.0};
    p.surface_high = {1.0, 1.0};
    p.order = order;
    p.atwood = 0.5;
    p.gravity = 25.0;
    p.mu = 0.0;       // no artificial viscosity in the linear-theory check
    p.epsilon = 0.25;
    return p;
}

class DispersionP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Modes, DispersionP, ::testing::Values(1, 2, 3),
                         ::testing::PrintToStringParamName());

TEST_P(DispersionP, LowOrderGrowthMatchesSqrtAgk) {
    const int mode = GetParam();
    run(4, [&](bc::Communicator& comm) {
        auto p = linear_params(64, b::Order::low);
        b::Solver solver(comm, p);
        constexpr double amp0 = 1e-6;
        set_single_mode(solver, mode, amp0);

        const double k = 2.0 * std::numbers::pi * mode / solver.mesh().global().extent(0);
        const double sigma = std::sqrt(p.atwood * p.gravity * k);

        // Evolve for about one e-folding time of this mode.
        const double horizon = 1.0 / sigma;
        int steps = std::max(8, static_cast<int>(horizon / solver.dt()) + 1);
        solver.advance(steps);
        double t = solver.time();

        auto s = b::summarize(solver.state());
        // Zero initial velocity splits the mode into growing + decaying
        // branches: a(t) = a0 cosh(sigma t).
        double expected = amp0 * std::cosh(sigma * t);
        EXPECT_NEAR(s.max_height / expected, 1.0, 0.1)
            << "mode " << mode << ": measured growth " << s.max_height / amp0
            << " expected " << expected / amp0;
    });
}

TEST(Dispersion, HigherModesGrowFaster) {
    run(4, [](bc::Communicator& comm) {
        auto grow = [&](int mode) {
            auto p = linear_params(64, b::Order::low);
            b::Solver solver(comm, p);
            set_single_mode(solver, mode, 1e-6);
            solver.advance(30);
            return b::summarize(solver.state()).max_height;
        };
        double g1 = grow(1);
        double g3 = grow(3);
        EXPECT_GT(g3, g1);
    });
}

TEST(Conservation, MeanHeightExactlyConservedByLowOrder) {
    run(4, [](bc::Communicator& comm) {
        auto p = linear_params(32, b::Order::low);
        p.mu = 1.0;
        p.initial.kind = b::InitialCondition::Kind::multimode;
        b::Solver solver(comm, p);
        auto before = b::summarize(solver.state());
        solver.advance(10);
        auto after = b::summarize(solver.state());
        // The k=0 Fourier mode of the velocity is pinned to zero, so the
        // mean interface height cannot move.
        EXPECT_NEAR(after.mean_height, before.mean_height, 1e-12);
    });
}

TEST(Stability, ViscousMultimodeRunStaysFinite) {
    run(4, [](bc::Communicator& comm) {
        auto p = linear_params(32, b::Order::low);
        p.mu = 1.0;
        p.initial.kind = b::InitialCondition::Kind::multimode;
        p.initial.magnitude = 0.05;
        b::Solver solver(comm, p);
        solver.advance(25);
        auto s = b::summarize(solver.state());
        EXPECT_TRUE(std::isfinite(s.max_height));
        EXPECT_TRUE(std::isfinite(s.vorticity_l2));
        EXPECT_LT(s.max_height, 10.0); // no blow-up
        EXPECT_GT(s.vorticity_l2, 0.0); // baroclinic term engaged
    });
}

TEST(Convergence, RK3SelfConvergenceIsThirdOrder) {
    run(1, [](bc::Communicator& comm) {
        auto height_after = [&](double dt, int steps) {
            auto p = linear_params(32, b::Order::low);
            p.dt = dt;
            b::Solver solver(comm, p);
            set_single_mode(solver, 1, 1e-4);
            solver.advance(steps);
            return b::summarize(solver.state()).max_height;
        };
        const double t_end = 0.08;
        double h1 = height_after(t_end / 8, 8);
        double h2 = height_after(t_end / 16, 16);
        double h4 = height_after(t_end / 32, 32);
        double e1 = std::abs(h1 - h2);
        double e2 = std::abs(h2 - h4);
        // Third order: halving dt cuts the difference by ~8. Allow a wide
        // band — spatial discretization is shared by all runs.
        EXPECT_GT(e1 / e2, 5.0);
        EXPECT_LT(e1 / e2, 13.0);
    });
}

TEST(Determinism, SameSeedSameResultAcrossRankCounts) {
    // The same physical problem must produce the same surface regardless
    // of the process grid — the invariant that makes weak/strong scaling
    // studies meaningful.
    auto final_state = [](int nranks) {
        double max_h = 0.0, w_l2 = 0.0;
        run(nranks, [&](bc::Communicator& comm) {
            auto p = linear_params(32, b::Order::low);
            p.mu = 1.0;
            p.initial.kind = b::InitialCondition::Kind::multimode;
            p.dt = 0.001; // fixed dt so trajectories match exactly
            b::Solver solver(comm, p);
            solver.advance(10);
            auto s = b::summarize(solver.state());
            if (comm.rank() == 0) {
                max_h = s.max_height;
                w_l2 = s.vorticity_l2;
            }
        });
        return std::pair{max_h, w_l2};
    };
    auto [h1, w1] = final_state(1);
    auto [h4, w4] = final_state(4);
    auto [h6, w6] = final_state(6);
    EXPECT_NEAR(h1, h4, 1e-9 * std::max(1.0, std::abs(h1)));
    EXPECT_NEAR(w1, w4, 1e-9 * std::max(1.0, std::abs(w1)));
    EXPECT_NEAR(h1, h6, 1e-9 * std::max(1.0, std::abs(h1)));
    EXPECT_NEAR(w1, w6, 1e-9 * std::max(1.0, std::abs(w1)));
}

} // namespace
