// Birkhoff–Rott solver tests: exact vs cutoff agreement, cutoff accuracy
// monotonicity, multi-rank consistency, spatial bookkeeping, and a
// bitwise oracle for the cutoff accumulate kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "base/rng.hpp"
#include "core/beatnik.hpp"
#include "search/cell_list.hpp"
#include "test_env.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace bg = beatnik::grid;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 120.0;
    bc::Context::run(nranks, fn, cfg);
}

b::Params br_params(int n, b::BRSolverKind kind, double cutoff) {
    b::Params p;
    p.num_nodes = {n, n};
    p.boundary = b::Boundary::free;
    p.order = b::Order::high;
    p.br_solver = kind;
    p.cutoff_distance = cutoff;
    p.surface_low = {-1.0, -1.0};
    p.surface_high = {1.0, 1.0};
    p.box_low = {-2.0, -2.0, -2.0};
    p.box_high = {2.0, 2.0, 2.0};
    p.initial.kind = b::InitialCondition::Kind::singlemode;
    p.initial.magnitude = 0.2;
    return p;
}

/// Compute the BR velocity field with a given solver on the current state
/// and return the L2 norm plus a checksum vector for comparisons.
struct VelocityProbe {
    double l2 = 0.0;
    double max = 0.0;
    std::vector<double> samples; // a few fixed global nodes
};

VelocityProbe probe_velocity(bc::Communicator& comm, const b::Params& params) {
    b::SurfaceMesh mesh(comm, params);
    b::ProblemManager pm(comm, mesh, params);
    std::unique_ptr<b::BRSolverBase> solver;
    if (params.br_solver == b::BRSolverKind::exact) {
        solver = std::make_unique<b::ExactBRSolver>(mesh, params);
    } else {
        solver = std::make_unique<b::CutoffBRSolver>(mesh, params);
    }

    // Seed a nontrivial vorticity so gamma != 0.
    const auto& local = mesh.local();
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            double x = mesh.coordinate(0, i), y = mesh.coordinate(1, j);
            pm.vorticity()(i, j, 0) = std::sin(2.0 * x) * std::cos(y);
            pm.vorticity()(i, j, 1) = std::cos(x) * std::sin(2.0 * y);
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
    bg::NodeField<double, 3> vel(local);
    solver->compute_velocity(pm, gamma, vel);

    VelocityProbe out;
    double sum = 0.0, mx = 0.0;
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            double v2 = vel(i, j, 0) * vel(i, j, 0) + vel(i, j, 1) * vel(i, j, 1) +
                        vel(i, j, 2) * vel(i, j, 2);
            sum += v2;
            mx = std::max(mx, std::sqrt(v2));
        }
    }
    out.l2 = std::sqrt(comm.allreduce_value(sum, bc::op::Sum{}));
    out.max = comm.allreduce_value(mx, bc::op::Max{});
    // Sample fixed global nodes for cross-decomposition comparisons.
    for (int g : {0, 5, 9}) {
        double v = 0.0;
        if (local.owned_global(0).contains(g) && local.owned_global(1).contains(g)) {
            v = vel(g - local.global_offset(0), g - local.global_offset(1), 2);
        }
        out.samples.push_back(comm.allreduce_value(v, bc::op::Sum{}));
    }
    return out;
}

TEST(BRSolvers, CutoffWithHugeRadiusMatchesExact) {
    run(4, [](bc::Communicator& comm) {
        auto exact = probe_velocity(comm, br_params(16, b::BRSolverKind::exact, 0.5));
        // Cutoff >= domain diameter: every pair is within range.
        auto cutoff = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 10.0));
        EXPECT_NEAR(cutoff.l2, exact.l2, 1e-10 * std::max(1.0, exact.l2));
        for (std::size_t s = 0; s < exact.samples.size(); ++s) {
            EXPECT_NEAR(cutoff.samples[s], exact.samples[s],
                        1e-10 * std::max(1.0, std::abs(exact.samples[s])));
        }
    });
}

TEST(BRSolvers, SmallerCutoffMeansLargerError) {
    run(4, [](bc::Communicator& comm) {
        auto exact = probe_velocity(comm, br_params(16, b::BRSolverKind::exact, 0.5));
        auto big = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 1.5));
        auto small = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 0.4));
        double err_big = std::abs(big.l2 - exact.l2);
        double err_small = std::abs(small.l2 - exact.l2);
        EXPECT_LT(err_big, err_small)
            << "the accuracy/performance tradeoff of paper §3.2 must be monotone";
    });
}

TEST(BRSolvers, ExactSolverDecompositionInvariant) {
    auto l2_for = [](int nranks) {
        double result = 0.0;
        run(nranks, [&](bc::Communicator& comm) {
            auto p = probe_velocity(comm, br_params(16, b::BRSolverKind::exact, 0.5));
            if (comm.rank() == 0) result = p.l2;
        });
        return result;
    };
    double l2_1 = l2_for(1);
    double l2_4 = l2_for(4);
    double l2_9 = l2_for(9);
    EXPECT_NEAR(l2_1, l2_4, 1e-10 * std::max(1.0, l2_1));
    EXPECT_NEAR(l2_1, l2_9, 1e-10 * std::max(1.0, l2_1));
}

TEST(BRSolvers, CutoffSolverDecompositionInvariant) {
    auto l2_for = [](int nranks) {
        double result = 0.0;
        run(nranks, [&](bc::Communicator& comm) {
            auto p = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 0.8));
            if (comm.rank() == 0) result = p.l2;
        });
        return result;
    };
    double l2_1 = l2_for(1);
    double l2_4 = l2_for(4);
    double l2_6 = l2_for(6);
    EXPECT_NEAR(l2_1, l2_4, 1e-10 * std::max(1.0, l2_1));
    EXPECT_NEAR(l2_1, l2_6, 1e-10 * std::max(1.0, l2_1));
}

TEST(BRSolvers, KernelSelfTermVanishes) {
    b::Vec3 x{0.5, -0.25, 1.0};
    b::Vec3 g{1.0, 2.0, 3.0};
    auto v = b::br_kernel(x, x, g, 0.01);
    EXPECT_DOUBLE_EQ(v.x, 0.0);
    EXPECT_DOUBLE_EQ(v.y, 0.0);
    EXPECT_DOUBLE_EQ(v.z, 0.0);
}

TEST(BRSolvers, KernelDecaysWithDistance) {
    b::Vec3 g{0.0, 0.0, 1.0};
    auto near = b::br_kernel({0.1, 0.0, 0.0}, {0.0, 0.0, 0.0}, g, 1e-6);
    auto far = b::br_kernel({2.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, g, 1e-6);
    EXPECT_GT(b::norm(near), b::norm(far));
    // 1/r^2 decay: 20x distance => ~400x weaker.
    EXPECT_NEAR(b::norm(near) / b::norm(far), 400.0, 40.0);
}

TEST(BRSolvers, DesingularizationBoundsTheKernel) {
    b::Vec3 g{0.0, 0.0, 1.0};
    double eps2 = 0.01;
    // Even at tiny separations the kernel stays below the eps-limit.
    auto close = b::br_kernel({1e-8, 0.0, 0.0}, {0.0, 0.0, 0.0}, g, eps2);
    EXPECT_LT(b::norm(close), 1.0 / eps2);
    EXPECT_TRUE(std::isfinite(close.y));
}

// Regression: the very first compute_velocity on a fresh cutoff solver
// must write the velocity field. The first call also builds the
// persistent migrate/ghost plans; an early return after that setup
// (shipped by upstream Beatnik variants of this pipeline) silently
// leaves the first derivative of every run unwritten — and the
// integrator then advances the surface with garbage. Single rank, free
// boundary: no ghosts, so an O(N^2) brute-force neighbor reference
// predicts every velocity exactly (modulo summation order).
TEST(BRSolvers, FirstEvaluationWritesVelocity) {
    run(1, [](bc::Communicator& comm) {
        auto params = br_params(12, b::BRSolverKind::cutoff, 0.7);
        b::SurfaceMesh mesh(comm, params);
        b::ProblemManager pm(comm, mesh, params);
        b::CutoffBRSolver solver(mesh, params);

        const auto& local = mesh.local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        for (int i = 0; i < ni; ++i) {
            for (int j = 0; j < nj; ++j) {
                double x = mesh.coordinate(0, i), y = mesh.coordinate(1, j);
                pm.vorticity()(i, j, 0) = std::sin(2.0 * x) * std::cos(y);
                pm.vorticity()(i, j, 1) = std::cos(x) * std::sin(2.0 * y);
            }
        }
        pm.gather_halos();
        const double dx = mesh.global().spacing(0), dy = mesh.global().spacing(1);
        bg::NodeField<double, 3> gamma(local);
        for (int i = 0; i < ni; ++i) {
            for (int j = 0; j < nj; ++j) {
                auto g = b::operators::gamma_vector(pm.position(), pm.vorticity(), i, j, dx, dy);
                gamma(i, j, 0) = g.x;
                gamma(i, j, 1) = g.y;
                gamma(i, j, 2) = g.z;
            }
        }

        // Poison the output so "solver never wrote it" cannot pass.
        bg::NodeField<double, 3> vel(local);
        for (double& v : vel.storage()) v = 1.0e300;
        solver.compute_velocity(pm, gamma, vel); // the FIRST call

        // Brute-force reference over the same point set.
        const std::size_t n = static_cast<std::size_t>(ni) * static_cast<std::size_t>(nj);
        std::vector<double> pts(3 * n), gam(3 * n);
        for (int i = 0; i < ni; ++i) {
            for (int j = 0; j < nj; ++j) {
                const std::size_t k = static_cast<std::size_t>(i * nj + j);
                for (int d = 0; d < 3; ++d) {
                    pts[3 * k + static_cast<std::size_t>(d)] = pm.position()(i, j, d);
                    gam[3 * k + static_cast<std::size_t>(d)] = gamma(i, j, d);
                }
            }
        }
        auto nbrs = beatnik::search::brute_force_neighbors(pts, pts, params.cutoff_distance, 0);
        const double eps = mesh.effective_epsilon(params.epsilon);
        const double prefactor = mesh.cell_area() / (4.0 * std::numbers::pi);
        std::size_t nonzero = 0;
        for (std::size_t q = 0; q < n; ++q) {
            b::Vec3 qp{pts[3 * q], pts[3 * q + 1], pts[3 * q + 2]};
            b::Vec3 sum{0.0, 0.0, 0.0};
            for (std::uint32_t s : nbrs.neighbors(q)) {
                b::Vec3 sp{pts[3 * s], pts[3 * s + 1], pts[3 * s + 2]};
                b::Vec3 sg{gam[3 * s], gam[3 * s + 1], gam[3 * s + 2]};
                sum += b::br_kernel(qp, sp, sg, eps * eps);
            }
            const int i = static_cast<int>(q) / nj, j = static_cast<int>(q) % nj;
            const double ref[3] = {sum.x * prefactor, sum.y * prefactor, sum.z * prefactor};
            for (int d = 0; d < 3; ++d) {
                ASSERT_LT(std::abs(vel(i, j, d)), 1.0e299)
                    << "first compute_velocity left node (" << i << "," << j << ") unwritten";
                EXPECT_NEAR(vel(i, j, d), ref[d],
                            1e-12 * std::max(1.0, std::abs(ref[d])))
                    << "node (" << i << "," << j << ") component " << d;
            }
            if (ref[0] != 0.0 || ref[1] != 0.0 || ref[2] != 0.0) ++nonzero;
        }
        // Sanity: the deck actually produces nontrivial velocities.
        EXPECT_GT(nonzero, n / 2);
    });
}

// ---- Bitwise oracle for the cutoff accumulate kernel. The reference is
// the straightforward loop: per query, visit_neighbors over the cell
// list's point indices and br_kernel on the (owned ++ ghost) particle
// array. cutoff_br_sum over the cell-ordered source table must reproduce
// every sum and pair count bit for bit (memcmp, so NaNs from coincident
// points at eps2 = 0 compare too).

struct OracleParticle {
    b::Vec3 pos;
    b::Vec3 gamma;
};

/// What one oracle comparison exercised, so each case can assert it is
/// not vacuous.
struct OracleStats {
    beatnik::search::CellGrid grid;
    std::uint64_t pairs = 0;
    std::size_t nonfinite = 0; ///< queries whose sum is not finite
};

OracleStats expect_kernel_matches_oracle(const std::vector<OracleParticle>& src,
                                         std::size_t n_owned, double radius, double eps2) {
    OracleStats stats;
    EXPECT_LE(n_owned, src.size());
    if (n_owned > src.size()) return stats;
    const std::size_t n_src = src.size();
    std::vector<double> crd(3 * n_src);
    for (std::size_t s = 0; s < n_src; ++s) {
        crd[3 * s + 0] = src[s].pos.x;
        crd[3 * s + 1] = src[s].pos.y;
        crd[3 * s + 2] = src[s].pos.z;
    }
    beatnik::search::CellList3D cells;
    cells.build_host(crd, radius);
    b::CellSourceTable store;
    const b::CellSources table = store.ensure(n_src, /*pin=*/false);
    for (std::size_t m = 0; m < n_src; ++m) {
        const std::uint32_t s = cells.cell_points()[m];
        table.set(m, s, src[s].pos, src[s].gamma);
    }
    const double r2 = radius * radius;
    std::vector<b::Vec3> ref(n_owned), got(n_owned);
    std::vector<std::uint32_t> ref_pairs(n_owned), got_pairs(n_owned);
    for (std::size_t q = 0; q < n_owned; ++q) {
        b::Vec3 sum{};
        std::uint32_t cnt = 0;
        beatnik::search::visit_neighbors(
            cells.grid(), cells.cell_offsets(), cells.cell_points(), crd.data(),
            crd.data() + 3 * q, r2, [&](std::uint32_t s) {
                if (s == q) return;
                sum += b::br_kernel(src[q].pos, src[s].pos, src[s].gamma, eps2);
                ++cnt;
            });
        ref[q] = sum;
        ref_pairs[q] = cnt;
        const b::CutoffBRSum acc = b::cutoff_br_sum(cells.grid(), cells.cell_offsets(), table,
                                                    src[q].pos, static_cast<std::uint32_t>(q),
                                                    r2, eps2);
        got[q] = acc.sum;
        got_pairs[q] = acc.pairs;
        stats.pairs += acc.pairs;
        if (!std::isfinite(acc.sum.x) || !std::isfinite(acc.sum.y) || !std::isfinite(acc.sum.z)) {
            ++stats.nonfinite;
        }
    }
    stats.grid = cells.grid();
    EXPECT_EQ(got_pairs, ref_pairs);
    if (n_owned == 0) return stats;
    if (std::memcmp(got.data(), ref.data(), n_owned * sizeof(b::Vec3)) != 0) {
        for (std::size_t q = 0; q < n_owned; ++q) {
            if (std::memcmp(&got[q], &ref[q], sizeof(b::Vec3)) != 0) {
                ADD_FAILURE() << "first bitwise mismatch at query " << q << ": got (" << got[q].x
                              << ", " << got[q].y << ", " << got[q].z << "), reference ("
                              << ref[q].x << ", " << ref[q].y << ", " << ref[q].z << ")";
                break;
            }
        }
    }
    return stats;
}

std::vector<OracleParticle> oracle_cloud(std::size_t n, std::uint64_t seed, double extent) {
    beatnik::SplitMix64 rng(beatnik::test::seed() + seed);
    std::vector<OracleParticle> pts(n);
    for (auto& p : pts) {
        p.pos = {rng.uniform(-extent, extent), rng.uniform(-extent, extent),
                 rng.uniform(-extent, extent)};
        p.gamma = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    return pts;
}

/// A singlemode-like sheet on [-1,1]^2, nodes in row order.
std::vector<OracleParticle> oracle_sheet(int n) {
    std::vector<OracleParticle> pts;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const double x = -1.0 + 2.0 * i / (n - 1), y = -1.0 + 2.0 * j / (n - 1);
            pts.push_back({{x, y, 0.2 * std::cos(std::numbers::pi * x) * std::cos(std::numbers::pi * y)},
                           {std::sin(2.0 * x), std::cos(y), 0.1 * x * y}});
        }
    }
    return pts;
}

TEST(CutoffKernelOracle, RandomCloudWithGhosts) {
    auto pts = oracle_cloud(600, 301, 1.5);
    EXPECT_GT(expect_kernel_matches_oracle(pts, 450, 0.5, 1e-4).pairs, 450u); // 150 ghosts
    EXPECT_GT(expect_kernel_matches_oracle(pts, pts.size(), 0.5, 1e-4).pairs, pts.size());
}

TEST(CutoffKernelOracle, SheetWithGhosts) {
    // Owned = the x < 0, y < 0 quadrant, ghosts = the rest within the
    // cutoff of it, owned first — the shape of one rank's sources.
    const double cutoff = 0.5;
    std::vector<OracleParticle> owned, ghosts;
    for (const auto& p : oracle_sheet(40)) {
        if (p.pos.x < 0.0 && p.pos.y < 0.0) {
            owned.push_back(p);
        } else if (p.pos.x < cutoff && p.pos.y < cutoff) {
            ghosts.push_back(p);
        }
    }
    ASSERT_FALSE(ghosts.empty());
    std::vector<OracleParticle> src = owned;
    src.insert(src.end(), ghosts.begin(), ghosts.end());
    EXPECT_GT(expect_kernel_matches_oracle(src, owned.size(), cutoff, 1e-3).pairs,
              10 * owned.size());
}

TEST(CutoffKernelOracle, ZeroAndOneOwnedQueries) {
    auto pts = oracle_cloud(80, 302, 1.0);
    expect_kernel_matches_oracle(pts, 0, 0.6, 1e-4);
    EXPECT_GT(expect_kernel_matches_oracle(pts, 1, 0.6, 1e-4).pairs, 0u);
    EXPECT_EQ(expect_kernel_matches_oracle({pts[0]}, 1, 0.6, 1e-4).pairs, 0u);
}

TEST(CutoffKernelOracle, CoincidentPoints) {
    // Every point twice: each query meets its twin at r = 0, which must
    // not be mistaken for the self pair. With eps2 = 0 the twin's term is
    // 0 * inf = NaN, and the NaN must match too.
    auto pts = oracle_cloud(100, 303, 1.0);
    std::vector<OracleParticle> twins = pts;
    for (auto p : pts) {
        p.gamma = {-p.gamma.y, p.gamma.x, 0.5 * p.gamma.z};
        twins.push_back(p);
    }
    EXPECT_EQ(expect_kernel_matches_oracle(twins, twins.size(), 0.5, 1e-4).nonfinite, 0u);
    EXPECT_EQ(expect_kernel_matches_oracle(twins, twins.size(), 0.5, 0.0).nonfinite,
              twins.size());
}

TEST(CutoffKernelOracle, PointsOnCellFaces) {
    // Coordinates on exact multiples of the radius sit on cell faces, and
    // lattice neighbours sit exactly at the (excluded) cutoff distance.
    const double radius = 0.25;
    std::vector<OracleParticle> pts;
    for (int i = -3; i <= 3; ++i) {
        for (int j = -3; j <= 3; ++j) {
            for (int k = -1; k <= 1; ++k) {
                pts.push_back({{i * radius, j * radius, k * radius},
                               {0.3 * i, -0.2 * j, 0.1 * (k + i)}});
            }
        }
    }
    // Plus random off-lattice points; the second pass widens the radius a
    // hair so the lattice neighbours at exactly 0.25 become hits.
    auto extra = oracle_cloud(60, 304, 0.75);
    pts.insert(pts.end(), extra.begin(), extra.end());
    const auto exact = expect_kernel_matches_oracle(pts, pts.size() - 30, radius, 1e-4);
    const auto wider = expect_kernel_matches_oracle(pts, pts.size(), radius * 1.0000001, 0.0);
    EXPECT_GT(wider.pairs, exact.pairs + 2 * 7 * 7 * 3);
}

TEST(CutoffKernelOracle, GridsOneCellThickInEachAxis) {
    for (int axis = 0; axis < 3; ++axis) {
        auto pts = oracle_cloud(300, 305 + static_cast<std::uint64_t>(axis), 1.2);
        for (auto& p : pts) {
            double* c[3] = {&p.pos.x, &p.pos.y, &p.pos.z};
            *c[axis] = 0.1 + 0.05 * (*c[axis] / 1.2); // within one 0.5 cell
        }
        SCOPED_TRACE(axis);
        const auto stats = expect_kernel_matches_oracle(pts, 200, 0.5, 1e-4);
        EXPECT_EQ(stats.grid.n[static_cast<std::size_t>(axis)], 1);
        EXPECT_GT(stats.pairs, 200u);
    }
}

TEST(CutoffBookkeeping, SpatialCensusSumsToAllPoints) {
    run(4, [](bc::Communicator& comm) {
        auto p = br_params(16, b::BRSolverKind::cutoff, 0.5);
        b::Solver solver(comm, p);
        solver.step();
        auto census = b::ownership_census(comm, solver);
        ASSERT_EQ(census.size(), 4u);
        double total = 0.0;
        for (double share : census) total += share;
        EXPECT_NEAR(total, 1.0, 1e-12);
        auto stats = b::imbalance_stats(census);
        EXPECT_GE(stats.imbalance, 1.0);
    });
}

TEST(CutoffBookkeeping, PairCountMatchesCutoffVolume) {
    run(1, [](bc::Communicator& comm) {
        auto small = br_params(24, b::BRSolverKind::cutoff, 0.3);
        auto large = br_params(24, b::BRSolverKind::cutoff, 0.9);
        b::Solver s1(comm, small);
        s1.step();
        b::Solver s2(comm, large);
        s2.step();
        // 3x radius on a 2D sheet => ~9x the neighbors.
        EXPECT_GT(s2.cutoff_solver()->last_pair_count(),
                  4 * s1.cutoff_solver()->last_pair_count());
    });
}

} // namespace
