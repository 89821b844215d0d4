// Distributed halo-exchange tests: ghost values must equal the owning
// rank's node values for every topology/periodicity combination.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "grid/field.hpp"
#include "grid/halo.hpp"

namespace bg = beatnik::grid;
namespace bc = beatnik::comm;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 30.0;
    bc::Context::run(nranks, fn, cfg);
}

/// Deterministic value for a global node, unique per (node, component).
double node_value(int gi, int gj, int c) { return gi * 1000.0 + gj * 10.0 + c; }

/// Fill the owned region of a field from global indices; wraps global
/// indices on periodic axes so ghost checks can reconstruct expectations.
template <int C>
void fill_owned(bg::NodeField<double, C>& f, const bg::LocalGrid2D& lg) {
    for (int i = 0; i < lg.owned_extent(0); ++i) {
        for (int j = 0; j < lg.owned_extent(1); ++j) {
            for (int c = 0; c < C; ++c) {
                f(i, j, c) = node_value(lg.global_offset(0) + i, lg.global_offset(1) + j, c);
            }
        }
    }
}

struct HaloCase {
    int nranks;
    std::array<int, 2> dims;
    std::array<bool, 2> periodic;
    int halo;
};

class HaloP : public ::testing::TestWithParam<HaloCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, HaloP,
    ::testing::Values(HaloCase{1, {1, 1}, {true, true}, 2},   // all self-sends
                      HaloCase{2, {1, 2}, {true, true}, 2},   // self + partner
                      HaloCase{4, {2, 2}, {true, true}, 2},
                      HaloCase{4, {2, 2}, {false, false}, 2},
                      HaloCase{6, {2, 3}, {true, false}, 2},
                      HaloCase{9, {3, 3}, {true, true}, 1},
                      HaloCase{9, {3, 3}, {false, true}, 2},
                      HaloCase{12, {3, 4}, {true, true}, 2}));

TEST_P(HaloP, GhostsMatchOwners) {
    const HaloCase tc = GetParam();
    run(tc.nranks, [&](bc::Communicator& comm) {
        bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {24, 36}, tc.periodic);
        bg::CartTopology2D topo(comm.size(), tc.dims, tc.periodic);
        bg::LocalGrid2D lg(mesh, topo, comm.rank(), tc.halo);
        bg::NodeField<double, 3> f(lg);
        f.fill(-999.0);
        fill_owned(f, lg);

        bg::HaloPlan<double, 3>(comm, topo, lg).exchange(f);

        // Every ghost node that has an owner must hold that owner's value.
        auto ghosted = lg.ghosted_space();
        auto own = lg.own_space();
        int checked = 0;
        bg::for_each(ghosted, [&](int i, int j) {
            if (own.contains(i, j)) return;
            int gi = lg.global_offset(0) + i;
            int gj = lg.global_offset(1) + j;
            // Does this ghost exist? Only if the axis is periodic or the
            // index is interior.
            bool exists = true;
            if (gi < 0 || gi >= mesh.num_nodes(0)) {
                if (!mesh.periodic(0)) exists = false;
                gi = ((gi % mesh.num_nodes(0)) + mesh.num_nodes(0)) % mesh.num_nodes(0);
            }
            if (gj < 0 || gj >= mesh.num_nodes(1)) {
                if (!mesh.periodic(1)) exists = false;
                gj = ((gj % mesh.num_nodes(1)) + mesh.num_nodes(1)) % mesh.num_nodes(1);
            }
            if (!exists) {
                for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(f(i, j, c), -999.0);
                return;
            }
            ++checked;
            for (int c = 0; c < 3; ++c) {
                EXPECT_DOUBLE_EQ(f(i, j, c), node_value(gi, gj, c))
                    << "rank " << comm.rank() << " ghost (" << i << "," << j << ") comp " << c;
            }
        });
        // Sanity: on fully periodic meshes every ghost must be owned by
        // someone.
        if (tc.periodic[0] && tc.periodic[1]) {
            EXPECT_EQ(static_cast<std::size_t>(checked), ghosted.size() - own.size());
        }
    });
}

TEST(Halo, RepeatedExchangesStayConsistent) {
    run(4, [](bc::Communicator& comm) {
        bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {16, 16}, {true, true});
        bg::CartTopology2D topo(4, {2, 2}, {true, true});
        bg::LocalGrid2D lg(mesh, topo, comm.rank(), 2);
        bg::NodeField<double, 1> f(lg);
        fill_owned(f, lg);
        for (int round = 0; round < 5; ++round) {
            // Mutate owned nodes, re-exchange, check one ghost value.
            for (int i = 0; i < lg.owned_extent(0); ++i) {
                for (int j = 0; j < lg.owned_extent(1); ++j) f(i, j, 0) += 1.0;
            }
            bg::HaloPlan<double, 1>(comm, topo, lg, /*stream=*/0).exchange(f);
            int gi = lg.global_offset(0) - 1;
            gi = ((gi % 16) + 16) % 16;
            int gj = lg.global_offset(1);
            EXPECT_DOUBLE_EQ(f(-1, 0, 0), node_value(gi, gj, 0) + round + 1);
        }
    });
}

TEST(Halo, TwoFieldsDistinctStreamsDoNotMix) {
    run(4, [](bc::Communicator& comm) {
        bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {12, 12}, {true, true});
        bg::CartTopology2D topo(4, {2, 2}, {true, true});
        bg::LocalGrid2D lg(mesh, topo, comm.rank(), 1);
        bg::NodeField<double, 1> a(lg), b(lg);
        fill_owned(a, lg);
        for (int i = 0; i < lg.owned_extent(0); ++i) {
            for (int j = 0; j < lg.owned_extent(1); ++j) b(i, j, 0) = -a(i, j, 0);
        }
        bg::HaloPlan<double, 1>(comm, topo, lg, /*stream=*/0).exchange(a);
        bg::HaloPlan<double, 1>(comm, topo, lg, /*stream=*/1).exchange(b);
        // Ghosts of b are the negation of ghosts of a.
        EXPECT_DOUBLE_EQ(a(-1, 0, 0), -b(-1, 0, 0));
        EXPECT_DOUBLE_EQ(a(0, -1, 0), -b(0, -1, 0));
    });
}

// ----------------------------------------------------- persistent plans

/// Reference halo exchange over plain user-tag sends/recvs — independent
/// of the plan machinery, mirroring the pre-plan implementation.
template <int C>
void reference_halo_exchange(bc::Communicator& comm, const bg::CartTopology2D& topo,
                             const bg::LocalGrid2D& grid, bg::NodeField<double, C>& field) {
    const int rank = comm.rank();
    std::vector<double> buf;
    for (int k = 0; k < 8; ++k) {
        auto [di, dj] = bg::kNeighborDirs2D[static_cast<std::size_t>(k)];
        int nbr = topo.neighbor(rank, di, dj);
        if (nbr < 0) continue;
        field.pack(grid.shared_space(di, dj), buf);
        comm.send(std::span<const double>(buf.data(), buf.size()), nbr, 500 + (7 - k));
    }
    std::vector<double> incoming;
    for (int k = 0; k < 8; ++k) {
        auto [di, dj] = bg::kNeighborDirs2D[static_cast<std::size_t>(k)];
        int nbr = topo.neighbor(rank, di, dj);
        if (nbr < 0) continue;
        comm.recv<double>(incoming, nbr, 500 + k);
        field.unpack(grid.halo_space(di, dj), incoming);
    }
}

struct DegenerateCase {
    int nranks;
    std::array<int, 2> dims;
    std::array<bool, 2> periodic;
    int halo;
};

class HaloPlanDegenerateP : public ::testing::TestWithParam<DegenerateCase> {};

// 1xN / Nx1 periodic process grids: the same rank is a neighbor in
// several directions (for 1x2, rank 1 is rank 0's neighbor in *six*
// directions; for 1x1 every direction is a self-send).
INSTANTIATE_TEST_SUITE_P(
    DegenerateGrids, HaloPlanDegenerateP,
    ::testing::Values(DegenerateCase{1, {1, 1}, {true, true}, 1},
                      DegenerateCase{1, {1, 1}, {true, true}, 2},
                      DegenerateCase{2, {1, 2}, {true, true}, 2},
                      DegenerateCase{2, {2, 1}, {true, true}, 2},
                      DegenerateCase{3, {1, 3}, {true, true}, 1},
                      DegenerateCase{4, {1, 4}, {true, false}, 2},
                      DegenerateCase{4, {4, 1}, {false, true}, 1}));

TEST_P(HaloPlanDegenerateP, PlanReuseMatchesReferenceEveryIteration) {
    const DegenerateCase tc = GetParam();
    run(tc.nranks, [&](bc::Communicator& comm) {
        bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {18, 27}, tc.periodic);
        bg::CartTopology2D topo(comm.size(), tc.dims, tc.periodic);
        bg::LocalGrid2D lg(mesh, topo, comm.rank(), tc.halo);
        bg::NodeField<double, 2> f(lg), ref(lg);
        bg::HaloPlan<double, 2> plan(comm, topo, lg);
        for (int iter = 0; iter < 100; ++iter) {
            for (int i = 0; i < lg.owned_extent(0); ++i) {
                for (int j = 0; j < lg.owned_extent(1); ++j) {
                    for (int c = 0; c < 2; ++c) {
                        double v = node_value(lg.global_offset(0) + i, lg.global_offset(1) + j, c) +
                                   iter * 1e-3;
                        f(i, j, c) = v;
                        ref(i, j, c) = v;
                    }
                }
            }
            plan.exchange(f);
            reference_halo_exchange(comm, topo, lg, ref);
            // Byte-identical over the whole ghosted storage.
            ASSERT_EQ(f.storage().size(), ref.storage().size());
            EXPECT_TRUE(std::memcmp(f.storage().data(), ref.storage().data(),
                                    f.storage().size() * sizeof(double)) == 0)
                << "iteration " << iter << " rank " << comm.rank();
        }
    });
}

TEST(HaloPlan, ScatterAddConservesGhostMass) {
    run(4, [](bc::Communicator& comm) {
        bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {8, 8}, {true, true});
        bg::CartTopology2D topo(4, {2, 2}, {true, true});
        bg::LocalGrid2D lg(mesh, topo, comm.rank(), 1);
        bg::NodeField<double, 1> f(lg);
        bg::HaloPlan<double, 1> plan(comm, topo, lg);
        f.fill(0.0);
        auto ghosted = lg.ghosted_space();
        auto own = lg.own_space();
        bg::for_each(ghosted, [&](int i, int j) {
            if (!own.contains(i, j)) f(i, j, 0) = 1.0;
        });
        plan.scatter_add(f);
        double local_sum = 0.0;
        bg::for_each(own, [&](int i, int j) { local_sum += f(i, j, 0); });
        double total = comm.allreduce_value(local_sum, bc::op::Sum{});
        double ghost_nodes_per_rank = static_cast<double>(ghosted.size() - own.size());
        EXPECT_DOUBLE_EQ(total, 4.0 * ghost_nodes_per_rank);
        EXPECT_DOUBLE_EQ(f(1, 1, 0), 0.0);
        EXPECT_DOUBLE_EQ(f(0, 0, 0), 3.0);
    });
}

TEST(HaloPlan, ForwardAndScatterInterleaveOnOnePlan) {
    run(4, [](bc::Communicator& comm) {
        bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {16, 16}, {true, true});
        bg::CartTopology2D topo(4, {2, 2}, {true, true});
        bg::LocalGrid2D lg(mesh, topo, comm.rank(), 2);
        bg::NodeField<double, 1> f(lg);
        bg::HaloPlan<double, 1> plan(comm, topo, lg);
        for (int round = 0; round < 5; ++round) {
            fill_owned(f, lg);
            plan.exchange(f);
            int gi = ((lg.global_offset(0) - 1) % 16 + 16) % 16;
            EXPECT_DOUBLE_EQ(f(-1, 0, 0), node_value(gi, lg.global_offset(1), 0));
            plan.scatter_add(f);   // same channels, reverse pattern
        }
    });
}

TEST(Halo, ScatterAddAccumulatesIntoOwners) {
    run(4, [](bc::Communicator& comm) {
        bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {8, 8}, {true, true});
        bg::CartTopology2D topo(4, {2, 2}, {true, true});
        bg::LocalGrid2D lg(mesh, topo, comm.rank(), 1);
        bg::NodeField<double, 1> f(lg);
        f.fill(0.0);
        // Each rank writes 1.0 into every ghost node; after scatter-add,
        // an owned node receives 1.0 for each neighbor whose ghost region
        // covers it. With 4x4 blocks and halo 1, corner-owned nodes are
        // covered by 3 neighbor ghost regions, edge nodes by 2... but on
        // a 2x2 periodic grid each geometric neighbor direction is a
        // distinct message, so the count equals the number of directions
        // whose ghost rectangle maps onto the node: corners get 3+ hits.
        auto ghosted = lg.ghosted_space();
        auto own = lg.own_space();
        bg::for_each(ghosted, [&](int i, int j) {
            if (!own.contains(i, j)) f(i, j, 0) = 1.0;
        });
        bg::HaloPlan<double, 1>(comm, topo, lg, /*stream=*/0).scatter_add(f);
        // Total mass received must equal total ghost mass sent (8 dirs:
        // 2 edges of 4 nodes * 2 + 4 corners on each axis pair).
        double local_sum = 0.0;
        bg::for_each(own, [&](int i, int j) { local_sum += f(i, j, 0); });
        double total = comm.allreduce_value(local_sum, bc::op::Sum{});
        double ghost_nodes_per_rank = static_cast<double>(ghosted.size() - own.size());
        EXPECT_DOUBLE_EQ(total, 4.0 * ghost_nodes_per_rank);
        // Interior owned nodes receive nothing.
        EXPECT_DOUBLE_EQ(f(1, 1, 0), 0.0);
        // Corner owned node (0,0) is covered by the three neighbors that
        // ghost it: (-1,0), (0,-1), (-1,-1) directions.
        EXPECT_DOUBLE_EQ(f(0, 0, 0), 3.0);
    });
}

} // namespace
