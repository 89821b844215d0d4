// Regression tests for per-call fixed-stream HaloPlans (a plan built,
// used once and destroyed on every call): long-running callers must not
// be able to exhaust the plan-tag band (< 2^25, comm/types.hpp) or grow
// the context's channel registry without bound.
//
// Fixed-stream plans use the halo tag sub-band, so rebuilt plans
// reattach to the same persistent channels call after call: the registry
// reaches its footprint on the first call and stays there, and the
// communicator's sequence-tag counter never advances. Auto-stream plans
// (the ProblemManager path) do consume sequence tags, but their channels
// are pruned at plan destruction, so rebuild cycles leak no registry
// entries either.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>

#include "grid/halo.hpp"

namespace bc = beatnik::comm;
namespace bg = beatnik::grid;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 60.0;
    bc::Context::run(nranks, fn, cfg);
}

struct Mesh {
    std::shared_ptr<bg::GlobalMesh2D> global;
    std::shared_ptr<bg::CartTopology2D> topo;
    std::shared_ptr<bg::LocalGrid2D> grid;
};

Mesh make_mesh(bc::Communicator& comm, int n, int halo, bool periodic) {
    Mesh m;
    auto dims = bg::dims_create_2d(comm.size());
    m.global = std::make_shared<bg::GlobalMesh2D>(
        std::array<double, 2>{0.0, 0.0}, std::array<double, 2>{1.0, 1.0},
        std::array<int, 2>{n, n}, std::array<bool, 2>{periodic, periodic});
    m.topo = std::make_shared<bg::CartTopology2D>(comm.size(), dims,
                                                  std::array<bool, 2>{periodic, periodic});
    m.grid = std::make_shared<bg::LocalGrid2D>(*m.global, *m.topo, comm.rank(), halo);
    return m;
}

template <int C>
void fill_owned(bg::NodeField<double, C>& f, const bg::LocalGrid2D& grid, int rank, int salt) {
    for (int i = 0; i < grid.owned_extent(0); ++i) {
        for (int j = 0; j < grid.owned_extent(1); ++j) {
            for (int c = 0; c < C; ++c) {
                f(i, j, c) = rank * 1000.0 + i * 37.0 + j * 3.0 + c * 0.5 + salt;
            }
        }
    }
}

TEST(HaloWrappers, ManyRebuildsNeitherGrowRegistryNorConsumePlanTags) {
    constexpr int kIters = 1000;
    run(4, [](bc::Communicator& comm) {
        auto m = make_mesh(comm, 16, 2, true);
        bg::NodeField<double, 3> f(*m.grid);
        bg::NodeField<double, 3> ref(*m.grid);

        // First call creates the fixed-stream channels; record the
        // footprint and the (untouched) sequence-tag counter after it.
        fill_owned(f, *m.grid, comm.rank(), 0);
        bg::HaloPlan<double, 3>(comm, *m.topo, *m.grid, /*stream=*/0).exchange(f);
        comm.barrier();
        const std::size_t channels_after_first = comm.context().plan_channels().size();
        const int tags_after_first = comm.plan_tags_used();

        for (int it = 1; it <= kIters; ++it) {
            fill_owned(f, *m.grid, comm.rank(), it);
            bg::HaloPlan<double, 3>(comm, *m.topo, *m.grid, /*stream=*/0).exchange(f);
        }
        comm.barrier();
        EXPECT_EQ(comm.context().plan_channels().size(), channels_after_first)
            << "per-call plan rebuilds grew the channel registry (rank " << comm.rank() << ")";
        EXPECT_EQ(comm.plan_tags_used(), tags_after_first)
            << "per-call plan rebuilds consumed sequence plan tags (rank " << comm.rank() << ")";

        // Exchanges stay correct on the reattached channels: an
        // independent persistent plan produces identical bytes.
        fill_owned(f, *m.grid, comm.rank(), kIters + 1);
        bg::HaloPlan<double, 3>(comm, *m.topo, *m.grid, /*stream=*/0).exchange(f);
        fill_owned(ref, *m.grid, comm.rank(), kIters + 1);
        bg::HaloPlan<double, 3>(comm, *m.topo, *m.grid).exchange(ref);
        EXPECT_EQ(f.storage(), ref.storage()) << "rank " << comm.rank();
    });
}

TEST(HaloWrappers, ScatterAddWrapperReusesTheSameChannels) {
    run(4, [](bc::Communicator& comm) {
        auto m = make_mesh(comm, 16, 2, true);
        bg::NodeField<double, 2> f(*m.grid);
        fill_owned(f, *m.grid, comm.rank(), 7);
        bg::HaloPlan<double, 2>(comm, *m.topo, *m.grid, /*stream=*/0).scatter_add(f);
        comm.barrier();
        const std::size_t channels = comm.context().plan_channels().size();
        const int tags = comm.plan_tags_used();
        for (int it = 0; it < 200; ++it) {
            bg::HaloPlan<double, 2>(comm, *m.topo, *m.grid, /*stream=*/0).scatter_add(f);
        }
        comm.barrier();
        EXPECT_EQ(comm.context().plan_channels().size(), channels);
        EXPECT_EQ(comm.plan_tags_used(), tags);
    });
}

TEST(HaloWrappers, AutoStreamRebuildCyclesPruneTheirChannels) {
    // The ProblemManager path: auto-stream plans draw sequence tags, so a
    // build/destroy cycle must give its channels back to the registry —
    // otherwise long-running multi-solver processes leak one channel set
    // per plan. Tags themselves are monotonic by design; the band holds
    // ~2^24 of them, so the registry (not the counter) is the leak
    // surface.
    constexpr int kCycles = 200;
    run(4, [](bc::Communicator& comm) {
        auto m = make_mesh(comm, 16, 2, true);
        bg::NodeField<double, 3> f(*m.grid);
        fill_owned(f, *m.grid, comm.rank(), 3);
        // One cycle's channels: 8 directions x 4 ranks (each channel
        // shared by its two endpoints). Concurrent destructors prune
        // cooperatively, so at a probe the registry may still hold the
        // just-died cycle's channels — but never more than two cycles'
        // worth. Leaking one set per cycle would blow past this within a
        // few iterations.
        const std::size_t bound = 2u * 8u * static_cast<std::size_t>(comm.size());
        for (int cycle = 0; cycle < kCycles; ++cycle) {
            {
                bg::HaloPlan<double, 3> plan(comm, *m.topo, *m.grid);
                plan.exchange(f);
            }   // destroyed: detach prunes the sequence-band channels
            comm.barrier();
            EXPECT_LE(comm.context().plan_channels().size(), bound)
                << "cycle " << cycle << " leaked channels (rank " << comm.rank() << ")";
        }
        // The tag counter advanced by exactly 8 per cycle — nowhere near
        // the band, but assert the accounting so a hidden extra consumer
        // shows up here.
        EXPECT_EQ(comm.plan_tags_used(), kCycles * 8);
        EXPECT_LT(comm.plan_tags_used(), bc::tags::plan_seq_count);
    });
}

} // namespace
