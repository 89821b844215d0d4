// Particle migration tests: multiset preservation, ordering, multi-target
// distribution — the invariants the CutoffBRSolver redistribution relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "base/rng.hpp"
#include "grid/migrate.hpp"

namespace bg = beatnik::grid;
namespace bc = beatnik::comm;

namespace {

struct Particle {
    double x, y, z;
    std::uint64_t gid;
    int origin;
};

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 30.0;
    bc::Context::run(nranks, fn, cfg);
}

/// Reference migration over the alltoallv collective: bucket by
/// destination, exchange, results grouped by source rank ascending.
/// Deliberately independent of MigratePlan.
std::vector<Particle> reference_migrate(bc::Communicator& comm,
                                        const std::vector<Particle>& particles,
                                        const std::vector<int>& destinations) {
    const int p = comm.size();
    std::vector<std::size_t> sendcounts(static_cast<std::size_t>(p), 0);
    for (int dst : destinations) ++sendcounts[static_cast<std::size_t>(dst)];
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for (int r = 1; r < p; ++r) {
        cursor[static_cast<std::size_t>(r)] =
            cursor[static_cast<std::size_t>(r) - 1] + sendcounts[static_cast<std::size_t>(r) - 1];
    }
    std::vector<Particle> packed(particles.size());
    for (std::size_t k = 0; k < particles.size(); ++k) {
        packed[cursor[static_cast<std::size_t>(destinations[k])]++] = particles[k];
    }
    std::vector<std::size_t> recvcounts;
    return comm.alltoallv(std::span<const Particle>(packed),
                          std::span<const std::size_t>(sendcounts), recvcounts);
}

/// One MigratePlan execution: the plan is built collectively per call.
std::vector<Particle> migrate_once(bc::Communicator& comm, const std::vector<Particle>& particles,
                                   const std::vector<int>& destinations) {
    bg::MigratePlan<Particle> plan(comm);
    return plan.execute(std::span<const Particle>(particles), std::span<const int>(destinations));
}

/// Ghost distribution on a MigratePlan: particle k goes to every rank in
/// dest_ranks[dest_offsets[k] .. dest_offsets[k+1]) — expanded into one
/// (particle, destination) pair per target, in particle order.
std::vector<Particle> distribute_once(bc::Communicator& comm,
                                      const std::vector<Particle>& particles,
                                      const std::vector<std::size_t>& dest_offsets,
                                      const std::vector<int>& dest_ranks) {
    std::vector<Particle> copies;
    std::vector<int> dest;
    for (std::size_t k = 0; k < particles.size(); ++k) {
        for (std::size_t m = dest_offsets[k]; m < dest_offsets[k + 1]; ++m) {
            copies.push_back(particles[k]);
            dest.push_back(dest_ranks[m]);
        }
    }
    return migrate_once(comm, copies, dest);
}

class MigrateP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, MigrateP, ::testing::Values(1, 2, 3, 5, 8, 16),
                         ::testing::PrintToStringParamName());

TEST_P(MigrateP, PreservesParticleMultiset) {
    run(GetParam(), [](bc::Communicator& comm) {
        const int p = comm.size();
        constexpr int kPerRank = 50;
        std::vector<Particle> mine;
        std::vector<int> dest;
        for (int k = 0; k < kPerRank; ++k) {
            std::uint64_t gid = static_cast<std::uint64_t>(comm.rank()) * kPerRank +
                                static_cast<std::uint64_t>(k);
            mine.push_back({gid * 1.5, 0.0, 0.0, gid, comm.rank()});
            dest.push_back(static_cast<int>(beatnik::hash_mix(3, gid) % static_cast<std::uint64_t>(p)));
        }
        auto received = migrate_once(comm, mine, dest);

        // Every received particle was really destined here.
        for (const auto& part : received) {
            EXPECT_EQ(static_cast<int>(beatnik::hash_mix(3, part.gid) % static_cast<std::uint64_t>(p)),
                      comm.rank());
            EXPECT_DOUBLE_EQ(part.x, part.gid * 1.5);
        }
        // Global multiset of gids is preserved.
        std::vector<std::uint64_t> gids;
        gids.reserve(received.size());
        for (const auto& part : received) gids.push_back(part.gid);
        auto all = comm.allgatherv(std::span<const std::uint64_t>(gids));
        std::sort(all.begin(), all.end());
        ASSERT_EQ(all.size(), static_cast<std::size_t>(p * kPerRank));
        for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
    });
}

TEST_P(MigrateP, GroupsArrivalsBySourceRank) {
    run(GetParam(), [](bc::Communicator& comm) {
        // Everyone sends one particle to every rank; arrivals must be
        // ordered by source.
        const int p = comm.size();
        std::vector<Particle> mine;
        std::vector<int> dest;
        for (int r = 0; r < p; ++r) {
            mine.push_back({0.0, 0.0, 0.0, static_cast<std::uint64_t>(comm.rank()), comm.rank()});
            dest.push_back(r);
        }
        auto received = migrate_once(comm, mine, dest);
        ASSERT_EQ(received.size(), static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) EXPECT_EQ(received[static_cast<std::size_t>(r)].origin, r);
    });
}

TEST(Migrate, EmptySendsAreFine) {
    run(4, [](bc::Communicator& comm) {
        std::vector<Particle> none;
        std::vector<int> dest;
        auto received = migrate_once(comm, none, dest);
        EXPECT_TRUE(received.empty());
    });
}

TEST(Migrate, AllToOneHotspot) {
    run(6, [](bc::Communicator& comm) {
        std::vector<Particle> mine(10);
        for (std::size_t k = 0; k < mine.size(); ++k) {
            mine[k] = {1.0, 2.0, 3.0, static_cast<std::uint64_t>(k), comm.rank()};
        }
        std::vector<int> dest(10, 0);
        auto received = migrate_once(comm, mine, dest);
        if (comm.rank() == 0) {
            EXPECT_EQ(received.size(), 60u);
        } else {
            EXPECT_TRUE(received.empty());
        }
    });
}

TEST(Migrate, RejectsMismatchedLengths) {
    run(2, [](bc::Communicator& comm) {
        bg::MigratePlan<Particle> plan(comm);
        if (comm.rank() == 0) {
            std::vector<Particle> one(1);
            std::vector<int> none;
            EXPECT_THROW((void)plan.execute(std::span<const Particle>(one),
                                            std::span<const int>(none)),
                         beatnik::Error);
        }
        // Note: rank 1 only joins the plan build; execute on rank 0 must fail
        // before any communication happens.
    });
}

// ----------------------------------------------------- persistent plans

TEST_P(MigrateP, PlanReuseMatchesAlltoallvReferenceEveryIteration) {
    run(GetParam(), [](bc::Communicator& comm) {
        const int p = comm.size();
        bg::MigratePlan<Particle> plan(comm);
        for (int iter = 0; iter < 20; ++iter) {
            // Varying per-iteration counts exercise the channel growth
            // path and the empty-block case.
            const int n = 10 + ((comm.rank() * 7 + iter * 13) % 40);
            std::vector<Particle> mine;
            std::vector<int> dest;
            for (int k = 0; k < n; ++k) {
                std::uint64_t gid = static_cast<std::uint64_t>(comm.rank()) * 10'000 +
                                    static_cast<std::uint64_t>(iter) * 100 +
                                    static_cast<std::uint64_t>(k);
                mine.push_back({gid * 0.5, iter * 1.0, 0.0, gid, comm.rank()});
                dest.push_back(static_cast<int>(beatnik::hash_mix(11, gid) %
                                                static_cast<std::uint64_t>(p)));
            }
            auto via_plan = plan.execute(std::span<const Particle>(mine),
                                         std::span<const int>(dest));
            auto via_reference = reference_migrate(comm, mine, dest);
            // Same grouping contract (by source rank ascending), so the
            // results must be byte-identical.
            ASSERT_EQ(via_plan.size(), via_reference.size()) << "iteration " << iter;
            EXPECT_TRUE(std::memcmp(via_plan.data(), via_reference.data(),
                                    via_plan.size() * sizeof(Particle)) == 0)
                << "iteration " << iter << " rank " << comm.rank();
        }
    });
}

TEST(MigratePlan, HotspotAndEmptyIterationsOnOnePlan) {
    run(5, [](bc::Communicator& comm) {
        bg::MigratePlan<Particle> plan(comm);
        // Iteration 1: everything to rank 0.
        std::vector<Particle> mine(8);
        for (std::size_t k = 0; k < mine.size(); ++k) {
            mine[k] = {1.0, 2.0, 3.0, static_cast<std::uint64_t>(k), comm.rank()};
        }
        std::vector<int> dest(8, 0);
        auto got = plan.execute(std::span<const Particle>(mine), std::span<const int>(dest));
        if (comm.rank() == 0) {
            EXPECT_EQ(got.size(), 40u);
            for (std::size_t i = 1; i < got.size(); ++i) {
                EXPECT_LE(got[i - 1].origin, got[i].origin);   // grouped by source
            }
        } else {
            EXPECT_TRUE(got.empty());
        }
        // Iteration 2: nothing moves at all.
        auto empty = plan.execute(std::span<const Particle>{}, std::span<const int>{});
        EXPECT_TRUE(empty.empty());
        // Iteration 3: keep everything local.
        std::vector<int> self_dest(8, comm.rank());
        auto self = plan.execute(std::span<const Particle>(mine), std::span<const int>(self_dest));
        ASSERT_EQ(self.size(), 8u);
        EXPECT_EQ(self[0].origin, comm.rank());
    });
}

// execute_into is the allocation-free variant the cutoff solver's
// device pipeline stages through (caller-provided grow-only storage):
// it must produce exactly the bytes of execute(), report the same
// total, and keep the caller's pointer/capacity once warm.
TEST_P(MigrateP, ExecuteIntoMatchesExecuteBitwise) {
    run(GetParam(), [](bc::Communicator& comm) {
        const int p = comm.size();
        bg::MigratePlan<Particle> plan_a(comm);
        bg::MigratePlan<Particle> plan_b(comm);
        std::vector<Particle> sink;
        for (int iter = 0; iter < 12; ++iter) {
            const int n = 5 + ((comm.rank() * 5 + iter * 17) % 30);
            std::vector<Particle> mine;
            std::vector<int> dest;
            for (int k = 0; k < n; ++k) {
                std::uint64_t gid = static_cast<std::uint64_t>(comm.rank()) * 10'000 +
                                    static_cast<std::uint64_t>(iter) * 100 +
                                    static_cast<std::uint64_t>(k);
                mine.push_back({gid * 0.25, iter * 1.0, -1.0, gid, comm.rank()});
                dest.push_back(static_cast<int>(beatnik::hash_mix(23, gid) %
                                                static_cast<std::uint64_t>(p)));
            }
            auto via_execute = plan_a.execute(std::span<const Particle>(mine),
                                              std::span<const int>(dest));
            std::size_t reported = 0;
            const std::size_t cap_before = sink.capacity();
            const std::size_t got =
                plan_b.execute_into(std::span<const Particle>(mine),
                                    std::span<const int>(dest), [&](std::size_t total) {
                                        reported = total;
                                        if (total > sink.size()) sink.resize(total);
                                        return sink.data();
                                    });
            ASSERT_EQ(reported, via_execute.size()) << "iteration " << iter;
            ASSERT_EQ(got, reported);
            EXPECT_TRUE(std::memcmp(sink.data(), via_execute.data(),
                                    reported * sizeof(Particle)) == 0)
                << "iteration " << iter << " rank " << comm.rank();
            // Grow-only caller storage: once past the high-water mark the
            // callback must not need to reallocate.
            if (iter > 0 && reported <= sink.size() && cap_before >= reported) {
                EXPECT_EQ(sink.capacity(), cap_before) << "iteration " << iter;
            }
        }
    });
}

TEST(Distribute, ParticleCanReachMultipleRanks) {
    run(4, [](bc::Communicator& comm) {
        // Rank 0 owns one particle ghosted to ranks {1,2}; everyone else
        // owns one particle kept local.
        std::vector<Particle> mine;
        std::vector<std::size_t> offs{0};
        std::vector<int> targets;
        if (comm.rank() == 0) {
            mine.push_back({7.0, 0.0, 0.0, 100, 0});
            targets = {0, 1, 2};
            offs.push_back(3);
        } else {
            mine.push_back({1.0, 0.0, 0.0, static_cast<std::uint64_t>(comm.rank()), comm.rank()});
            targets = {comm.rank()};
            offs.push_back(1);
        }
        auto received = distribute_once(comm, mine, offs, targets);
        std::size_t expected = comm.rank() <= 2 ? (comm.rank() == 0 ? 1u : 2u) : 1u;
        ASSERT_EQ(received.size(), expected);
        if (comm.rank() == 1 || comm.rank() == 2) {
            // Arrivals grouped by source: rank 0's ghost first.
            EXPECT_EQ(received[0].gid, 100u);
            EXPECT_EQ(received[1].gid, static_cast<std::uint64_t>(comm.rank()));
        }
    });
}

TEST(Distribute, ZeroTargetsDropsParticle) {
    run(3, [](bc::Communicator& comm) {
        std::vector<Particle> mine{{1.0, 2.0, 3.0, static_cast<std::uint64_t>(comm.rank()), comm.rank()}};
        std::vector<std::size_t> offs{0, 0}; // no targets: particle vanishes
        std::vector<int> targets;
        auto received = distribute_once(comm, mine, offs, targets);
        EXPECT_TRUE(received.empty());
    });
}

} // namespace
