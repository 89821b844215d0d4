// Neighbor-search tests: cell-list query results must match brute force on
// random clouds, plus structural properties (symmetry, radius scaling) and
// the self-exclusion contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.hpp"
#include "search/cell_list.hpp"
#include "test_env.hpp"

namespace bs = beatnik::search;

namespace {

std::vector<double> random_cloud(std::size_t n, std::uint64_t seed, double extent = 2.0) {
    std::vector<double> pts(3 * n);
    // `seed` is a per-test stream offset from the env-selected base seed.
    beatnik::SplitMix64 rng(beatnik::test::seed() + seed);
    for (auto& v : pts) v = rng.uniform(-extent, extent);
    return pts;
}

std::multiset<std::pair<std::uint32_t, std::uint32_t>> as_pairs(const bs::NeighborList& list) {
    std::multiset<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t q = 0; q < list.num_queries(); ++q) {
        for (auto s : list.neighbors(q)) pairs.insert({static_cast<std::uint32_t>(q), s});
    }
    return pairs;
}

/// Build a cell list over \p pts and query it — the host search path.
bs::NeighborList cell_query(const std::vector<double>& pts, const std::vector<double>& queries,
                            double radius, std::size_t self_offset) {
    bs::CellList3D cells;
    cells.build_host(pts, radius);
    return cells.query(pts, queries, self_offset);
}

class NeighborSearchP : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, NeighborSearchP,
                         ::testing::Combine(::testing::Values<std::size_t>(0, 1, 10, 100, 500),
                                            ::testing::Values(0.1, 0.5, 1.5)));

TEST_P(NeighborSearchP, MatchesBruteForceSelfQuery) {
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 1000 + n);
    auto fast = cell_query(pts, pts, radius, /*self_offset=*/0);
    auto slow = bs::brute_force_neighbors(pts, pts, radius, /*self_offset=*/0);
    EXPECT_EQ(as_pairs(fast), as_pairs(slow));
}

TEST_P(NeighborSearchP, MatchesBruteForceCrossQuery) {
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 2000 + n);
    auto queries = random_cloud(n / 2 + 1, 3000 + n);
    auto fast = cell_query(pts, queries, radius, bs::CellList3D::kNoSelf);
    auto slow = bs::brute_force_neighbors(pts, queries, radius, bs::CellList3D::kNoSelf);
    EXPECT_EQ(as_pairs(fast), as_pairs(slow));
}

TEST(NeighborSearch, SelfQueryNeighborhoodIsSymmetric) {
    auto pts = random_cloud(200, 42);
    auto list = cell_query(pts, pts, 0.8, 0);
    auto pairs = as_pairs(list);
    for (const auto& [q, s] : pairs) {
        EXPECT_TRUE(pairs.count({s, q}) == 1) << "pair (" << q << "," << s << ") not symmetric";
    }
}

TEST(NeighborSearch, LargerRadiusFindsSuperset) {
    auto pts = random_cloud(150, 77);
    auto small_pairs = as_pairs(cell_query(pts, pts, 0.4, 0));
    auto large_pairs = as_pairs(cell_query(pts, pts, 0.9, 0));
    EXPECT_TRUE(std::includes(large_pairs.begin(), large_pairs.end(), small_pairs.begin(),
                              small_pairs.end()));
    EXPECT_GT(large_pairs.size(), small_pairs.size());
}

TEST(NeighborSearch, ExactBoundaryIsExcluded) {
    // Distance exactly == radius must not count (strict inequality).
    std::vector<double> pts{0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    auto list = cell_query(pts, pts, 1.0, 0);
    EXPECT_EQ(list.count(0), 0u);
    EXPECT_EQ(list.count(1), 0u);
    auto list2 = cell_query(pts, pts, 1.0001, 0);
    EXPECT_EQ(list2.count(0), 1u);
}

TEST(NeighborSearch, DenseClusterAllPairs) {
    // All points inside one radius: every query sees all others.
    constexpr std::size_t n = 40;
    auto pts = random_cloud(n, 5, /*extent=*/0.01);
    auto list = cell_query(pts, pts, 1.0, 0);
    for (std::size_t q = 0; q < n; ++q) EXPECT_EQ(list.count(q), n - 1);
}

TEST(NeighborSearch, NegativeCoordinatesBinnedCorrectly) {
    // Regression guard: floor (not truncation) for negative coordinates.
    std::vector<double> pts{-0.05, 0.0, 0.0, 0.05, 0.0, 0.0};
    auto list = cell_query(pts, pts, 0.2, 0);
    EXPECT_EQ(list.count(0), 1u);
    EXPECT_EQ(list.count(1), 1u);
}

TEST(NeighborSearch, SelfOffsetMapsQueriesIntoSourceSuffix) {
    // The self-exclusion contract: query q excludes source q + self_offset,
    // nothing else — queries need not be an index-aligned prefix of the
    // sources. Sources = [extras ++ queries], so each query's own copy
    // lives at offset n_extra.
    auto extras = random_cloud(60, 91);
    auto queries = random_cloud(40, 92);
    std::vector<double> sources = extras;
    sources.insert(sources.end(), queries.begin(), queries.end());
    bs::CellList3D cells;
    cells.build_host(sources, 0.8);
    auto list = cells.query(sources, queries, /*self_offset=*/extras.size() / 3);
    auto all = cells.query(sources, queries, bs::CellList3D::kNoSelf);
    for (std::size_t q = 0; q < 40; ++q) {
        const auto self = static_cast<std::uint32_t>(extras.size() / 3 + q);
        auto with = all.neighbors(q);
        auto without = list.neighbors(q);
        EXPECT_EQ(with.size(), without.size() + 1) << "query " << q;
        EXPECT_TRUE(std::find(with.begin(), with.end(), self) != with.end());
        EXPECT_TRUE(std::find(without.begin(), without.end(), self) == without.end());
    }
}

TEST(NeighborSearch, SelfOffsetOutOfRangeIsRejected) {
    // A self_offset that maps any query past the last source is a caller
    // bug (a boolean "self query" flag would silently assume an aligned
    // prefix) — it must fail loudly, not mis-exclude.
    auto pts = random_cloud(10, 93);
    bs::CellList3D cells;
    cells.build_host(pts, 0.5);
    EXPECT_THROW((void)cells.query(pts, pts, 1), beatnik::Error);
    EXPECT_THROW((void)bs::brute_force_neighbors(pts, pts, 0.5, 1), beatnik::Error);
    auto some = random_cloud(4, 94);
    (void)cells.query(pts, some, 6);                                // 4 + 6 == 10: legal
    EXPECT_THROW((void)cells.query(pts, some, 7), beatnik::Error);  // maps past the end
}

TEST(NeighborSearch, RejectsBadQueries) {
    auto pts = random_cloud(10, 95);
    bs::CellList3D cells;
    cells.build_host(pts, 0.5);
    std::vector<double> bad{1.0, 2.0}; // not multiple of 3
    EXPECT_THROW((void)cells.query(pts, bad, bs::CellList3D::kNoSelf), beatnik::Error);
}

} // namespace
