// Cell-list tests: the dense count–scan–fill structure must reproduce a
// plain 27-cell stencil walk exactly — same neighbors in the same
// enumeration order (the cutoff solver's bitwise-determinism contract) —
// its stencil rows must be the contiguous CSR ranges that walk implies,
// and the device build must be byte-identical to the host build.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "base/rng.hpp"
#include "par/device/device.hpp"
#include "search/cell_list.hpp"
#include "test_env.hpp"

namespace bs = beatnik::search;
namespace bpd = beatnik::par::device;

namespace {

std::vector<double> random_cloud(std::size_t n, std::uint64_t seed, double extent = 2.0) {
    std::vector<double> pts(3 * n);
    beatnik::SplitMix64 rng(beatnik::test::seed() + seed);
    for (auto& v : pts) v = rng.uniform(-extent, extent);
    return pts;
}

/// Flattened (offsets, indices) for exact order-sensitive comparison.
struct FlatList {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> indices;
    bool operator==(const FlatList&) const = default;
};

FlatList flatten(const bs::NeighborList& l) { return {l.offsets, l.indices}; }

/// Test-local reference for the enumeration order, independent of the
/// CSR: points binned by floor(coordinate / radius) into a map, and each
/// query visits its 27 stencil cells one by one in dz/dy/dx order,
/// ascending point index within a cell, keeping hits strictly inside
/// the radius (squared compare, x + y + z summed left to right).
bs::NeighborList reference_query(const std::vector<double>& pts,
                                 const std::vector<double>& queries, double radius,
                                 std::size_t self_offset) {
    using Cell = std::array<int, 3>;
    auto cell_of = [radius](const double* p) {
        return Cell{static_cast<int>(std::floor(p[0] / radius)),
                    static_cast<int>(std::floor(p[1] / radius)),
                    static_cast<int>(std::floor(p[2] / radius))};
    };
    std::map<Cell, std::vector<std::uint32_t>> bins;
    for (std::size_t k = 0; k < pts.size() / 3; ++k) {
        bins[cell_of(&pts[3 * k])].push_back(static_cast<std::uint32_t>(k));
    }
    const double r2 = radius * radius;
    const std::size_t nq = queries.size() / 3;
    bs::NeighborList list;
    list.offsets.assign(nq + 1, 0);
    for (std::size_t q = 0; q < nq; ++q) {
        const double* qp = &queries[3 * q];
        const Cell qc = cell_of(qp);
        for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    auto it = bins.find({qc[0] + dx, qc[1] + dy, qc[2] + dz});
                    if (it == bins.end()) continue;
                    for (std::uint32_t s : it->second) {
                        if (self_offset != bs::CellList3D::kNoSelf && s == q + self_offset) {
                            continue;
                        }
                        const double* sp = &pts[3 * s];
                        const double ddx = qp[0] - sp[0];
                        const double ddy = qp[1] - sp[1];
                        const double ddz = qp[2] - sp[2];
                        if (ddx * ddx + ddy * ddy + ddz * ddz < r2) list.indices.push_back(s);
                    }
                }
            }
        }
        list.offsets[q + 1] = static_cast<std::uint32_t>(list.indices.size());
    }
    return list;
}

class CellListP : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, CellListP,
                         ::testing::Combine(::testing::Values<std::size_t>(0, 1, 10, 100, 500),
                                            ::testing::Values(0.1, 0.5, 1.5)));

TEST_P(CellListP, HostBuildMatchesReferenceIncludingOrder) {
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 1500 + n);
    bs::CellList3D cells;
    cells.build_host(pts, radius);
    // Order-sensitive equality: the cell list must reproduce the stencil
    // walk's enumeration order, not just its pair set.
    EXPECT_EQ(flatten(cells.query(pts, pts, 0)), flatten(reference_query(pts, pts, radius, 0)));
    auto queries = random_cloud(n / 2 + 1, 2500 + n);
    EXPECT_EQ(flatten(cells.query(pts, queries, bs::CellList3D::kNoSelf)),
              flatten(reference_query(pts, queries, radius, bs::CellList3D::kNoSelf)));
}

TEST_P(CellListP, StencilRowsAreTheContiguousRunsOfTheStencilCells) {
    // for_each_stencil_row must hand out, in dz/dy order, one range per
    // in-grid row, covering exactly that row's in-grid cells dx = -1..+1
    // back to back — for queries inside, on the edge of and outside the
    // grid.
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 4500 + n);
    bs::CellList3D cells;
    cells.build_host(pts, radius);
    const bs::CellGrid& g = cells.grid();
    const std::uint32_t* offs = cells.cell_offsets();
    auto queries = random_cloud(n / 2 + 1, 5500 + n, /*extent=*/2.0 + 2.0 * radius);
    for (std::size_t qi = 0; qi < queries.size() / 3; ++qi) {
        const double* qp = &queries[3 * qi];
        std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;
        bs::for_each_stencil_row(g, offs, qp, [&](std::uint32_t b, std::uint32_t e) {
            rows.emplace_back(b, e);
        });
        std::vector<std::pair<std::uint32_t, std::uint32_t>> expect;
        const int qc[3] = {bs::CellGrid::coord(qp[0], radius), bs::CellGrid::coord(qp[1], radius),
                           bs::CellGrid::coord(qp[2], radius)};
        for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
                bool any = false;
                std::uint32_t b = 0, e = 0;
                for (int dx = -1; dx <= 1; ++dx) {
                    const int cx = qc[0] + dx, cy = qc[1] + dy, cz = qc[2] + dz;
                    if (!g.contains(cx, cy, cz)) continue;
                    const std::size_t c = g.index(cx, cy, cz);
                    if (any) {
                        ASSERT_EQ(offs[c], e) << "row cells not adjacent in the CSR";
                    } else {
                        b = offs[c];
                    }
                    e = offs[c + 1];
                    any = true;
                }
                if (any) expect.emplace_back(b, e);
            }
        }
        ASSERT_LE(rows.size(), 9u);
        EXPECT_EQ(rows, expect) << "query " << qi;
    }
}

TEST_P(CellListP, DeviceBuildIsByteIdenticalToHostBuild) {
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 3500 + n);
    bs::CellList3D host_cells;
    host_cells.build_host(pts, radius);

    bpd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
    bpd::Queue q;
    bs::CellList3D dev_cells;
    dev_cells.build_device(q, pts.data(), pts.size(), radius);

    ASSERT_EQ(dev_cells.size(), host_cells.size());
    const auto& hg = host_cells.grid();
    const auto& dg = dev_cells.grid();
    EXPECT_EQ(dg.lo, hg.lo);
    EXPECT_EQ(dg.n, hg.n);
    const std::size_t ncells = hg.num_cells();
    for (std::size_t c = 0; c <= ncells; ++c) {
        ASSERT_EQ(dev_cells.cell_offsets()[c], host_cells.cell_offsets()[c]) << "cell " << c;
    }
    for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(dev_cells.cell_points()[k], host_cells.cell_points()[k]) << "slot " << k;
    }
}

TEST(CellList, DeviceRebuildSteadyStateAllocatesNothingNew) {
    // Grow-only staging: a second build over a same-size cloud must reuse
    // every buffer (the cutoff solver rebuilds per derivative eval).
    auto pts = random_cloud(400, 47);
    bpd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
    bpd::Queue q;
    bs::CellList3D cells;
    cells.build_device(q, pts.data(), pts.size(), 0.5);
    const auto* offsets = cells.cell_offsets();
    const auto* points = cells.cell_points();
    cells.build_device(q, pts.data(), pts.size(), 0.5);
    EXPECT_EQ(cells.cell_offsets(), offsets);
    EXPECT_EQ(cells.cell_points(), points);
}

TEST(CellList, VisitNeighborsEnumeratesInReferenceOrder) {
    // The fused-kernel entry point: visiting must produce the same hit
    // stream as the reference stencil walk.
    auto pts = random_cloud(120, 48);
    bs::CellList3D cells;
    cells.build_host(pts, 0.7);
    auto list = reference_query(pts, pts, 0.7, bs::CellList3D::kNoSelf);
    const double r2 = 0.7 * 0.7;
    for (std::size_t qi = 0; qi < 120; ++qi) {
        std::vector<std::uint32_t> seen;
        bs::visit_neighbors(cells.grid(), cells.cell_offsets(), cells.cell_points(), pts.data(),
                            pts.data() + 3 * qi, r2,
                            [&](std::uint32_t s) { seen.push_back(s); });
        auto expect = list.neighbors(qi);
        ASSERT_EQ(seen.size(), expect.size()) << "query " << qi;
        EXPECT_TRUE(std::equal(seen.begin(), seen.end(), expect.begin()));
    }
}

TEST(CellList, RejectsBadInput) {
    bs::CellList3D cells;
    std::vector<double> bad{1.0, 2.0};
    EXPECT_THROW(cells.build_host(bad, 1.0), beatnik::Error);
    std::vector<double> ok{1.0, 2.0, 3.0};
    EXPECT_THROW(cells.build_host(ok, 0.0), beatnik::Error);
    EXPECT_THROW(cells.build_host(ok, -1.0), beatnik::Error);
}

} // namespace
