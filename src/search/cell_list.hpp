/// \file cell_list.hpp
/// \brief Fixed-radius neighbor search over 3D point sets — the ArborX
/// stand-in of the cutoff Birkhoff–Rott solver (paper §3.2 step 3): a
/// device-friendly cell list built by count–scan–fill over a dense grid.
///
/// The structure is the classic GPU cell list:
///
///   1. bounds   — per-chunk min/max of the points' cell coordinates,
///                 folded on the host (min/max are associative, so the
///                 chunking cannot change the result);
///   2. count    — one atomic increment per point into a dense per-cell
///                 counter array;
///   3. scan     — deterministic exclusive prefix scan of the counters
///                 (par/device/scan.hpp) giving CSR cell offsets;
///   4. fill     — atomic-cursor scatter of point indices into their
///                 cells (order within a cell is racy here);
///   5. sort     — per-cell ascending sort of the point indices, which
///                 erases the fill races and makes the structure exactly
///                 what the serial fill-in-index-order build produces.
///
/// Cells are cubes of edge == search radius, addressed by
/// floor(coordinate / radius), and linearized x-fastest:
/// index = (iz * ny + iy) * nx + ix. The x-neighbors of one (y, z) row
/// are therefore adjacent in the CSR, so a query's 27-cell stencil is
/// exactly 9 contiguous slot ranges — one per (dz, dy) row, with x
/// clamped to the grid (for_each_stencil_row). Every query in the
/// codebase walks those rows.
///
/// Bitwise contract: the enumeration order is fixed — rows in dz/dy
/// order, cells dx = -1, 0, +1 within a row, ascending point index within
/// a cell — and the host and device builds produce byte-identical CSR
/// arrays. Any floating-point accumulation over the hits (the cutoff
/// solver's kernel sum) is therefore bitwise identical across builds,
/// backends and schedules, and unchanged by how a caller lays out the
/// per-slot source data, as long as it visits the same slots in order.
///
/// All storage is grow-only (PinnedStore): a steady-state rebuild over a
/// same-or-smaller point cloud allocates nothing, and the device build's
/// kernels write straight into the registered staging.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "base/error.hpp"
#include "par/device/device.hpp"
#include "par/device/scan.hpp"

namespace beatnik::search {

/// Compressed (CSR) neighbor lists: neighbors of query point q are
/// indices[offsets[q] .. offsets[q+1]).
struct NeighborList {
    std::vector<std::uint32_t> offsets; ///< size = #queries + 1
    std::vector<std::uint32_t> indices; ///< concatenated neighbor ids

    [[nodiscard]] std::size_t num_queries() const {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }
    [[nodiscard]] std::size_t count(std::size_t q) const {
        return offsets[q + 1] - offsets[q];
    }
    [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t q) const {
        return {indices.data() + offsets[q], count(q)};
    }
};

/// Kernel-safe description of the dense cell grid (POD, captured by
/// value into device kernels).
struct CellGrid {
    double cell = 0.0;             ///< cell edge length == search radius
    std::array<int, 3> lo{};       ///< minimum cell coordinate per axis
    std::array<int, 3> n{1, 1, 1}; ///< cells per axis (>= 1)

    /// Cell coordinate of a position along one axis (floor, so negative
    /// coordinates bin below zero rather than truncating toward it).
    [[nodiscard]] static int coord(double v, double cell) {
        return static_cast<int>(std::floor(v / cell));
    }

    [[nodiscard]] std::size_t num_cells() const {
        return static_cast<std::size_t>(n[0]) * static_cast<std::size_t>(n[1]) *
               static_cast<std::size_t>(n[2]);
    }

    /// Linear cell index of *absolute* cell coordinates (must be inside).
    [[nodiscard]] std::size_t index(int cx, int cy, int cz) const {
        const auto ix = static_cast<std::size_t>(cx - lo[0]);
        const auto iy = static_cast<std::size_t>(cy - lo[1]);
        const auto iz = static_cast<std::size_t>(cz - lo[2]);
        return (iz * static_cast<std::size_t>(n[1]) + iy) * static_cast<std::size_t>(n[0]) + ix;
    }

    [[nodiscard]] bool contains(int cx, int cy, int cz) const {
        return cx >= lo[0] && cx < lo[0] + n[0] && cy >= lo[1] && cy < lo[1] + n[1] &&
               cz >= lo[2] && cz < lo[2] + n[2];
    }
};

/// Walk query position \p qp's 27-cell stencil as its (at most) 9
/// contiguous CSR slot ranges: calls f(begin, end) once per in-grid
/// (dz, dy) row, rows in dz/dy order, where [begin, end) covers the row's
/// in-grid cells dx = -1, 0, +1 in order. Pure index math over the cell
/// offsets, so it runs in host code and device kernels alike.
template <class F>
inline void for_each_stencil_row(const CellGrid& g, const std::uint32_t* cell_offsets,
                                 const double* qp, F&& f) {
    const int qx = CellGrid::coord(qp[0], g.cell);
    const int qy = CellGrid::coord(qp[1], g.cell);
    const int qz = CellGrid::coord(qp[2], g.cell);
    const int xlo = std::max(qx - 1, g.lo[0]);
    const int xhi = std::min(qx + 1, g.lo[0] + g.n[0] - 1);
    if (xlo > xhi) return;
    for (int cz = qz - 1; cz <= qz + 1; ++cz) {
        if (cz < g.lo[2] || cz >= g.lo[2] + g.n[2]) continue;
        for (int cy = qy - 1; cy <= qy + 1; ++cy) {
            if (cy < g.lo[1] || cy >= g.lo[1] + g.n[1]) continue;
            f(cell_offsets[g.index(xlo, cy, cz)], cell_offsets[g.index(xhi, cy, cz) + 1]);
        }
    }
}

/// Enumerate the sources within \p radius (strict, squared compare) of
/// query position \p qp in the stencil-row order of for_each_stencil_row,
/// ascending point index within each cell. Calls f(source_index) for
/// every hit, *including* an identical-position / self source —
/// exclusion is the caller's policy. Usable from host code and device
/// kernels alike (pure pointer math over the CSR arrays).
template <class F>
inline void visit_neighbors(const CellGrid& g, const std::uint32_t* cell_offsets,
                            const std::uint32_t* cell_points, const double* points,
                            const double* qp, double r2, F&& f) {
    for_each_stencil_row(g, cell_offsets, qp, [&](std::uint32_t begin, std::uint32_t end) {
        for (std::uint32_t m = begin; m < end; ++m) {
            const std::uint32_t s = cell_points[m];
            const double* sp = points + 3 * static_cast<std::size_t>(s);
            const double ddx = qp[0] - sp[0];
            const double ddy = qp[1] - sp[1];
            const double ddz = qp[2] - sp[2];
            if (ddx * ddx + ddy * ddy + ddz * ddz < r2) f(s);
        }
    });
}

/// Dense cell list over a 3D point set, rebuilt per particle snapshot.
///
/// Build on the host (serial, index-order fill) or on the device
/// (count–scan–fill kernels); the resulting CSR arrays are bitwise
/// identical either way. Query via the host query() (a NeighborList) or
/// by fusing visit_neighbors() / for_each_stencil_row() into a kernel
/// over the exported raw arrays.
class CellList3D {
public:
    /// Pass as query()'s \p self_offset when the query set is unrelated
    /// to the source set (no self-pair to exclude).
    static constexpr std::size_t kNoSelf = static_cast<std::size_t>(-1);

    /// Guard against pathological sparse clouds: a dense grid over a
    /// bounding box much larger than the radius would explode. The
    /// cutoff solver's box/cutoff ratios live far below this.
    static constexpr std::size_t kMaxCells = std::size_t{1} << 24;

    CellList3D() = default;

    [[nodiscard]] std::size_t size() const { return n_; }
    [[nodiscard]] double radius() const { return radius_; }
    [[nodiscard]] const CellGrid& grid() const { return grid_; }
    /// CSR cell offsets (num_cells + 1 entries).
    [[nodiscard]] const std::uint32_t* cell_offsets() const { return offsets_.data(); }
    /// Point indices grouped by cell, ascending within each cell.
    [[nodiscard]] const std::uint32_t* cell_points() const { return points_by_cell_.data(); }

    /// Serial build: assign cells, count, scan, then fill in ascending
    /// point order (so per-cell lists are sorted by construction).
    void build_host(std::span<const double> points, double radius) {
        begin_build(points.data(), points.size(), radius);
        if (n_ == 0) return;
        const double* pts = points.data();
        int mn[3], mx[3];
        for (int d = 0; d < 3; ++d) {
            mn[d] = mx[d] = CellGrid::coord(pts[d], radius);
        }
        for (std::size_t k = 1; k < n_; ++k) {
            for (int d = 0; d < 3; ++d) {
                const int c = CellGrid::coord(pts[3 * k + static_cast<std::size_t>(d)], radius);
                mn[d] = c < mn[d] ? c : mn[d];
                mx[d] = c > mx[d] ? c : mx[d];
            }
        }
        const std::size_t ncells = set_grid(mn, mx, /*pin=*/false);
        std::uint32_t* counts = offsets_.data();
        std::uint32_t* cell_of = cell_of_.data();
        for (std::size_t c = 0; c <= ncells; ++c) counts[c] = 0;
        for (std::size_t k = 0; k < n_; ++k) {
            const std::size_t c = cell_of_point(pts + 3 * k);
            cell_of[k] = static_cast<std::uint32_t>(c);
            ++counts[c];
        }
        std::uint32_t total = 0;
        for (std::size_t c = 0; c < ncells; ++c) {
            const std::uint32_t v = counts[c];
            counts[c] = total;
            total += v;
        }
        counts[ncells] = total;
        std::uint32_t* cursors = cursors_.data();
        for (std::size_t c = 0; c < ncells; ++c) cursors[c] = counts[c];
        for (std::size_t k = 0; k < n_; ++k) {
            points_by_cell_[cursors[cell_of[k]]++] = static_cast<std::uint32_t>(k);
        }
    }

    /// Device build over device-accessible \p points (registered host
    /// range or device heap): the count–scan–fill kernels of the file
    /// header, enqueued on \p q and fenced (the scan already requires
    /// host participation, and callers consume the totals immediately).
    /// Steady-state rebuilds are allocation-free once staging has grown
    /// to its high-water mark.
    void build_device(par::device::Queue& q, const double* points, std::size_t coords,
                      double radius) {
        begin_build(points, coords, radius);
        if (n_ == 0) return;
        const double cell = radius;
        const std::size_t nchunks = (n_ + kBoundsChunk - 1) / kBoundsChunk;
        bounds_.ensure_pinned(nchunks);
        // 1. bounds: per-chunk min/max cell coordinates, host fold.
        namespace dc = par::device::devcheck;
        {
            Bounds* parts = bounds_.data();
            const double* pts = points;
            const std::size_t n = n_;
            dc::declare(q, "cell-list bounds",
                        {dc::read(pts, 3 * n * sizeof(double)),
                         dc::write(parts, nchunks * sizeof(Bounds))});
            q.parallel_for(nchunks, [parts, pts, n, cell](std::size_t c) {
                const std::size_t b = c * kBoundsChunk;
                const std::size_t e = b + kBoundsChunk < n ? b + kBoundsChunk : n;
                Bounds bd;
                for (int d = 0; d < 3; ++d) {
                    bd.mn[d] = bd.mx[d] =
                        CellGrid::coord(pts[3 * b + static_cast<std::size_t>(d)], cell);
                }
                for (std::size_t k = b + 1; k < e; ++k) {
                    for (int d = 0; d < 3; ++d) {
                        const int v =
                            CellGrid::coord(pts[3 * k + static_cast<std::size_t>(d)], cell);
                        bd.mn[d] = v < bd.mn[d] ? v : bd.mn[d];
                        bd.mx[d] = v > bd.mx[d] ? v : bd.mx[d];
                    }
                }
                parts[c] = bd;
            });
            q.fence(); // devcheck: fenced — host folds the bounds partials
        }
        int mn[3], mx[3];
        for (int d = 0; d < 3; ++d) {
            mn[d] = bounds_[0].mn[d];
            mx[d] = bounds_[0].mx[d];
        }
        for (std::size_t c = 1; c < nchunks; ++c) {
            for (int d = 0; d < 3; ++d) {
                mn[d] = std::min(mn[d], bounds_[c].mn[d]);
                mx[d] = std::max(mx[d], bounds_[c].mx[d]);
            }
        }
        const std::size_t ncells = set_grid(mn, mx, /*pin=*/true);

        std::uint32_t* counts = offsets_.data();
        std::uint32_t* cell_of = cell_of_.data();
        std::uint32_t* cursors = cursors_.data();
        std::uint32_t* by_cell = points_by_cell_.data();
        const CellGrid g = grid_;
        const double* pts = points;
        // 2. count (+ remember each point's cell for the fill).
        dc::declare(q, "cell-list zero counts",
                    {dc::write(counts, (ncells + 1) * sizeof(std::uint32_t))});
        q.parallel_for(ncells + 1, [counts](std::size_t c) { counts[c] = 0; });
        dc::declare(q, "cell-list count",
                    {dc::read(pts, 3 * n_ * sizeof(double)),
                     dc::write(cell_of, n_ * sizeof(std::uint32_t)),
                     dc::write(counts, ncells * sizeof(std::uint32_t))});
        q.parallel_for(n_, [counts, cell_of, pts, g](std::size_t k) {
            const double* p = pts + 3 * k;
            const std::size_t c = g.index(CellGrid::coord(p[0], g.cell),
                                          CellGrid::coord(p[1], g.cell),
                                          CellGrid::coord(p[2], g.cell));
            cell_of[k] = static_cast<std::uint32_t>(c);
            std::atomic_ref<std::uint32_t>(counts[c]).fetch_add(1, std::memory_order_relaxed);
        });
        // 3. scan (fences internally; the host fold needs the partials).
        const std::uint32_t total = par::device::exclusive_scan(q, counts, ncells, scan_);
        BEATNIK_ASSERT(total == n_);
        offsets_[ncells] = total;
        // 4. fill through atomic per-cell cursors (racy within a cell).
        dc::declare(q, "cell-list cursor init",
                    {dc::read(counts, ncells * sizeof(std::uint32_t)),
                     dc::write(cursors, ncells * sizeof(std::uint32_t))});
        q.parallel_for(ncells, [cursors, counts](std::size_t c) { cursors[c] = counts[c]; });
        dc::declare(q, "cell-list fill",
                    {dc::read(cell_of, n_ * sizeof(std::uint32_t)),
                     dc::write(cursors, ncells * sizeof(std::uint32_t)),
                     dc::write(by_cell, n_ * sizeof(std::uint32_t))});
        q.parallel_for(n_, [cursors, cell_of, by_cell](std::size_t k) {
            const std::uint32_t slot = std::atomic_ref<std::uint32_t>(cursors[cell_of[k]])
                                           .fetch_add(1, std::memory_order_relaxed);
            by_cell[slot] = static_cast<std::uint32_t>(k);
        });
        // 5. per-cell ascending insertion sort: erases the fill races and
        // reproduces the serial fill-in-index-order layout bit for bit.
        dc::declare(q, "cell-list sort",
                    {dc::read(counts, (ncells + 1) * sizeof(std::uint32_t)),
                     dc::write(by_cell, n_ * sizeof(std::uint32_t))});
        q.parallel_for(ncells, [counts, by_cell](std::size_t c) {
            const std::uint32_t b = counts[c];
            const std::uint32_t e = counts[c + 1];
            for (std::uint32_t i = b + 1; i < e; ++i) {
                const std::uint32_t v = by_cell[i];
                std::uint32_t j = i;
                while (j > b && by_cell[j - 1] > v) {
                    by_cell[j] = by_cell[j - 1];
                    --j;
                }
                by_cell[j] = v;
            }
        });
        q.fence(); // devcheck: fenced — callers consume the CSR on the host
    }

    /// Neighbor lists for every query point (host compute; kernels fuse
    /// visit_neighbors instead of materializing a list). \p self_offset
    /// makes the self-interaction exclusion explicit: query q corresponds
    /// to source q + self_offset, and that one source is skipped; kNoSelf
    /// disables exclusion. A mapping past the last source is rejected.
    /// \p points must be the build's point array.
    [[nodiscard]] NeighborList query(std::span<const double> points,
                                     std::span<const double> queries,
                                     std::size_t self_offset) const {
        BEATNIK_REQUIRE(queries.size() % 3 == 0, "queries must be N x 3 coordinates");
        const std::size_t nq = queries.size() / 3;
        BEATNIK_REQUIRE(self_offset == kNoSelf || self_offset + nq <= n_,
                        "self_offset must map every query onto a source index");
        const double r2 = radius_ * radius_;
        NeighborList list;
        list.offsets.resize(nq + 1, 0);
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t q = 0; q < nq; ++q) {
                const std::size_t self =
                    self_offset == kNoSelf ? kNoSelf : q + self_offset;
                std::uint32_t written = 0;
                visit_neighbors(grid_, offsets_.data(), points_by_cell_.data(), points.data(),
                                queries.data() + 3 * q, r2, [&](std::uint32_t s) {
                                    if (s == self) return;
                                    if (pass == 1) {
                                        list.indices[list.offsets[q] + written] = s;
                                    }
                                    ++written;
                                });
                if (pass == 0) list.offsets[q + 1] = written;
            }
            if (pass == 0) {
                for (std::size_t q = 0; q < nq; ++q) list.offsets[q + 1] += list.offsets[q];
                list.indices.resize(list.offsets[nq]);
            }
        }
        return list;
    }

    /// A boolean "self query" flag is a compile error: `true` would
    /// silently convert to self_offset == 1 and exclude the *wrong*
    /// source. (A deduced template so integer literals still bind to the
    /// std::size_t overload above.)
    template <class B, std::enable_if_t<std::is_same_v<B, bool>, int> = 0>
    NeighborList query(std::span<const double>, std::span<const double>, B) const = delete;

private:
    struct Bounds {
        int mn[3];
        int mx[3];
    };
    static constexpr std::size_t kBoundsChunk = par::device::kScanChunk;

    /// Shared build preamble: validate, record shape, grow (host) or
    /// grow-and-pin (device callers pin afterwards via ensure_pinned on
    /// their own ensure calls) the staging.
    void begin_build(const double* points, std::size_t coords, double radius) {
        BEATNIK_REQUIRE(radius > 0.0, "search radius must be positive");
        BEATNIK_REQUIRE(coords % 3 == 0, "points must be N x 3 coordinates");
        BEATNIK_REQUIRE(coords == 0 || points != nullptr, "null point array");
        n_ = coords / 3;
        radius_ = radius;
        if (n_ == 0) {
            grid_ = CellGrid{radius, {0, 0, 0}, {1, 1, 1}};
            offsets_.ensure(2);
            offsets_[0] = offsets_[1] = 0;
        }
    }

    /// Fix the grid from folded cell-coordinate bounds and size the CSR
    /// staging (pinned when the device build's kernels will write it —
    /// the host build never touches the device runtime). Both builds
    /// funnel through here, so host/device grids are identical by
    /// construction.
    std::size_t set_grid(const int (&mn)[3], const int (&mx)[3], bool pin) {
        grid_.cell = radius_;
        for (int d = 0; d < 3; ++d) {
            grid_.lo[static_cast<std::size_t>(d)] = mn[d];
            grid_.n[static_cast<std::size_t>(d)] = mx[d] - mn[d] + 1;
        }
        const std::size_t ncells = grid_.num_cells();
        BEATNIK_REQUIRE(ncells <= kMaxCells,
                        "cell list grid too large — point cloud too sparse for this radius");
        if (pin) {
            offsets_.ensure_pinned(ncells + 1);
            cursors_.ensure_pinned(ncells);
            cell_of_.ensure_pinned(n_);
            points_by_cell_.ensure_pinned(n_);
        } else {
            offsets_.ensure(ncells + 1);
            cursors_.ensure(ncells);
            cell_of_.ensure(n_);
            points_by_cell_.ensure(n_);
        }
        return ncells;
    }

    [[nodiscard]] std::size_t cell_of_point(const double* p) const {
        return grid_.index(CellGrid::coord(p[0], grid_.cell), CellGrid::coord(p[1], grid_.cell),
                           CellGrid::coord(p[2], grid_.cell));
    }

    CellGrid grid_;
    double radius_ = 0.0;
    std::size_t n_ = 0;
    par::device::PinnedStore<std::uint32_t> offsets_;        ///< ncells + 1
    par::device::PinnedStore<std::uint32_t> cursors_;        ///< fill cursors
    par::device::PinnedStore<std::uint32_t> cell_of_;        ///< per-point cell
    par::device::PinnedStore<std::uint32_t> points_by_cell_; ///< CSR payload
    par::device::PinnedStore<Bounds> bounds_;                ///< bounds partials
    par::device::ScanScratch scan_;
};

/// O(N*M) reference used by tests and accuracy studies. \p self_offset
/// follows the CellList3D::query contract (CellList3D::kNoSelf disables
/// self-pair exclusion).
[[nodiscard]] inline NeighborList brute_force_neighbors(std::span<const double> points,
                                                        std::span<const double> queries,
                                                        double radius,
                                                        std::size_t self_offset) {
    constexpr std::size_t kNoSelf = CellList3D::kNoSelf;
    const std::size_t n = points.size() / 3;
    const std::size_t nq = queries.size() / 3;
    BEATNIK_REQUIRE(self_offset == kNoSelf || self_offset + nq <= n,
                    "self_offset must map every query onto a source index");
    const double r2 = radius * radius;
    NeighborList list;
    list.offsets.resize(nq + 1, 0);
    for (std::size_t q = 0; q < nq; ++q) {
        const std::size_t self = self_offset == kNoSelf ? kNoSelf : q + self_offset;
        for (std::size_t s = 0; s < n; ++s) {
            if (s == self) continue;
            double d2 = 0.0;
            for (int d = 0; d < 3; ++d) {
                double diff = queries[3 * q + static_cast<std::size_t>(d)] -
                              points[3 * s + static_cast<std::size_t>(d)];
                d2 += diff * diff;
            }
            if (d2 < r2) {
                list.indices.push_back(static_cast<std::uint32_t>(s));
                ++list.offsets[q + 1];
            }
        }
    }
    for (std::size_t q = 0; q < nq; ++q) list.offsets[q + 1] += list.offsets[q];
    return list;
}

} // namespace beatnik::search
