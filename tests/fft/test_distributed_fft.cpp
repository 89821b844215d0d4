// Distributed FFT tests: every (AllToAll, Pencils, Reorder) configuration
// on several process grids must reproduce the serial 2D transform exactly,
// the static schedule planner must conserve bytes, and the reshape
// exchanges must keep their message schedules and their zero-allocation
// steady state (per-thread counting global allocator — this TU replaces
// operator new/delete for this test binary only).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numbers>
#include <string>
#include <tuple>

#include "base/rng.hpp"
#include "comm/plancheck.hpp"
#include "fft/distributed_fft.hpp"
#include "fft/distributed_fft3d.hpp"
#include "par/device/devcheck.hpp"
#include "test_env.hpp"

namespace bf = beatnik::fft;
namespace bc = beatnik::comm;
using bf::cplx;

// The replacement operators pair malloc-family allocation with free();
// GCC's heuristic cannot see through the replacement and reports
// mismatched new/delete at every inlined call site in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
/// Allocations performed by the current thread since start-up.
thread_local std::uint64_t t_allocs = 0;
} // namespace

void* operator new(std::size_t n) {
    ++t_allocs;
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
    ++t_allocs;
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 60.0;
    bc::Context::run(nranks, fn, cfg);
}

/// Serial reference 2D FFT via row-column decomposition on one rank.
std::vector<cplx> serial_fft2d(std::vector<cplx> data, int n0, int n1, bool inverse) {
    bf::SerialFFT1D p1(static_cast<std::size_t>(n1));
    for (int i = 0; i < n0; ++i) {
        cplx* row = data.data() + static_cast<std::ptrdiff_t>(i) * n1;
        inverse ? p1.inverse(row) : p1.forward(row);
    }
    bf::SerialFFT1D p0(static_cast<std::size_t>(n0));
    for (int j = 0; j < n1; ++j) {
        cplx* col = data.data() + j;
        inverse ? p0.inverse_strided(col, static_cast<std::size_t>(n1))
                : p0.forward_strided(col, static_cast<std::size_t>(n1));
    }
    return data;
}

std::vector<cplx> global_signal(int n0, int n1, std::uint64_t seed) {
    std::vector<cplx> x(static_cast<std::size_t>(n0) * static_cast<std::size_t>(n1));
    // `seed` is a per-test stream offset from the env-selected base seed.
    const std::uint64_t s = beatnik::test::seed() + seed;
    for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] = {beatnik::hash_uniform(s, k) - 0.5, beatnik::hash_uniform(s + 1, k) - 0.5};
    }
    return x;
}

struct DistCase {
    std::array<int, 2> topo;
    std::array<int, 2> global;
    int config_index; // Table-1 index 0..7
};

class DistributedFFTP : public ::testing::TestWithParam<DistCase> {};

std::vector<DistCase> all_cases() {
    std::vector<DistCase> cases;
    for (int cfg = 0; cfg < 8; ++cfg) {
        cases.push_back({{2, 2}, {16, 16}, cfg});
        cases.push_back({{2, 3}, {12, 18}, cfg});  // uneven blocks, Bluestein 12/18
        cases.push_back({{1, 4}, {8, 32}, cfg});   // degenerate row topology
        cases.push_back({{4, 1}, {32, 8}, cfg});   // degenerate column topology
    }
    cases.push_back({{3, 3}, {27, 9}, 0});
    cases.push_back({{3, 3}, {27, 9}, 7});
    cases.push_back({{1, 1}, {8, 8}, 5}); // single rank
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedFFTP, ::testing::ValuesIn(all_cases()));

TEST_P(DistributedFFTP, ForwardMatchesSerialReference) {
    const auto tc = GetParam();
    const int p = tc.topo[0] * tc.topo[1];
    auto global_in = global_signal(tc.global[0], tc.global[1], 99);
    auto expected = serial_fft2d(global_in, tc.global[0], tc.global[1], /*inverse=*/false);

    run(p, [&](bc::Communicator& comm) {
        auto cfg = bf::FFTConfig::from_table1_index(tc.config_index);
        bf::DistributedFFT2D fft(comm, tc.global, tc.topo, cfg);
        const auto& box = fft.local_box();
        // Load my brick from the global signal.
        std::vector<cplx> local(box.size());
        std::size_t k = 0;
        for (int i = box.i.begin; i < box.i.end; ++i) {
            for (int j = box.j.begin; j < box.j.end; ++j) {
                local[k++] = global_in[static_cast<std::size_t>(i) * tc.global[1] + j];
            }
        }
        fft.forward(local);
        k = 0;
        for (int i = box.i.begin; i < box.i.end; ++i) {
            for (int j = box.j.begin; j < box.j.end; ++j) {
                cplx want = expected[static_cast<std::size_t>(i) * tc.global[1] + j];
                EXPECT_LT(std::abs(local[k] - want), 1e-8)
                    << "config " << tc.config_index << " at (" << i << "," << j << ")";
                ++k;
            }
        }
    });
}

TEST_P(DistributedFFTP, RoundTripIsIdentity) {
    const auto tc = GetParam();
    const int p = tc.topo[0] * tc.topo[1];
    run(p, [&](bc::Communicator& comm) {
        auto cfg = bf::FFTConfig::from_table1_index(tc.config_index);
        bf::DistributedFFT2D fft(comm, tc.global, tc.topo, cfg);
        const auto& box = fft.local_box();
        std::vector<cplx> local(box.size());
        for (std::size_t k = 0; k < local.size(); ++k) {
            std::uint64_t gk = static_cast<std::uint64_t>(comm.rank()) * 100000 + k;
            local[k] = {beatnik::hash_uniform(7, gk), beatnik::hash_uniform(8, gk)};
        }
        auto original = local;
        fft.forward(local);
        fft.inverse(local);
        for (std::size_t k = 0; k < local.size(); ++k) {
            EXPECT_LT(std::abs(local[k] - original[k]), 1e-9);
        }
    });
}

TEST(DistributedFFT, AllConfigsProduceIdenticalSpectra) {
    // Property check across the whole Table-1 sweep: bitwise-comparable
    // results within floating-point tolerance.
    const std::array<int, 2> topo{2, 2};
    const std::array<int, 2> global{24, 16};
    auto input = global_signal(global[0], global[1], 1234);

    std::vector<std::vector<cplx>> spectra(8);
    for (int idx = 0; idx < 8; ++idx) {
        std::vector<cplx> assembled(input.size());
        std::mutex m;
        run(4, [&](bc::Communicator& comm) {
            bf::DistributedFFT2D fft(comm, global, topo, bf::FFTConfig::from_table1_index(idx));
            const auto& box = fft.local_box();
            std::vector<cplx> local(box.size());
            std::size_t k = 0;
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) {
                    local[k++] = input[static_cast<std::size_t>(i) * global[1] + j];
                }
            }
            fft.forward(local);
            std::lock_guard lock(m);
            k = 0;
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) {
                    assembled[static_cast<std::size_t>(i) * global[1] + j] = local[k++];
                }
            }
        });
        spectra[static_cast<std::size_t>(idx)] = std::move(assembled);
    }
    for (int idx = 1; idx < 8; ++idx) {
        double err = 0.0;
        for (std::size_t k = 0; k < input.size(); ++k) {
            err = std::max(err, std::abs(spectra[0][k] - spectra[static_cast<std::size_t>(idx)][k]));
        }
        EXPECT_LT(err, 1e-9) << "config " << idx << " differs from config 0";
    }
}

TEST(Reshape, EnableDeviceAfterHostBindPinsTheExistingPlan) {
    // Regression: enable_device() on a ReshapePlan whose p2p plan was
    // already bound by host sweeps must pin the existing binding and
    // size the per-slot event storage — bind()'s same-communicator early
    // return used to skip both, leaving the device sweep indexing empty
    // event vectors and packing into unpinned buffers.
    run(4, [](bc::Communicator& comm) {
        std::array<int, 2> global{16, 16};
        auto dims = beatnik::grid::dims_create_2d(comm.size());
        auto bricks = bf::brick_boxes(global, dims);
        auto pencils = bf::pencil_boxes(global, comm.size(), /*long_axis=*/1);
        bf::ReshapePlan plan(comm.rank(), bricks, pencils);
        bf::Layout2D src{bricks[static_cast<std::size_t>(comm.rank())], 1};
        bf::Layout2D dst{pencils[static_cast<std::size_t>(comm.rank())], 1};
        std::vector<cplx> in(src.size());
        for (std::size_t k = 0; k < in.size(); ++k) {
            in[k] = {static_cast<double>(k % 13), static_cast<double>(comm.rank())};
        }
        std::vector<cplx> host_out;
        plan.execute(comm, src, std::span<const cplx>(in), dst, host_out,
                     /*use_alltoall=*/false);   // binds the p2p plan, host path

        beatnik::par::device::Queue q;
        beatnik::par::device::ScopedHostRegistration pin_in{std::span<const cplx>(in)};
        plan.enable_device(q);
        EXPECT_TRUE(plan.device_enabled());
        std::vector<cplx> dev_out(dst.size());
        beatnik::par::device::ScopedHostRegistration pin_out{std::span<const cplx>(
            dev_out.data(), dev_out.size())};
        plan.execute(comm, src, std::span<const cplx>(in), dst, dev_out,
                     /*use_alltoall=*/false);
        EXPECT_EQ(host_out, dev_out) << "rank " << comm.rank();
    });
}

// ------------------------------------------------------ reshape exchanges

/// (src, dst, bytes) of one point-to-point message.
using Msg = std::tuple<int, int, std::size_t>;

/// Every plan publish of one forward transform, from the context trace.
std::vector<Msg> traced_forward(std::array<int, 2> topo, std::array<int, 2> global, int idx) {
    std::vector<Msg> msgs;
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 60.0;
    cfg.enable_trace = true;
    bc::Context::run(topo[0] * topo[1], [&](bc::Communicator& comm) {
        bf::DistributedFFT2D fft(comm, global, topo, bf::FFTConfig::from_table1_index(idx));
        std::vector<cplx> local(fft.local_box().size(), cplx{1.0, 0.0});
        fft.forward(local);
        comm.barrier();   // every rank's publishes are recorded
        if (comm.rank() == 0) {
            for (const auto& r : comm.context().trace()->snapshot()) {
                if (bc::tags::is_plan(r.tag)) msgs.emplace_back(r.src_world, r.dst_world, r.bytes);
            }
        }
    }, cfg);
    std::sort(msgs.begin(), msgs.end());
    return msgs;
}

TEST(ReshapeExchange, AllToAllIsDenseAndP2PMessagesOnlyOverlappingPeers) {
    // Configs 4-7: every rank publishes to every other rank once per
    // reshape (P-1 messages), zero-byte blocks included. Configs 0-3:
    // only the overlapping peers of the planned schedule.
    for (auto [topo, global] : {std::pair{std::array<int, 2>{2, 2}, std::array<int, 2>{16, 16}},
                                std::pair{std::array<int, 2>{2, 3}, std::array<int, 2>{12, 18}}}) {
        const int p = topo[0] * topo[1];
        for (int idx = 0; idx < 8; ++idx) {
            const auto cfg = bf::FFTConfig::from_table1_index(idx);
            std::vector<Msg> want;
            for (const auto& phase : bf::DistributedFFT2D::plan_schedule(global, topo, cfg)) {
                std::vector<std::size_t> bytes(static_cast<std::size_t>(p * p), 0);
                for (const auto& m : phase.messages) {
                    if (!cfg.use_alltoall) want.emplace_back(m.src, m.dst, m.bytes);
                    bytes[static_cast<std::size_t>(m.src * p + m.dst)] = m.bytes;
                }
                for (int src = 0; cfg.use_alltoall && src < p; ++src) {
                    for (int dst = 0; dst < p; ++dst) {
                        if (dst != src) {
                            want.emplace_back(src, dst,
                                              bytes[static_cast<std::size_t>(src * p + dst)]);
                        }
                    }
                }
            }
            std::sort(want.begin(), want.end());
            if (cfg.use_alltoall) {
                EXPECT_EQ(want.size(), static_cast<std::size_t>(3 * p * (p - 1)));
            }
            EXPECT_EQ(traced_forward(topo, global, idx), want)
                << "config " << idx << " on " << topo[0] << "x" << topo[1];
        }
    }
}

/// Allocations each of 4 ranks makes over 20 forward+inverse pairs of the
/// transform \p make_fft builds, after a two-pair warm-up that binds the
/// exchanges; every count must be zero.
template <class MakeFft>
void expect_steady_state_allocation_free(const std::string& what, MakeFft make_fft) {
    constexpr int kRanks = 4;
    std::array<std::uint64_t, kRanks> deltas{};
    run(kRanks, [&](bc::Communicator& comm) {
        auto fft = make_fft(comm);
        std::vector<cplx> local(fft.local_box().size());
        for (std::size_t k = 0; k < local.size(); ++k) {
            local[k] = {static_cast<double>(k % 7), static_cast<double>(comm.rank())};
        }
        for (int it = 0; it < 2; ++it) {
            fft.forward(local);
            fft.inverse(local);
        }
        comm.barrier();
        const std::uint64_t before = t_allocs;
        for (int it = 0; it < 20; ++it) {
            fft.forward(local);
            fft.inverse(local);
        }
        deltas[static_cast<std::size_t>(comm.rank())] = t_allocs - before;
        comm.barrier();
    });
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(deltas[static_cast<std::size_t>(r)], 0u)
            << what << ", rank " << r << " allocated in a steady-state transform";
    }
}

TEST(ReshapeExchange, SteadyStateTransformsAreAllocationFree) {
    if (beatnik::par::device::devcheck::enabled()) {
        GTEST_SKIP() << "allocation counting not meaningful with devcheck armed";
    }
    // Configs 2 and 6 keep stage 2 mesh-ordered (strided lines); 24 is not
    // a power of two (Bluestein lines).
    for (int idx : {2, 3, 6, 7}) {
        for (int n : {32, 24}) {
            const auto config = bf::FFTConfig::from_table1_index(idx);
            expect_steady_state_allocation_free(
                "2D config " + std::to_string(idx) + ", n " + std::to_string(n),
                [&](bc::Communicator& comm) {
                    return bf::DistributedFFT2D(comm, {n, n}, {2, 2}, config);
                });
        }
    }
    // 3D: slab path (config 1), strided pencils (2), reordered pencils over
    // the dense exchange (7); j = 12 runs Bluestein lines.
    for (int idx : {1, 2, 7}) {
        const auto config = bf::FFTConfig::from_table1_index(idx);
        expect_steady_state_allocation_free(
            "3D config " + std::to_string(idx), [&](bc::Communicator& comm) {
                return bf::DistributedFFT3D(comm, {8, 12, 8}, {2, 2}, config);
            });
    }
}

TEST(ReshapeExchange, EmptyPeerGetsCapacityZeroSlotThatPinsAndVerifies) {
    // Row strips <-> 2x2 bricks: strip r only meets the bricks of row
    // group r/2, so every pair across row groups has an empty block in
    // both reshapes of the family and gets a capacity-0 dense slot. Such
    // a slot is skipped by Plan::pin_buffers and carries only zero-byte
    // messages: host and device sweeps must agree with the p2p schedule,
    // with the plan verifier armed throughout.
    const bool was_armed = bc::plancheck::enabled();
    bc::plancheck::arm();
    const std::uint64_t hazards_before = bc::plancheck::hazard_count();
    const std::array<int, 2> global{16, 16};
    run(4, [&](bc::Communicator& comm) {
        std::vector<bf::Box2D> strips;
        for (int r = 0; r < 4; ++r) strips.push_back({{4 * r, 4 * r + 4}, {0, global[1]}});
        const auto bricks = bf::brick_boxes(global, {2, 2});
        const auto me = static_cast<std::size_t>(comm.rank());
        bf::ReshapePlan to_bricks(comm.rank(), strips, bricks);
        bf::ReshapePlan to_strips(comm.rank(), bricks, strips);
        const std::array<bf::detail::BoxReshape<bf::Box2D>*, 2> family{&to_bricks, &to_strips};
        bf::ReshapePlan::share_dense_exchange(family);
        for (const auto& t : to_bricks.sends()) EXPECT_EQ(t.peer / 2, comm.rank() / 2);

        const bf::Layout2D strip{strips[me], 1};
        const bf::Layout2D brick{bricks[me], 1};
        std::vector<cplx> in(strip.size());
        for (std::size_t k = 0; k < in.size(); ++k) {
            in[k] = {static_cast<double>(k), static_cast<double>(comm.rank())};
        }
        std::vector<cplx> want;
        to_bricks.execute(comm, strip, in, brick, want, /*use_alltoall=*/false);

        std::vector<cplx> host_out;
        std::vector<cplx> host_back;
        to_bricks.execute(comm, strip, in, brick, host_out, /*use_alltoall=*/true);
        to_strips.execute(comm, brick, host_out, strip, host_back, /*use_alltoall=*/true);
        EXPECT_EQ(host_out, want) << "rank " << comm.rank();
        EXPECT_EQ(host_back, in) << "rank " << comm.rank();

        // Device sweep on the already-bound shared exchange: pinned in
        // place, capacity-0 slots skipped.
        beatnik::par::device::Queue q;
        to_bricks.enable_device(q);
        to_strips.enable_device(q);
        std::vector<cplx> dev_out(brick.size());
        std::vector<cplx> dev_back(strip.size());
        beatnik::par::device::ScopedHostRegistration pin_in{std::span<const cplx>(in)};
        beatnik::par::device::ScopedHostRegistration pin_out{
            std::span<const cplx>(dev_out.data(), dev_out.size())};
        beatnik::par::device::ScopedHostRegistration pin_back{
            std::span<const cplx>(dev_back.data(), dev_back.size())};
        to_bricks.execute(comm, strip, in, brick, dev_out, /*use_alltoall=*/true);
        to_strips.execute(comm, brick, dev_out, strip, dev_back, /*use_alltoall=*/true);
        EXPECT_EQ(dev_out, want) << "rank " << comm.rank();
        EXPECT_EQ(dev_back, in) << "rank " << comm.rank();
    });
    EXPECT_EQ(bc::plancheck::hazard_count(), hazards_before);
    if (!was_armed) bc::plancheck::disarm();
}

TEST(DistributedFFT, SignedModeMapping) {
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(0, 8), 0);
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(3, 8), 3);
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(4, 8), 4);   // Nyquist
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(5, 8), -3);
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(7, 8), -1);
}

// ------------------------------------------------------------- partitions

TEST(Partitions, AllFamiliesTileTheGlobalSpace) {
    const std::array<int, 2> global{20, 14};
    for (auto dims : {std::array<int, 2>{2, 3}, {1, 6}, {6, 1}, {4, 4}}) {
        const int p = dims[0] * dims[1];
        EXPECT_TRUE(bf::tiles_exactly(bf::brick_boxes(global, dims), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::pencil_boxes(global, p, 0), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::pencil_boxes(global, p, 1), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::row_band_boxes(global, dims), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::column_band_boxes(global, dims), global));
    }
}

TEST(Partitions, BandBoxesStayInsideSubgroups) {
    // The pencils=false selling point: brick -> row-band transfers never
    // leave the row subgroup (same ci), and column-band -> brick transfers
    // never leave the column subgroup (same cj).
    const std::array<int, 2> global{32, 32};
    const std::array<int, 2> dims{4, 4};
    auto bricks = bf::brick_boxes(global, dims);
    auto row_bands = bf::row_band_boxes(global, dims);
    auto col_bands = bf::column_band_boxes(global, dims);
    for (int r = 0; r < 16; ++r) {
        bf::ReshapePlan to_rows(r, bricks, row_bands);
        for (const auto& t : to_rows.sends()) {
            EXPECT_EQ(r / dims[1], t.peer / dims[1])
                << "brick->row-band transfer crossed row groups";
        }
        bf::ReshapePlan to_bricks(r, col_bands, bricks);
        for (const auto& t : to_bricks.sends()) {
            EXPECT_EQ(r % dims[1], t.peer % dims[1])
                << "column-band->brick transfer crossed column groups";
        }
    }
    // Whereas the generic column-pencil return path (pencils=true) crosses
    // column subgroups: column pencil k holds columns partitioned over all
    // P ranks in rank order, which does not match the cj-major brick
    // column grouping.
    auto col_pencils = bf::pencil_boxes(global, 16, 0);
    bool crossed = false;
    for (int r = 0; r < 16; ++r) {
        bf::ReshapePlan plan(r, col_pencils, bricks);
        for (const auto& t : plan.sends()) crossed |= (r % dims[1]) != (t.peer % dims[1]);
    }
    EXPECT_TRUE(crossed);
}

// ---------------------------------------------------------------- planner

TEST(SchedulePlanner, ConservesBytesAcrossPhases) {
    for (int idx : {0, 3, 5, 7}) {
        auto phases = bf::DistributedFFT2D::plan_schedule({64, 64}, {4, 4},
                                                          bf::FFTConfig::from_table1_index(idx));
        ASSERT_EQ(phases.size(), 3u);
        for (const auto& phase : phases) {
            // Each rank's outgoing bytes <= its box size; total bytes equal
            // total rank-boundary-crossing volume which must be < global.
            std::size_t total = 0;
            for (const auto& m : phase.messages) {
                EXPECT_NE(m.src, m.dst);
                EXPECT_GT(m.bytes, 0u);
                total += m.bytes;
            }
            EXPECT_LE(total, 64u * 64u * sizeof(cplx));
        }
        // FFT compute appears after phases 0 and 1 but not 2.
        double fl0 = 0, fl1 = 0, fl2 = 0;
        for (double f : phases[0].flops_per_rank) fl0 += f;
        for (double f : phases[1].flops_per_rank) fl1 += f;
        for (double f : phases[2].flops_per_rank) fl2 += f;
        EXPECT_GT(fl0, 0.0);
        EXPECT_GT(fl1, 0.0);
        EXPECT_DOUBLE_EQ(fl2, 0.0);
    }
}

TEST(SchedulePlanner, PencilKnobChangesMessageCounts) {
    auto count_msgs = [](bool pencils) {
        bf::FFTConfig cfg;
        cfg.use_pencils = pencils;
        auto phases = bf::DistributedFFT2D::plan_schedule({256, 256}, {4, 8}, cfg);
        std::size_t n = 0;
        for (const auto& ph : phases) n += ph.messages.size();
        return n;
    };
    // The two paths must genuinely differ as communication patterns.
    EXPECT_NE(count_msgs(true), count_msgs(false));
}

TEST(SchedulePlanner, ScalesToPaperSizeWithoutData) {
    // 1024-rank plan for the paper's weak-scaled mesh must be buildable
    // in milliseconds without allocating mesh data.
    bf::FFTConfig cfg;
    auto phases = bf::DistributedFFT2D::plan_schedule({4096, 4096}, {32, 32}, cfg);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_GT(phases[1].messages.size(), 1000u); // global transpose is dense
}

} // namespace
