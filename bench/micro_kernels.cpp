/// \file micro_kernels.cpp
/// \brief Single-rank kernel microbenchmarks: the Birkhoff–Rott pair
/// kernel, neighbor-search build + query (the dense cell list, host and
/// device builds), the cutoff solver's accumulate kernel, particle
/// migration, and one full cutoff-solver derivative evaluation — the
/// measured rates behind MachineModel::pair_rate and the ablation data for
/// the cutoff/bin-size design choices.
///
/// Records (compare_benchmarks.py schema; regression-tracked against
/// bench/results/baseline_micro_kernels.json in CI):
///   * op "br_pairs",  algo scalar — ns per kernel pair evaluation;
///   * op "nbr_build", algo cell_host | cell_device — ns per point to
///     build the CellList3D (count–scan–fill, serial and device kernels);
///   * op "nbr_query", algo cell_host | cell_device — ns per point to
///     enumerate all self-query neighbors over the shared stencil-row
///     walk (the device column is a fused visit_neighbors kernel);
///   * op "br_accumulate", algo host — ns per query of the cutoff
///     solver's accumulate kernel (cutoff_br_sum over the cell-ordered
///     source table) on one rank's share of the singlemode 96^2 sheet:
///     the x < 0, y < 0 quadrant of [-3,3]^2 plus its ghosts, radius 0.5;
///   * op "migrate",   algo host — ns per particle exchanged (8 ranks,
///     50% off-rank);
///   * op "cutoff_eval", algo host — ns per solver step (4 ranks,
///     32x32 mesh, the five-step cutoff pipeline end to end).
///
/// Usage:
///   bench_micro_kernels [--out <file.json>] [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/beatnik.hpp"
#include "search/cell_list.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace bg = beatnik::grid;
namespace bs = beatnik::search;
namespace bd = beatnik::par::device;

namespace {

struct Result {
    std::string op;
    std::string algo;
    int ranks = 1;
    std::size_t bytes = 0;
    int iters = 0;
    double ns_per_op = 0.0;
};

template <class Op>
double time_ns(int iters, Op&& op) {
    // Best of three timed passes: the CI regression gate compares single
    // runs against a committed baseline, and the device-backend records
    // are worker-scheduling sensitive on loaded runners — the minimum is
    // the stable, load-spike-free estimate of the code's actual cost.
    const int warmup = iters >= 10 ? iters / 10 : 1;
    for (int i = 0; i < warmup; ++i) op();
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) op();
        auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
        if (rep == 0 || ns < best) best = ns;
    }
    return best;
}

std::vector<double> random_cloud(std::size_t n, std::uint64_t seed, double extent) {
    std::vector<double> pts(3 * n);
    beatnik::SplitMix64 rng(seed);
    for (auto& v : pts) v = rng.uniform(-extent, extent);
    return pts;
}

Result bench_br_pairs(std::size_t n, int iters) {
    beatnik::SplitMix64 rng(3);
    std::vector<b::Vec3> pos(n), gam(n);
    for (std::size_t i = 0; i < n; ++i) {
        pos[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        gam[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    volatile double sink = 0.0;
    double ns = time_ns(iters, [&] {
        b::Vec3 acc{};
        for (std::size_t i = 0; i < n; ++i) acc += b::br_kernel(pos[0], pos[i], gam[i], 1e-4);
        sink = acc.x;
    });
    (void)sink;
    return {"br_pairs", "scalar", 1, n * sizeof(b::Vec3) * 2, iters,
            ns / static_cast<double>(n)};
}

/// Build ns/point for the host or device cell-list build.
Result bench_nbr_build(const std::string& algo, std::size_t n, double radius, int iters) {
    auto pts = random_cloud(n, 11, 1.5);
    double ns = 0.0;
    if (algo == "cell_host") {
        bs::CellList3D cells;
        ns = time_ns(iters, [&] { cells.build_host(pts, radius); });
    } else { // cell_device
        bd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
        bd::Queue q;
        bs::CellList3D cells;
        ns = time_ns(iters, [&] { cells.build_device(q, pts.data(), pts.size(), radius); });
    }
    return {"nbr_build", algo, 1, pts.size() * sizeof(double), iters,
            ns / static_cast<double>(n)};
}

/// Self-query enumeration ns/point. The device column runs the fused
/// visit_neighbors kernel (distance-sum accumulate, the cutoff solver's
/// step-4 shape) rather than materializing a NeighborList.
Result bench_nbr_query(const std::string& algo, std::size_t n, double radius, int iters) {
    auto pts = random_cloud(n, 11, 1.5);
    double ns = 0.0;
    if (algo == "cell_host") {
        bs::CellList3D cells;
        cells.build_host(pts, radius);
        ns = time_ns(iters, [&] {
            auto list = cells.query(pts, pts, 0);
            volatile std::size_t sink = list.indices.size();
            (void)sink;
        });
    } else { // cell_device
        bd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
        bd::Queue q;
        bs::CellList3D cells;
        cells.build_device(q, pts.data(), pts.size(), radius);
        std::vector<double> out(n);
        bd::ScopedHostRegistration out_pin{std::span<const double>(out.data(), out.size())};
        const bs::CellGrid g = cells.grid();
        const std::uint32_t* offs = cells.cell_offsets();
        const std::uint32_t* cpts = cells.cell_points();
        const double* crd = pts.data();
        double* op = out.data();
        const double r2 = radius * radius;
        ns = time_ns(iters, [&] {
            q.parallel_for(n, [=](std::size_t qi) {
                double acc = 0.0;
                bs::visit_neighbors(g, offs, cpts, crd, crd + 3 * qi, r2,
                                    [&](std::uint32_t s) {
                                        if (s != qi) acc += crd[3 * s];
                                    });
                op[qi] = acc;
            });
            q.fence();
        });
    }
    return {"nbr_query", algo, 1, pts.size() * sizeof(double), iters,
            ns / static_cast<double>(n)};
}

/// ns per query of the cutoff accumulate kernel on rank 0's sources of the
/// highorder singlemode deck at 96^2 on 4 ranks (initial sheet): 48^2
/// owned nodes followed by the ghosts within the cutoff of the quadrant.
Result bench_br_accumulate(int iters) {
    constexpr int kMesh = 96;
    constexpr double kCutoff = 0.5;
    const b::Params params = b::decks::singlemode_highorder(kMesh, kCutoff);
    const double lo = params.surface_low[0];
    const double len = params.surface_high[0] - lo;
    std::vector<b::Vec3> owned_pos, owned_gam, ghost_pos, ghost_gam;
    for (int i = 0; i < kMesh; ++i) {
        for (int j = 0; j < kMesh; ++j) {
            const double xhat = static_cast<double>(i) / (kMesh - 1);
            const double yhat = static_cast<double>(j) / (kMesh - 1);
            const b::Vec3 p{lo + len * xhat, lo + len * yhat,
                            b::singlemode_eta(params.initial, xhat, yhat)};
            const b::Vec3 g{std::sin(3.0 * p.x), std::cos(2.0 * p.y), 0.1 * p.x * p.y};
            if (p.x < 0.0 && p.y < 0.0) {
                owned_pos.push_back(p);
                owned_gam.push_back(g);
            } else if (p.x < kCutoff && p.y < kCutoff) {
                ghost_pos.push_back(p);
                ghost_gam.push_back(g);
            }
        }
    }
    std::vector<b::Vec3> pos = owned_pos, gam = owned_gam;
    pos.insert(pos.end(), ghost_pos.begin(), ghost_pos.end());
    gam.insert(gam.end(), ghost_gam.begin(), ghost_gam.end());
    const std::size_t n_owned = owned_pos.size();
    const std::size_t n_src = pos.size();
    std::vector<double> crd(3 * n_src);
    for (std::size_t s = 0; s < n_src; ++s) {
        crd[3 * s + 0] = pos[s].x;
        crd[3 * s + 1] = pos[s].y;
        crd[3 * s + 2] = pos[s].z;
    }
    bs::CellList3D cells;
    cells.build_host(crd, kCutoff);
    b::CellSourceTable store;
    const b::CellSources table = store.ensure(n_src, /*pin=*/false);
    for (std::size_t m = 0; m < n_src; ++m) {
        const std::uint32_t s = cells.cell_points()[m];
        table.set(m, s, pos[s], gam[s]);
    }
    const bs::CellGrid g = cells.grid();
    const std::uint32_t* offs = cells.cell_offsets();
    const double r2 = kCutoff * kCutoff;
    volatile double sink = 0.0;
    const double ns = time_ns(iters, [&] {
        double acc = 0.0;
        for (std::size_t q = 0; q < n_owned; ++q) {
            acc += b::cutoff_br_sum(g, offs, table, pos[q], static_cast<std::uint32_t>(q), r2,
                                    1e-4)
                       .sum.z;
        }
        sink = acc;
    });
    (void)sink;
    return {"br_accumulate", "host", 1, n_src * (6 * sizeof(double) + sizeof(std::uint32_t)),
            iters, ns / static_cast<double>(n_owned)};
}

// The multi-rank benches time the collective operation from inside one
// Context::run (rank 0's clock; collectives keep the ranks in lockstep)
// so rank-thread spawn/teardown never lands in the measured window — on
// small runners that cost is scheduler-noise an order of magnitude above
// the operation itself.
Result bench_migrate(int p, int percent_moving, int iters) {
    struct P {
        double x[7];
    };
    constexpr std::size_t kPerRank = 5000;
    double ns = 0.0;
    bc::Context::run(p, [&](bc::Communicator& comm) {
        std::vector<P> particles(kPerRank);
        std::vector<int> dest(kPerRank);
        for (std::size_t k = 0; k < kPerRank; ++k) {
            bool moves =
                static_cast<int>(beatnik::hash_mix(5, k) % 100) < percent_moving;
            dest[k] = moves ? static_cast<int>(beatnik::hash_mix(9, k) %
                                               static_cast<std::uint64_t>(comm.size()))
                            : comm.rank();
        }
        bg::MigratePlan<P> plan(comm);
        double local = time_ns(iters, [&] {
            auto r = plan.execute(std::span<const P>(particles), std::span<const int>(dest));
            volatile std::size_t sink = r.size();
            (void)sink;
        });
        if (comm.rank() == 0) ns = local;
    });
    return {"migrate", "host", p, kPerRank * sizeof(P) * static_cast<std::size_t>(p), iters,
            ns / static_cast<double>(kPerRank * static_cast<std::size_t>(p))};
}

Result bench_cutoff_eval(int p, int mesh, int iters) {
    double ns = 0.0;
    bc::Context::run(p, [&](bc::Communicator& comm) {
        auto params = b::decks::multimode_highorder(mesh, 0.4);
        b::Solver solver(comm, params);
        double local = time_ns(iters, [&] { solver.step(); });
        if (comm.rank() == 0) ns = local;
    });
    return {"cutoff_eval", "host", p,
            static_cast<std::size_t>(mesh) * static_cast<std::size_t>(mesh) * 5 *
                sizeof(double),
            iters, ns};
}

void write_json(const std::vector<Result>& results, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    out << "{\n  \"bench\": \"micro_kernels\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        out << "    {\"op\": \"" << r.op << "\", \"algo\": \"" << r.algo
            << "\", \"ranks\": " << r.ranks << ", \"bytes\": " << r.bytes
            << ", \"iters\": " << r.iters << ", \"ns_per_op\": " << r.ns_per_op << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
    std::string out_path;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out <file.json>] [--quick]\n", argv[0]);
            return 2;
        }
    }
    auto n = [quick](int full) { return quick ? std::max(1, full / 50) : full; };

    std::vector<Result> results;
    results.push_back(bench_br_pairs(1 << 14, n(500)));
    // 20k points at cutoff-solver-like density (~8 neighbors/point).
    constexpr std::size_t kPoints = 20000;
    constexpr double kRadius = 0.2;
    for (const char* algo : {"cell_host", "cell_device"}) {
        results.push_back(bench_nbr_build(algo, kPoints, kRadius, n(100)));
        results.push_back(bench_nbr_query(algo, kPoints, kRadius, n(50)));
    }
    results.push_back(bench_br_accumulate(n(50)));
    results.push_back(bench_migrate(8, 50, n(50)));
    results.push_back(bench_cutoff_eval(4, 32, n(20)));

    std::printf("%-12s %-12s %6s %10s %8s %14s\n", "op", "algo", "ranks", "bytes", "iters",
                "ns/op");
    for (const Result& r : results) {
        std::printf("%-12s %-12s %6d %10zu %8d %14.1f\n", r.op.c_str(), r.algo.c_str(),
                    r.ranks, r.bytes, r.iters, r.ns_per_op);
    }
    if (!out_path.empty()) {
        write_json(results, out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}
