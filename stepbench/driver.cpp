/// \file driver.cpp
/// \brief Whole-solver step driver: runs `Solver` as a closed loop of
/// timesteps on threads-as-ranks and writes raw measurements as JSON.
///
/// One invocation:
///   1. sets up kSetups times (Solver construction + kWarmupSteps steps,
///      timed on every rank), keeping the last solver;
///   2. runs episodes of kEpisodeSteps steps, each from the deck's initial
///      state, until `--seconds` have passed and at least kMinSteps
///      untraced steps are timed. Every step is timed on every rank and
///      followed by a finite-state check; every episode ends with
///      `summarize()`, which run.py compares against a reference run;
///   3. with `--trace 1`, every other episode (kTraceEpisodes of them)
///      runs with telemetry armed and ends with kProbeReps probe rounds:
///      timed calls into the public entry points of each layer on the live
///      state. Each traced episode is exported as one Perfetto JSON file.
///
/// `--reference` makes the reference run instead: one set-up without
/// warm-up and a single episode.
///
/// Restarting episodes from the initial state keeps every run inside the
/// deck's well-resolved early regime, so a run of any length stays finite
/// and its final state can be checked against a short reference run.
///
/// All statistics (percentiles, span folding, correctness) are computed by
/// run.py; this program only measures.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/timer.hpp"
#include "core/diagnostics.hpp"
#include "core/input_decks.hpp"
#include "core/solver.hpp"
#include "fft/distributed_fft.hpp"
#include "par/device/device.hpp"
#include "search/cell_list.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace b = beatnik;

namespace {

constexpr int kEpisodeSteps = 20;
constexpr int kWarmupSteps = 3;
constexpr int kSetups = 5;
constexpr int kMinSteps = 100;
constexpr int kTraceEpisodes = 2;
constexpr int kProbeReps = 5;

struct Options {
    std::string deck;
    int mesh = 0;
    int ranks = 1;
    int fft_config = 7;
    double cutoff = 0.5;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    bool trace = false;
    bool reference = false;
    std::string trace_dir = ".";
    std::string out;

    [[nodiscard]] int setups() const { return reference ? 1 : kSetups; }
    [[nodiscard]] int warmup() const { return reference ? 0 : kWarmupSteps; }
};

Options parse(int argc, char** argv) {
    Options o;
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--reference") {
            o.reference = true;
            continue;
        }
        if (key.rfind("--", 0) != 0 || i + 1 == argc)
            throw std::runtime_error("bad argument " + key);
        kv[key.substr(2)] = argv[++i];
    }
    auto take = [&](const char* key) -> std::optional<std::string> {
        auto it = kv.find(key);
        if (it == kv.end()) return std::nullopt;
        std::string v = it->second;
        kv.erase(it);
        return v;
    };
    if (auto v = take("deck")) o.deck = *v;
    if (auto v = take("mesh")) o.mesh = std::stoi(*v);
    if (auto v = take("ranks")) o.ranks = std::stoi(*v);
    if (auto v = take("fft-config")) o.fft_config = std::stoi(*v);
    if (auto v = take("cutoff")) o.cutoff = std::stod(*v);
    if (auto v = take("seed")) o.seed = std::stoull(*v);
    if (auto v = take("seconds")) o.seconds = std::stod(*v);
    if (auto v = take("trace")) o.trace = std::stoi(*v) != 0;
    if (auto v = take("trace-dir")) o.trace_dir = *v;
    if (auto v = take("out")) o.out = *v;
    if (!kv.empty()) throw std::runtime_error("unknown option --" + kv.begin()->first);
    if (o.deck.empty() || o.mesh <= 0 || o.out.empty())
        throw std::runtime_error("--deck, --mesh and --out are required");
    if (o.ranks < 1) throw std::runtime_error("--ranks must be positive");
    if (o.reference && o.trace) throw std::runtime_error("--reference runs untraced");
    return o;
}

b::Params make_params(const Options& o) {
    b::Params p;
    if (o.deck == "multimode-low") {
        p = b::decks::multimode_loworder(o.mesh);
    } else if (o.deck == "multimode-high") {
        p = b::decks::multimode_highorder(o.mesh, o.cutoff);
    } else if (o.deck == "singlemode") {
        p = b::decks::singlemode_highorder(o.mesh, o.cutoff);
    } else {
        throw std::runtime_error("unknown deck " + o.deck);
    }
    p.fft = b::fft::FFTConfig::from_table1_index(o.fft_config);
    p.initial.seed = o.seed;
    return p;
}

double seconds_since(b::MonoClock::time_point t0) {
    return std::chrono::duration<double>(b::mono_now() - t0).count();
}

/// Owned position and vorticity values are all finite. Reads the host
/// copies (a device-resident state is downloaded first).
bool state_finite(const b::ProblemManager& pm) {
    const auto& z = pm.position();
    const auto& w = pm.vorticity();
    bool ok = true;
    b::grid::for_each(pm.mesh().local().own_space(), [&](int i, int j) {
        for (int c = 0; c < 3; ++c) ok = ok && std::isfinite(z(i, j, c));
        for (int c = 0; c < 2; ++c) ok = ok && std::isfinite(w(i, j, c));
    });
    return ok;
}

/// Put the deck's initial state back into the live solver, halos included.
void reset_state(b::Solver& solver) {
    auto& pm = solver.state();
    b::apply_initial_conditions(solver.mesh(), solver.params().initial, pm.position(),
                                pm.vorticity());
    pm.gather_halos();
}

std::uint64_t device_copies() {
    auto& s = b::par::device::CopyStats::instance();
    return s.h2d_copies.load() + s.d2h_copies.load();
}

struct RankLog {
    std::vector<double> setup_s;
    std::vector<double> step_s;
    std::vector<int> finite;
    double br_untraced_s = 0.0;
    std::uint64_t hit_pairs = 0;
    std::uint64_t candidate_pairs = 0;
};

struct EpisodeLog {
    std::size_t first_step = 0;
    int steps = 0;
    bool traced = false;
    double max_height = 0.0;
    double vorticity_l2 = 0.0;
};

struct RunLog {
    std::vector<RankLog> ranks;
    std::vector<EpisodeLog> episodes;
    std::vector<std::string> trace_files;
    std::uint64_t copy_probe_steps = 0;
    std::uint64_t copy_probe_copies = 0;
};

/// Per-rank state of the probe round; built on first use.
class Probes {
public:
    Probes(b::comm::Communicator& comm, b::Solver& solver, const Options& opt)
        : comm_(comm), solver_(solver), opt_(opt),
          zdot_(solver.mesh().local()), wdot_(solver.mesh().local()) {
        const auto& p = solver.params();
        if (solver.state().device_resident()) {
            // Mirrored outputs keep the probe on the solver's device path.
            zdot_.enable_device_mirror();
            wdot_.enable_device_mirror();
        }
        if (p.order == b::Order::low) {
            const std::array<int, 2> global = p.num_nodes;
            const std::array<int, 2> dims = solver.mesh().topology().dims();
            fft_.emplace(comm, global, dims, p.fft);
            fft_data_.resize(fft_->local_box().size());
            if (p.fft.use_alltoall) {
                // One reshape of the transform (the first planned phase),
                // with this rank's per-peer element counts.
                auto phases = b::fft::DistributedFFT2D::plan_schedule(global, dims, p.fft);
                sendcounts_.assign(static_cast<std::size_t>(comm.size()), 0);
                for (const auto& m : phases.front().messages) {
                    if (m.src == comm.rank())
                        sendcounts_[static_cast<std::size_t>(m.dst)] += m.bytes / sizeof(b::fft::cplx);
                }
                std::size_t total = 0;
                for (auto c : sendcounts_) total += c;
                sendbuf_.assign(total, b::fft::cplx(1.0, -1.0));
            }
        }
    }

    /// One timed call into each exercised layer, each behind a barrier so
    /// ranks enter together; the spans carry the timings.
    void round() {
        auto& pm = solver_.state();
        comm_.barrier();
        {
            b::telemetry::Scope s("stepbench.gather_halos");
            pm.gather_halos();
            fence_if_device();
        }
        comm_.barrier();
        {
            b::telemetry::Scope s("stepbench.derivatives");
            solver_.zmodel().derivatives(pm, zdot_, wdot_);
            fence_if_device();
        }
        if (fft_) {
            for (std::size_t k = 0; k < fft_data_.size(); ++k)
                fft_data_[k] = b::fft::cplx(std::sin(0.1 * static_cast<double>(k)), 0.0);
            comm_.barrier();
            b::telemetry::Scope s("stepbench.fft_transform");
            fft_->forward(fft_data_);
            fft_->inverse(fft_data_);
        }
        if (!sendbuf_.empty()) {
            comm_.barrier();
            b::telemetry::Scope s("stepbench.alltoallv");
            auto out = comm_.alltoallv<b::fft::cplx>(sendbuf_, sendcounts_, recvcounts_);
        }
        if (solver_.cutoff_solver() != nullptr) {
            load_points();
            comm_.barrier();
            b::telemetry::Scope s("stepbench.cell_build");
            cells_.build_host(points_, opt_.cutoff);
        }
        if (pm.device_resident()) {
            auto& q = pm.device_queue();
            comm_.barrier();
            b::telemetry::Scope s("stepbench.dispatch");
            q.parallel_for(1, [](std::size_t) {});
            q.fence(); // devcheck: fenced — the probe times enqueue to completion
        }
    }

    /// Pairs within the cutoff and candidate pairs in the 27-cell stencil
    /// among this rank's interface points (self pairs excluded).
    void count_pairs(RankLog& log) {
        load_points();
        cells_.build_host(points_, opt_.cutoff);
        const auto list = cells_.query(points_, points_, 0);
        const auto& g = cells_.grid();
        const std::uint32_t* off = cells_.cell_offsets();
        std::uint64_t candidates = 0;
        for (std::size_t q = 0; q < points_.size() / 3; ++q) {
            const double* p = points_.data() + 3 * q;
            const int cx = b::search::CellGrid::coord(p[0], g.cell);
            const int cy = b::search::CellGrid::coord(p[1], g.cell);
            const int cz = b::search::CellGrid::coord(p[2], g.cell);
            for (int dz = -1; dz <= 1; ++dz)
                for (int dy = -1; dy <= 1; ++dy)
                    for (int dx = -1; dx <= 1; ++dx) {
                        if (!g.contains(cx + dx, cy + dy, cz + dz)) continue;
                        const std::size_t c = g.index(cx + dx, cy + dy, cz + dz);
                        candidates += off[c + 1] - off[c];
                    }
            candidates -= 1; // the point itself
        }
        log.hit_pairs += list.indices.size();
        log.candidate_pairs += candidates;
    }

private:
    void fence_if_device() {
        auto& pm = solver_.state();
        if (pm.device_resident()) pm.device_queue().fence(); // devcheck: fenced — probe timing
    }

    void load_points() {
        const auto& pm = std::as_const(solver_.state());
        const auto& z = pm.position();
        points_.clear();
        b::grid::for_each(pm.mesh().local().own_space(), [&](int i, int j) {
            for (int c = 0; c < 3; ++c) points_.push_back(z(i, j, c));
        });
    }

    b::comm::Communicator& comm_;
    b::Solver& solver_;
    const Options& opt_;
    b::grid::NodeField<double, 3> zdot_;
    b::grid::NodeField<double, 2> wdot_;
    std::optional<b::fft::DistributedFFT2D> fft_;
    std::vector<b::fft::cplx> fft_data_;
    std::vector<std::size_t> sendcounts_;
    std::vector<std::size_t> recvcounts_;
    std::vector<b::fft::cplx> sendbuf_;
    std::vector<double> points_;
    b::search::CellList3D cells_;
};

void run_rank(b::comm::Communicator& comm, const Options& opt, const b::Params& params,
              RunLog& run) {
    const int rank = comm.rank();
    RankLog& log = run.ranks[static_cast<std::size_t>(rank)];

    std::unique_ptr<b::Solver> solver;
    for (int s = 0; s < opt.setups(); ++s) {
        solver.reset();
        comm.barrier();
        const auto t0 = b::mono_now();
        solver = std::make_unique<b::Solver>(comm, params);
        for (int w = 0; w < opt.warmup(); ++w) solver->step();
        // Set-up ends, like a timed step, when its last kernel has run.
        auto& pm = solver->state();
        if (pm.device_resident()) pm.device_queue().fence(); // devcheck: fenced — set-up boundary
        log.setup_s.push_back(seconds_since(t0));
    }

    std::unique_ptr<Probes> probes;
    int traced_done = 0;
    int untraced_steps = 0;
    const auto loop_start = b::mono_now();
    for (int episode = 0;; ++episode) {
        const bool traced =
            opt.trace && episode % 2 == 1 && traced_done < kTraceEpisodes;
        reset_state(*solver);
        comm.barrier();
        if (traced) {
            if (rank == 0) {
                b::telemetry::Config cfg;
                cfg.track_capacity = std::size_t{1} << 17;
                cfg.trace_path = opt.trace_dir + "/unflushed.trace.json";
                b::telemetry::arm(cfg);
            }
            comm.barrier();
            b::telemetry::name_thread_track("rank " + std::to_string(rank));
        }

        const double br0 = solver->phase_seconds("step/br");
        EpisodeLog ep;
        ep.first_step = log.step_s.size();
        ep.steps = kEpisodeSteps;
        ep.traced = traced;
        for (int k = 0; k < kEpisodeSteps; ++k) {
            const auto t0 = b::mono_now();
            {
                b::telemetry::Scope span("stepbench.step");
                solver->step();
                // A step ends when its last kernel has run, not when the
                // host returns from enqueueing it.
                auto& pm = solver->state();
                if (pm.device_resident()) pm.device_queue().fence(); // devcheck: fenced — step boundary
            }
            log.step_s.push_back(seconds_since(t0));
            log.finite.push_back(state_finite(solver->state()) ? 1 : 0);
        }
        if (!traced) {
            log.br_untraced_s += solver->phase_seconds("step/br") - br0;
            untraced_steps += kEpisodeSteps;
        }
        const auto summary = b::summarize(solver->state());
        ep.max_height = summary.max_height;
        ep.vorticity_l2 = summary.vorticity_l2;
        if (rank == 0) run.episodes.push_back(ep);

        if (traced) {
            if (!probes) probes = std::make_unique<Probes>(comm, *solver, opt);
            for (int r = 0; r < kProbeReps; ++r) probes->round();
            if (solver->cutoff_solver() != nullptr) probes->count_pairs(log);
            if (solver->state().device_resident()) {
                // Host<->device copies made by steady-state steps, process-wide.
                constexpr int kCopySteps = 2;
                comm.barrier();
                const std::uint64_t c0 = device_copies();
                comm.barrier();
                for (int k = 0; k < kCopySteps; ++k) solver->step();
                comm.barrier();
                if (rank == 0) {
                    run.copy_probe_copies += device_copies() - c0;
                    run.copy_probe_steps += kCopySteps;
                }
            }
            comm.barrier();
            if (rank == 0) b::telemetry::disarm();
            comm.barrier();
            if (rank == 0) {
                const std::string path =
                    opt.trace_dir + "/episode-" + std::to_string(episode) + ".trace.json";
                std::ofstream os(path);
                b::telemetry::write_chrome_trace(os, b::telemetry::Registry::instance().tracks(),
                                                 static_cast<int>(::getpid()));
                if (!os) throw std::runtime_error("cannot write " + path);
                run.trace_files.push_back(path);
                b::telemetry::Registry::instance().clear();
            }
            ++traced_done;
        }

        // Rank 0's clock decides; the reduction makes every rank agree.
        double stop = 0.0;
        if (rank == 0 &&
            (opt.reference || (seconds_since(loop_start) >= opt.seconds &&
                               untraced_steps >= kMinSteps &&
                               (!opt.trace || traced_done >= kTraceEpisodes))))
            stop = 1.0;
        if (comm.allreduce_value(stop, b::comm::op::Max{}) > 0.0) break;
    }
}

void write_doubles(std::ostream& os, const std::vector<double>& v) {
    os << "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", v[i]);
        os << (i ? ", " : "") << buf;
    }
    os << "]";
}

std::string json_string(const std::string& s) {
    std::ostringstream os;
    os << "\"";
    b::telemetry::detail::json_escape(os, s);
    os << "\"";
    return os.str();
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool devcheck_build() {
#ifdef BEATNIK_DEVCHECK_ENABLED
    return true;
#else
    return false;
#endif
}

const char* backend_name() {
    switch (b::par::default_backend().load()) {
    case b::par::Backend::serial: return "serial";
    case b::par::Backend::openmp: return "openmp";
    case b::par::Backend::device: return "device";
    }
    return "unknown";
}

void write_run(std::ostream& os, const Options& opt, const RunLog& run) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    os << "{\"fingerprint\": {\"compiler\": " << json_string(__VERSION__)
       << ", \"build_type\": " << json_string(STEPBENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << json_string(STEPBENCH_CXX_FLAGS)
       << ", \"sanitizer\": " << (sanitizer_build() ? "true" : "false")
       << ", \"devcheck\": " << (devcheck_build() ? "true" : "false")
       << ", \"backend\": \"" << backend_name() << "\"}";
    os << ", \"ranks\": " << opt.ranks << ", \"nodes\": "
       << static_cast<long long>(opt.mesh) * opt.mesh << ", \"peak_rss_kb\": " << ru.ru_maxrss;
    os << ", \"copy_probe\": {\"steps\": " << run.copy_probe_steps
       << ", \"copies\": " << run.copy_probe_copies << "}";
    os << ", \"per_rank\": [";
    for (std::size_t r = 0; r < run.ranks.size(); ++r) {
        const RankLog& l = run.ranks[r];
        os << (r ? ", " : "") << "{\"setup_s\": ";
        write_doubles(os, l.setup_s);
        os << ", \"step_s\": ";
        write_doubles(os, l.step_s);
        os << ", \"finite\": [";
        for (std::size_t k = 0; k < l.finite.size(); ++k) os << (k ? ", " : "") << l.finite[k];
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", l.br_untraced_s);
        os << "], \"br_untraced_s\": " << buf << ", \"hit_pairs\": " << l.hit_pairs
           << ", \"candidate_pairs\": " << l.candidate_pairs << "}";
    }
    os << "], \"episodes\": [";
    for (std::size_t e = 0; e < run.episodes.size(); ++e) {
        const EpisodeLog& ep = run.episodes[e];
        char buf[128];
        std::snprintf(buf, sizeof buf, "\"max_height\": %.17g, \"vorticity_l2\": %.17g",
                      ep.max_height, ep.vorticity_l2);
        os << (e ? ", " : "") << "{\"first_step\": " << ep.first_step
           << ", \"steps\": " << ep.steps << ", \"traced\": " << (ep.traced ? "true" : "false")
           << ", " << buf << "}";
    }
    os << "], \"trace_files\": [";
    for (std::size_t i = 0; i < run.trace_files.size(); ++i)
        os << (i ? ", " : "") << json_string(run.trace_files[i]);
    os << "]}\n";
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    try {
        opt = parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "stepbench_driver: " << e.what() << "\n";
        return 2;
    }
    RunLog run;
    run.ranks.resize(static_cast<std::size_t>(opt.ranks));
    try {
        const b::Params params = make_params(opt);
        b::comm::Context::run(opt.ranks, [&](b::comm::Communicator& comm) {
            run_rank(comm, opt, params, run);
        });
    } catch (const std::exception& e) {
        std::ofstream os(opt.out);
        os << "{\"error\": " << json_string(e.what()) << "}\n";
        std::cerr << "stepbench_driver: " << e.what() << "\n";
        return 3;
    }
    std::ofstream os(opt.out);
    write_run(os, opt, run);
    if (!os) {
        std::cerr << "stepbench_driver: cannot write " << opt.out << "\n";
        return 3;
    }
    return 0;
}
