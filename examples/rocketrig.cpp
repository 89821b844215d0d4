/// \file rocketrig.cpp
/// \brief The full rocket-rig driver (paper §4): configurable initial
/// conditions, boundary conditions, model order, BR solver and output —
/// the reproduction of Beatnik's ~700-line primary driver program.
///
/// Examples:
///   # Fig. 1 setup (multi-mode, low order, 4 ranks), writing VTK frames
///   ./rocketrig --ranks 4 --mesh 128 --steps 20 --order low --write-freq 10
///
///   # Fig. 2 setup (single-mode, cutoff solver, free boundary)
///   ./rocketrig --ranks 9 --mesh 96 --steps 60 --order high
///               --boundary free --ic singlemode --cutoff 0.5
///
///   # heFFTe-knob experiment on a real run
///   ./rocketrig --order low --fft-config 3
#include <iomanip>
#include <sstream>

#include "rocketrig_config.hpp"

namespace b = beatnik;
namespace ex = beatnik::examples;

namespace {

void usage() {
    std::cout <<
        R"(rocketrig - Beatnik reproduction driver (Rayleigh-Taylor rocket rig)

options (defaults in parentheses):
  --ranks N        logical ranks to run, threads-as-ranks (4)
  --deck S         start from a named input deck (none):
                   multimode-low | multimode-high | singlemode | rollup-ladder
                   (src/core/input_decks.hpp); explicit flags override it
  --mesh N         surface mesh nodes per axis (96)
  --steps N        timesteps to run (20)
  --order S        low | medium | high (low)
  --boundary S     periodic | free (periodic; free requires --order high)
  --ic S           multimode | singlemode (multimode)
  --magnitude X    initial perturbation amplitude (0.05)
  --modes N        multimode mode count per axis (4)
  --seed N         multimode random seed (42)
  --atwood X       Atwood number (0.5)
  --gravity X      acceleration (25.0)
  --mu X           artificial viscosity coefficient (1.0)
  --epsilon X      Krasny desingularization coefficient (0.25)
  --br S           exact | cutoff (cutoff)
  --cutoff X       cutoff distance (0.5)
  --fft-config N   heFFTe-style config index 0..7, Table 1 (7)
  --dt X           timestep (0 = automatic)
  --write-freq N   write VTK every N steps (0 = never)
  --output S       output file prefix (rocketrig)
  --census         print the spatial ownership census each output step
  --help           this text
)";
}

} // namespace

int main(int argc, char** argv) {
    ex::Args args(argc, argv);
    if (args.has("help")) {
        usage();
        return 0;
    }

    const int nranks = args.get_int("ranks", 4);
    const int steps = args.get_int("steps", 20);
    const int write_freq = args.get_int("write-freq", 0);
    const bool census = args.has("census");
    const std::string output = args.get_string("output", "rocketrig");

    // A named deck (src/core/input_decks.hpp) provides the baseline;
    // explicitly passed flags override individual fields on top of it —
    // regardless of their position relative to --deck (the assembly and
    // its precedence rules live in rocketrig_config.hpp, unit-tested by
    // tests/core/test_rocketrig_cli.cpp).
    const int mesh = args.get_int("mesh", 96);
    const std::string deck = args.get_string("deck", "none");
    b::Params params;
    try {
            params = ex::build_rocketrig_params(args);
        } catch (const b::InvalidArgument& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }

        // A solver failure on any rank (e.g. a blown-up interface tripping a
        // requirement) surfaces here as one beatnik::Error after every rank
        // has unwound; report it and exit cleanly instead of terminating.
        try {
        b::comm::Context::run(nranks, [&](b::comm::Communicator& comm) {
            b::Solver solver(comm, params);
            {
                std::ostringstream os;
                os << "rocketrig: " << nranks << " ranks, " << mesh << "^2 mesh, order="
                   << ex::order_name(params.order) << ", dt=" << solver.dt();
                if (deck != "none") os << ", deck=" << deck;
                ex::print0(comm, os.str());
            }
            b::SiloWriter writer(output);
            if (write_freq > 0) writer.write(solver.state(), 0);

            b::Stopwatch watch;
            for (int s = 1; s <= steps; ++s) {
                solver.step();
                const bool output_step = write_freq > 0 && s % write_freq == 0;
                if (output_step || s == steps) {
                    auto summary = b::summarize(solver.state());
                    std::ostringstream os;
                    os << "step " << std::setw(5) << s << "  t=" << std::fixed
                       << std::setprecision(4) << solver.time() << "  max|z3|=" << std::scientific
                       << std::setprecision(3) << summary.max_height
                       << "  |w|_2=" << summary.vorticity_l2;
                    ex::print0(comm, os.str());
                    if (census && solver.cutoff_solver() != nullptr) {
                        auto stats = b::imbalance_stats(b::ownership_census(comm, solver));
                        std::ostringstream cs;
                        cs << "       spatial ownership: min=" << std::fixed << std::setprecision(4)
                           << stats.min_share * 100.0 << "% max=" << stats.max_share * 100.0
                           << "% imbalance=" << stats.imbalance;
                        ex::print0(comm, cs.str());
                    }
                }
                if (output_step) writer.write(solver.state(), s);
            }
            {
                std::ostringstream os;
                os << "done: " << steps << " steps in " << std::fixed << std::setprecision(2)
                   << watch.seconds() << "s (" << std::defaultfloat << std::setprecision(3)
                   << 1e3 * watch.seconds() / steps << " ms/step)";
                ex::print0(comm, os.str());
            }
        });
    } catch (const b::Error& e) {
        std::cerr << "rocketrig: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
