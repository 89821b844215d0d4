/// \file rocketrig_config.hpp
/// \brief rocketrig's deck + flag-override parameter assembly, factored
/// out of the driver so the CLI precedence rules are unit-testable
/// (tests/core/test_rocketrig_cli.cpp).
///
/// Precedence contract: a named deck (--deck) provides the baseline and
/// *only explicitly passed* flags override individual fields on top of
/// it. Flag position relative to --deck must not matter — `--atwood 0.9
/// --deck rollup-ladder` and `--deck rollup-ladder --atwood 0.9` produce
/// the same Params. Without a deck, every flag falls back to its
/// documented default.
#pragma once

#include "example_utils.hpp"

namespace beatnik::examples {

/// Assemble the full Params from parsed flags. Throws InvalidArgument on
/// an unknown deck or enum value.
inline Params build_rocketrig_params(const Args& args) {
    const int mesh = args.get_int("mesh", 96);
    const std::string deck = args.get_string("deck", "none");
    Params params;
    bool from_deck = true;
    if (deck == "multimode-low") {
        params = decks::multimode_loworder(mesh);
    } else if (deck == "multimode-high") {
        params = decks::multimode_highorder(mesh);
    } else if (deck == "singlemode") {
        params = decks::singlemode_highorder(mesh);
    } else if (deck == "rollup-ladder") {
        params = decks::rollup_ladder(mesh);
    } else if (deck == "none") {
        from_deck = false;
        params.num_nodes = {mesh, mesh};
    } else {
        throw InvalidArgument(
            "unknown deck '" + deck +
            "' (expected none|multimode-low|multimode-high|singlemode|rollup-ladder)");
    }
    // Every deck-overridable field is gated on the flag actually being
    // present: args are an order-independent key/value map, so `--atwood
    // 0.9 --deck X` and `--deck X --atwood 0.9` behave identically, and a
    // deck's base values survive unless explicitly overridden.
    const bool boundary_set = args.has("boundary");
    if (!from_deck || args.has("order")) {
        params.order = parse_order(args.get_string("order", "low"));
    }
    if (!from_deck || boundary_set) {
        params.boundary = parse_boundary(args.get_string("boundary", "periodic"));
    }
    if (!from_deck || args.has("br")) {
        params.br_solver = parse_br(args.get_string("br", "cutoff"));
    }
    if (!from_deck || args.has("cutoff")) {
        params.cutoff_distance = args.get_double("cutoff", 0.5);
    }
    if (!from_deck || args.has("ic")) {
        params.initial.kind = args.get_string("ic", "multimode") == "singlemode"
                                  ? InitialCondition::Kind::singlemode
                                  : InitialCondition::Kind::multimode;
    }
    if (!from_deck || args.has("magnitude")) {
        params.initial.magnitude = args.get_double("magnitude", 0.05);
    }
    if (!from_deck || args.has("modes")) {
        params.initial.num_modes = args.get_int("modes", 4);
    }
    if (!from_deck || args.has("atwood")) {
        params.atwood = args.get_double("atwood", 0.5);
    }
    if (!from_deck || args.has("gravity")) {
        params.gravity = args.get_double("gravity", 25.0);
    }
    if (!from_deck || args.has("mu")) {
        params.mu = args.get_double("mu", 1.0);
    }
    if (!from_deck || args.has("epsilon")) {
        params.epsilon = args.get_double("epsilon", 0.25);
    }
    if (!from_deck || args.has("dt")) {
        params.dt = args.get_double("dt", 0.0);
    }
    if (!from_deck || args.has("fft-config")) {
        params.fft = fft::FFTConfig::from_table1_index(args.get_int("fft-config", 7));
    }
    if (!from_deck || args.has("seed")) {
        params.initial.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    }
    if (!from_deck || boundary_set) {
        if (params.boundary == Boundary::free) {
            // Free-boundary problems live on the high-order deck's domain.
            params.surface_low = {-3.0, -3.0};
            params.surface_high = {3.0, 3.0};
        } else if (!from_deck) {
            params.surface_low = {-1.0, -1.0};
            params.surface_high = {1.0, 1.0};
        }
    }
    if (params.boundary == Boundary::periodic) {
        // A periodic cutoff solve wraps on the surface tile; the spatial
        // box must match it in x and y (z keeps its extent).
        for (std::size_t a = 0; a < 2; ++a) {
            params.box_low[a] = params.surface_low[a];
            params.box_high[a] = params.surface_high[a];
        }
    }
    params.validate();
    return params;
}

} // namespace beatnik::examples
