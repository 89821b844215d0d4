/// \file br_solver.hpp
/// \brief Birkhoff–Rott far-field solver interface + shared kernel
/// (paper §3.2).
///
/// A BR solver computes the interface velocity
///   W(x) = (dA / 4*pi) * sum_j gamma_j x (x - z_j) / (|x - z_j|^2 + eps^2)^{3/2}
/// at every owned surface node, where gamma is the Biot–Savart source
/// produced by the ZModel and eps is the Krasny desingularization length.
/// The self-term vanishes analytically (gamma x 0), so implementations
/// may include or skip it freely.
#pragma once

#include "core/problem_manager.hpp"
#include "core/types.hpp"

namespace beatnik {

/// br_kernel (below) on a separation r = target - source whose squared length
/// \p r2 = norm2(r) the caller already formed (the cutoff accumulate
/// reuses its distance test). Same operands, same operation order: the
/// result is bitwise identical to br_kernel's.
inline Vec3 br_kernel_sep(const Vec3& r, double r2, const Vec3& source_gamma, double eps2) {
    double d2 = r2 + eps2;
    double inv = 1.0 / (d2 * std::sqrt(d2));
    return cross(source_gamma, r) * inv;
}

/// One evaluation of the desingularized Biot–Savart kernel (without the
/// dA/4*pi prefactor, applied once per sum).
inline Vec3 br_kernel(const Vec3& target, const Vec3& source_pos, const Vec3& source_gamma,
                      double eps2) {
    Vec3 r = target - source_pos;
    return br_kernel_sep(r, norm2(r), source_gamma, eps2);
}

class BRSolverBase {
public:
    virtual ~BRSolverBase() = default;

    /// Fill \p velocity at owned nodes with the BR integral of the given
    /// gamma field (owned nodes valid) over the *entire* surface.
    /// Collective: must be called by every rank.
    virtual void compute_velocity(ProblemManager& pm, const grid::NodeField<double, 3>& gamma,
                                  grid::NodeField<double, 3>& velocity) = 0;

    /// Optional overlap hook: begin the parts of the next
    /// compute_velocity that depend only on \p pm and \p gamma (e.g. the
    /// cutoff solver's particle pack/canonicalize staging on a side
    /// queue) so they run concurrently with whatever the caller does
    /// between begin and compute. Purely local (not collective), safe to
    /// skip: compute_velocity must produce identical results with or
    /// without a preceding begin. Default is a no-op.
    virtual void begin_velocity(ProblemManager& pm, const grid::NodeField<double, 3>& gamma) {
        (void)pm;
        (void)gamma;
    }

    /// Human-readable solver name for logs and benches.
    [[nodiscard]] virtual const char* name() const = 0;
};

} // namespace beatnik
