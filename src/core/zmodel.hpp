/// \file zmodel.hpp
/// \brief Z-Model derivative computation (paper §2/§3.1, ZModel module).
///
/// Evolution equations as implemented (paper §2; README introduction):
///   dz/dt  = W                       (interface moves with the fluid)
///   dw_i/dt = d/dalpha_i( -2*A*g*z3 - A*|Wb|^2 ) + mu * lap(w_i)
/// where W is the Birkhoff–Rott velocity of the sheet and Wb is the
/// velocity used inside the Bernoulli term. The order tag selects how
/// each velocity is obtained:
///   * low:    W and Wb from the flat-sheet Fourier multiplier
///             What(k) = i (k x gamma_hat) / (2|k|)    — 6 distributed FFTs
///   * medium: W from a BR solver, Wb from the FFT     — both comm patterns
///   * high:   W = Wb from a BR solver                 — no FFTs
/// The ZModel performs no direct communication itself; it invokes the FFT
/// library, the BR solver, and the ProblemManager's halo exchanges —
/// exactly the role the paper assigns it.
///
/// Scratch fields (gamma, velocities, Bernoulli scalar) and the spectral
/// staging buffers are persistent members, so a steady-state derivative
/// evaluation allocates nothing. On a device-resident ProblemManager the
/// whole pipeline runs as device kernels over the field mirrors: gamma,
/// the Bernoulli scalar, the derivative outputs and the FFT field<->
/// spectral marshalling are kernels, the spectral buffers are pinned
/// (registered) host ranges, and the distributed FFT's reshape staging
/// packs/unpacks on device straight into the pinned plan buffers
/// (DistributedFFT2D::enable_device). Host code touches only the pinned
/// spectral lines (the butterfly compute), never the field mirrors.
#pragma once

#include <numbers>
#include <optional>

#include "core/br_solver.hpp"
#include "core/operators.hpp"
#include "fft/distributed_fft.hpp"
#include "par/par.hpp"
#include "telemetry/metrics.hpp"

namespace beatnik {

class ZModel {
public:
    /// \p br may be null for Order::low; \p fft_config is used by
    /// low/medium order (ignored for high).
    ZModel(comm::Communicator& comm, const SurfaceMesh& mesh, const Params& params,
           BRSolverBase* br)
        : comm_(&comm), mesh_(&mesh), order_(params.order), br_(br),
          atwood_(params.atwood), gravity_(params.gravity),
          mu_eff_(mesh.effective_mu(params.mu)), gamma_(mesh.local()), w_fft_(mesh.local()),
          w_br_(mesh.local()), phi_(mesh.local()), zdot_dev_(mesh.local()),
          wdot_dev_(mesh.local()) {
        BEATNIK_REQUIRE(order_ == Order::low || br_ != nullptr,
                        "medium/high order require a BR solver");
        if (order_ != Order::high) {
            fft_.emplace(comm, std::array<int, 2>{mesh.global().num_nodes(0),
                                                  mesh.global().num_nodes(1)},
                         mesh.topology().dims(), params.fft);
        }
    }

    /// Drain in-flight kernels before the scratch mirrors and pinned
    /// spectral buffers die.
    ~ZModel() {
        if (device_) queue_->fence(); // devcheck: fenced — teardown drain
    }
    ZModel(const ZModel&) = delete;
    ZModel& operator=(const ZModel&) = delete;

    /// Compute (zdot, wdot) at owned nodes from the state in \p pm.
    /// Precondition: pm halos are current (the integrator guarantees it).
    /// Collective: every rank must call with the same state generation.
    ///
    /// A device-resident state always runs the device pipeline — the
    /// scratch-field mirrors are the authoritative copies there, and a
    /// host sweep over them would silently read stale data. Callers with
    /// plain host derivative fields (direct API use, tests) get the
    /// results downloaded into their fields' owned nodes; mirrored
    /// caller fields (the integrator's) are written in place on device.
    /// A host-resident state takes the pure host path.
    void derivatives(ProblemManager& pm, grid::NodeField<double, 3>& zdot,
                     grid::NodeField<double, 2>& wdot) {
        static const telemetry::Phase ph{"step/derivatives"};
        telemetry::PhaseScope scope(ph);
        if (!pm.device_resident()) {
            derivatives_host(pm, zdot, wdot);
            return;
        }
        // Half-mirrored caller fields would leave the mirrored one's
        // device copy silently stale after the download path — refuse.
        BEATNIK_REQUIRE(zdot.device_mirrored() == wdot.device_mirrored(),
                        "derivative fields must be both mirrored or both host-resident");
        if (zdot.device_mirrored() && wdot.device_mirrored()) {
            derivatives_device(pm, zdot, wdot);
            return;
        }
        ensure_device(pm);
        derivatives_device(pm, zdot_dev_, wdot_dev_);
        zdot_dev_.sync_to_host(*queue_);
        wdot_dev_.sync_to_host(*queue_);
        queue_->fence(); // devcheck: fenced — host loop downloads the mirrors
        const auto& local = mesh_->local();
        grid::for_each(local.own_space(), [&](int i, int j) {
            for (int c = 0; c < 3; ++c) zdot(i, j, c) = zdot_dev_(i, j, c);
            for (int c = 0; c < 2; ++c) wdot(i, j, c) = wdot_dev_(i, j, c);
        });
    }

    [[nodiscard]] Order order() const { return order_; }
    [[nodiscard]] BRSolverBase* br_solver() const { return br_; }

private:
    // Shared by the host and device pipelines (and, for br, three call
    // sites), so the interned Phase lives here rather than per call site.
    static const telemetry::Phase& br_phase() {
        static const telemetry::Phase ph{"step/br"};
        return ph;
    }
    static const telemetry::Phase& fft_phase() {
        static const telemetry::Phase ph{"step/fft"};
        return ph;
    }

    void derivatives_host(ProblemManager& pm, grid::NodeField<double, 3>& zdot,
                          grid::NodeField<double, 2>& wdot) {
        const auto& local = mesh_->local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        const double dx = mesh_->global().spacing(0);
        const double dy = mesh_->global().spacing(1);
        // Bind the state fields outside the kernels: the accessors do
        // coherence work on a device-resident state (a host refresh), and
        // that must happen on the host thread, not inside a kernel on the
        // worker pool.
        const auto& z = std::as_const(pm).position();
        const auto& w = std::as_const(pm).vorticity();

        // Biot–Savart source gamma at owned nodes (width-2 stencils).
        // All point-local loops below go through par::parallel_for_2d, so
        // the kernels run unmodified on whichever backend the rank-thread
        // selected (serial, OpenMP worksharing, or the device pool).
        grid::NodeField<double, 3>& gamma = gamma_;
        par::parallel_for_2d(0, ni, 0, nj, [&](std::ptrdiff_t ip, std::ptrdiff_t jp) {
            const int i = static_cast<int>(ip);
            const int j = static_cast<int>(jp);
            Vec3 g = operators::gamma_vector(z, w, i, j, dx, dy);
            gamma(i, j, 0) = g.x;
            gamma(i, j, 1) = g.y;
            gamma(i, j, 2) = g.z;
        });

        // Interface velocity W (zdot) and the Bernoulli velocity Wb.
        if (order_ != Order::high) fft_velocity_host(gamma, w_fft_);
        grid::NodeField<double, 3>* w_for_z = &w_fft_;
        grid::NodeField<double, 3>* w_for_bernoulli = &w_fft_;
        if (order_ != Order::low) {
            telemetry::PhaseScope br_scope(br_phase());
            br_->compute_velocity(pm, gamma, w_br_);
            w_for_z = &w_br_;
            if (order_ == Order::high) w_for_bernoulli = &w_br_;
        }
        par::parallel_for_2d(0, ni, 0, nj, [&](std::ptrdiff_t ip, std::ptrdiff_t jp) {
            const int i = static_cast<int>(ip);
            const int j = static_cast<int>(jp);
            for (int c = 0; c < 3; ++c) zdot(i, j, c) = (*w_for_z)(i, j, c);
        });

        // Bernoulli scalar phi = -2*A*g*z3 - A*|Wb|^2, haloed so its
        // surface gradient exists at owned nodes.
        grid::NodeField<double, 1>& phi = phi_;
        par::parallel_for_2d(0, ni, 0, nj, [&](std::ptrdiff_t ip, std::ptrdiff_t jp) {
            const int i = static_cast<int>(ip);
            const int j = static_cast<int>(jp);
            const auto& wb = *w_for_bernoulli;
            double speed2 = wb(i, j, 0) * wb(i, j, 0) + wb(i, j, 1) * wb(i, j, 1) +
                            wb(i, j, 2) * wb(i, j, 2);
            phi(i, j, 0) = -2.0 * atwood_ * gravity_ * z(i, j, 2) - atwood_ * speed2;
        });
        pm.gather_scratch_halo(phi);

        par::parallel_for_2d(0, ni, 0, nj, [&](std::ptrdiff_t ip, std::ptrdiff_t jp) {
            const int i = static_cast<int>(ip);
            const int j = static_cast<int>(jp);
            wdot(i, j, 0) = operators::d1(phi, i, j, 0, dx) +
                            mu_eff_ * operators::laplacian(w, i, j, 0, dx, dy);
            wdot(i, j, 1) = operators::d2(phi, i, j, 0, dy) +
                            mu_eff_ * operators::laplacian(w, i, j, 1, dx, dy);
        });
    }

    /// The same pipeline as device kernels over the mirrors. Everything is
    /// enqueued on the state's queue, so stages order by stream semantics;
    /// host synchronization happens only inside the FFT (butterflies on
    /// the pinned spectral lines) and the BR solvers' communication.
    /// Expressions are evaluated per node exactly as in the host path, so
    /// results are bitwise identical.
    void derivatives_device(ProblemManager& pm, grid::NodeField<double, 3>& zdot,
                            grid::NodeField<double, 2>& wdot) {
        ensure_device(pm);
        pm.ensure_device_current();
        par::device::Queue& q = *queue_;
        const auto& local = mesh_->local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        const double dx = mesh_->global().spacing(0);
        const double dy = mesh_->global().spacing(1);

        auto z = std::as_const(pm.position_raw()).device_view();
        auto w = std::as_const(pm.vorticity_raw()).device_view();
        namespace dc = par::device::devcheck;

        {
            auto g = gamma_.device_view();
            dc::declare(q, "zmodel gamma",
                        {dc::read(z.raw()), dc::read(w.raw()), dc::write(g.raw())});
            par::device::parallel_for_2d(q, ni, nj, [=](int i, int j, std::size_t) {
                Vec3 gv = operators::gamma_vector(z, w, i, j, dx, dy);
                g(i, j, 0) = gv.x;
                g(i, j, 1) = gv.y;
                g(i, j, 2) = gv.z;
            });
        }

        // Interface velocity W and the Bernoulli velocity Wb. The BR
        // solver's begin hook starts its gamma-dependent staging (the
        // cutoff solver's pack/canonicalize kernel) on a side queue,
        // chained behind the gamma kernel by an event — it overlaps the
        // FFT below. For medium order the whole Bernoulli chain (phi,
        // its halo, wdot) depends only on the FFT velocity, so it is
        // issued *before* the BR solve: under the overlapped schedule
        // those main-queue kernels run concurrently with the cutoff
        // solver's spatial pipeline on its own queues. Stage order of
        // each individual output is unchanged, so results are bitwise
        // identical to the fenced schedule (and to the host path).
        if (order_ != Order::low) br_->begin_velocity(pm, gamma_);
        if (order_ != Order::high) fft_velocity_device(q);
        grid::NodeField<double, 3>* w_for_z = &w_fft_;
        grid::NodeField<double, 3>* w_for_bernoulli = &w_fft_;
        if (order_ == Order::high) {
            telemetry::PhaseScope br_scope(br_phase());
            br_->compute_velocity(pm, gamma_, w_br_);
            w_for_z = &w_br_;
            w_for_bernoulli = &w_br_;
        }
        auto enqueue_zdot = [&] {
            auto src = std::as_const(*w_for_z).device_view();
            auto dst = zdot.device_view();
            dc::declare(q, "zmodel zdot copy", {dc::read(src.raw()), dc::write(dst.raw())});
            par::device::parallel_for_2d(q, ni, nj, [=](int i, int j, std::size_t) {
                for (int c = 0; c < 3; ++c) dst(i, j, c) = src(i, j, c);
            });
        };
        auto enqueue_bernoulli = [&] {
            {
                auto wb = std::as_const(*w_for_bernoulli).device_view();
                auto phi = phi_.device_view();
                const double atwood = atwood_;
                const double gravity = gravity_;
                dc::declare(q, "zmodel bernoulli phi",
                            {dc::read(wb.raw()), dc::read(z.raw()), dc::write(phi.raw())});
                par::device::parallel_for_2d(q, ni, nj, [=](int i, int j, std::size_t) {
                    double speed2 = wb(i, j, 0) * wb(i, j, 0) + wb(i, j, 1) * wb(i, j, 1) +
                                    wb(i, j, 2) * wb(i, j, 2);
                    phi(i, j, 0) = -2.0 * atwood * gravity * z(i, j, 2) - atwood * speed2;
                });
            }
            pm.gather_scratch_halo(phi_);
            {
                auto phi = std::as_const(phi_).device_view();
                auto dst = wdot.device_view();
                const double mu_eff = mu_eff_;
                dc::declare(q, "zmodel wdot",
                            {dc::read(phi.raw()), dc::read(w.raw()), dc::write(dst.raw())});
                par::device::parallel_for_2d(q, ni, nj, [=](int i, int j, std::size_t) {
                    dst(i, j, 0) = operators::d1(phi, i, j, 0, dx) +
                                   mu_eff * operators::laplacian(w, i, j, 0, dx, dy);
                    dst(i, j, 1) = operators::d2(phi, i, j, 0, dy) +
                                   mu_eff * operators::laplacian(w, i, j, 1, dx, dy);
                });
            }
        };
        if (order_ == Order::medium) {
            enqueue_bernoulli();
            {
                telemetry::PhaseScope br_scope(br_phase());
                br_->compute_velocity(pm, gamma_, w_br_);
            }
            w_for_z = &w_br_;
            enqueue_zdot();
        } else {
            enqueue_zdot();
            enqueue_bernoulli();
        }
    }

    /// One-time device setup: mirror the scratch fields, pin the spectral
    /// staging buffers, and switch the FFT's reshape staging to device
    /// pack/unpack through the pinned plan buffers.
    void ensure_device(ProblemManager& pm) {
        if (device_) return;
        queue_ = &pm.device_queue();
        gamma_.enable_device_mirror();
        w_fft_.enable_device_mirror();
        w_br_.enable_device_mirror();
        phi_.enable_device_mirror();
        zdot_dev_.enable_device_mirror();
        wdot_dev_.enable_device_mirror();
        // The derivative-download scratch is read back wholesale; seed
        // the mirrors from the zero-filled host storage so the ghost
        // bytes are defined.
        zdot_dev_.sync_to_device(*queue_);
        wdot_dev_.sync_to_device(*queue_);
        queue_->fence(); // devcheck: fenced — one-time mirror seed
        if (fft_) {
            const auto n = fft_->local_box().size();
            for (auto& s : spectral_) {
                s.resize(n);
                pinned_.emplace_back(std::span<const fft::cplx>(s.data(), s.size()));
            }
            fft_->enable_device(*queue_);
        }
        device_ = true;
    }

    /// Low-order interface velocity: transform the three gamma components,
    /// apply What = i (k x gamma_hat) / (2|k|), transform back. 3 forward
    /// + 3 inverse distributed FFTs — the all-to-all load of the low-order
    /// benchmarks (paper §4).
    void fft_velocity_host(const grid::NodeField<double, 3>& gamma,
                           grid::NodeField<double, 3>& velocity) {
        telemetry::PhaseScope scope(fft_phase());
        const auto& box = fft_->local_box();
        const auto n = box.size();
        for (int c = 0; c < 3; ++c) {
            auto& s = spectral_[static_cast<std::size_t>(c)];
            s.resize(n);
            std::size_t k = 0;
            for (int gi = box.i.begin; gi < box.i.end; ++gi) {
                for (int gj = box.j.begin; gj < box.j.end; ++gj, ++k) {
                    s[k] = {gamma(gi - box.i.begin, gj - box.j.begin, c), 0.0};
                }
            }
            fft_->forward(s);
        }

        apply_multiplier();

        for (int c = 0; c < 3; ++c) {
            auto& s = spectral_[static_cast<std::size_t>(c)];
            fft_->inverse(s);
            std::size_t m = 0;
            for (int gi = box.i.begin; gi < box.i.end; ++gi) {
                for (int gj = box.j.begin; gj < box.j.end; ++gj, ++m) {
                    velocity(gi - box.i.begin, gj - box.j.begin, c) = s[m].real();
                }
            }
        }
    }

    /// Device variant: gamma -> pinned spectral lines and spectral ->
    /// velocity marshalling are kernels; the distributed transforms and
    /// the multiplier run on the pinned buffers.
    void fft_velocity_device(par::device::Queue& q) {
        telemetry::PhaseScope scope(fft_phase());
        const auto& box = fft_->local_box();
        const int nib = box.i.extent();
        const int njb = box.j.extent();
        namespace dc = par::device::devcheck;
        const std::size_t nbox = box.size();
        for (int c = 0; c < 3; ++c) {
            fft::cplx* sp = spectral_[static_cast<std::size_t>(c)].data();
            auto g = std::as_const(gamma_).device_view();
            dc::declare(q, "zmodel gamma -> spectral",
                        {dc::read(g.raw()), dc::write(sp, nbox * sizeof(fft::cplx))});
            par::device::parallel_for_2d(q, nib, njb, [=](int i, int j, std::size_t k) {
                sp[k] = {g(i, j, c), 0.0};
            });
        }
        // The transforms read the spectral lines from host code (the
        // butterflies); the reshapes inside enqueue their own kernels on
        // the same queue and fence before host compute.
        q.fence(); // devcheck: fenced — host butterflies read the spectral lines
        for (auto& s : spectral_) fft_->forward(s);
        apply_multiplier();
        for (auto& s : spectral_) fft_->inverse(s);
        for (int c = 0; c < 3; ++c) {
            const fft::cplx* sp = spectral_[static_cast<std::size_t>(c)].data();
            auto v = w_fft_.device_view();
            dc::declare(q, "zmodel spectral -> velocity",
                        {dc::read(sp, nbox * sizeof(fft::cplx)), dc::write(v.raw())});
            par::device::parallel_for_2d(q, nib, njb, [=](int i, int j, std::size_t k) {
                v(i, j, c) = sp[k].real();
            });
        }
    }

    /// The flat-sheet Fourier multiplier, applied in place to the three
    /// transformed gamma components (host compute on the spectral lines).
    void apply_multiplier() {
        const auto& box = fft_->local_box();
        const int n0 = mesh_->global().num_nodes(0);
        const int n1 = mesh_->global().num_nodes(1);
        const double lx = mesh_->global().extent(0);
        const double ly = mesh_->global().extent(1);
        constexpr double tau = 2.0 * std::numbers::pi;
        auto& spectral = spectral_;
        std::size_t k = 0;
        for (int gi = box.i.begin; gi < box.i.end; ++gi) {
            for (int gj = box.j.begin; gj < box.j.end; ++gj, ++k) {
                double kx = tau * fft::DistributedFFT2D::signed_mode(gi, n0) / lx;
                double ky = tau * fft::DistributedFFT2D::signed_mode(gj, n1) / ly;
                double kn = std::sqrt(kx * kx + ky * ky);
                if (kn == 0.0) {
                    for (auto& s : spectral) s[k] = {0.0, 0.0};
                    continue;
                }
                fft::cplx gx = spectral[0][k], gy = spectral[1][k], gz = spectral[2][k];
                // i * (k x gamma_hat) / (2|k|), k = (kx, ky, 0).
                const fft::cplx iunit{0.0, 1.0};
                const double inv = 1.0 / (2.0 * kn);
                spectral[0][k] = iunit * (ky * gz) * inv;
                spectral[1][k] = iunit * (-kx * gz) * inv;
                spectral[2][k] = iunit * (kx * gy - ky * gx) * inv;
            }
        }
    }

    comm::Communicator* comm_;
    const SurfaceMesh* mesh_;
    Order order_;
    BRSolverBase* br_;
    double atwood_;
    double gravity_;
    double mu_eff_;
    std::optional<fft::DistributedFFT2D> fft_;
    // Persistent scratch: one derivative evaluation allocates nothing in
    // the steady state. Only owned nodes are read back (phi additionally
    // through its own halo refresh), so stale ghosts are harmless.
    grid::NodeField<double, 3> gamma_;
    grid::NodeField<double, 3> w_fft_;
    grid::NodeField<double, 3> w_br_;
    grid::NodeField<double, 1> phi_;
    /// Landing pads for host-field callers on a device-resident state:
    /// the device pipeline writes these mirrors, then the owned nodes are
    /// downloaded into the caller's fields.
    grid::NodeField<double, 3> zdot_dev_;
    grid::NodeField<double, 2> wdot_dev_;
    std::array<std::vector<fft::cplx>, 3> spectral_;
    // Device mode: the rank-thread's queue, plus pins for the spectral
    // staging buffers (kernels write them directly).
    par::device::Queue* queue_ = nullptr;
    bool device_ = false;
    std::vector<par::device::ScopedHostRegistration> pinned_;
};

} // namespace beatnik
