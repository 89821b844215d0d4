/// \file problem_manager.hpp
/// \brief Owns the distributed mesh state (position + vorticity) and its
/// halo exchanges (paper §3.1, ProblemManager module).
///
/// Under `Backend::device` the state fields are **device-resident**: the
/// mirrors are enabled at construction, every halo exchange packs/unpacks
/// with device kernels straight into the pinned plan buffers, boundary
/// fixups run as device kernels, and the host copies go stale until an
/// I/O or diagnostics boundary asks for them. Host<->device coherence is
/// tracked explicitly:
///
///   * `position()` / `vorticity()` (host accessors) first refresh the
///     host copy; the non-const overloads additionally mark the device
///     mirror stale, so host-side writes (tests, initial-condition
///     tweaks) are re-uploaded at the next device entry point;
///   * `ensure_device_current()` re-uploads before device work;
///   * `sync_host()` is the explicit I/O-boundary refresh used by
///     SiloWriter and the diagnostics reductions.
///
/// A steady-state step therefore performs **zero** host<->device field
/// copies (counting test in tests/core/test_device_residency.cpp). Set
/// BEATNIK_DEVICE_RESIDENCY=0 to force host residency while keeping the
/// device backend for kernels.
#pragma once

#include <cstdlib>
#include <string_view>

#include "comm/communicator.hpp"
#include "core/boundary_condition.hpp"
#include "core/initial_conditions.hpp"
#include "core/surface_mesh.hpp"
#include "grid/halo.hpp"
#include "par/par.hpp"
#include "telemetry/metrics.hpp"

namespace beatnik {

class ProblemManager {
public:
    ProblemManager(comm::Communicator& comm, const SurfaceMesh& mesh, const Params& params)
        : comm_(&comm), mesh_(&mesh), bc_(mesh), z_(mesh.local()), w_(mesh.local()),
          // Auto-stream plans: tags come from the communicator's plan
          // sequence, so several ProblemManagers can coexist on one
          // communicator (construction is collective).
          z_halo_(comm, mesh.topology(), mesh.local()),
          w_halo_(comm, mesh.topology(), mesh.local()),
          scratch_halo_(comm, mesh.topology(), mesh.local()) {
        apply_initial_conditions(mesh, params.initial, z_, w_);
        if (par::backend() == par::Backend::device && residency_enabled()) {
            enable_device_residency();
        }
        gather_halos();
    }

    /// Kernels and halo unpacks touching the mirrors may still be in
    /// flight on the queue; drain it before the buffers die.
    ~ProblemManager() {
        if (resident_) queue_->fence(); // devcheck: fenced — teardown drain
    }
    ProblemManager(const ProblemManager&) = delete;
    ProblemManager& operator=(const ProblemManager&) = delete;

    [[nodiscard]] comm::Communicator& comm() { return *comm_; }
    [[nodiscard]] const SurfaceMesh& mesh() const { return *mesh_; }
    [[nodiscard]] const BoundaryCondition& boundary() const { return bc_; }

    /// Interface position z(i,j) — 3 components. Host view: refreshes the
    /// host copy when the device mirror is ahead; the non-const overload
    /// marks the mirror stale (the caller may write).
    [[nodiscard]] grid::NodeField<double, 3>& position() {
        refresh_host(/*for_write=*/true);
        return z_;
    }
    [[nodiscard]] const grid::NodeField<double, 3>& position() const {
        const_cast<ProblemManager*>(this)->refresh_host(/*for_write=*/false);
        return z_;
    }

    /// Vorticity components w(i,j) = surface gradient of the dipole
    /// strength — 2 components. Host view, same coherence rules.
    [[nodiscard]] grid::NodeField<double, 2>& vorticity() {
        refresh_host(/*for_write=*/true);
        return w_;
    }
    [[nodiscard]] const grid::NodeField<double, 2>& vorticity() const {
        const_cast<ProblemManager*>(this)->refresh_host(/*for_write=*/false);
        return w_;
    }

    // ------------------------------------------------- device residency

    /// True when the state fields live on the device across steps.
    [[nodiscard]] bool device_resident() const { return resident_; }

    /// The queue every device-resident operation of this state runs on
    /// (the owning rank-thread's implicit stream).
    [[nodiscard]] par::device::Queue& device_queue() {
        BEATNIK_REQUIRE(resident_, "state is not device-resident");
        return *queue_;
    }

    /// Direct field access without coherence bookkeeping — for the device
    /// derivative pipeline, which reads/writes the *mirrors* only and
    /// manages staleness through ensure_device_current()/mark_host_stale().
    [[nodiscard]] grid::NodeField<double, 3>& position_raw() { return z_; }
    [[nodiscard]] grid::NodeField<double, 2>& vorticity_raw() { return w_; }

    /// Whether device residency is requested for this process (the
    /// BEATNIK_DEVICE_RESIDENCY=0 escape hatch forces host residency).
    [[nodiscard]] static bool residency_enabled() {
        static const bool on = [] {
            const char* v = std::getenv("BEATNIK_DEVICE_RESIDENCY");
            return v == nullptr || std::string_view(v) != "0";
        }();
        return on;
    }

    /// Switch the state to device residency: enable the mirrors, upload
    /// once, and put every halo plan on the device pack/unpack path with
    /// per-direction publish overlap. Idempotent; normally called by the
    /// constructor under Backend::device.
    void enable_device_residency() {
        if (resident_) return;
        queue_ = &par::device::default_queue();
        z_.enable_device_mirror();
        w_.enable_device_mirror();
        z_halo_.enable_device(*queue_);
        w_halo_.enable_device(*queue_);
        scratch_halo_.enable_device(*queue_);
        z_.sync_to_device(*queue_);
        w_.sync_to_device(*queue_);
        queue_->fence(); // devcheck: fenced — one-time residency upload
        resident_ = true;
        host_current_ = true;
        device_current_ = true;
    }

    /// Re-upload the state before device work if host-side writes made
    /// the mirrors stale. No-op in the steady state (and on host-resident
    /// managers).
    void ensure_device_current() {
        if (!resident_ || device_current_) return;
        z_.sync_to_device(*queue_);
        w_.sync_to_device(*queue_);
        queue_->fence(); // devcheck: fenced — re-upload after host writes
        device_current_ = true;
    }

    /// Device-side code that mutated the state mirrors calls this so the
    /// next host accessor re-downloads.
    void mark_host_stale() {
        if (resident_) host_current_ = false;
    }

    /// I/O/diagnostics boundary: make the host copies current (one
    /// device->host copy per field, only when actually stale). The device
    /// mirror stays authoritative.
    void sync_host() {
        if (!resident_ || host_current_) return;
        z_.sync_to_host(*queue_);
        w_.sync_to_host(*queue_);
        queue_->fence(); // devcheck: fenced — I/O boundary reads the host copies
        host_current_ = true;
    }

    /// Refresh ghosts of both state fields and re-apply boundary fixups.
    /// Call after any update of owned values. Runs on the persistent halo
    /// plans built at construction — no per-call setup or allocation; on a
    /// device-resident state the packs, unpacks and boundary fixups are
    /// device kernels and the host copy is left stale.
    void gather_halos() {
        static const telemetry::Phase ph{"step/halo"};
        telemetry::PhaseScope scope(ph);
        if (resident_) {
            ensure_device_current();
            z_halo_.exchange(z_);
            w_halo_.exchange(w_);
            bc_.apply_position_device(*queue_, z_);
            bc_.apply_value_device(*queue_, w_);
            host_current_ = false;
            return;
        }
        z_halo_.exchange(z_);
        w_halo_.exchange(w_);
        bc_.apply_position(z_);
        bc_.apply_value(w_);
    }

    /// Halo + boundary fixup for a derived (non-position) field owned by a
    /// solver (e.g. the Bernoulli scalar or a velocity component). Plans
    /// are field-agnostic for a given shape, so every supported width
    /// (1..3 components) rides one of the persistent plans (a
    /// 3-component scratch exchange reuses the position plan's channels,
    /// etc.). A device-
    /// mirrored field on a device-resident state exchanges and fixes up
    /// entirely on device; unmirrored fields take the host path even when
    /// the plans are device-enabled (the pinned buffers are ordinary host
    /// memory to host code).
    template <int C>
    void gather_scratch_halo(grid::NodeField<double, C>& f) {
        static const telemetry::Phase ph{"step/halo_scratch"};
        telemetry::PhaseScope scope(ph);
        const bool on_device = resident_ && f.device_mirrored();
        static_assert(C >= 1 && C <= 3, "scratch halo exchange supports 1..3 components");
        if constexpr (C == 1) {
            scratch_halo_.exchange(f);
        } else if constexpr (C == 2) {
            w_halo_.exchange(f);
        } else {
            z_halo_.exchange(f);
        }
        if (on_device) {
            bc_.apply_value_device(*queue_, f);
        } else {
            bc_.apply_value(f);
        }
    }

private:
    /// Host-accessor coherence: download when the mirror is ahead; a
    /// write-intent access marks the mirror stale so the next device
    /// entry re-uploads.
    void refresh_host(bool for_write) {
        if (resident_) {
            sync_host();
            if (for_write) device_current_ = false;
        }
    }

    comm::Communicator* comm_;
    const SurfaceMesh* mesh_;
    BoundaryCondition bc_;
    grid::NodeField<double, 3> z_;
    grid::NodeField<double, 2> w_;
    grid::HaloPlan<double, 3> z_halo_;
    grid::HaloPlan<double, 2> w_halo_;
    grid::HaloPlan<double, 1> scratch_halo_;
    par::device::Queue* queue_ = nullptr;
    bool resident_ = false;
    bool host_current_ = true;    ///< host arrays reflect the latest state
    bool device_current_ = true;  ///< mirrors reflect the latest state
};

} // namespace beatnik
