/// \file reshape.hpp
/// \brief Repartitioning of a distributed array between two box lists.
///
/// This is the heart of the heFFTe substitute: like heFFTe, a reshape is
/// planned by intersecting every source box with every destination box,
/// producing per-pair transfer rectangles. Execution runs on a persistent
/// plan exchange bound on first execution (fft/plan_cache.hpp), with the
/// AllToAll knob picking its schedule: only overlapping peers (p2p), or
/// all pairs on an exchange shared by a family of reshapes (dense).
///
/// The intersection itself (detail::overlaps) is communication-free and
/// runs for any rank count without building an exchange — the scaling
/// benchmarks list P=1024 schedules with it and feed them straight into
/// the netsim performance model.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fft/layout.hpp"
#include "fft/plan_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace beatnik::fft {

namespace detail {

/// One planned transfer rectangle between a pair of ranks.
template <class Box>
struct BoxTransfer {
    int peer = 0;   ///< The other rank.
    Box box;        ///< Global index rectangle carried by this transfer.
};

/// heFFTe's box intersection: \p mine against every rank's box in
/// \p boxes, empty overlaps dropped, in rank order (self included). A
/// rank's sends are its source box against the destination list, its
/// recvs its destination box against the source list. Communication-free,
/// so planners list a reshape's messages for any rank count without
/// building its exchanges.
template <class Box>
[[nodiscard]] std::vector<BoxTransfer<Box>> overlaps(const Box& mine,
                                                     const std::vector<Box>& boxes) {
    std::vector<BoxTransfer<Box>> out;
    for (std::size_t r = 0; r < boxes.size(); ++r) {
        Box b = mine.intersect(boxes[r]);
        if (!b.empty()) out.push_back({static_cast<int>(r), b});
    }
    return out;
}

/// What both reshape planners share: the box-intersection plan for one
/// rank and its seats on the two exchanges. Copies share the exchanges,
/// so forward/inverse paths over identical box lists reuse the same
/// channels.
template <class Box>
class BoxReshape {
public:
    using Transfer = BoxTransfer<Box>;

    /// Plan the reshape for one rank. Box lists must tile the same global
    /// space (checked in debug builds via total element count).
    BoxReshape(int rank, const std::vector<Box>& src_boxes, const std::vector<Box>& dst_boxes) {
        const int p = static_cast<int>(src_boxes.size());
        BEATNIK_REQUIRE(dst_boxes.size() == src_boxes.size(),
                        "reshape: box lists must have one box per rank");
        BEATNIK_REQUIRE(rank >= 0 && rank < p, "reshape: rank out of range");
        sends_ = overlaps(src_boxes[static_cast<std::size_t>(rank)], dst_boxes);
        recvs_ = overlaps(dst_boxes[static_cast<std::size_t>(rank)], src_boxes);
        for (const auto& t : recvs_) recv_coverage_ += t.box.size();
        p2p_ = PlanExchange::make(rank, /*dense=*/false, p);
        p2p_route_ = p2p_->join(sends_, recvs_);
        dense_ = PlanExchange::make(rank, /*dense=*/true, p);
        dense_route_ = dense_->join(sends_, recvs_);
    }

    /// Overlapping peers only (self included), in rank order.
    [[nodiscard]] const std::vector<Transfer>& sends() const { return sends_; }
    [[nodiscard]] const std::vector<Transfer>& recvs() const { return recvs_; }

    /// Seat \p family — one rank's reshapes that run one after another,
    /// never concurrently — on one shared dense exchange, each slot sized
    /// to the largest block to or from its peer across the family. One set
    /// of channels then serves every AllToAll reshape of the family. Call
    /// before enable_device and before any member's first AllToAll run.
    static void share_dense_exchange(std::span<BoxReshape* const> family) {
        if (family.empty()) return;
        const PlanExchange& own = *family.front()->dense_;
        auto shared = PlanExchange::make(own.rank, /*dense=*/true,
                                         static_cast<int>(own.sends.peer.size()) + 1);
        for (BoxReshape* r : family) {
            r->dense_ = shared;
            r->dense_route_ = shared->join(r->sends_, r->recvs_);
        }
    }

protected:
    /// Check \p in against \p src and size \p out for \p dst with no
    /// zero-fill pass: the recv rectangles are disjoint and tile the
    /// destination (checked), so the sweep writes every element once.
    template <class Layout>
    void prepare(const Layout& src, std::span<const cplx> in, const Layout& dst,
                 std::vector<cplx>& out) const {
        BEATNIK_REQUIRE(in.size() == src.size(), "reshape: input size mismatch");
        BEATNIK_ASSERT(recv_coverage_ == dst.size(),
                       "reshape: recv boxes do not cover the destination layout");
        out.resize(dst.size());
    }

    /// The exchange and route of the AllToAll knob's schedule.
    [[nodiscard]] PlanExchange& exchange(bool use_alltoall) const {
        return use_alltoall ? *dense_ : *p2p_;
    }
    [[nodiscard]] const Route& route(bool use_alltoall) const {
        return use_alltoall ? dense_route_ : p2p_route_;
    }

    std::vector<Transfer> sends_;
    std::vector<Transfer> recvs_;
    std::size_t recv_coverage_ = 0;   ///< sum of recv rectangle sizes
    /// Execution-time bindings, touched only from the owning rank-thread.
    std::shared_ptr<PlanExchange> p2p_;
    std::shared_ptr<PlanExchange> dense_;
    Route p2p_route_;
    Route dense_route_;
};

} // namespace detail

/// A planned repartition from layout list A to layout list B over P ranks.
class ReshapePlan : public detail::BoxReshape<Box2D> {
public:
    using BoxReshape::BoxReshape;

    /// Switch both schedules to device staging: the persistent plan's
    /// transport buffers are pinned at bind, rectangle packs/unpacks run
    /// as kernels on \p q (so `in`/`out` must be device-accessible —
    /// pinned host ranges in practice), and each send publishes on its
    /// own pack-completion event, overlapping pack with communication.
    /// Safe to call after host sweeps already bound the plan: the existing
    /// binding is pinned in place.
    void enable_device(par::device::Queue& q) {
        p2p_->enable_device(q);
        dense_->enable_device(q);
    }

    [[nodiscard]] bool device_enabled() const { return p2p_->queue != nullptr; }

    /// Execute the reshape. \p in is the local data in \p src layout;
    /// \p out is resized and filled in \p dst layout. \p use_alltoall
    /// selects the dense all-pairs schedule vs the overlapping-peers one.
    void execute(comm::Communicator& comm, const Layout2D& src, std::span<const cplx> in,
                 const Layout2D& dst, std::vector<cplx>& out, bool use_alltoall) const {
        telemetry::Scope span("fft.reshape", in.size() * sizeof(cplx),
                              use_alltoall ? 1 : 0);
        prepare(src, in, dst, out);
        detail::PlanExchange& ex = exchange(use_alltoall);
        if (ex.queue != nullptr) {
            execute_device(comm, ex, route(use_alltoall), src, in, dst, out);
            return;
        }
        ex.execute(comm, route(use_alltoall), sends_, recvs_, src, in, dst, out, copy_box);
    }

private:
    /// Copy \p box from layout \p from at \p in to layout \p to at \p out.
    /// A pack is a copy into the box's wire layout (`Layout2D{box}`: i-major,
    /// j contiguous), an unpack a copy out of it, the self rectangle a copy
    /// between the two stage layouts. When both layouts are j-fastest each
    /// box row is one block copy.
    static void copy_box(const Layout2D& from, const cplx* in, const Layout2D& to, cplx* out,
                         const Box2D& box) {
        if (from.fast_axis == 1 && to.fast_axis == 1) {
            const std::size_t row = static_cast<std::size_t>(box.j.extent());
            for (int i = box.i.begin; i < box.i.end; ++i) {
                std::copy_n(in + from.offset(i, box.j.begin), row,
                            out + to.offset(i, box.j.begin));
            }
            return;
        }
        for (int i = box.i.begin; i < box.i.end; ++i) {
            for (int j = box.j.begin; j < box.j.end; ++j) {
                out[to.offset(i, j)] = in[from.offset(i, j)];
            }
        }
    }

    /// devcheck footprint of \p box inside layout \p l at \p base: the
    /// bounding byte range (offset() is monotone in both indices).
    static par::device::devcheck::Region box_region(const Layout2D& l, const cplx* base,
                                                    const Box2D& box, bool is_write) {
        if (box.size() == 0) return {nullptr, 0, is_write};
        const std::size_t first = l.offset(box.i.begin, box.j.begin);
        const std::size_t last = l.offset(box.i.end - 1, box.j.end - 1);
        return {base + first, (last - first + 1) * sizeof(cplx), is_write};
    }

    /// copy_box as a device kernel on \p q (one work item per box row).
    static void device_copy_box(par::device::Queue& q, const char* what, const Layout2D& from,
                                const cplx* in, const Layout2D& to, cplx* out,
                                const Box2D& box) {
        const int ib = box.i.begin;
        const int jb = box.j.begin;
        const int je = box.j.end;
        par::device::devcheck::declare(
            q, what, {box_region(from, in, box, false), box_region(to, out, box, true)});
        q.parallel_for(static_cast<std::size_t>(box.i.extent()), [=](std::size_t r) {
            const int i = ib + static_cast<int>(r);
            for (int j = jb; j < je; ++j) out[to.offset(i, j)] = in[from.offset(i, j)];
        });
    }

    /// The device sweep over \p c: packs go straight from the (pinned)
    /// source array into the pinned plan buffers as kernels, each send
    /// publishing on its own completion event; the self rectangle is one
    /// direct in->out kernel; arrivals unpack as kernels and release on
    /// their own events. Zero-byte route entries publish and release with
    /// no kernel. The closing fence makes `out` host-readable (the caller
    /// runs FFT butterflies on it next).
    void execute_device(comm::Communicator& comm, detail::PlanExchange& c,
                        const detail::Route& route, const Layout2D& src,
                        std::span<const cplx> in, const Layout2D& dst,
                        std::vector<cplx>& out) const {
        c.bind(comm);
        par::device::Queue& q = *c.queue;
        auto& rt = par::device::Runtime::instance();
        BEATNIK_REQUIRE(rt.device_accessible(in.data(), in.size_bytes()),
                        "device reshape: source array is not device-accessible — pin it first");
        BEATNIK_REQUIRE(rt.device_accessible(out.data(), out.size() * sizeof(cplx)),
                        "device reshape: output array is not device-accessible — pin it first");
        namespace dc = par::device::devcheck;
        c.plan->start();
        c.send_keys.assign(route.send.size(), nullptr);
        c.recv_keys.assign(route.recv.size(), nullptr);
        for (std::size_t s = 0; s < route.send.size(); ++s) {
            const int t = route.send[s];
            auto buf = c.plan->send_buffer(static_cast<int>(s),
                                           detail::block_size(sends_, t) * sizeof(cplx));
            c.send_keys[s] = buf.data();
            dc::channel_send_acquire(buf.data());
            if (t >= 0) {
                const Box2D& box = sends_[static_cast<std::size_t>(t)].box;
                device_copy_box(q, "ReshapePlan device pack", src, in.data(), Layout2D{box},
                                reinterpret_cast<cplx*>(buf.data()), box);
            }
            q.record_event_into(c.send_events[s]);
        }
        for (std::size_t s = 0; s < route.send.size(); ++s) {
            c.send_events[s].wait();
            dc::channel_publish(c.send_keys[s], "ReshapePlan device publish");
            c.plan->publish(static_cast<int>(s));
        }
        // Self rectangle: one direct device copy, no staging.
        for (const auto& t : recvs_) {
            if (t.peer == comm.rank()) {
                device_copy_box(q, "ReshapePlan self rectangle", src, in.data(), dst, out.data(),
                                t.box);
            }
        }
        c.arrived.clear();
        for (std::size_t done = 0; done < route.recv.size(); ++done) {
            const int s = c.plan->wait_any_recv();
            BEATNIK_ASSERT(s >= 0);
            const int t = route.recv[static_cast<std::size_t>(s)];
            auto incoming = c.plan->recv_view_as<cplx>(s);
            BEATNIK_REQUIRE(incoming.size() == detail::block_size(recvs_, t),
                            "reshape: unexpected block size from peer");
            c.recv_keys[static_cast<std::size_t>(s)] = incoming.data();
            dc::channel_recv_acquire(incoming.data(), "ReshapePlan device recv");
            if (t >= 0) {
                const Box2D& box = recvs_[static_cast<std::size_t>(t)].box;
                device_copy_box(q, "ReshapePlan device unpack", Layout2D{box}, incoming.data(), dst,
                                out.data(), box);
            }
            q.record_event_into(c.recv_events[static_cast<std::size_t>(s)]);
            c.arrived.push_back(s);
        }
        for (int s : c.arrived) {
            c.recv_events[static_cast<std::size_t>(s)].wait();
            dc::channel_release(c.recv_keys[static_cast<std::size_t>(s)],
                                "ReshapePlan device release");
            c.plan->release_recv(s);
        }
        q.fence(); // devcheck: fenced — caller's host FFT reads `out` next
    }
};

} // namespace beatnik::fft
