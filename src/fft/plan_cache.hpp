/// \file plan_cache.hpp
/// \brief Persistent plan exchanges behind both reshape schedules.
///
/// Both reshape planners (2D ReshapePlan, 3D Reshape3D) move their
/// off-rank rectangles through a PlanExchange: a comm::Plan bound lazily
/// on first execution, packed straight into its channel buffers and
/// unpacked in arrival order. Paper Table 1's AllToAll knob picks one of
/// two slot schedules:
///
///   * p2p (AllToAll=false, heFFTe's custom path): one exchange per
///     reshape, with a slot per overlapping peer sized to its rectangle;
///   * dense (AllToAll=true): one exchange shared by a family of reshapes
///     that run one after another (the six of a DistributedFFT2D, the path
///     of a DistributedFFT3D), with a send and a recv slot per off-rank
///     peer in rotated order (rank+1, rank+2, ...), each sized to the
///     largest block to or from that peer across the family. A reshape
///     publishes zero bytes to the peers it does not overlap, so every
///     reshape moves P-1 messages per rank — the all-pairs pattern of the
///     collective — over one set of channels for the whole family, with no
///     per-call staging, count exchange or closing barrier.
///
/// A reshape joins an exchange before its first execution and gets a
/// Route: per slot, the index of the transfer it carries there, or -1 for
/// a zero-byte publish. Transfer types need `.peer` and `.box.size()`.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "comm/plan.hpp"
#include "fft/serial_fft.hpp"
#include "par/device/device.hpp"

namespace beatnik::fft::detail {

/// One reshape's use of an exchange: per slot, the index of the transfer
/// carried there, or -1 for a zero-byte publish / arrival.
struct Route {
    std::vector<int> send;
    std::vector<int> recv;
};

/// Elements a route entry carries.
template <class Transfer>
[[nodiscard]] std::size_t block_size(const std::vector<Transfer>& list, int t) {
    return t < 0 ? 0 : list[static_cast<std::size_t>(t)].box.size();
}

/// Execution-time state of one persistent exchange. Touched only from
/// the owning rank-thread.
struct PlanExchange {
    /// Per-direction slot table: the peer and the capacity (elements) of
    /// each slot, in slot order.
    struct Side {
        std::vector<int> peer;
        std::vector<std::size_t> cap;
    };

    int rank = 0;
    bool dense = false;
    Side sends;
    Side recvs;
    std::optional<comm::Plan> plan;
    comm::Communicator* comm = nullptr;
    /// Device staging mode (enable_device): transport buffers are pinned
    /// at bind and pack/unpack run as kernels on this queue, each send
    /// publishing on its own completion event.
    par::device::Queue* queue = nullptr;
    std::vector<par::device::ScopedHostRegistration> pinned;
    std::vector<par::device::Event> send_events;
    std::vector<par::device::Event> recv_events;
    std::vector<int> arrived;   ///< per-sweep scratch (capacity reused)
    /// devcheck channel keys captured at acquire time (publish/release
    /// run in later loops); capacity reused per sweep.
    std::vector<const void*> send_keys;
    std::vector<const void*> recv_keys;

    /// A p2p exchange (the one reshape that joins gets a slot per off-rank
    /// transfer) or a dense one over \p nranks ranks (a slot to and from
    /// every off-rank peer in rotated order, capacity 0 until members join).
    static std::shared_ptr<PlanExchange> make(int rank, bool dense, int nranks) {
        auto ex = std::make_shared<PlanExchange>();
        ex->rank = rank;
        ex->dense = dense;
        for (int k = 1; dense && k < nranks; ++k) {
            for (Side* side : {&ex->sends, &ex->recvs}) {
                side->peer.push_back((rank + k) % nranks);
                side->cap.push_back(0);
            }
        }
        return ex;
    }

    /// Admit a reshape's transfer lists: widen the slot capacities to its
    /// blocks (a p2p exchange, joined once, appends its slots) and return
    /// its route.
    template <class Transfer>
    [[nodiscard]] Route join(const std::vector<Transfer>& send_list,
                             const std::vector<Transfer>& recv_list) {
        BEATNIK_REQUIRE(!plan.has_value(), "reshape exchange: join before the first execution");
        return {admit(send_list, sends), admit(recv_list, recvs)};
    }

    /// Bind (or rebind after a communicator change). The plan tag comes
    /// from the communicator's collective plan sequence, so every rank
    /// binding the same exchange in the same order resolves the same
    /// channels. Slot k of the plan is slot k of the tables.
    ///
    /// Communicator change is detected by address, so a planner holding
    /// this exchange must not be carried across contexts: a new context
    /// can reuse the old communicator's address and would silently alias
    /// the stale binding (see the lifetime note in comm/plan.hpp).
    void bind(comm::Communicator& c) {
        if (comm == &c && plan.has_value()) return;
        BEATNIK_REQUIRE(c.rank() == rank, "reshape exchange: executed on a different rank");
        const int tag = c.new_plan_tag();
        auto b = comm::Plan::builder(c);
        for (std::size_t s = 0; s < sends.peer.size(); ++s) {
            (void)b.add_send(sends.peer[s], tag, sends.cap[s] * sizeof(cplx));
        }
        for (std::size_t s = 0; s < recvs.peer.size(); ++s) {
            (void)b.add_recv(recvs.peer[s], tag, recvs.cap[s] * sizeof(cplx));
        }
        plan.emplace(b.build());
        comm = &c;
        if (queue != nullptr) setup_device();
    }

    /// Switch to device staging on \p q. Safe after host sweeps already
    /// bound the plan: the existing binding is pinned in place.
    void enable_device(par::device::Queue& q) {
        if (queue == &q) return;
        queue = &q;
        if (plan.has_value()) setup_device();
    }

    /// Pin the bound plan's transport buffers and size the per-slot event
    /// storage. Called from bind() when device mode is already on, and
    /// from enable_device() when the plan was already bound — bind()'s
    /// early return would otherwise leave the buffers unpinned and the
    /// event vectors empty. Capacity-0 slots carry only zero-byte
    /// messages and are not pinned (Plan::pin_buffers skips them).
    void setup_device() {
        pinned.clear();
        plan->pin_buffers([this](std::span<std::byte> buf) { pinned.emplace_back(buf); });
        send_events.resize(sends.peer.size());
        recv_events.resize(recvs.peer.size());
        arrived.reserve(recvs.peer.size());
    }

    /// One host reshape sweep from \p in (layout \p src) into \p out
    /// (layout \p dst): bind if needed, pack each routed rectangle straight
    /// into its slot's transport buffer and publish (zero bytes where the
    /// route is empty), copy the self rectangle in place, then unpack
    /// arrivals in completion order, releasing each slot as soon as it is
    /// consumed. copy_box(from, in, to, out, box) copies a box between two
    /// layouts; `Layout{box}` (the default fast axis) is its wire order.
    template <class Transfer, class Layout, class CopyBox>
    void execute(comm::Communicator& c, const Route& route, const std::vector<Transfer>& send_list,
                 const std::vector<Transfer>& recv_list, const Layout& src,
                 std::span<const cplx> in, const Layout& dst, std::vector<cplx>& out,
                 CopyBox&& copy_box) {
        namespace dc = par::device::devcheck;
        bind(c);
        BEATNIK_ASSERT(route.send.size() == sends.peer.size() &&
                       route.recv.size() == recvs.peer.size());
        plan->start();
        for (std::size_t s = 0; s < route.send.size(); ++s) {
            const int t = route.send[s];
            auto buf = plan->send_buffer(static_cast<int>(s),
                                         block_size(send_list, t) * sizeof(cplx));
            dc::channel_send_acquire(buf.data());
            if (t >= 0) {
                const auto& box = send_list[static_cast<std::size_t>(t)].box;
                copy_box(src, in.data(), Layout{box}, reinterpret_cast<cplx*>(buf.data()), box);
            }
            dc::channel_publish(buf.data(), "ReshapePlan host publish");
            plan->publish(static_cast<int>(s));
        }
        // Self rectangle never leaves the rank.
        for (const auto& t : recv_list) {
            if (t.peer == c.rank()) copy_box(src, in.data(), dst, out.data(), t.box);
        }
        for (std::size_t done = 0; done < route.recv.size(); ++done) {
            const int s = plan->wait_any_recv();
            BEATNIK_ASSERT(s >= 0);
            const int t = route.recv[static_cast<std::size_t>(s)];
            auto incoming = plan->recv_view_as<cplx>(s);
            BEATNIK_REQUIRE(incoming.size() == block_size(recv_list, t),
                            "reshape: unexpected block size from peer");
            dc::channel_recv_acquire(incoming.data(), "ReshapePlan host recv");
            if (t >= 0) {
                const auto& box = recv_list[static_cast<std::size_t>(t)].box;
                copy_box(Layout{box}, incoming.data(), dst, out.data(), box);
            }
            dc::channel_release(incoming.data(), "ReshapePlan host release");
            plan->release_recv(s);
        }
    }

private:
    template <class Transfer>
    std::vector<int> admit(const std::vector<Transfer>& list, Side& side) const {
        std::vector<int> route(side.peer.size(), -1);
        const int nranks = static_cast<int>(side.peer.size()) + 1;
        for (std::size_t t = 0; t < list.size(); ++t) {
            const int peer = list[t].peer;
            if (peer == rank) continue;
            std::size_t s = side.peer.size();
            if (dense) {
                s = static_cast<std::size_t>((peer - rank - 1 + nranks) % nranks);
            } else {
                side.peer.push_back(peer);
                side.cap.push_back(0);
                route.push_back(-1);
            }
            BEATNIK_ASSERT(side.peer[s] == peer);
            side.cap[s] = std::max(side.cap[s], list[t].box.size());
            route[s] = static_cast<int>(t);
        }
        return route;
    }
};

} // namespace beatnik::fft::detail
