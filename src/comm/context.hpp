/// \file context.hpp
/// \brief The rank runtime: runs N logical ranks as threads of one process.
///
/// This is the repo's stand-in for an MPI runtime (see README "The communication API"). A
/// Context owns one Mailbox per rank plus shared bookkeeping (communicator
/// id allocation, abort flag, optional message trace). Context::run() is
/// the `mpirun` equivalent: it spawns one thread per rank, hands each a
/// world Communicator, and joins, propagating the first rank failure.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "base/error.hpp"
#include "comm/channel.hpp"
#include "comm/mailbox.hpp"
#include "comm/trace.hpp"
#include "comm/transport/registry.hpp"
#include "comm/types.hpp"

namespace beatnik::comm {

class Communicator;
namespace plancheck {
class ContextState;   // comm/plancheck.hpp
}

/// Runtime knobs for a rank run.
struct ContextConfig {
    /// Receives that block longer than this throw CommError, turning
    /// deadlocks into diagnosable test failures. <= 0 disables the timeout.
    double recv_timeout_seconds = 120.0;
    /// When true, every point-to-point transfer is recorded in trace().
    bool enable_trace = false;
    /// Default algorithm for alltoall/alltoallv exchanges.
    AlltoallAlgo alltoall_algo = AlltoallAlgo::pairwise;
    /// Message size (bytes) at or above which alltoall switches from eager
    /// buffered sends (payload copied once at post time) to the zero-copy
    /// rendezvous path: receivers read the sender's buffer in place and a
    /// closing barrier holds every rank until all reads have finished.
    std::size_t rendezvous_threshold_bytes = 32 * 1024;
    /// Default transport for plan channels ("inproc", "shm", "loopback").
    /// Empty falls back to $BEATNIK_TRANSPORT, then "inproc". Per-pair
    /// overrides go through Context::transports().set_pair.
    std::string transport;
    /// Cost model of the loopback transport (when selected).
    LoopbackConfig loopback;
    /// Session string scoping shm segment names. Cooperating processes
    /// must pass the same value; empty falls back to $BEATNIK_SHM_SESSION,
    /// then a per-context unique default.
    std::string shm_session;
    /// When true, Context::run arms the process-wide telemetry layer
    /// (src/telemetry/) before spawning rank-threads — equivalent to
    /// launching with BEATNIK_TRACE=1, but scoped to code: benches use it
    /// for --trace. Arming is one-way here (the recording is flushed at
    /// process exit or by telemetry::flush()).
    bool telemetry = false;
};

/// Shared state for one group of rank-threads.
class Context {
public:
    Context(int size, ContextConfig config = {});
    ~Context();

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    [[nodiscard]] int size() const { return size_; }
    [[nodiscard]] const ContextConfig& config() const { return config_; }

    [[nodiscard]] Mailbox& mailbox(int world_rank) {
        BEATNIK_ASSERT(world_rank >= 0 && world_rank < size_);
        return *mailboxes_[static_cast<std::size_t>(world_rank)];
    }

    /// Allocate a fresh communicator id (used by split/dup). Thread-safe.
    [[nodiscard]] int new_comm_id() { return next_comm_id_.fetch_add(1); }

    /// Registry of persistent plan channels (see comm/plan.hpp). Both
    /// endpoints of a planned transfer resolve the same channel here. The
    /// registry is held by shared_ptr so a Plan that is destroyed after
    /// its context can still detach safely.
    [[nodiscard]] ChannelRegistry& plan_channels() { return *plan_channels_; }
    [[nodiscard]] std::shared_ptr<ChannelRegistry> plan_channels_ptr() { return plan_channels_; }

    /// Per-context transport selection for plan channels (see
    /// comm/transport/registry.hpp). Plans resolve each slot's transport
    /// here at build time; tests and benches install per-pair rules
    /// before building mixed-transport plans.
    [[nodiscard]] TransportRegistry& transports() { return *transports_; }
    [[nodiscard]] std::shared_ptr<TransportRegistry> transports_ptr() { return transports_; }

    /// The context-wide abort flag, observed by blocking plan waits so a
    /// failing rank wakes every other rank instead of deadlocking it.
    [[nodiscard]] const std::atomic<bool>& abort_flag() const { return abort_; }

    /// Plan-schedule verifier state (see comm/plancheck.hpp). Always
    /// constructed; it records whether plancheck was armed at context
    /// creation and is inert otherwise. shared_ptr for the same reason as
    /// plan_channels_ptr(): plans may outlive the context.
    [[nodiscard]] plancheck::ContextState& plancheck_state() { return *plancheck_; }
    [[nodiscard]] std::shared_ptr<plancheck::ContextState> plancheck_ptr() { return plancheck_; }

    /// Message trace, or nullptr when tracing is disabled.
    [[nodiscard]] Trace* trace() { return config_.enable_trace ? &trace_ : nullptr; }

    /// Signal all ranks to unwind (called when one rank throws).
    void abort();
    [[nodiscard]] bool aborted() const { return abort_.load(std::memory_order_acquire); }

    /// Run \p fn on \p nranks rank-threads. Each invocation gets a world
    /// communicator of the given size. Rethrows the first rank exception
    /// after all threads have been joined.
    static void run(int nranks, const std::function<void(Communicator&)>& fn,
                    ContextConfig config = {});

private:
    int size_;
    ContextConfig config_;
    std::atomic<bool> abort_{false};
    std::atomic<int> next_comm_id_{1};   // id 0 is the world communicator
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    std::shared_ptr<ChannelRegistry> plan_channels_ = std::make_shared<ChannelRegistry>();
    std::shared_ptr<TransportRegistry> transports_;
    std::shared_ptr<plancheck::ContextState> plancheck_;
    Trace trace_;
};

} // namespace beatnik::comm
