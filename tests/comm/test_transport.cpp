// Transport-layer tests: registry selection rules, plan schedules
// running over each transport (inproc push, shm seqlock, loopback
// delayed-delivery), mixed-transport plans, the zero-allocation
// guarantee of every transport's steady-state path (this TU replaces
// operator new/delete, like test_plan.cpp), and — Linux only — the shm
// transport's reason to exist: a plan exchanged between two *forked OS
// processes*, byte-identical to the in-process run, with cross-process
// abort propagation.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "comm/plan.hpp"
#include "grid/halo.hpp"
#include "par/device/devcheck.hpp"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace bc = beatnik::comm;
namespace bg = beatnik::grid;
namespace devcheck = beatnik::par::device::devcheck;

// The replacement operators pair malloc-family allocation with free();
// GCC's heuristic cannot see through the replacement and reports
// mismatched new/delete at every inlined call site in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
/// Allocations performed by the current thread since start-up. Each
/// transport's steady-state plan path must not advance this counter.
thread_local std::uint64_t t_allocs = 0;
} // namespace

void* operator new(std::size_t n) {
    ++t_allocs;
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
    ++t_allocs;
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn,
         bc::ContextConfig cfg = {}) {
    if (cfg.recv_timeout_seconds == 120.0) cfg.recv_timeout_seconds = 30.0;
    bc::Context::run(nranks, fn, cfg);
}

/// Deterministic payload byte: the same function on every side of every
/// comparison in this file, so "byte-identical" is checkable.
std::byte fill_byte(int rank, int slot, int iter, std::size_t i) {
    return static_cast<std::byte>(
        static_cast<unsigned>(rank * 131 + slot * 17 + iter * 7 + static_cast<int>(i)) & 0xffu);
}

// ---------------------------------------------------------------- registry

/// Unsets $BEATNIK_TRANSPORT for one test and restores it afterwards, so
/// the default-selection assertions hold when the whole suite runs with a
/// transport chosen through the environment.
class TransportEnvGuard {
public:
    TransportEnvGuard() {
        if (const char* v = std::getenv("BEATNIK_TRANSPORT")) saved_ = v;
        ::unsetenv("BEATNIK_TRANSPORT");
    }
    ~TransportEnvGuard() {
        if (saved_) ::setenv("BEATNIK_TRANSPORT", saved_->c_str(), 1);
    }
    TransportEnvGuard(const TransportEnvGuard&) = delete;
    TransportEnvGuard& operator=(const TransportEnvGuard&) = delete;

private:
    std::optional<std::string> saved_;
};

TEST(TransportRegistry, DefaultsToInprocAndHonorsConfig) {
    TransportEnvGuard env;
    bc::TransportRegistry reg;
    EXPECT_EQ(reg.config().default_transport, "inproc");
    EXPECT_STREQ(reg.select(0, 1)->name(), "inproc");
    EXPECT_TRUE(reg.select(0, 1)->push_notifies());

    bc::TransportRegistry::Config cfg;
    cfg.default_transport = "loopback";
    bc::TransportRegistry lb(cfg);
    EXPECT_STREQ(lb.select(2, 3)->name(), "loopback");
    EXPECT_FALSE(lb.select(2, 3)->push_notifies());
}

TEST(TransportRegistry, PerPairRulesOverrideTheDefault) {
    TransportEnvGuard env;
    bc::TransportRegistry reg;
    reg.set_pair_symmetric(0, 1, "loopback");
    reg.set_pair(2, 3, "shm");
    EXPECT_STREQ(reg.select(0, 1)->name(), "loopback");
    EXPECT_STREQ(reg.select(1, 0)->name(), "loopback");
    EXPECT_STREQ(reg.select(2, 3)->name(), "shm");
    EXPECT_STREQ(reg.select(3, 2)->name(), "inproc"); // asymmetric rule
    EXPECT_STREQ(reg.select(0, 2)->name(), "inproc");
    // Instances are shared per name.
    EXPECT_EQ(reg.select(0, 1), reg.get("loopback"));
}

TEST(TransportRegistry, RejectsUnknownNames) {
    bc::TransportRegistry reg;
    EXPECT_THROW(reg.set_pair(0, 1, "tcp"), beatnik::Error);
    EXPECT_THROW(reg.set_default("rdma"), beatnik::Error);
    EXPECT_THROW((void)reg.get("quic"), beatnik::Error);
    bc::TransportRegistry::Config cfg;
    cfg.default_transport = "bogus";
    EXPECT_THROW(bc::TransportRegistry bad(cfg), beatnik::Error);
}

TEST(TransportRegistry, ContextWiresConfigThrough) {
    bc::ContextConfig cfg;
    cfg.transport = "loopback";
    cfg.loopback.latency_seconds = 1.0e-6;
    bc::Context ctx(2, cfg);
    EXPECT_EQ(ctx.transports().config().default_transport, "loopback");
    EXPECT_DOUBLE_EQ(ctx.transports().config().loopback.latency_seconds, 1.0e-6);
}

// ----------------------------------------------- ring on every transport

/// A bidirectional ring exchanged for several iterations with payload
/// verification — the basic correctness pass, parameterized on the
/// transport carrying every channel.
void ring_roundtrip(const std::string& transport) {
    constexpr int kRanks = 4;
    constexpr std::size_t kBytes = 1536;
    constexpr int kIters = 6;
    bc::ContextConfig cfg;
    cfg.transport = transport;
    // Keep loopback fast and deterministic for tests.
    cfg.loopback.latency_seconds = 1.0e-6;
    cfg.loopback.jitter_seconds = 0.0;
    run(
        kRanks,
        [&](bc::Communicator& comm) {
            const int p = comm.size();
            const int right = (comm.rank() + 1) % p;
            const int left = (comm.rank() - 1 + p) % p;
            auto b = bc::Plan::builder(comm);
            const int t_r = comm.new_plan_tag();
            const int t_l = comm.new_plan_tag();
            int s_r = b.add_send(right, t_r, kBytes);
            int s_l = b.add_send(left, t_l, kBytes);
            int r_l = b.add_recv(left, t_r, kBytes);
            int r_r = b.add_recv(right, t_l, kBytes);
            auto plan = b.build();
            for (int it = 0; it < kIters; ++it) {
                plan.start();
                for (int s : {s_r, s_l}) {
                    auto buf = plan.send_buffer(s, kBytes);
                    for (std::size_t i = 0; i < kBytes; ++i) {
                        buf[i] = fill_byte(comm.rank(), s, it, i);
                    }
                    plan.publish(s);
                }
                plan.wait();
                for (auto [slot, peer, sender_slot] :
                     {std::array<int, 3>{r_l, left, s_r}, std::array<int, 3>{r_r, right, s_l}}) {
                    auto in = plan.recv_view(slot);
                    ASSERT_EQ(in.size(), kBytes);
                    for (std::size_t i = 0; i < kBytes; ++i) {
                        ASSERT_EQ(in[i], fill_byte(peer, sender_slot, it, i))
                            << transport << " rank " << comm.rank() << " iter " << it
                            << " byte " << i;
                    }
                    plan.release_recv(slot);
                }
            }
        },
        cfg);
}

TEST(TransportRing, InProc) { ring_roundtrip("inproc"); }
TEST(TransportRing, Loopback) { ring_roundtrip("loopback"); }
#if defined(__linux__)
TEST(TransportRing, Shm) { ring_roundtrip("shm"); }
#endif

// ------------------------------------------------- mixed-transport plans

/// One 8-direction halo exchange on a periodic torus; returns rank 0's
/// received bytes (slot order, iteration-concatenated) so runs can be
/// compared for byte identity.
std::vector<std::byte> halo_rank0_bytes(int ranks, std::size_t bytes, int iters,
                                        bc::ContextConfig cfg,
                                        const std::function<void(bc::Communicator&)>& rules) {
    std::vector<std::byte> captured;
    std::mutex m;
    bc::Context::run(
        ranks,
        [&](bc::Communicator& comm) {
            if (rules) rules(comm);
            // Every rank installs the full rule set; nobody builds until
            // all rules exist.
            comm.barrier();
            auto dims = bg::dims_create_2d(comm.size());
            bg::CartTopology2D topo(comm.size(), dims, {true, true});
            std::array<int, 8> tag{};
            for (auto& t : tag) t = comm.new_plan_tag();
            auto b = bc::Plan::builder(comm);
            std::vector<int> sends, recvs;
            std::vector<int> recv_peer, recv_sender_slot;
            for (int k = 0; k < 8; ++k) {
                auto [di, dj] = bg::kNeighborDirs2D[static_cast<std::size_t>(k)];
                int nbr = topo.neighbor(comm.rank(), di, dj);
                ASSERT_GE(nbr, 0);
                sends.push_back(b.add_send(nbr, tag[static_cast<std::size_t>(k)], bytes));
                recvs.push_back(b.add_recv(nbr, tag[static_cast<std::size_t>(7 - k)], bytes));
                recv_peer.push_back(nbr);
                recv_sender_slot.push_back(7 - k);
            }
            auto plan = b.build();
            std::vector<std::byte> mine;
            for (int it = 0; it < iters; ++it) {
                plan.start();
                for (std::size_t k = 0; k < sends.size(); ++k) {
                    auto buf = plan.send_buffer(sends[k], bytes);
                    for (std::size_t i = 0; i < bytes; ++i) {
                        buf[i] = fill_byte(comm.rank(), static_cast<int>(k), it, i);
                    }
                    plan.publish(sends[k]);
                }
                plan.wait();
                for (std::size_t k = 0; k < recvs.size(); ++k) {
                    auto in = plan.recv_view(recvs[k]);
                    ASSERT_EQ(in.size(), bytes);
                    for (std::size_t i = 0; i < bytes; ++i) {
                        ASSERT_EQ(in[i], fill_byte(recv_peer[k], recv_sender_slot[k], it, i));
                    }
                    if (comm.rank() == 0) mine.insert(mine.end(), in.begin(), in.end());
                    plan.release_recv(recvs[k]);
                }
            }
            if (comm.rank() == 0) {
                std::lock_guard lock(m);
                captured = std::move(mine);
            }
        },
        cfg);
    return captured;
}

TEST(MixedTransport, HaloMatchesAllInprocByteForByte) {
    constexpr int kRanks = 4;
    constexpr std::size_t kBytes = 768;
    constexpr int kIters = 4;

    auto baseline = halo_rank0_bytes(kRanks, kBytes, kIters, {}, {});
    ASSERT_FALSE(baseline.empty());

    // Same schedule, but rank pairs (0,1) and (1,2) ride loopback while
    // everything else stays inproc — a legal mixed-transport plan as long
    // as every rank installs identical rules before building.
    bc::ContextConfig cfg;
    cfg.loopback.latency_seconds = 1.0e-6;
    cfg.loopback.jitter_seconds = 0.0;
    auto mixed = halo_rank0_bytes(kRanks, kBytes, kIters, cfg, [](bc::Communicator& comm) {
        comm.context().transports().set_pair_symmetric(0, 1, "loopback");
        comm.context().transports().set_pair_symmetric(1, 2, "loopback");
    });

    EXPECT_EQ(baseline, mixed);
}

// ---------------------------------------------- steady-state allocations

void steady_state_alloc_check(const std::string& transport) {
    if (devcheck::enabled()) {
        GTEST_SKIP() << "allocation counting not meaningful with devcheck armed";
    }
    if (bc::plancheck::enabled()) {
        GTEST_SKIP() << "armed plancheck allocates flow records on first use";
    }
    constexpr int kRanks = 2;
    constexpr std::size_t kBytes = 2048;
    std::array<std::uint64_t, kRanks> deltas{};
    bc::ContextConfig cfg;
    cfg.transport = transport;
    cfg.loopback.latency_seconds = 1.0e-6;
    cfg.loopback.jitter_seconds = 0.0;
    run(
        kRanks,
        [&](bc::Communicator& comm) {
            const int peer = 1 - comm.rank();
            auto b = bc::Plan::builder(comm);
            const int tag = comm.new_plan_tag();
            int s = b.add_send(peer, tag, kBytes);
            int r = b.add_recv(peer, tag, kBytes);
            auto plan = b.build();
            std::uint64_t sink = 0;
            auto iteration = [&](int it) {
                plan.start();
                auto buf = plan.send_buffer(s, kBytes);
                std::memset(buf.data(), (comm.rank() + it) & 0xff, buf.size());
                plan.publish(s);
                plan.wait();
                auto in = plan.recv_view(r);
                sink += static_cast<std::uint64_t>(in[0]);
                plan.release_recv(r);
            };
            for (int it = 0; it < 3; ++it) iteration(it); // warm-up
            comm.barrier();
            const std::uint64_t before = t_allocs;
            for (int it = 3; it < 53; ++it) iteration(it);
            deltas[static_cast<std::size_t>(comm.rank())] = t_allocs - before;
            comm.barrier();
            if (sink == static_cast<std::uint64_t>(-1)) std::abort();
        },
        cfg);
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(deltas[static_cast<std::size_t>(r)], 0u)
            << transport << " rank " << r << " allocated on the plan hot path";
    }
}

TEST(TransportAllocations, InProcSteadyStateIsAllocationFree) {
    steady_state_alloc_check("inproc");
}
TEST(TransportAllocations, LoopbackSteadyStateIsAllocationFree) {
    steady_state_alloc_check("loopback");
}
#if defined(__linux__)
TEST(TransportAllocations, ShmSteadyStateIsAllocationFree) {
    steady_state_alloc_check("shm");
}
#endif

// --------------------------------------------------- forked-process shm

#if defined(__linux__)

constexpr std::size_t kForkBytes = 1024;
constexpr int kForkIters = 5;

/// One rank of a two-process halo exchange, run on the child's main
/// thread with a hand-built Communicator (no Context::run: forked
/// children must stay single-threaded). Returns the process exit code;
/// when \p dump_fd >= 0, rank 0 writes every received payload to it in
/// slot order so the parent can compare runs byte for byte.
int forked_halo_rank(int rank, const std::string& session, int dump_fd) {
    try {
        bc::ContextConfig cfg;
        cfg.recv_timeout_seconds = 30.0;
        cfg.transport = "shm";
        cfg.shm_session = session;
        bc::Context ctx(2, cfg);
        std::vector<int> identity{0, 1};
        bc::Communicator comm(ctx, /*comm_id=*/0, rank, identity);

        auto dims = bg::dims_create_2d(comm.size());
        bg::CartTopology2D topo(comm.size(), dims, {true, true});
        std::array<int, 8> tag{};
        for (auto& t : tag) t = comm.new_plan_tag();
        auto b = bc::Plan::builder(comm);
        std::vector<int> sends, recvs, recv_peer, recv_sender_slot;
        for (int k = 0; k < 8; ++k) {
            auto [di, dj] = bg::kNeighborDirs2D[static_cast<std::size_t>(k)];
            int nbr = topo.neighbor(comm.rank(), di, dj);
            if (nbr < 0) return 3;
            sends.push_back(b.add_send(nbr, tag[static_cast<std::size_t>(k)], kForkBytes));
            recvs.push_back(b.add_recv(nbr, tag[static_cast<std::size_t>(7 - k)], kForkBytes));
            recv_peer.push_back(nbr);
            recv_sender_slot.push_back(7 - k);
        }
        auto plan = b.build();
        for (int it = 0; it < kForkIters; ++it) {
            plan.start();
            for (std::size_t k = 0; k < sends.size(); ++k) {
                auto buf = plan.send_buffer(sends[k], kForkBytes);
                for (std::size_t i = 0; i < kForkBytes; ++i) {
                    buf[i] = fill_byte(comm.rank(), static_cast<int>(k), it, i);
                }
                plan.publish(sends[k]);
            }
            plan.wait();
            for (std::size_t k = 0; k < recvs.size(); ++k) {
                auto in = plan.recv_view(recvs[k]);
                if (in.size() != kForkBytes) return 4;
                for (std::size_t i = 0; i < kForkBytes; ++i) {
                    if (in[i] != fill_byte(recv_peer[k], recv_sender_slot[k], it, i)) return 5;
                }
                if (rank == 0 && dump_fd >= 0) {
                    std::size_t off = 0;
                    while (off < in.size()) {
                        ssize_t n = ::write(dump_fd, in.data() + off, in.size() - off);
                        if (n <= 0) return 6;
                        off += static_cast<std::size_t>(n);
                    }
                }
                plan.release_recv(recvs[k]);
            }
        }
        return 0;
    } catch (...) {
        return 9;
    }
}

/// The same halo, single process, both ranks as threads over the default
/// inproc transport; returns rank 0's received bytes.
std::vector<std::byte> inproc_halo_reference() {
    bc::ContextConfig cfg;
    return halo_rank0_bytes(2, kForkBytes, kForkIters, cfg, {});
}

int wait_exit_code(pid_t pid) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -WTERMSIG(status);
}

TEST(ShmTransport, ForkedProcessesMatchInprocByteForByte) {
    // Unique segment namespace per test run; children inherit it.
    const std::string session = "gt" + std::to_string(::getpid()) + "-halo";

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    pid_t pid0 = ::fork();
    ASSERT_GE(pid0, 0);
    if (pid0 == 0) {
        ::close(fds[0]);
        ::_exit(forked_halo_rank(0, session, fds[1]));
    }
    pid_t pid1 = ::fork();
    ASSERT_GE(pid1, 0);
    if (pid1 == 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        ::_exit(forked_halo_rank(1, session, -1));
    }
    ::close(fds[1]);

    // Drain the pipe before waiting so a large dump cannot deadlock the
    // writer against our waitpid.
    std::vector<std::byte> shm_bytes;
    std::array<std::byte, 4096> chunk;
    for (;;) {
        ssize_t n = ::read(fds[0], chunk.data(), chunk.size());
        if (n < 0) {
            ADD_FAILURE() << "pipe read failed";
            break;
        }
        if (n == 0) break;
        shm_bytes.insert(shm_bytes.end(), chunk.begin(), chunk.begin() + n);
    }
    ::close(fds[0]);

    EXPECT_EQ(wait_exit_code(pid0), 0);
    EXPECT_EQ(wait_exit_code(pid1), 0);

    auto reference = inproc_halo_reference();
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(shm_bytes, reference)
        << "shm cross-process halo diverged from the in-process run";
}

/// Abort propagation: rank 0 aborts its context after the first
/// exchange; rank 1, blocked waiting for a message that will never come,
/// must observe the abort through the shared segment and unwind instead
/// of hanging until the timeout.
int forked_abort_rank(int rank, const std::string& session) {
    try {
        bc::ContextConfig cfg;
        cfg.recv_timeout_seconds = 60.0; // propagation must beat this by far
        cfg.transport = "shm";
        cfg.shm_session = session;
        bc::Context ctx(2, cfg);
        std::vector<int> identity{0, 1};
        bc::Communicator comm(ctx, 0, rank, identity);
        const int peer = 1 - rank;
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int s = b.add_send(peer, tag, 64);
        int r = b.add_recv(peer, tag, 64);
        auto plan = b.build();

        // Iteration 1 completes on both sides (proves the channel works).
        plan.start();
        auto buf = plan.send_buffer(s, 64);
        std::memset(buf.data(), rank + 1, buf.size());
        plan.publish(s);
        plan.wait();
        plan.release_recv(r);

        if (rank == 0) {
            // Receive rank 1's iteration-2 message first — the proof that
            // rank 1 is past iteration 1 and headed into the blocking
            // wait — then abort instead of publishing our own reply.
            // (Aborting straight after iteration 1 is racy: rank 1 could
            // still be inside its iteration-1 wait and see the CommError
            // there instead of in the probe below.)
            plan.start();
            if (plan.wait_any_recv() != r) return 6;
            plan.release_recv(r);
            ctx.abort(); // futex-wakes peer processes through the segments
            return 0;
        }
        // Rank 1 publishes its iteration-2 message, then blocks on a
        // reply rank 0 never sends; the cross-process abort must turn
        // this into a CommError promptly.
        plan.start();
        auto buf2 = plan.send_buffer(s, 64);
        std::memset(buf2.data(), 0x77, buf2.size());
        plan.publish(s);
        auto t0 = std::chrono::steady_clock::now();
        try {
            plan.wait();
            return 7; // completed a message that was never published
        } catch (const beatnik::CommError&) {
            auto waited = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0).count();
            return waited < 30.0 ? 0 : 8;
        }
    } catch (...) {
        return 9;
    }
}

TEST(ShmTransport, AbortPropagatesAcrossProcesses) {
    const std::string session = "gt" + std::to_string(::getpid()) + "-abort";
    pid_t pid1 = ::fork();
    ASSERT_GE(pid1, 0);
    if (pid1 == 0) ::_exit(forked_abort_rank(1, session));
    pid_t pid0 = ::fork();
    ASSERT_GE(pid0, 0);
    if (pid0 == 0) ::_exit(forked_abort_rank(0, session));

    EXPECT_EQ(wait_exit_code(pid0), 0);
    EXPECT_EQ(wait_exit_code(pid1), 0);
}

#endif // __linux__

} // namespace
