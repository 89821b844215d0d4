/// \file queue.hpp
/// \brief Stream-ordered asynchronous submission: Queue, Event, fence.
///
/// A Queue is the CUDA-stream analogue over the emulated device
/// (runtime.hpp): operations enqueued on one queue execute in order, one
/// at a time, on the worker pool; operations on different queues run
/// concurrently. The API is deliberately small:
///
///   q.parallel_for(n, f);          // async kernel launch
///   q.copy_bytes(dst, src, nb);    // async memcpy (the DMA engine)
///   Event e = q.record_event();    // completion marker
///   other.wait_event(e);           // cross-queue dependency
///   q.fence();                     // host blocks until the queue drains
///
/// Steady-state enqueue/fence cycles are allocation-free: operation slots
/// are pooled and reused, the pending ring reuses its capacity, and small
/// kernel captures are stored inline in the task (runtime.hpp). Events
/// pool too: record_event() allocates a fresh completion state each call,
/// but the steady-state loops use record_event_into(), which re-arms the
/// caller's existing Event in place whenever this queue holds the only
/// reference and the previous marker already fired — so the hot
/// pack/unpack paths of the communication plans re-record the same
/// per-direction Events every iteration without touching the heap,
/// mirroring the plan API's own zero-allocation contract.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "par/device/runtime.hpp"
#include "telemetry/telemetry.hpp"

namespace beatnik::par::device {

namespace detail {

/// Shared completion state behind an Event.
struct EventState {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    /// Hazard-detector half: the recording queue's clock snapshot (see
    /// devcheck.hpp). Written at record and read at wait, always under
    /// the checker's own mutex — never under m.
    devcheck::EventClock dc;
    /// Telemetry flow id of the latest record on this state (0 = recorded
    /// while disarmed). Written under the recording queue's lock, read
    /// under a waiting queue's (different) lock — hence atomic.
    std::atomic<std::uint64_t> tel_id{0};
    /// Handles a queue holds only to fire this marker (taken at enqueue,
    /// dropped right after set()); see Queue::fired_and_exclusive.
    std::atomic<int> queue_refs{0};
    std::vector<std::function<void()>> callbacks;
    /// set()'s fire scratch. A member (not a local) so the two vectors
    /// ping-pong their capacity across reuse cycles: a steady-state loop
    /// that re-records the same Event and re-registers one resume
    /// callback per iteration (the multi-queue cutoff schedule) performs
    /// no allocation after warm-up. Only touched by the single winning
    /// set() call, which is serialized against on_done by `done`.
    std::vector<std::function<void()>> firing;

    void set() {
        {
            std::lock_guard lock(m);
            if (done) return;
            done = true;
            callbacks.swap(firing);
        }
        cv.notify_all();
        for (auto& cb : firing) cb();
        firing.clear();
    }

    [[nodiscard]] bool is_done() {
        std::lock_guard lock(m);
        return done;
    }

    void wait() {
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return done; });
    }

    /// Run \p cb when the event completes (immediately if it already has).
    /// The callback runs outside this state's lock.
    template <class Cb>
    void on_done(Cb&& cb) {
        {
            std::lock_guard lock(m);
            if (!done) {
                callbacks.emplace_back(std::forward<Cb>(cb));
                return;
            }
        }
        cb();
    }
};

} // namespace detail

/// Completion marker recorded on a queue. Copyable; an empty Event is
/// always ready.
class Event {
public:
    Event() = default;

    [[nodiscard]] bool ready() const { return !st_ || st_->is_done(); }

    /// Host-side block until the marker completes. Under devcheck, waiting
    /// on a default-constructed (never-recorded) Event is flagged: the
    /// "edge" such a wait creates does not exist.
    void wait() const {
        if (!st_) {
            if (devcheck::enabled()) {
                devcheck::Checker::instance().on_wait_never_recorded(nullptr);
            }
            return;
        }
        if (telemetry::enabled()) {
            auto& tr = telemetry::thread_track();
            tr.begin("event.wait");
            st_->wait();
            if (auto id = st_->tel_id.load(std::memory_order_relaxed)) {
                tr.flow_end("event", id);
            }
            tr.end("event.wait");
        } else {
            st_->wait();
        }
        if (devcheck::enabled()) devcheck::Checker::instance().on_host_event_wait(st_->dc);
    }

private:
    friend class Queue;
    explicit Event(std::shared_ptr<detail::EventState> st) : st_(std::move(st)) {}
    std::shared_ptr<detail::EventState> st_;
};

/// An in-order asynchronous execution stream over the shared device.
class Queue {
public:
    /// Operation slots and the pending ring are preallocated so the
    /// allocation-free steady state does not depend on the warm-up phase
    /// having reached the true high-water mark of in-flight operations
    /// (deeper pipelines still grow once, then reuse).
    static constexpr std::size_t kInitialOps = 32;

    // ring_ uses the fill constructor rather than resize(): GCC 12's
    // -Warray-bounds misfires on _M_fill_insert's memmove when resize is
    // inlined into TUs that instantiate Queue after heavy headers.
    explicit Queue(Runtime& rt = Runtime::instance(), const char* name = "queue")
        : rt_(&rt), name_(name), ring_(2 * kInitialOps, nullptr) {
        if (devcheck::enabled()) dc_ = devcheck::Checker::instance().make_queue(name);
        pool_.reserve(kInitialOps);
        free_.reserve(kInitialOps);
        for (std::size_t i = 0; i < kInitialOps; ++i) {
            pool_.push_back(std::make_unique<Op>());
            free_.push_back(pool_.back().get());
        }
    }

    /// Named queue for hazard diagnostics (\p name must have static
    /// storage duration; it outlives the queue inside access records).
    explicit Queue(const char* name) : Queue(Runtime::instance(), name) {}

    Queue(const Queue&) = delete;
    Queue& operator=(const Queue&) = delete;

    /// Detector state, null unless devcheck is active (see devcheck.hpp).
    [[nodiscard]] devcheck::QueueState* devcheck_state() const { return dc_.get(); }

    ~Queue() {
        fence();
        for (auto& op : pool_) op->task.uninstall();
    }

    /// Asynchronously apply f(i) for i in [0, n). \p f is copied into the
    /// operation; referenced data must stay alive until the kernel
    /// completes (fence, event, or a later same-queue operation).
    template <class F>
    void parallel_for(std::size_t n, F&& f) {
        const std::size_t chunk = chunk_for(n);
        parallel_for_range(n, chunk,
                           [f = std::forward<F>(f)](std::size_t b, std::size_t e) {
                               for (std::size_t i = b; i < e; ++i) f(i);
                           });
    }

    /// Lower-level launch: \p range_fn is invoked once per chunk with the
    /// chunk's half-open index range — for kernels that want to operate on
    /// whole subranges (block copies) instead of single indices.
    template <class R>
    void parallel_for_range(std::size_t n, std::size_t chunk, R&& range_fn) {
        BEATNIK_REQUIRE(chunk > 0, "device kernel chunk size must be positive");
        // Hazard bookkeeping happens at enqueue (the logical stream order
        // is fixed here), before m_ so the checker's mutex never nests
        // inside the queue's. A flagged conflict throws before the kernel
        // is ever enqueued.
        if (dc_) devcheck::Checker::instance().on_task(dc_.get());
        std::vector<std::shared_ptr<detail::EventState>> fire;
        std::shared_ptr<detail::EventState> reg;
        std::uint64_t gen = 0;
        {
            std::lock_guard lock(m_);
            Op* op = acquire();
            op->kind = Kind::kernel;
            if (telemetry::enabled()) op->tel_enqueue_ns = telemetry::now_ns();
            detail::Task& t = op->task;
            t.install(std::forward<R>(range_fn));
            t.n = n;
            t.chunk_size = chunk;
            t.nchunks = n == 0 ? 1 : (n + chunk - 1) / chunk;
            t.owner = this;
            t.on_done = [](void* owner, detail::Task* task) {
                static_cast<Queue*>(owner)->task_finished(task);
            };
            push(op);
            dispatch(fire);
            reg = take_pending_wait(gen);
        }
        finish_dispatch(fire, reg, gen);
    }

    /// Asynchronous memcpy executed by the worker pool (the DMA engine):
    /// both endpoints may be device memory or any host memory — like
    /// cudaMemcpy, pageable host memory is legal here, while *kernels*
    /// writing host memory require registration (runtime.hpp).
    void copy_bytes(void* dst, const void* src, std::size_t bytes) {
        // Copies self-declare their footprint; untracked (pageable host)
        // endpoints are legal for the DMA engine and skipped by the
        // checker, unlike kernel footprints.
        if (dc_) devcheck::Checker::instance().set_pending_copy(dc_.get(), dst, src, bytes);
        auto* d = static_cast<std::byte*>(dst);
        const auto* s = static_cast<const std::byte*>(src);
        parallel_for_range(bytes, kCopyChunkBytes, [d, s](std::size_t b, std::size_t e) {
            if (e > b) std::memcpy(d + b, s + b, e - b);
        });
    }

    /// Record a completion marker after everything currently enqueued.
    [[nodiscard]] Event record_event() {
        auto st = std::make_shared<detail::EventState>();
        enqueue_event(st);
        return Event(std::move(st));
    }

    /// Record a completion marker into \p e, reusing its completion state
    /// when this queue's handle is the only reference left and the marker
    /// has already fired — the allocation-free variant for steady-state
    /// loops that re-record the same event every iteration (per-direction
    /// halo overlap). Falls back to a fresh allocation otherwise.
    void record_event_into(Event& e) {
        auto& st = e.st_;
        if (!st || !fired_and_exclusive(st)) {
            st = std::make_shared<detail::EventState>();
        } else {
            // Exclusively ours and fired: no waiter can exist, so the
            // flag reset cannot race a wait().
            std::lock_guard lock(st->m);
            st->done = false;
        }
        enqueue_event(st);
    }

    /// Make every operation enqueued after this call wait until \p e
    /// completes (cross-queue dependency). An empty/completed event is a
    /// no-op barrier.
    void wait_event(const Event& e) {
        if (!e.st_) {
            if (dc_) devcheck::Checker::instance().on_wait_never_recorded(dc_.get());
            return;
        }
        if (dc_) devcheck::Checker::instance().on_wait_event(dc_.get(), e.st_->dc);
        std::vector<std::shared_ptr<detail::EventState>> fire;
        std::shared_ptr<detail::EventState> reg;
        std::uint64_t gen = 0;
        {
            std::lock_guard lock(m_);
            if (telemetry::enabled()) {
                // The record->wait dependency edge, drawn at the point the
                // wait enters this queue's stream.
                auto* t = tel();
                t->begin("event.wait");
                if (auto id = e.st_->tel_id.load(std::memory_order_relaxed)) {
                    t->flow_end("event", id);
                }
                t->end("event.wait");
            }
            Op* op = acquire();
            op->kind = Kind::wait;
            op->ev = e.st_;
            push(op);
            dispatch(fire);
            reg = take_pending_wait(gen);
        }
        finish_dispatch(fire, reg, gen);
    }

    /// Block the host until every enqueued operation has completed.
    void fence() {
        telemetry::Scope span("queue.fence");
        {
            std::unique_lock lock(m_);
            cv_.wait(lock,
                     [&] { return running_ == nullptr && head_ == tail_ && waiting_ == nullptr; });
        }
        if (dc_) devcheck::Checker::instance().on_fence(dc_.get());
    }

    /// True when nothing is running or pending (nonblocking fence probe).
    /// A true probe is an observed synchronization, like a fence.
    [[nodiscard]] bool idle() {
        bool drained;
        {
            std::lock_guard lock(m_);
            drained = running_ == nullptr && head_ == tail_ && waiting_ == nullptr;
        }
        if (drained && dc_) devcheck::Checker::instance().on_fence(dc_.get());
        return drained;
    }

private:
    enum class Kind : std::uint8_t { kernel, event, wait };

    /// Whether \p st has fired and \p st is its only handle. The queue that
    /// fired it drops its own handle just after set(), so a waiter woken by
    /// set() can still count two for as long as that thread is descheduled.
    /// That drop needs nothing but the firing thread's progress, so wait
    /// for it; any other handle makes reuse unsafe.
    static bool fired_and_exclusive(const std::shared_ptr<detail::EventState>& st) {
        if (!st->is_done()) return false;
        while (st->queue_refs.load(std::memory_order_acquire) != 0) std::this_thread::yield();
        // queue_refs drops one step before the handle itself.
        for (int spin = 0; spin < 64 && st.use_count() != 1; ++spin) std::this_thread::yield();
        return st.use_count() == 1;
    }

    void enqueue_event(const std::shared_ptr<detail::EventState>& st) {
        // Snapshot the queue clock into the event (both the Op path and
        // the idle-queue direct completion mark the same logical point).
        if (dc_) devcheck::Checker::instance().on_record(dc_.get(), st->dc);
        std::vector<std::shared_ptr<detail::EventState>> fire;
        std::shared_ptr<detail::EventState> reg;
        std::uint64_t gen = 0;
        bool enqueued = false;
        {
            std::lock_guard lock(m_);
            if (telemetry::enabled()) {
                // Fresh flow id per record; waiters pick it up from the
                // shared state, giving the record->wait arrow.
                std::uint64_t id = next_event_flow_id();
                st->tel_id.store(id, std::memory_order_relaxed);
                auto* t = tel();
                t->begin("event.record");
                t->flow_begin("event", id);
                t->end("event.record");
            }
            // Idle queue: the marker is already satisfied. Completing it
            // directly (outside the lock) keeps the steady-state
            // record_event_into() path allocation-free — routing through
            // an Op would push into `fire` and allocate.
            if (running_ != nullptr || waiting_ != nullptr || head_ != tail_) {
                Op* op = acquire();
                op->kind = Kind::event;
                op->ev = st;
                st->queue_refs.fetch_add(1, std::memory_order_relaxed);
                push(op);
                dispatch(fire);
                reg = take_pending_wait(gen);
                enqueued = true;
            }
        }
        if (!enqueued) {
            st->set();
            return;
        }
        finish_dispatch(fire, reg, gen);
    }

    struct Op {
        detail::Task task;
        Kind kind = Kind::kernel;
        std::shared_ptr<detail::EventState> ev;
        std::uint64_t tel_enqueue_ns = 0; ///< armed runs: stamp at enqueue
    };

    /// This queue's telemetry track, lazily registered on first armed use.
    /// Always called under m_, so track writes are serialized and the
    /// track's timestamps are monotonic.
    telemetry::TrackRecorder* tel() {
        if (tel_ == nullptr) {
            tel_ = telemetry::Registry::instance().register_track(
                std::string("queue ") + name_, telemetry::TrackKind::queue);
        }
        return tel_;
    }

    static std::uint64_t next_event_flow_id() {
        static std::atomic<std::uint64_t> serial{0};
        return telemetry::flow_id(
            {0xE0ull, serial.fetch_add(1, std::memory_order_relaxed) + 1});
    }

    static constexpr std::size_t kCopyChunkBytes = 1 << 20;

    /// Chunks sized so a launch spreads over the pool but stays coarse
    /// enough that chunk claiming doesn't dominate tiny kernels.
    [[nodiscard]] std::size_t chunk_for(std::size_t n) const {
        const auto workers = static_cast<std::size_t>(rt_->num_workers());
        const std::size_t target = workers * 4;
        std::size_t chunk = (n + target - 1) / target;
        return std::max<std::size_t>(chunk, 64);
    }

    // All of the below run under m_.

    Op* acquire() {
        if (free_.empty()) {
            pool_.push_back(std::make_unique<Op>());
            free_.push_back(pool_.back().get());
        }
        Op* op = free_.back();
        free_.pop_back();
        return op;
    }

    void release(Op* op) {
        op->ev.reset();
        free_.push_back(op);
    }

    void push(Op* op) {
        if (tail_ - head_ == ring_.size()) {
            std::vector<Op*> bigger(ring_.size() * 2, nullptr);
            for (std::size_t i = head_; i != tail_; ++i) {
                bigger[i % bigger.size()] = ring_[i % ring_.size()];
            }
            ring_.swap(bigger);
        }
        ring_[tail_ % ring_.size()] = op;
        ++tail_;
    }

    /// Advance the stream as far as possible: submit the next kernel,
    /// complete event markers (collected into \p fire, set after the lock
    /// is released — event callbacks may take other queues' locks), and
    /// park on unsatisfied wait ops.
    void dispatch(std::vector<std::shared_ptr<detail::EventState>>& fire) {
        while (running_ == nullptr && waiting_ == nullptr && head_ != tail_) {
            Op* op = ring_[head_ % ring_.size()];
            ++head_;
            switch (op->kind) {
            case Kind::kernel:
                if (telemetry::enabled()) {
                    // a0 = time spent queued behind earlier ops (ns).
                    std::uint64_t now = telemetry::now_ns();
                    std::uint64_t waited =
                        op->tel_enqueue_ns != 0 && now > op->tel_enqueue_ns
                            ? now - op->tel_enqueue_ns
                            : 0;
                    tel()->begin("task", waited, op->task.n);
                }
                running_ = op;
                rt_->submit(&op->task);
                return;
            case Kind::event:
                fire.push_back(op->ev);
                release(op);
                break;
            case Kind::wait:
                if (op->ev->is_done()) {
                    release(op);
                    break;
                }
                // Park. The resume callback is registered by the caller
                // *after* m_ is released (pending_wait_): on_done may run
                // the callback inline when the event completed in the
                // meantime, and that callback relocks m_.
                waiting_ = op;
                ++wait_generation_;
                pending_wait_ = op->ev;
                return;
            }
        }
        if (running_ == nullptr && waiting_ == nullptr && head_ == tail_) cv_.notify_all();
    }

    /// Consume the event a freshly parked wait op needs a resume
    /// callback on. Must run under m_, in the same critical section as
    /// the dispatch() that parked — a later relock would race queue
    /// destruction on threads that don't own the queue.
    [[nodiscard]] std::shared_ptr<detail::EventState> take_pending_wait(std::uint64_t& gen) {
        gen = wait_generation_;
        return std::exchange(pending_wait_, nullptr);
    }

    /// Post-dispatch work that must run *without* m_ and must not touch
    /// queue members: register the parked wait op's resume callback (the
    /// event may have completed meanwhile, in which case on_done invokes
    /// the callback inline — it relocks m_, which is why it cannot run
    /// under the lock) and complete event markers. Touching `this` inside
    /// the callback is safe because a parked wait keeps waiting_ set,
    /// which blocks ~Queue's fence until the resume runs.
    void finish_dispatch(std::vector<std::shared_ptr<detail::EventState>>& fire,
                         std::shared_ptr<detail::EventState>& reg, std::uint64_t gen) {
        if (reg) reg->on_done([this, gen] { resume_after_wait(gen); });
        for (auto& ev : fire) {
            ev->set();
            ev->queue_refs.fetch_sub(1, std::memory_order_release);
            ev.reset();   // see fired_and_exclusive
        }
    }

    /// Runs on whatever thread completes the awaited event; it may not
    /// touch queue members after its critical section (see
    /// finish_dispatch). The queue is guaranteed alive on entry: the
    /// parked wait op holds waiting_ non-null, which blocks destruction.
    void resume_after_wait(std::uint64_t gen) {
        std::vector<std::shared_ptr<detail::EventState>> fire;
        std::shared_ptr<detail::EventState> reg;
        std::uint64_t next_gen = 0;
        {
            std::lock_guard lock(m_);
            if (waiting_ == nullptr || wait_generation_ != gen) return;
            release(waiting_);
            waiting_ = nullptr;
            dispatch(fire);
            reg = take_pending_wait(next_gen);
        }
        finish_dispatch(fire, reg, next_gen);
    }

    /// Completion hook, called by the worker that finishes the task's
    /// last chunk. Everything that wakes a fencing (possibly destroying)
    /// thread happens inside the critical section — dispatch notifies
    /// cv_ under the lock when the queue drains — so after the unlock
    /// this thread never touches queue members again (finish_dispatch
    /// only uses the extracted shared states).
    void task_finished(detail::Task* t) {
        std::vector<std::shared_ptr<detail::EventState>> fire;
        std::shared_ptr<detail::EventState> reg;
        std::uint64_t gen = 0;
        {
            std::lock_guard lock(m_);
            Op* op = running_;
            BEATNIK_ASSERT(op != nullptr && &op->task == t);
            (void)t;
            if (telemetry::enabled()) tel()->end("task");
            op->task.uninstall();
            running_ = nullptr;
            release(op);
            dispatch(fire);
            reg = take_pending_wait(gen);
        }
        finish_dispatch(fire, reg, gen);
    }

    Runtime* rt_;
    const char* name_;                        ///< static-storage queue label
    telemetry::TrackRecorder* tel_ = nullptr; ///< lazy telemetry track
    /// Hazard-detector state; null unless devcheck is active, so every
    /// hook above is a dead branch in ordinary runs.
    std::unique_ptr<devcheck::QueueState> dc_;
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<Op>> pool_;
    std::vector<Op*> free_;
    std::vector<Op*> ring_;   ///< pending ops, [head_, tail_) live
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    Op* running_ = nullptr;
    Op* waiting_ = nullptr;   ///< head wait op parked on an external event
    std::uint64_t wait_generation_ = 0;
    /// Event whose resume callback still needs registering (set by
    /// dispatch under m_, drained by take_pending_wait in the same
    /// critical section, registered by finish_dispatch outside it).
    std::shared_ptr<detail::EventState> pending_wait_;
};

} // namespace beatnik::par::device
