#include "common/parallel.h"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "common/error.h"
#include "obs/profile.h"

namespace f1 {

namespace {

/** Set by InlineParallelScope: every run() on this thread is inline. */
thread_local bool t_inline = false;

/**
 * The pool whose batch this thread is executing an iteration of, and
 * that batch's nesting depth (1 for a loop started outside any pool
 * body). Null/0 outside pool bodies. A nested parallelFor publishes on
 * t_pool at depth t_depth + 1.
 */
thread_local ThreadPool *t_pool = nullptr;
thread_local unsigned t_depth = 0;

/**
 * Open batches a pool tracks at once. Each thread keeps at most one
 * open per nesting level, so this covers dozens of threads; past it
 * loops run inline.
 */
constexpr unsigned kSlots = 64;

/** Idle checks a waiting caller makes before it blocks. */
constexpr unsigned kSpinBeforeBlock = 64;

/** Sets this thread's batch context for one scope. */
class BatchContext
{
  public:
    BatchContext(ThreadPool *pool, unsigned depth)
        : pool_(t_pool), depth_(t_depth)
    {
        t_pool = pool;
        t_depth = depth;
    }
    ~BatchContext()
    {
        t_pool = pool_;
        t_depth = depth_;
    }
    BatchContext(const BatchContext &) = delete;
    BatchContext &operator=(const BatchContext &) = delete;

  private:
    ThreadPool *pool_;
    unsigned depth_;
};

} // namespace

/**
 * One open loop's per-call data. Lives on the stack of the run() call
 * that publishes it; other threads reach it only through a Slot and
 * only while attached (Slot::users), so it is never touched after
 * run() returns.
 */
struct ThreadPool::Batch
{
    const std::function<void(size_t)> *body = nullptr;

    /**
     * The publishing thread's profile collector, inherited by every
     * thread running one of this batch's iterations, so per-limb work
     * nested inside a profiled job is attributed to that job even on
     * pool threads (see obs/profile.h). One TLS store per attach when
     * profiling is off — not per iteration.
     */
    obs::ProfileCollector *collector = nullptr;

    std::atomic<bool> failed{false};
    std::exception_ptr error; //!< written once, by the first failure
};

/**
 * Shared pool state: a fixed list of batch slots plus the sleep/wake
 * machinery for idle workers and blocked callers.
 *
 * Attach protocol (all seq_cst): a helper increments Slot::users, then
 * loads Slot::batch; the publisher retires by nulling Slot::batch, then
 * waits for users to reach 0. Either the helper sees null and detaches
 * without touching the batch, or the publisher sees it attached and
 * waits for it — so a batch is never used after its run() returns.
 */
struct ThreadPool::State
{
    /**
     * One open batch's shared half: its range, claim counter and
     * nesting depth. They live here, in pool-owned memory, so scans
     * can skip drained or shallower batches without attaching; read
     * unattached they are only a hint, read attached they are exact.
     */
    struct alignas(64) Slot
    {
        std::atomic<Batch *> batch{nullptr};
        std::atomic<size_t> next{0}; //!< next unclaimed index
        std::atomic<size_t> end{0};
        std::atomic<unsigned> depth{0};
        std::atomic<unsigned> users{0}; //!< threads attached
        std::atomic<bool> owned{false}; //!< held by a publisher

        /** Hint: holds a batch at depth >= minDepth with work left. */
        bool
        claimable(unsigned minDepth) const
        {
            return batch.load() != nullptr &&
                   depth.load(std::memory_order_relaxed) >= minDepth &&
                   next.load(std::memory_order_relaxed) <
                       end.load(std::memory_order_relaxed);
        }
    };
    Slot slots[kSlots];
    std::atomic<unsigned> highSlot{0}; //!< scans stop here

    std::mutex m;
    std::condition_variable cvStart; //!< idle workers
    std::condition_variable cvDone;  //!< blocked publishers
    uint64_t generation = 0;         //!< bumped on publish to wake
    bool stop = false;
    std::atomic<unsigned> sleepers{0}; //!< workers blocked on cvStart
    std::atomic<unsigned> blocked{0};  //!< publishers blocked on cvDone

    /**
     * Claims and runs iterations of the batch in `s` (the caller owns
     * or is attached to it): one, or until the range drains. Returns
     * whether any ran.
     */
    static bool
    claim(Slot &s, Batch &b, bool drain)
    {
        const size_t end = s.end.load(std::memory_order_relaxed);
        bool ran = false;
        for (;;) {
            const size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                return ran;
            ran = true;
            try {
                (*b.body)(i);
            } catch (...) {
                if (!b.failed.exchange(true, std::memory_order_relaxed))
                    b.error = std::current_exception();
            }
            if (!drain)
                return true;
        }
    }

    /**
     * Detaches from a slot, waking its publisher if it is blocked. A
     * blocking publisher raises `blocked` under m before it re-reads
     * users, so (seq_cst) either it sees this decrement or this load
     * sees it blocked and notifies under m.
     */
    void
    detach(Slot &s)
    {
        if (s.users.fetch_sub(1) == 1 && blocked.load() > 0) {
            std::lock_guard<std::mutex> lock(m);
            cvDone.notify_all();
        }
    }

    bool
    anyClaimable(unsigned minDepth) const
    {
        const unsigned hi = highSlot.load();
        for (unsigned k = 0; k < hi; ++k) {
            if (slots[k].claimable(minDepth))
                return true;
        }
        return false;
    }
};

ThreadPool::ThreadPool(unsigned threads) : state_(new State)
{
    F1_REQUIRE(threads >= 1, "thread pool needs at least one thread");
    workers_.reserve(threads - 1);
    for (unsigned i = 0; i + 1 < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(state_->m);
        state_->stop = true;
    }
    state_->cvStart.notify_all();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::help(unsigned minDepth, bool drain)
{
    State &st = *state_;
    const unsigned hi = st.highSlot.load(std::memory_order_relaxed);
    for (unsigned k = 0; k < hi; ++k) {
        State::Slot &s = st.slots[k];
        if (!s.claimable(minDepth))
            continue;
        s.users.fetch_add(1);
        Batch *b = s.batch.load();
        const unsigned depth = s.depth.load(std::memory_order_relaxed);
        bool ran = false;
        if (b != nullptr && depth >= minDepth) {
            BatchContext ctx(this, depth);
            obs::ProfileScope profScope(b->collector);
            ran = State::claim(s, *b, drain);
        }
        st.detach(s);
        if (ran)
            return true;
    }
    return false;
}

void
ThreadPool::workerLoop()
{
    State &st = *state_;
    for (;;) {
        if (help(1, /*drain=*/true))
            continue;
        std::unique_lock<std::mutex> lock(st.m);
        if (st.stop)
            return;
        const uint64_t seen = st.generation;
        // Announce the sleep before the final scan: a publisher either
        // sees the sleeper and bumps the generation under st.m, or the
        // scan sees its batch.
        st.sleepers.fetch_add(1);
        if (!st.anyClaimable(1))
            st.cvStart.wait(lock, [&] {
                return st.stop || st.generation != seen;
            });
        st.sleepers.fetch_sub(1);
    }
}

void
ThreadPool::run(size_t begin, size_t end,
                const std::function<void(size_t)> &body)
{
    if (end <= begin)
        return;
    // Serial fallback: no workers, a single iteration, or an inline
    // scope run inline, in index order.
    if (workers_.empty() || end - begin == 1 || t_inline) {
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    State &st = *state_;
    State::Slot *slot = nullptr;
    for (unsigned k = 0; k < kSlots && slot == nullptr; ++k) {
        bool expected = false;
        if (st.slots[k].owned.compare_exchange_strong(expected, true))
            slot = &st.slots[k];
    }
    if (slot == nullptr) {
        // Every slot holds an open batch: too deep or too many
        // callers to spread further, and inline is always correct.
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    const unsigned k = static_cast<unsigned>(slot - st.slots);
    unsigned hi = st.highSlot.load();
    while (hi <= k && !st.highSlot.compare_exchange_weak(hi, k + 1)) {
    }

    const unsigned depth = (t_pool == this ? t_depth : 0) + 1;
    Batch batch;
    batch.body = &body;
    batch.collector = obs::profileCollector();
    slot->next.store(begin, std::memory_order_relaxed);
    slot->end.store(end, std::memory_order_relaxed);
    slot->depth.store(depth, std::memory_order_relaxed);
    slot->batch.store(&batch);
    if (st.sleepers.load() > 0) {
        {
            std::lock_guard<std::mutex> lock(st.m);
            ++st.generation;
        }
        st.cvStart.notify_all();
    }

    // The caller drains its own batch, then retires it so no thread
    // attaches any more, and waits for the iterations others claimed.
    {
        BatchContext ctx(this, depth);
        State::claim(*slot, batch, /*drain=*/true);
    }
    slot->batch.store(nullptr);
    for (unsigned idle = 0; slot->users.load() != 0;) {
        // Help only deeper batches: those may be what the claimed
        // iterations are waiting on, and they never wait on this frame.
        if (help(depth + 1, /*drain=*/false))
            continue;
        if (++idle < kSpinBeforeBlock) {
            std::this_thread::yield();
            continue;
        }
        std::unique_lock<std::mutex> lock(st.m);
        st.blocked.fetch_add(1);
        st.cvDone.wait(lock, [&] { return slot->users.load() == 0; });
        st.blocked.fetch_sub(1);
    }
    slot->owned.store(false, std::memory_order_release);
    if (batch.failed.load(std::memory_order_acquire))
        std::rethrow_exception(batch.error);
}

bool
helpParallelWork()
{
    if (t_inline || t_pool == nullptr)
        return false;
    return t_pool->help(t_depth + 1, /*drain=*/false);
}

unsigned
parseThreadCountEnv(const char *text)
{
    // Accepted grammar (documented in README.md): optional leading
    // whitespace, an optional '+', then decimal digits; the whole
    // string must be consumed and the value must be >= 1. Anything
    // else ("", "0", "-3", "8x", "2 4") is an operator typo that must
    // not silently fall back to hardware concurrency.
    F1_REQUIRE(text != nullptr, "F1_THREADS: null value");
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    const bool consumed = end != text && *end == '\0';
    F1_REQUIRE(consumed && errno != ERANGE && v >= 1 &&
                   v <= std::numeric_limits<unsigned>::max(),
               "F1_THREADS must be a positive decimal integer, got \""
               << text << "\"");
    return static_cast<unsigned>(v);
}

unsigned
configuredThreadCount()
{
    if (const char *env = std::getenv("F1_THREADS"))
        return parseThreadCountEnv(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

namespace {

std::mutex g_poolMutex;
std::shared_ptr<ThreadPool> g_pool;

/**
 * Snapshot of the global pool. Callers hold the shared_ptr across
 * run(), so a concurrent setGlobalThreadCount() cannot destroy a pool
 * with batches in flight: the replacement only swaps the global slot,
 * and the retired pool is destroyed (joining its workers) when the
 * last in-flight caller drops its snapshot.
 */
std::shared_ptr<ThreadPool>
globalPool()
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    if (!g_pool)
        g_pool = std::make_shared<ThreadPool>(configuredThreadCount());
    return g_pool;
}

} // namespace

unsigned
globalThreadCount()
{
    return globalPool()->threads();
}

void
setGlobalThreadCount(unsigned n)
{
    const unsigned want = n == 0 ? configuredThreadCount() : n;
    std::shared_ptr<ThreadPool> retired;
    {
        std::lock_guard<std::mutex> lock(g_poolMutex);
        if (g_pool && g_pool->threads() == want)
            return;
        retired = std::move(g_pool);
        g_pool = std::make_shared<ThreadPool>(want);
    }
    // `retired` goes out of scope here, outside g_poolMutex. If other
    // threads are mid-parallelFor on the old pool they share ownership
    // and the destructor (which joins the workers) runs only after the
    // last of them finishes its batch.
}

InlineParallelScope::InlineParallelScope() : prev_(t_inline)
{
    t_inline = true;
}

InlineParallelScope::~InlineParallelScope()
{
    t_inline = prev_;
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)> &body)
{
    // Nested loops stay on the pool of the enclosing body, whose
    // publisher keeps it alive; only top-level loops take a snapshot.
    if (t_pool != nullptr)
        t_pool->run(begin, end, body);
    else
        globalPool()->run(begin, end, body);
}

} // namespace f1
