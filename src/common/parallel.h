/**
 * @file
 * Limb-parallel execution engine.
 *
 * F1 exploits the embarrassing parallelism of RNS: every residue
 * polynomial (limb) of a ciphertext is processed by an independent
 * vector unit (paper §2.3, §4). The software functional layer mirrors
 * that mapping with a process-wide thread pool: parallelForLimbs
 * dispatches one work unit per residue, parallelFor handles generic
 * index ranges (e.g. coefficient blocks in basis extension).
 *
 * Determinism contract: every work unit writes a disjoint output slice
 * and performs exact modular arithmetic, so results are bit-identical
 * to the serial path regardless of thread count or scheduling. The
 * reference executor cross-validates this; tests/test_parallel.cpp
 * asserts it directly.
 *
 * Thread count resolution (see configuredThreadCount):
 *   1. explicit setGlobalThreadCount() call (bench sweeps, tests),
 *   2. F1_THREADS environment variable,
 *   3. std::thread::hardware_concurrency().
 * A count of 1 is the serial fallback: bodies run inline on the
 * calling thread with no pool hand-off, for deterministic debugging
 * under gdb/valgrind.
 */
#ifndef F1_COMMON_PARALLEL_H
#define F1_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace f1 {

/**
 * Fixed-size pool of worker threads executing counted loops. The
 * calling thread participates in every loop, so a pool of T threads
 * uses T-1 workers.
 *
 * Nesting is help-first: a body that calls run() again publishes the
 * inner loop as another open batch, drains it itself, and then waits
 * only for the iterations other threads already claimed. Any thread
 * may join an open batch — an idle worker joins any batch, and a pool
 * body joins only batches nested deeper than the one it runs (see
 * helpParallelWork), so a wait never depends on a shallower frame and
 * nesting cannot deadlock. The number of open batches is bounded; a
 * loop published when all slots are taken runs inline.
 */
class ThreadPool
{
  public:
    /** @param threads total concurrency, including the caller (>= 1) */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Runs body(i) for every i in [begin, end) and blocks until all
     * iterations complete. Iterations are claimed dynamically from a
     * per-batch counter. The first exception thrown by any iteration
     * is rethrown on the calling thread after the loop drains.
     */
    void run(size_t begin, size_t end,
             const std::function<void(size_t)> &body);

  private:
    friend bool helpParallelWork();
    struct Batch;
    struct State;
    void workerLoop();
    /**
     * Claims and runs iterations of one open batch whose nesting
     * depth is at least minDepth: one iteration, or (drain) every
     * iteration left in that batch. Returns whether any ran.
     */
    bool help(unsigned minDepth, bool drain);

    std::unique_ptr<State> state_;
    std::vector<std::thread> workers_;
};

/**
 * Strict F1_THREADS parser: optional leading whitespace, optional '+',
 * decimal digits, full-string consumption, value >= 1. Throws
 * FatalError on anything else — a malformed override must not
 * silently fall back to hardware concurrency on a benchmark run.
 * Exposed for tests.
 */
unsigned parseThreadCountEnv(const char *text);

/**
 * Resolved default: F1_THREADS override (validated by
 * parseThreadCountEnv; throws on malformed values), else hardware
 * concurrency.
 */
unsigned configuredThreadCount();

/** Total threads the global pool currently uses. */
unsigned globalThreadCount();

/**
 * Resizes the global pool. n = 0 restores the configured default;
 * n = 1 selects the serial fallback. Safe concurrently with in-flight
 * parallelFor calls: each top-level call holds a shared snapshot of
 * the pool it started on (nested calls stay on their enclosing call's
 * pool), and a retired pool is destroyed only after its last
 * in-flight batch drains.
 */
void setGlobalThreadCount(unsigned n);

/**
 * Runs body(i) for every i in [begin, end) on the global pool, or,
 * when called from inside a pool body, on that body's pool as a
 * nested batch. Serial (inline, in index order) when the pool has one
 * thread, the range has one element, or an InlineParallelScope is
 * active on the calling thread.
 */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

/**
 * Runs one iteration of an open batch nested deeper than the pool
 * body the calling thread is executing, and returns true; returns
 * false when there is none, when the caller is not inside a pool body,
 * or under InlineParallelScope. A long-lived body with nothing to do
 * (the work-stealing executor's idle workers) calls this before it
 * yields, so its thread joins the limb loops of the ops still running.
 */
bool helpParallelWork();

/**
 * RAII guard that forces parallelFor calls issued from the current
 * thread (and anything it calls) to run inline, in index order, for
 * the guard's lifetime. The serving engine's throughput mode puts one
 * guard on each job worker: with W workers each executing one job
 * single-threaded, concurrency comes entirely from job-level
 * parallelism and jobs never contend for the shared pool. Inline
 * execution is the serial path, so outputs are unchanged. The guard
 * also makes helpParallelWork return false, so a guarded thread never
 * runs another job's iterations.
 */
class InlineParallelScope
{
  public:
    InlineParallelScope();
    ~InlineParallelScope();
    InlineParallelScope(const InlineParallelScope &) = delete;
    InlineParallelScope &operator=(const InlineParallelScope &) = delete;

  private:
    bool prev_;
};

/**
 * Per-limb dispatch over the residues of an RNS polynomial: body(limb)
 * for limb in [0, levels) — the software analogue of assigning residue
 * polynomials to F1's vector clusters.
 */
inline void
parallelForLimbs(size_t levels, const std::function<void(size_t)> &body)
{
    parallelFor(0, levels, body);
}

} // namespace f1

#endif // F1_COMMON_PARALLEL_H
