/**
 * @file
 * Host thread pool for the command-stream engine.
 *
 * Simulated PIM cores are independent — a kernel instance touches
 * only its own core's MRAM bank, WRAM accounting, and cycle clock —
 * so the *functional* execution of one launch is an embarrassingly
 * parallel loop over cores. The pool runs that loop across host
 * threads with a strict determinism guarantee: work items are pure
 * per-index functions, so the result is bit-identical for any pool
 * size, including 1 (where everything runs inline on the caller with
 * no synchronisation at all).
 *
 * Dispatch is built for launch-rate workloads: callables are passed
 * by reference through a type-erased function pointer (no
 * std::function allocation per parallelFor), and indices are claimed
 * in *chunks* of `grain` at a time, so a 2,000-core launch costs on
 * the order of `threads` atomic operations rather than 2,000.
 *
 * Which host thread runs which index is scheduling-dependent, so a
 * callable gets only its index: any scratch state it needs is per
 * index (or per chunk of indices the caller splits itself), never
 * per thread.
 */

#ifndef SWIFTRL_PIMSIM_HOST_POOL_HH
#define SWIFTRL_PIMSIM_HOST_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace swiftrl::pimsim {

/** Fixed-size worker pool executing index-parallel loops. */
class HostPool
{
  public:
    /**
     * @param threads parallelism degree: the calling thread plus
     *        threads-1 resident workers. 1 means fully serial (no
     *        worker threads are ever created).
     */
    explicit HostPool(unsigned threads);

    ~HostPool();

    HostPool(const HostPool &) = delete;
    HostPool &operator=(const HostPool &) = delete;

    /** Parallelism degree (including the calling thread). */
    unsigned threadCount() const { return _threads; }

    /**
     * Run fn(index) for index 0..n-1, distributing chunks of indices
     * across the pool and the calling thread; returns when every call
     * has completed. @p fn must be safe to invoke concurrently for
     * distinct indices and must not touch state shared across
     * indices. Accepts any callable `void(std::size_t index)`; the
     * callable is borrowed for the duration of the call, never
     * copied or heap-allocated.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, Fn &&fn)
    {
        static_assert(std::is_invocable_v<Fn &, std::size_t>,
                      "parallelFor callables take (index)");
        auto *ctx = std::addressof(fn);
        run(n,
            [](void *opaque, std::size_t index) {
                (*static_cast<std::remove_reference_t<Fn> *>(opaque))(
                    index);
            },
            ctx);
    }

  private:
    /** Type-erased work item: (context, index). */
    using RawFn = void (*)(void *, std::size_t);

    /** One in-flight parallelFor: shared claim state + progress. */
    struct Job
    {
        RawFn fn = nullptr;
        void *ctx = nullptr;
        std::size_t n = 0;
        std::size_t grain = 1; ///< indices claimed per atomic op
        std::atomic<std::size_t> next{0};
        std::size_t finished = 0; ///< items done; guarded by _mutex
    };

    /** Dispatch @p fn over @p n indices (see parallelFor). */
    void run(std::size_t n, RawFn fn, void *ctx);

    /** Claim and run index chunks until the job is drained. */
    static std::size_t runShare(Job &job);

    void workerLoop();

    std::vector<std::thread> _workers;
    std::mutex _mutex;
    std::condition_variable _wake;
    std::condition_variable _done;
    std::shared_ptr<Job> _job; ///< current job; guarded by _mutex
    std::uint64_t _generation = 0; ///< bumped per job; guarded by _mutex
    bool _stop = false;
    unsigned _threads;
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_HOST_POOL_HH
