/**
 * @file
 * Execution context for a *cohort* of simulated PIM cores running the
 * same kernel, the context CommandStream::launchBatch hands a batch
 * kernel once per cohort chunk.
 *
 * A BatchKernelContext owns one KernelContext — the charge ledger —
 * per *lane* (one lane per live core of the chunk) plus a shared
 * scratch arena. The kernel runs each core's program functionally on
 * host memory and routes every modelled cost of a lane (op charges,
 * DMA, WRAM accounting, LCG seeding) through that lane's ledger, so
 * the per-core cycles, op counts and DMA bytes are exactly those of
 * the DPU program on that core; how the kernel schedules the lanes on
 * the host (see swiftrl::runTrainingKernelBatch and
 * docs/PERFORMANCE.md §batch interpreter) moves no modelled number.
 *
 * This class is pure pimsim machinery — lane bookkeeping and per-lane
 * ledgers — while the views over Q-slices, transition chunks and LCG
 * streams are built on top by the swiftrl-layer batch kernel. The
 * batch kernel's lanes match a scalar per-core oracle that charges
 * op by op (tests/test_batch_context.cc).
 *
 * A BatchKernelContext is confined to one host-pool worker (its
 * scratch arena is not thread-safe); CommandStream::launchBatch forms
 * cohort chunks and runs one context per chunk.
 */

#ifndef SWIFTRL_PIMSIM_BATCH_CONTEXT_HH
#define SWIFTRL_PIMSIM_BATCH_CONTEXT_HH

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "pimsim/kernel_context.hh"
#include "pimsim/kernel_scratch.hh"

namespace swiftrl::pimsim {

/** Lockstep cohort context. See file comment. */
class BatchKernelContext
{
  public:
    /**
     * @param dpus the cohort's cores, in ascending id order (dead
     *        cores must already be excluded — lanes are live by
     *        construction).
     * @param model instruction cost model; must outlive the context.
     * @param wram_capacity scratchpad size in bytes (per core).
     * @param scratch host-side staging arena shared by all lanes
     *        (owned by the caller, e.g. a command-stream worker); a
     *        private one is created lazily when null.
     */
    BatchKernelContext(std::span<Dpu *const> dpus,
                       const DpuCostModel &model,
                       std::size_t wram_capacity,
                       KernelScratch *scratch = nullptr);

    BatchKernelContext(const BatchKernelContext &) = delete;
    BatchKernelContext &operator=(const BatchKernelContext &) = delete;

    /** Number of lanes (live cores) in the cohort. */
    std::size_t lanes() const { return _dpus.size(); }

    /**
     * The charge ledger of lane @p i: the batch kernel routes every
     * priced effect for that lane (bulk op charges, DMA, WRAM
     * accounting, LCG seeding) through it.
     */
    KernelContext &lane(std::size_t i) { return _contexts[i]; }

    /** Core behind lane @p i (MRAM access). */
    Dpu &dpu(std::size_t i) { return *_dpus[i]; }

    /** Core id behind lane @p i (host buffers indexed by core). */
    std::size_t dpuId(std::size_t i) const { return _dpus[i]->id(); }

    /**
     * Staging arena shared by all lanes; reset by the launch engine
     * per chunk, like the scalar per-instance reset.
     */
    KernelScratch &scratch();

    /** Commit every lane's pending ledger to its Dpu. */
    void flushAll();

  private:
    std::vector<Dpu *> _dpus;

    /**
     * One context per lane. A deque, not a vector: KernelContext is
     * non-movable, and deque growth never relocates elements.
     */
    std::deque<KernelContext> _contexts;

    KernelScratch *_scratch;
    std::unique_ptr<KernelScratch> _owned;
};

/**
 * A batch kernel is executed once per cohort chunk. The engine may run
 * chunks on a host thread pool, so concurrent invocations must confine
 * their effects to the chunk's own lanes (and host buffers indexed by
 * dpuId).
 */
using BatchKernel = std::function<void(BatchKernelContext &)>;

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_BATCH_CONTEXT_HH
