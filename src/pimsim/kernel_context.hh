/**
 * @file
 * The charge ledger of one simulated PIM core for one kernel launch.
 *
 * CommandStream::launchBatch hands a batch kernel one KernelContext per
 * lane (BatchKernelContext::lane). The kernel computes functionally on
 * host memory and routes every modelled cost of its core through this
 * ledger, so the core's cycle clock advances exactly as the UPMEM cost
 * model dictates:
 *
 *  - chargeBulk commits a count of ops of one class (which priced
 *    helper costs which class is written once, in swiftrl::PricedOps);
 *  - chargeDmaSpanBulk charges MRAM<->WRAM DMA, split at the hardware's
 *    2,048-byte DMA limit and padded to 8-byte alignment;
 *  - wramAlloc accounts the kernel's scratchpad footprint against the
 *    64-KB WRAM capacity and is fatal on overflow — the simulated
 *    equivalent of a DPU program that does not link.
 *
 * Charging is batched: op charges are a single add into a per-op-class
 * pending array rather than a call plus two memory RMWs on the Dpu.
 * Cycles are computed against a cost table flattened at construction,
 * and the pending counts are committed to the Dpu by flush(), which the
 * command stream calls once per kernel return. cycles() folds the
 * pending counts in on the fly, so the ledger reads the same at every
 * point as charging each op straight through to the Dpu: integer
 * addition is associative. tests/test_charge_ledger.cc checks that
 * against a write-through sink on real training kernels.
 */

#ifndef SWIFTRL_PIMSIM_KERNEL_CONTEXT_HH
#define SWIFTRL_PIMSIM_KERNEL_CONTEXT_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "pimsim/cost_model.hh"
#include "pimsim/dpu.hh"

namespace swiftrl::pimsim {

/** Per-core charge ledger of one launch. See file comment. */
class KernelContext
{
  public:
    /**
     * @param dpu core the kernel runs on.
     * @param model instruction cost model; must outlive the context.
     * @param wram_capacity scratchpad size in bytes.
     */
    KernelContext(Dpu &dpu, const DpuCostModel &model,
                  std::size_t wram_capacity)
        : _dpu(&dpu), _model(&model), _wramCapacity(wram_capacity)
    {
        for (std::size_t i = 0; i < kNumOpClasses; ++i)
            _opCost[i] = model.cyclesFor(static_cast<OpClass>(i));
    }

    /** Commits any pending charges (see flush()). */
    ~KernelContext() { flush(); }

    KernelContext(const KernelContext &) = delete;
    KernelContext &operator=(const KernelContext &) = delete;

    /** Cycles consumed by this kernel instance so far. */
    Cycles
    cycles() const
    {
        Cycles total = _cycles;
        for (std::size_t i = 0; i < kNumOpClasses; ++i)
            total += _opCost[i] * _pending[i];
        return total;
    }

    /**
     * Commit pending ledger charges (op counts, cycles, DMA bytes)
     * to the Dpu. Called by the command stream once per kernel
     * return and by the destructor; a no-op when nothing is pending.
     * Code that inspects Dpu counters mid-kernel must flush first.
     */
    void
    flush()
    {
        for (std::size_t i = 0; i < kNumOpClasses; ++i) {
            if (_pending[i] == 0)
                continue;
            _dpu->countOps(static_cast<OpClass>(i), _pending[i]);
            _cycles += _opCost[i] * _pending[i];
            _pending[i] = 0;
        }
        if (_pendingDmaBytes != 0) {
            _dpu->addDmaBytes(_pendingDmaBytes);
            _pendingDmaBytes = 0;
        }
    }

    /**
     * Account a static WRAM allocation of @p bytes (Q-table, staging
     * buffers). Fatal when the kernel's total footprint exceeds the
     * scratchpad capacity.
     */
    void
    wramAlloc(std::size_t bytes)
    {
        _wramUsed += bytes;
        if (_wramUsed > _wramCapacity) {
            SWIFTRL_FATAL("DPU ", _dpu->id(),
                          ": kernel WRAM footprint ", _wramUsed,
                          " bytes exceeds the ", _wramCapacity,
                          "-byte scratchpad");
        }
    }

    /** Scratchpad bytes allocated by this kernel instance. */
    std::size_t wramUsed() const { return _wramUsed; }

    /** Charge @p count ops of class @p op. */
    void
    chargeBulk(OpClass op, std::uint64_t count)
    {
        _pending[static_cast<std::size_t>(op)] += count;
    }

    /**
     * Charge-only DMA of @p times identical logical transfers of
     * @p bytes each, moving no data: each transfer splits at the
     * 2,048-byte DMA limit and pads every piece's tail to the DMA
     * alignment, as the hardware engine moves whole aligned words.
     * Every transfer pads and splits independently, so the
     * per-transfer totals are exact integers that scale by
     * multiplication. The batch interpreter trains on a raw MRAM view
     * of its bank (Dpu::mramLane) and accounts the modelled transfers
     * here — the Q, halo and visit-count DMA of each launch, and a
     * whole run of staging-block misses or per-record 16-byte fetches
     * (RANDOM sampling) in one call.
     */
    void
    chargeDmaSpanBulk(std::size_t bytes, std::uint64_t times)
    {
        if (times == 0 || bytes == 0)
            return;
        Cycles span_cycles = 0;
        std::uint64_t span_bytes = 0;
        std::size_t done = 0;
        const std::size_t align = _model->mramDmaAlignBytes;
        while (done < bytes) {
            const std::size_t piece = std::min<std::size_t>(
                bytes - done, _model->mramDmaMaxBytes);
            const std::size_t padded =
                (piece + align - 1) / align * align;
            span_cycles += _model->dmaCycles(
                static_cast<std::uint32_t>(padded));
            span_bytes += padded;
            done += piece;
        }
        // DMA is rare (one charge per span), so its piecewise cycle
        // cost is folded into _cycles at once; only the Dpu-side byte
        // counter waits for flush().
        _cycles += span_cycles * times;
        _pendingDmaBytes += span_bytes * times;
    }

  private:
    Dpu *_dpu;
    const DpuCostModel *_model;

    /** Flattened cost table: cycles per op of each class. */
    std::array<Cycles, kNumOpClasses> _opCost;

    /** Op counts awaiting flush(). */
    std::array<std::uint64_t, kNumOpClasses> _pending{};

    /** DMA bytes awaiting flush(). */
    std::uint64_t _pendingDmaBytes = 0;

    /** Committed cycles, plus every DMA cycle charged so far. */
    Cycles _cycles = 0;

    std::size_t _wramCapacity;
    std::size_t _wramUsed = 0;

    /**
     * Unused: keeps the ledger at 200 bytes, so a cohort's deque of
     * ledgers still allocates two per 416-byte heap chunk. With
     * 176-byte ledgers (368-byte chunks) glibc's heap settled
     * differently in perfbench's taxi-sync, whose processes run four
     * sessions each: every session's teardown trimmed about 2 MB off
     * the main heap that the next set-up faulted back in, +1 ms
     * (40 %) on setup_s.
     */
    std::uint64_t _heapLayoutPad[3] = {};
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_KERNEL_CONTEXT_HH
