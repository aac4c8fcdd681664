/**
 * @file
 * Test oracle: the scalar per-core training kernel (see
 * scalar_kernel.cc) and the per-core ops it charges through. Not part
 * of the library — production launches run
 * swiftrl::runTrainingKernelBatch; the tests compare the two, both
 * launched through CommandStream::launchBatch.
 */

#ifndef SWIFTRL_TESTS_ORACLE_SCALAR_KERNEL_HH
#define SWIFTRL_TESTS_ORACLE_SCALAR_KERNEL_HH

#include <cstdint>
#include <functional>

#include "pimsim/batch_context.hh"
#include "pimsim/dpu.hh"
#include "pimsim/kernel_context.hh"
#include "swiftrl/pim_kernels.hh"
#include "swiftrl/priced_ops.hh"

namespace swiftrl::oracle {

/**
 * One core's priced ops: the shared op-charge mapping (PricedOps) over
 * charge sink @p Sink, plus what only a per-core kernel needs — MRAM
 * DMA that moves data, raw LCG draws and the LCG state, and WRAM
 * accounting. @p Sink is a lane's pimsim::KernelContext, or the
 * WriteThroughSink reference.
 */
template <typename Sink>
class CoreOps : public PricedOps<Sink>
{
  public:
    CoreOps(Sink &sink, pimsim::Dpu &dpu)
        : PricedOps<Sink>(sink), _dpu(&dpu)
    {
    }

    /** Index of the core this kernel instance runs on. */
    std::size_t dpuId() const { return _dpu->id(); }

    /** Account a static WRAM allocation (fatal past capacity). */
    void wramAlloc(std::size_t bytes) { this->sink().wramAlloc(bytes); }

    /**
     * DMA @p bytes from MRAM offset @p offset into @p dst, charged as
     * the hardware moves it: split at the DMA limit, each piece's
     * tail padded to the DMA alignment. An empty transfer does nothing.
     */
    void
    mramToWram(std::size_t offset, void *dst, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        _dpu->mramRead(offset, dst, bytes);
        this->sink().chargeDmaSpanBulk(bytes, 1);
    }

    /** DMA @p bytes from @p src back to MRAM offset @p offset. */
    void
    wramToMram(std::size_t offset, const void *src, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        _dpu->mramWrite(offset, src, bytes);
        this->sink().chargeDmaSpanBulk(bytes, 1);
    }

    /** Raw LCG draw: one emulated 32-bit multiply plus one add. */
    std::uint32_t
    lcgNext()
    {
        this->charge(pimsim::OpClass::Int32Mul);
        this->charge(pimsim::OpClass::IntAlu);
        return this->_host.lcgNext();
    }

    /**
     * Current LCG state, read back by the host after a launch so the
     * random stream continues across synchronisation rounds.
     */
    std::uint32_t lcgState() const { return this->_host.lcg.state(); }

  private:
    pimsim::Dpu *_dpu;
};

/** A lane's ops: the shared mapping over the lane's charge ledger. */
using LedgerOps = CoreOps<pimsim::KernelContext>;

/**
 * The reference charging the ledger is checked against: every charge
 * written straight through to the Dpu's counters and this sink's
 * cycle clock as it is made. flush() has nothing to do.
 */
class WriteThroughSink
{
  public:
    WriteThroughSink(pimsim::Dpu &dpu, const pimsim::DpuCostModel &model,
                     std::size_t wram_capacity);

    pimsim::Cycles cycles() const { return _cycles; }
    void flush() {}

    void chargeBulk(pimsim::OpClass op, std::uint64_t count);

    /** Each of @p times transfers: per-piece split, pad and charge. */
    void chargeDmaSpanBulk(std::size_t bytes, std::uint64_t times);

    void wramAlloc(std::size_t bytes);

  private:
    pimsim::Dpu *_dpu;
    const pimsim::DpuCostModel *_model;
    pimsim::Cycles _cycles = 0;
    std::size_t _wramCapacity;
    std::size_t _wramUsed = 0;
};

/**
 * Train one core's chunk: executed once per core, charging every
 * priced op through @p ops as it runs. Instantiated for LedgerOps and
 * CoreOps<WriteThroughSink>.
 */
template <typename Sink>
void runTrainingKernel(CoreOps<Sink> &ops, const KernelParams &params);

/**
 * Batch kernel running @p body once per lane of the cohort chunk,
 * with that lane's LedgerOps — a per-core kernel on the one launch
 * path.
 */
pimsim::BatchKernel perLane(std::function<void(LedgerOps &)> body);

/**
 * Batch kernel running the scalar oracle lane by lane; @p params must
 * outlive it.
 */
pimsim::BatchKernel oracleKernel(const KernelParams &params);

} // namespace swiftrl::oracle

#endif // SWIFTRL_TESTS_ORACLE_SCALAR_KERNEL_HH
