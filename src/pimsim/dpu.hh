/**
 * @file
 * State of one simulated PIM core (UPMEM DPU): its MRAM bank contents,
 * its cycle counter, and per-op-class retirement counts.
 */

#ifndef SWIFTRL_PIMSIM_DPU_HH
#define SWIFTRL_PIMSIM_DPU_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "pimsim/cost_model.hh"
#include "pimsim/op_class.hh"

namespace swiftrl::pimsim {

/**
 * One PIM core plus its attached 64-MB DRAM (MRAM) bank.
 *
 * The MRAM buffer is grown lazily up to the configured capacity so a
 * 2,000-core system does not actually reserve 128 GB of host memory.
 * Cycle accounting is the responsibility of KernelContext; this class
 * only stores the counters.
 */
class Dpu
{
  public:
    /**
     * @param id core index within the system.
     * @param mram_capacity bank size in bytes.
     */
    Dpu(std::size_t id, std::size_t mram_capacity);

    /** Core index within the system. */
    std::size_t id() const { return _id; }

    /** Bank capacity in bytes. */
    std::size_t mramCapacity() const { return _mramCapacity; }

    /**
     * Host- or DMA-side write into the MRAM bank.
     * Fatal when the range exceeds the bank capacity (the simulated
     * equivalent of over-allocating a 64-MB bank).
     */
    void mramWrite(std::size_t offset, const void *src, std::size_t bytes);

    /** Read from the MRAM bank; fatal on out-of-range access. */
    void mramRead(std::size_t offset, void *dst, std::size_t bytes) const;

    /**
     * Raw read-only view of MRAM bytes [offset, offset + bytes).
     * Grows the lazy buffer (zero-filled) first, so never-written
     * ranges read as zero exactly like mramRead. Fatal past the bank
     * capacity.
     *
     * Invalidation rule: treat the view as dead after the next write
     * to this bank (mramWrite), and after any later mramView — a
     * gather included — reaching past the current buffer end: either
     * may grow and reallocate the buffer. A write inside the buffer
     * only changes the viewed bytes, but no caller may rely on that.
     *
     * Callers: the batch interpreter reads the transition region in
     * place during a launch, and CommandStream::gather hands these
     * views out as the gathered payloads, which the session's
     * aggregation decodes in place before the next broadcast.
     */
    const std::uint8_t *
    mramView(std::size_t offset, std::size_t bytes)
    {
        ensure(offset + bytes);
        return _mram.data() + offset;
    }

    /**
     * The bank's current lazy buffer: every byte written or viewed so
     * far, starting at offset 0. Never grows the bank and charges
     * nothing; same invalidation rule as mramView. Lets a caller
     * re-take a view after a later access grew the bank, or check
     * that an old view still lies inside it.
     */
    std::span<const std::uint8_t> mram() const { return _mram; }

    /** Total cycles this core has consumed. */
    Cycles cycles() const { return _cycles; }

    /** Advance the core's clock. */
    void addCycles(Cycles c) { _cycles += c; }

    /** Record @p n retired ops of class @p op (diagnostics). */
    void
    countOps(OpClass op, std::uint64_t n)
    {
        _opCounts[static_cast<std::size_t>(op)] += n;
    }

    /** Retired-op histogram across all launches. */
    const std::array<std::uint64_t, kNumOpClasses> &
    opCounts() const
    {
        return _opCounts;
    }

    /** Bytes moved by MRAM DMA across all launches. */
    std::uint64_t dmaBytes() const { return _dmaBytes; }

    /** Record DMA traffic (diagnostics). */
    void addDmaBytes(std::uint64_t b) { _dmaBytes += b; }

    /** Reset clock and statistics, keep MRAM contents. */
    void resetStats();

  private:
    /** Grow the lazy buffer to cover [0, end); fatal past capacity. */
    void ensure(std::size_t end);

    std::size_t _id;
    std::size_t _mramCapacity;
    std::vector<std::uint8_t> _mram;
    Cycles _cycles = 0;
    std::array<std::uint64_t, kNumOpClasses> _opCounts{};
    std::uint64_t _dmaBytes = 0;
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_DPU_HH
