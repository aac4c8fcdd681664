/**
 * @file
 * State of one simulated PIM core (UPMEM DPU): its MRAM bank contents,
 * its cycle counter, and per-op-class retirement counts.
 */

#ifndef SWIFTRL_PIMSIM_DPU_HH
#define SWIFTRL_PIMSIM_DPU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/default_init_vector.hh"
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
 *
 * A broadcast does not copy into the bank: mramShare() parks one
 * payload, shared by every bank it is addressed to, and the bank
 * copies it in on its next access through any accessor (mramWrite,
 * mramRead, mramView, mram, mramLane). A kernel launch therefore pays
 * the copy inside its own pooled lane, just before it reads the rows.
 *
 * Single-owner rule: a bank is touched by one thread at a time. The
 * lanes of a kernel launch and of a chunk scatter each own distinct
 * banks; everything else (broadcasts, gathers, observers) runs on the
 * enqueue thread after the host pool joins. The session's aggregation
 * is the one shared reader: the gather lands every pending payload and
 * hands out views on the enqueue thread, then the mean's blocks read
 * disjoint entries of those views concurrently, through the spans
 * only, never an accessor. Nothing here locks, so the rule is what
 * keeps a pending payload's copy-in race-free.
 *
 * A scatter lane grows its bank, but the buffer is reserved first on
 * the enqueue thread (reserveLane), so the lane only resizes inside
 * the capacity it was handed and never allocates. That keeps every
 * bank in the enqueue thread's malloc arena: a bank a pool thread
 * allocated would land in that thread's arena, and the per-thread
 * arenas raise the process's peak memory.
 *
 * Never-written MRAM reads as zero through every accessor. Growth
 * zeroes every new byte except a range the caller overwrites in full
 * at once (mramWrite, mramFill, a landing payload), so a byte is
 * written once on those paths.
 */
class Dpu
{
  public:
    /** A broadcast payload, shared read-only by every bank it targets. */
    using SharedPayload = std::shared_ptr<const std::vector<std::uint8_t>>;

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
     * Host- or DMA-side write into the MRAM bank, on top of any pending
     * broadcast payload. Fatal when the range exceeds the bank capacity
     * (the simulated equivalent of over-allocating a 64-MB bank).
     */
    void mramWrite(std::size_t offset, const void *src, std::size_t bytes);

    /**
     * Read from the MRAM bank, after copying a pending broadcast
     * payload in; fatal on out-of-range access.
     */
    void mramRead(std::size_t offset, void *dst, std::size_t bytes) const;

    /**
     * Park @p payload to land at @p offset on this bank's next access
     * (see the class comment). A payload still pending is dropped when
     * the new one covers its whole range — two broadcasts in a row
     * resolve to the last — and copied in first otherwise. Fatal past
     * the bank capacity, as the eager write would be.
     */
    void mramShare(std::size_t offset, SharedPayload payload);

    /**
     * Raw read-only view of MRAM bytes [offset, offset + bytes). Copies
     * a pending payload in and grows the lazy buffer (zero-filled)
     * first, so never-written ranges read as zero exactly like
     * mramRead. Fatal past the bank capacity.
     *
     * Invalidation rule: treat the view as dead after the next write
     * to this bank (mramWrite, or a broadcast: its payload lands on the
     * next access), and after any later access — mramView, mramLane,
     * a gather — reaching past the current buffer end: either may
     * grow and reallocate the buffer. A write inside the buffer only
     * changes the viewed bytes, but no caller may rely on that.
     *
     * Callers: CommandStream::gather hands these views out as the
     * gathered payloads, which the session's aggregation decodes in
     * place before the next broadcast.
     */
    const std::uint8_t *
    mramView(std::size_t offset, std::size_t bytes)
    {
        settle();
        ensure(offset + bytes);
        return _mram.data() + offset;
    }

    /**
     * The bank's current lazy buffer, pending payload copied in: every
     * byte written or viewed so far, starting at offset 0. Never grows
     * the bank past that and charges nothing; same invalidation rule as
     * mramView. Lets a caller re-take a view after a later access grew
     * the bank, or check that an old view still lies inside it.
     */
    std::span<const std::uint8_t>
    mram() const
    {
        settle();
        return _mram;
    }

    /**
     * Mutable view of the whole bank, grown to cover [0, @p end) and
     * with any pending payload copied in: the kernel and scatter
     * lanes' accessor. A kernel lane asks once for the end of every
     * region it touches, then trains on its Q region and counts visits
     * in place — no WRAM image — while charging the modelled DMA
     * separately (KernelContext::chargeDmaSpanBulk); a scatter lane
     * packs its chunk into it. Same invalidation rule as mramView; the
     * lane's own single pass never outlives it.
     */
    std::span<std::uint8_t>
    mramLane(std::size_t end)
    {
        settle();
        ensure(end);
        return _mram;
    }

    /**
     * Bank bytes [offset, offset + bytes) for the caller to overwrite
     * in full, pending payload copied in first: the scatter lanes'
     * accessor. Grows the bank like mramLane(offset + bytes) but
     * leaves the returned range unzeroed, so the caller must write
     * every byte of it. Same invalidation rule as mramView.
     */
    std::span<std::uint8_t>
    mramFill(std::size_t offset, std::size_t bytes)
    {
        settle();
        ensure(offset + bytes, offset);
        return {_mram.data() + offset, bytes};
    }

    /**
     * Reserve the buffer a later mramLane(@p end) or mramFill ending
     * at @p end needs, pending payload included, so that call grows
     * the bank without reallocating (see the class comment). Touches
     * no byte and changes nothing the bank reads as. Fatal past the
     * capacity.
     * @return the reserved storage, which mramLane(@p end) returns.
     */
    const std::uint8_t *reserveLane(std::size_t end);

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
    /** Fatal when [0, end) runs past the bank capacity. */
    void checkRange(std::size_t end, const char *what) const;

    /**
     * Grow the lazy buffer to cover [0, end); fatal past capacity.
     * Every new byte is zeroed except [@p overwrite, end), which the
     * caller writes in full next.
     */
    void ensure(std::size_t end, std::size_t overwrite = SIZE_MAX) const;

    /** The buffer size ensure(@p end) grows a @p size buffer to. */
    std::size_t grownSize(std::size_t size, std::size_t end) const;

    /** Copy a pending broadcast payload in. */
    void
    settle() const
    {
        if (_pending)
            settleSlow();
    }

    void settleSlow() const;

    std::size_t _id;
    std::size_t _mramCapacity;

    // mutable: the const readers (mramRead, mram) land a pending
    // payload first. That changes where the bytes live, never what
    // the bank reads as, and the single-owner rule (class comment)
    // keeps it race-free: no two threads touch one bank at a time.

    /** The lazy bank buffer; ensure() zeroes what it grows by. */
    mutable common::DefaultInitVector<std::uint8_t> _mram;

    /**
     * The last broadcast payload, kept until the next one replaces it
     * so that landing it (on a kernel lane's thread) never touches the
     * reference count every bank shares.
     */
    SharedPayload _payload;

    /** _payload while it is not yet copied in, else null. */
    mutable const std::vector<std::uint8_t> *_pending = nullptr;

    /** MRAM offset _pending lands at. */
    std::size_t _pendingOffset = 0;

    Cycles _cycles = 0;
    std::array<std::uint64_t, kNumOpClasses> _opCounts{};
    std::uint64_t _dmaBytes = 0;
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_DPU_HH
