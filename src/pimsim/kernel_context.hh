/**
 * @file
 * Execution context handed to a kernel running on one simulated PIM
 * core. Kernels are ordinary C++ callables that compute functionally
 * on host memory, but *every* priced operation goes through this
 * context so the core's cycle clock advances exactly as the UPMEM cost
 * model dictates:
 *
 *  - arithmetic helpers (fadd, imul32, ...) compute the value *and*
 *    charge the op;
 *  - mramToWram/wramToMram move data between the MRAM bank and a
 *    kernel-owned staging buffer, charging DMA latency per transfer
 *    (split at the hardware's 2,048-byte DMA limit and padded to
 *    8-byte alignment);
 *  - wramAlloc accounts the kernel's scratchpad footprint against the
 *    64-KB WRAM capacity and is fatal on overflow — the simulated
 *    equivalent of a DPU program that does not link.
 *
 * Kernels that need randomness must draw it through lcgNext(), the
 * same linear congruential generator SwiftRL implements on the DPUs
 * (rand() does not exist there), so the priced instruction stream and
 * the functional result match the paper's implementation.
 *
 * Charging is *batched*: the context is the simulator's innermost hot
 * path (hundreds of millions of priced ops per training round), so a
 * charge is a single inlined add into a per-op-class pending array —
 * the ChargeLedger — rather than a call plus two memory RMWs on the
 * Dpu. Cycles are computed against a cost table flattened at
 * construction, and the pending counts are committed to the Dpu by
 * flush(), which the command stream calls once per kernel return.
 * cycles() folds the pending counts in on the fly, so the batched
 * context is observationally identical to per-op charging at every
 * point: integer addition is associative, so totals match the
 * reference bit for bit. The unbatched behaviour is kept as
 * ChargePolicy::Reference (write-through, flush a no-op) purely so
 * tests can assert that equivalence on real kernels.
 */

#ifndef SWIFTRL_PIMSIM_KERNEL_CONTEXT_HH
#define SWIFTRL_PIMSIM_KERNEL_CONTEXT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "pimsim/cost_model.hh"
#include "pimsim/dpu.hh"
#include "pimsim/kernel_scratch.hh"

namespace swiftrl::pimsim {

/**
 * How a context commits charges to its Dpu: Batched accumulates in
 * the ledger and commits on flush() (the production mode); Reference
 * writes every charge through immediately (the pre-ledger behaviour,
 * kept for parity tests). Both yield identical cycles, op counts,
 * and DMA bytes.
 */
enum class ChargePolicy
{
    Batched,
    Reference,
};

template <ChargePolicy Policy> class BasicKernelContext;

/** Production per-core context: ledger-batched charging. */
using KernelContext = BasicKernelContext<ChargePolicy::Batched>;

/** Write-through context for charge-parity tests. */
using ReferenceKernelContext =
    BasicKernelContext<ChargePolicy::Reference>;

/**
 * A kernel is a callable executed once per core. The command-stream
 * engine may run instances on a host thread pool, so a kernel must
 * confine its effects to per-core state (its KernelContext, and host
 * buffers indexed by ctx.dpuId()).
 */
using KernelFn = std::function<void(KernelContext &)>;

/** Per-core kernel execution context. See file comment. */
template <ChargePolicy Policy>
class BasicKernelContext
{
  public:
    /**
     * @param dpu core the kernel runs on.
     * @param model instruction cost model; must outlive the context.
     * @param wram_capacity scratchpad size in bytes.
     * @param scratch host-side staging arena to serve scratch() from
     *        (owned by the caller, e.g. a command-stream worker); the
     *        context lazily creates a private one when null.
     */
    BasicKernelContext(Dpu &dpu, const DpuCostModel &model,
                       std::size_t wram_capacity,
                       KernelScratch *scratch = nullptr)
        : _dpu(&dpu), _model(&model), _wramCapacity(wram_capacity),
          _scratch(scratch)
    {
        for (std::size_t i = 0; i < kNumOpClasses; ++i)
            _opCost[i] = model.cyclesFor(static_cast<OpClass>(i));
    }

    /** Commits any pending charges (see flush()). */
    ~BasicKernelContext() { flush(); }

    BasicKernelContext(const BasicKernelContext &) = delete;
    BasicKernelContext &
    operator=(const BasicKernelContext &) = delete;

    /** Index of the core this kernel instance runs on. */
    std::size_t dpuId() const { return _dpu->id(); }

    /** Cycles consumed by this kernel instance so far. */
    Cycles
    cycles() const
    {
        Cycles total = _cycles;
        if constexpr (Policy == ChargePolicy::Batched) {
            for (std::size_t i = 0; i < kNumOpClasses; ++i)
                total += _opCost[i] * _pending[i];
        }
        return total;
    }

    /**
     * Commit pending ledger charges (op counts, cycles, DMA bytes)
     * to the Dpu. Called by the command stream once per kernel
     * return and by the destructor; a no-op when nothing is pending
     * (always, under ChargePolicy::Reference). Code that inspects
     * Dpu counters mid-kernel must flush first.
     */
    void
    flush()
    {
        if constexpr (Policy == ChargePolicy::Batched) {
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
    }

    /**
     * Re-aim a (flushed) context at another core and clear all
     * per-kernel state — cycles, WRAM accounting, LCG — so command
     * streams can reuse one context object across launches. The
     * scratch arena is NOT reset; its owner does that.
     */
    void
    rebind(Dpu &dpu)
    {
        flush();
        _dpu = &dpu;
        _cycles = 0;
        _wramUsed = 0;
        _lcg = common::Lcg32();
    }

    /**
     * Host-side staging arena for kernel buffers whose lifetime is
     * one launch (Q-table images, fetch blocks). Purely functional —
     * WRAM accounting still goes through wramAlloc.
     */
    KernelScratch &
    scratch()
    {
        if (!_scratch) {
            _owned = std::make_unique<KernelScratch>();
            _scratch = _owned.get();
        }
        return *_scratch;
    }

    // --- scratchpad accounting ------------------------------------

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

    // --- MRAM DMA -------------------------------------------------

    /**
     * DMA @p bytes from MRAM offset @p offset into @p dst (a staging
     * buffer the kernel allocated). Splits at the hardware DMA limit
     * and charges each piece's fixed+streaming cost; sub-8-byte tails
     * are charged as a full aligned transfer, as the hardware would.
     */
    void
    mramToWram(std::size_t offset, void *dst, std::size_t bytes)
    {
        std::uint8_t *out = static_cast<std::uint8_t *>(dst);
        std::size_t done = 0;
        while (done < bytes) {
            const std::size_t piece = std::min<std::size_t>(
                bytes - done, _model->mramDmaMaxBytes);
            _dpu->mramRead(offset + done, out + done, piece);
            chargeDma(piece);
            done += piece;
        }
    }

    /** DMA @p bytes from @p src back to MRAM offset @p offset. */
    void
    wramToMram(std::size_t offset, const void *src, std::size_t bytes)
    {
        const std::uint8_t *in =
            static_cast<const std::uint8_t *>(src);
        std::size_t done = 0;
        while (done < bytes) {
            const std::size_t piece = std::min<std::size_t>(
                bytes - done, _model->mramDmaMaxBytes);
            _dpu->mramWrite(offset + done, in + done, piece);
            chargeDma(piece);
            done += piece;
        }
    }

    // --- priced arithmetic ----------------------------------------

    /** FP32 add (runtime-emulated on the modelled hardware). */
    float
    fadd(float a, float b)
    {
        charge(OpClass::Fp32Add);
        return a + b;
    }

    /** FP32 subtract (same emulation cost class as add). */
    float
    fsub(float a, float b)
    {
        charge(OpClass::Fp32Add);
        return a - b;
    }

    /** FP32 multiply. */
    float
    fmul(float a, float b)
    {
        charge(OpClass::Fp32Mul);
        return a * b;
    }

    /** FP32 divide. */
    float
    fdiv(float a, float b)
    {
        charge(OpClass::Fp32Div);
        return a / b;
    }

    /** FP32 greater-than compare. */
    bool
    fgt(float a, float b)
    {
        charge(OpClass::Fp32Cmp);
        return a > b;
    }

    /** Native 32-bit integer add. */
    std::int32_t
    iadd(std::int32_t a, std::int32_t b)
    {
        charge(OpClass::IntAlu);
        return static_cast<std::int32_t>(
            static_cast<std::int64_t>(a) +
            static_cast<std::int64_t>(b));
    }

    /** Native 32-bit integer subtract. */
    std::int32_t
    isub(std::int32_t a, std::int32_t b)
    {
        charge(OpClass::IntAlu);
        return static_cast<std::int32_t>(
            static_cast<std::int64_t>(a) -
            static_cast<std::int64_t>(b));
    }

    /** Emulated 32-bit integer multiply (shift-and-add sequence). */
    std::int64_t
    imul32(std::int32_t a, std::int32_t b)
    {
        charge(OpClass::Int32Mul);
        return static_cast<std::int64_t>(a) *
               static_cast<std::int64_t>(b);
    }

    /** Emulated 32-bit integer divide. */
    std::int32_t
    idiv32(std::int32_t a, std::int32_t b)
    {
        SWIFTRL_ASSERT(b != 0, "integer division by zero in kernel");
        charge(OpClass::Int32Div);
        return a / b;
    }

    /**
     * Rescale a widened fixed-point product: truncating division of a
     * 64-bit value by the compile-time scale constant, strength-
     * reduced to a reciprocal multiply plus shifts (charged as one
     * emulated multiply and two ALU ops).
     */
    std::int32_t
    rescale(std::int64_t value, std::int32_t scale)
    {
        SWIFTRL_ASSERT(scale != 0, "rescale by zero");
        charge(OpClass::Int32Mul);
        charge(OpClass::IntAlu, 2);
        return static_cast<std::int32_t>(value / scale);
    }

    /** Native 8-bit multiply. */
    std::int32_t
    imul8(std::int8_t a, std::int8_t b)
    {
        charge(OpClass::Int8Mul);
        return static_cast<std::int32_t>(a) *
               static_cast<std::int32_t>(b);
    }

    /**
     * Narrow multiply for the INT8 kernel path: a 16-bit-or-less
     * value times an 8-bit-or-less constant, composed from two
     * native 8-bit multiplies plus shift/add glue. Fatal when the
     * operands do not fit the narrow composition — the "limited
     * value range" caveat of Sec. 3.2.1 enforced at runtime.
     */
    std::int64_t
    imulSmall(std::int32_t a, std::int32_t b)
    {
        SWIFTRL_ASSERT(a >= -32768 && a <= 32767,
                       "imulSmall wide operand ", a,
                       " exceeds 16 bits: the environment's value "
                       "range does not fit the INT8 optimisation");
        SWIFTRL_ASSERT(b >= -128 && b <= 127,
                       "imulSmall narrow operand ", b,
                       " exceeds 8 bits");
        // Two native 8x8 multiplies (low/high byte of a) plus
        // shift+add.
        charge(OpClass::Int8Mul, 2);
        charge(OpClass::IntAlu, 2);
        return static_cast<std::int64_t>(a) *
               static_cast<std::int64_t>(b);
    }

    /**
     * Power-of-two rescale: a single arithmetic right shift (floor
     * division), one native instruction.
     */
    std::int32_t
    rescaleShift(std::int64_t value, int shift)
    {
        SWIFTRL_ASSERT(shift >= 0 && shift < 31, "bad shift ", shift);
        charge(OpClass::IntAlu);
        return static_cast<std::int32_t>(value >> shift);
    }

    /** Native integer greater-than compare. */
    bool
    igt(std::int32_t a, std::int32_t b)
    {
        charge(OpClass::IntAlu);
        return a > b;
    }

    /** WRAM load of one 32-bit word held in @p slot. */
    std::int32_t
    wramLoadI32(const std::int32_t &slot)
    {
        charge(OpClass::WramAccess);
        return slot;
    }

    /** WRAM store of one 32-bit word into @p slot. */
    void
    wramStoreI32(std::int32_t &slot, std::int32_t value)
    {
        charge(OpClass::WramAccess);
        slot = value;
    }

    /** WRAM load of one FP32 word. */
    float
    wramLoadF32(const float &slot)
    {
        charge(OpClass::WramAccess);
        return slot;
    }

    /** WRAM store of one FP32 word. */
    void
    wramStoreF32(float &slot, float value)
    {
        charge(OpClass::WramAccess);
        slot = value;
    }

    /** Loop/branch bookkeeping instruction. */
    void branch(std::uint64_t count = 1)
    {
        charge(OpClass::Branch, count);
    }

    /** Generic charge for address arithmetic etc. */
    void aluOps(std::uint64_t count) { charge(OpClass::IntAlu, count); }

    // --- PIM-side RNG ---------------------------------------------

    /** Seed the core-local LCG (one ALU op). */
    void
    lcgSeed(std::uint32_t seed)
    {
        charge(OpClass::IntAlu);
        _lcg.seed(seed);
    }

    /**
     * Draw from the core-local LCG: one emulated 32-bit multiply plus
     * one add, exactly the custom rand() routine of SwiftRL
     * Sec. 3.2.1.
     */
    std::uint32_t
    lcgNext()
    {
        // state = state * A + C: one emulated 32-bit multiply, one
        // add.
        charge(OpClass::Int32Mul);
        charge(OpClass::IntAlu);
        return _lcg.next();
    }

    /** Bounded LCG draw in [0, bound): lcgNext plus reduction ops. */
    std::uint32_t
    lcgNextBounded(std::uint32_t bound)
    {
        SWIFTRL_ASSERT(bound > 0,
                       "lcgNextBounded requires a positive bound");
        const std::uint64_t wide =
            static_cast<std::uint64_t>(lcgNext()) * bound;
        // High-bits reduction: one more emulated multiply plus a
        // shift.
        charge(OpClass::Int32Mul);
        charge(OpClass::IntAlu);
        return static_cast<std::uint32_t>(wide >> 32);
    }

    /**
     * Current LCG state, read back by the host after a launch so the
     * random stream continues across synchronisation rounds (real DPU
     * programs keep it resident in WRAM between launches).
     */
    std::uint32_t lcgState() const { return _lcg.state(); }

    // --- batch-interpreter support --------------------------------

    /**
     * Bulk charge used by the lockstep batch interpreter: commits
     * @p count ops of class @p op in one call. Identical to @p count
     * individual priced-helper calls — integer addition is
     * associative — so batch execution stays bit-identical to
     * per-op charging (see docs/PERFORMANCE.md).
     */
    void
    chargeBulk(OpClass op, std::uint64_t count)
    {
        charge(op, count);
    }

    /**
     * Charge-only DMA of @p times identical logical transfers of
     * @p bytes each: advances the clock and the DMA byte counter
     * exactly as that many mramToWram / wramToMram calls would (same
     * 2,048-byte piece split, same per-piece tail padding) without
     * moving any data. Every transfer pads and splits independently,
     * so the per-transfer totals are exact integers that scale by
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
        _cycles += span_cycles * times;
        if constexpr (Policy == ChargePolicy::Batched)
            _pendingDmaBytes += span_bytes * times;
        else
            _dpu->addDmaBytes(span_bytes * times);
    }

  private:
    /** Charge @p count ops of class @p op. */
    void
    charge(OpClass op, std::uint64_t count = 1)
    {
        if constexpr (Policy == ChargePolicy::Batched) {
            _pending[static_cast<std::size_t>(op)] += count;
        } else {
            _cycles +=
                _opCost[static_cast<std::size_t>(op)] * count;
            _dpu->countOps(op, count);
        }
    }

    /** Charge one DMA transfer of @p bytes (already split/padded). */
    void
    chargeDma(std::size_t bytes)
    {
        // Pad the tail up to the DMA alignment, as the hardware
        // engine always moves whole aligned words.
        const std::size_t align = _model->mramDmaAlignBytes;
        const std::size_t padded =
            (bytes + align - 1) / align * align;
        // DMA is rare (one charge per up-to-2KB block), so its
        // piecewise cycle cost is folded into _cycles immediately;
        // only the Dpu-side byte counter is batched.
        _cycles +=
            _model->dmaCycles(static_cast<std::uint32_t>(padded));
        if constexpr (Policy == ChargePolicy::Batched)
            _pendingDmaBytes += padded;
        else
            _dpu->addDmaBytes(padded);
    }

    Dpu *_dpu;
    const DpuCostModel *_model;

    /** Flattened cost table: cycles per op of each class. */
    std::array<Cycles, kNumOpClasses> _opCost;

    /** ChargeLedger: op counts awaiting flush() (Batched only). */
    std::array<std::uint64_t, kNumOpClasses> _pending{};

    /** DMA bytes awaiting flush() (Batched only). */
    std::uint64_t _pendingDmaBytes = 0;

    /** Committed cycles (plus, under Reference, all cycles). */
    Cycles _cycles = 0;

    std::size_t _wramCapacity;
    std::size_t _wramUsed = 0;
    common::Lcg32 _lcg;

    KernelScratch *_scratch;
    std::unique_ptr<KernelScratch> _owned;
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_KERNEL_CONTEXT_HH
