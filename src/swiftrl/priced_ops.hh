/**
 * @file
 * The priced DPU operations: which op class each arithmetic, WRAM,
 * control-flow and LCG helper of a kernel costs. This is the one place
 * that mapping is written.
 *
 * PricedOps is an ops provider for the update-rule templates in
 * rlcore/update_rules.hh: each helper computes its value through
 * rlcore::HostOps (so it is bit-identical to the CPU reference) and
 * charges its op classes to a *charge sink* — any type with
 * `chargeBulk(pimsim::OpClass, std::uint64_t)`. The batch
 * interpreter's calibration instantiates it over an op counter; the
 * test oracle's per-core kernel over a lane's pimsim::KernelContext.
 *
 * The helpers keep the kernel's operand-range assertions (a zero
 * rescale divisor, INT8 operands that do not fit the narrow multiply),
 * so a kernel dies on exactly the inputs the DPU program could not
 * compute.
 */

#ifndef SWIFTRL_SWIFTRL_PRICED_OPS_HH
#define SWIFTRL_SWIFTRL_PRICED_OPS_HH

#include <cstdint>

#include "common/logging.hh"
#include "pimsim/op_class.hh"
#include "rlcore/update_rules.hh"

namespace swiftrl {

/** Priced ops over charge sink @p Sink. See file comment. */
template <typename Sink>
class PricedOps
{
  public:
    /** @param sink receives every charge; must outlive the ops. */
    explicit PricedOps(Sink &sink) : _sink(&sink) {}

    /** The sink the charges go to. */
    Sink &sink() { return *_sink; }

    // --- priced arithmetic ----------------------------------------

    /** FP32 add (runtime-emulated on the modelled hardware). */
    float
    fadd(float a, float b)
    {
        charge(Op::Fp32Add);
        return _host.fadd(a, b);
    }

    /** FP32 subtract (same emulation cost class as add). */
    float
    fsub(float a, float b)
    {
        charge(Op::Fp32Add);
        return _host.fsub(a, b);
    }

    /** FP32 multiply. */
    float
    fmul(float a, float b)
    {
        charge(Op::Fp32Mul);
        return _host.fmul(a, b);
    }

    /** FP32 divide. */
    float
    fdiv(float a, float b)
    {
        charge(Op::Fp32Div);
        return a / b;
    }

    /** FP32 greater-than compare. */
    bool
    fgt(float a, float b)
    {
        charge(Op::Fp32Cmp);
        return _host.fgt(a, b);
    }

    /** Native 32-bit integer add. */
    std::int32_t
    iadd(std::int32_t a, std::int32_t b)
    {
        charge(Op::IntAlu);
        return _host.iadd(a, b);
    }

    /** Native 32-bit integer subtract. */
    std::int32_t
    isub(std::int32_t a, std::int32_t b)
    {
        charge(Op::IntAlu);
        return _host.isub(a, b);
    }

    /** Emulated 32-bit integer multiply (shift-and-add sequence). */
    std::int64_t
    imul32(std::int32_t a, std::int32_t b)
    {
        charge(Op::Int32Mul);
        return _host.imul32(a, b);
    }

    /** Emulated 32-bit integer divide. */
    std::int32_t
    idiv32(std::int32_t a, std::int32_t b)
    {
        SWIFTRL_ASSERT(b != 0, "integer division by zero in kernel");
        charge(Op::Int32Div);
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
        charge(Op::Int32Mul);
        charge(Op::IntAlu, 2);
        return _host.rescale(value, scale);
    }

    /** Native 8-bit multiply. */
    std::int32_t
    imul8(std::int8_t a, std::int8_t b)
    {
        charge(Op::Int8Mul);
        return static_cast<std::int32_t>(a) *
               static_cast<std::int32_t>(b);
    }

    /**
     * Narrow multiply for the INT8 kernel path: a 16-bit-or-less
     * value times an 8-bit-or-less constant, composed from two
     * native 8-bit multiplies (low/high byte of a) plus shift/add
     * glue. Fatal when the operands do not fit the narrow
     * composition — the "limited value range" caveat of Sec. 3.2.1
     * enforced at runtime.
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
        charge(Op::Int8Mul, 2);
        charge(Op::IntAlu, 2);
        return _host.imulSmall(a, b);
    }

    /**
     * Power-of-two rescale: a single arithmetic right shift (floor
     * division), one native instruction.
     */
    std::int32_t
    rescaleShift(std::int64_t value, int shift)
    {
        SWIFTRL_ASSERT(shift >= 0 && shift < 31, "bad shift ", shift);
        charge(Op::IntAlu);
        return _host.rescaleShift(value, shift);
    }

    /** Native integer greater-than compare. */
    bool
    igt(std::int32_t a, std::int32_t b)
    {
        charge(Op::IntAlu);
        return _host.igt(a, b);
    }

    // --- WRAM and control flow ------------------------------------

    /** WRAM load of one 32-bit word held in @p slot. */
    std::int32_t
    wramLoadI32(const std::int32_t &slot)
    {
        charge(Op::WramAccess);
        return slot;
    }

    /** WRAM store of one 32-bit word into @p slot. */
    void
    wramStoreI32(std::int32_t &slot, std::int32_t value)
    {
        charge(Op::WramAccess);
        slot = value;
    }

    /** WRAM load of one FP32 word. */
    float
    wramLoadF32(const float &slot)
    {
        charge(Op::WramAccess);
        return slot;
    }

    /** WRAM store of one FP32 word. */
    void
    wramStoreF32(float &slot, float value)
    {
        charge(Op::WramAccess);
        slot = value;
    }

    /** Loop/branch bookkeeping instruction. */
    void branch(std::uint64_t count = 1) { charge(Op::Branch, count); }

    /** Generic charge for address arithmetic etc. */
    void aluOps(std::uint64_t count) { charge(Op::IntAlu, count); }

    // --- PIM-side RNG ---------------------------------------------
    //
    // Kernels draw randomness from the linear congruential generator
    // SwiftRL implements on the DPUs (rand() does not exist there).

    /** Seed the core-local LCG (one ALU op). */
    void
    lcgSeed(std::uint32_t seed)
    {
        charge(Op::IntAlu);
        _host.lcgSeed(seed);
    }

    /**
     * Bounded LCG draw in [0, bound): the custom rand() routine of
     * SwiftRL Sec. 3.2.1 — state = state * A + C, one emulated 32-bit
     * multiply and one add — then a high-bits reduction, one more
     * emulated multiply plus a shift.
     */
    std::uint32_t
    lcgNextBounded(std::uint32_t bound)
    {
        SWIFTRL_ASSERT(bound > 0,
                       "lcgNextBounded requires a positive bound");
        charge(Op::Int32Mul, 2);
        charge(Op::IntAlu, 2);
        return _host.lcgNextBounded(bound);
    }

  protected:
    using Op = pimsim::OpClass;

    void
    charge(Op op, std::uint64_t count = 1)
    {
        _sink->chargeBulk(op, count);
    }

    Sink *_sink;

    /** The functional half: values and the LCG stream. */
    rlcore::HostOps _host;
};

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_PRICED_OPS_HH
