/**
 * @file
 * The Q-learning and SARSA update rules, written once and shared by
 * the CPU reference trainers and the PIM kernels.
 *
 * Every function is a template over an `Ops` provider that supplies
 * the arithmetic primitives. Two providers exist:
 *
 *  - HostOps (below): computes at native speed, charges nothing —
 *    the CPU reference implementation;
 *  - swiftrl::PricedOps: computes the *identical* values (through
 *    HostOps) while charging each op's class to the simulated DPU's
 *    charge ledger.
 *
 * Because both providers execute the same expression tree in the same
 * order (including the LCG random streams), a single-core PIM run is
 * bit-identical to the CPU reference — a property the integration
 * tests assert. The INT32 rules reproduce the paper's fixed-point
 * scaling optimisation: constants and rewards pre-scaled by `scale`,
 * products widened to 64 bits, rescaled with truncating division.
 */

#ifndef SWIFTRL_RLCORE_UPDATE_RULES_HH
#define SWIFTRL_RLCORE_UPDATE_RULES_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/rng.hh"
#include "rlcore/types.hh"

namespace swiftrl::rlcore {

/**
 * Cost-free arithmetic provider for host-side reference training, and
 * the functional half of swiftrl::PricedOps, which computes through it
 * (including wrap-around integer casts and the LCG bounded-draw
 * reduction).
 */
struct HostOps
{
    common::Lcg32 lcg;

    float fadd(float a, float b) { return a + b; }
    float fsub(float a, float b) { return a - b; }
    float fmul(float a, float b) { return a * b; }
    bool fgt(float a, float b) { return a > b; }

    std::int32_t
    iadd(std::int32_t a, std::int32_t b)
    {
        return static_cast<std::int32_t>(
            static_cast<std::int64_t>(a) + static_cast<std::int64_t>(b));
    }

    std::int32_t
    isub(std::int32_t a, std::int32_t b)
    {
        return static_cast<std::int32_t>(
            static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b));
    }

    std::int64_t
    imul32(std::int32_t a, std::int32_t b)
    {
        return static_cast<std::int64_t>(a) *
               static_cast<std::int64_t>(b);
    }

    std::int32_t
    rescale(std::int64_t value, std::int32_t scale)
    {
        return static_cast<std::int32_t>(value / scale);
    }

    std::int64_t
    imulSmall(std::int32_t a, std::int32_t b)
    {
        return static_cast<std::int64_t>(a) *
               static_cast<std::int64_t>(b);
    }

    std::int32_t
    rescaleShift(std::int64_t value, int shift)
    {
        return static_cast<std::int32_t>(value >> shift);
    }

    bool igt(std::int32_t a, std::int32_t b) { return a > b; }

    float wramLoadF32(const float &slot) { return slot; }
    void wramStoreF32(float &slot, float v) { slot = v; }
    std::int32_t wramLoadI32(const std::int32_t &slot) { return slot; }
    void wramStoreI32(std::int32_t &slot, std::int32_t v) { slot = v; }

    void aluOps(std::uint64_t) {}
    void branch(std::uint64_t = 1) {}

    void lcgSeed(std::uint32_t seed) { lcg.seed(seed); }
    std::uint32_t lcgNext() { return lcg.next(); }

    std::uint32_t
    lcgNextBounded(std::uint32_t bound)
    {
        return lcg.nextBounded(bound);
    }
};

/** Scaled hyper-parameters for the INT32 fixed-point rules. */
struct ScaledHyper
{
    std::int32_t alphaScaled; ///< round(alpha * scale)
    std::int32_t gammaScaled; ///< round(gamma * scale)
    std::int32_t scale;       ///< the paper's constant, 10,000
    std::int32_t epsilonMilli; ///< round(epsilon * 1000), SARSA only

    /** Quantise hyper-parameters the way the PIM host code would. */
    static ScaledHyper
    fromHyper(const Hyper &h)
    {
        ScaledHyper s;
        s.scale = h.scale;
        s.alphaScaled = static_cast<std::int32_t>(
            static_cast<double>(h.alpha) * h.scale + 0.5);
        s.gammaScaled = static_cast<std::int32_t>(
            static_cast<double>(h.gamma) * h.scale + 0.5);
        s.epsilonMilli = static_cast<std::int32_t>(
            static_cast<double>(h.epsilon) * 1000.0 + 0.5);
        return s;
    }
};

/**
 * Power-of-two scaled hyper-parameters for the INT8 custom-multiply
 * path. The scale is 1 << shift; alpha and gamma must quantise into
 * 8-bit operands (the optimisation's applicability condition).
 */
struct ScaledHyperPow2
{
    std::int32_t alphaScaled; ///< round(alpha * 2^shift), <= 127
    std::int32_t gammaScaled; ///< round(gamma * 2^shift), <= 127
    int shift;                ///< scale exponent
    std::int32_t epsilonMilli;

    /** The scale value, 1 << shift. */
    std::int32_t scale() const { return 1 << shift; }

    static ScaledHyperPow2
    fromHyper(const Hyper &h)
    {
        SWIFTRL_ASSERT(h.int8Shift > 0 && h.int8Shift <= 7,
                       "int8Shift must keep scaled constants in 8 "
                       "bits");
        ScaledHyperPow2 s;
        s.shift = h.int8Shift;
        const double scale = static_cast<double>(1 << h.int8Shift);
        s.alphaScaled = static_cast<std::int32_t>(
            static_cast<double>(h.alpha) * scale + 0.5);
        s.gammaScaled = static_cast<std::int32_t>(
            static_cast<double>(h.gamma) * scale + 0.5);
        SWIFTRL_ASSERT(s.alphaScaled <= 127 && s.gammaScaled <= 127,
                       "scaled alpha/gamma exceed the 8-bit operand");
        s.epsilonMilli = static_cast<std::int32_t>(
            static_cast<double>(h.epsilon) * 1000.0 + 0.5);
        return s;
    }
};

// --- FP32 rules -------------------------------------------------------

/**
 * The step every FP32 rule ends with once its bootstrap is known:
 *   slot += alpha * (r + gamma * bootstrap - slot)
 * Shared with the PIM kernels' functional batch lanes, which compute
 * the bootstrap their own way.
 */
template <typename Ops>
inline void
stepFp32(Ops &ops, float &slot, float r, float bootstrap, float alpha,
         float gamma)
{
    const float target = ops.fadd(r, ops.fmul(gamma, bootstrap));
    const float old_q = ops.wramLoadF32(slot);
    const float delta = ops.fsub(target, old_q);
    const float new_q = ops.fadd(old_q, ops.fmul(alpha, delta));
    ops.wramStoreF32(slot, new_q);
}

/** max_a Q(row[a]) with priced loads and compares. */
template <typename Ops>
inline float
maxQFp32(Ops &ops, const float *row, ActionId num_actions)
{
    float best = ops.wramLoadF32(row[0]);
    for (ActionId a = 1; a < num_actions; ++a) {
        const float v =
            ops.wramLoadF32(row[static_cast<std::size_t>(a)]);
        if (ops.fgt(v, best))
            best = v;
        ops.branch();
    }
    return best;
}

/** argmax_a Q(row[a]), ties to the lowest index. */
template <typename Ops>
inline ActionId
argmaxFp32(Ops &ops, const float *row, ActionId num_actions)
{
    ActionId best = 0;
    float best_v = ops.wramLoadF32(row[0]);
    for (ActionId a = 1; a < num_actions; ++a) {
        const float v =
            ops.wramLoadF32(row[static_cast<std::size_t>(a)]);
        if (ops.fgt(v, best_v)) {
            best_v = v;
            best = a;
        }
        ops.branch();
    }
    return best;
}

/**
 * One tabular Q-learning update (Algorithm 1, line 12) in FP32:
 *   Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))
 *
 * @param q row-major Q-table of num_actions columns.
 */
template <typename Ops>
inline void
qlearningUpdateFp32(Ops &ops, float *q, ActionId num_actions,
                    StateId s, ActionId a, float r, StateId s2,
                    bool terminal, float alpha, float gamma)
{
    // Row addressing: one multiply-free shift/add pair per row.
    ops.aluOps(2);
    float *row_s = q + static_cast<std::size_t>(s) *
                           static_cast<std::size_t>(num_actions);
    const float *row_n = q + static_cast<std::size_t>(s2) *
                                 static_cast<std::size_t>(num_actions);

    float bootstrap = 0.0f;
    ops.branch();
    if (!terminal)
        bootstrap = maxQFp32(ops, row_n, num_actions);

    stepFp32(ops, row_s[static_cast<std::size_t>(a)], r, bootstrap,
             alpha, gamma);
}

/**
 * One SARSA update (Equation 1) in FP32. The next action a' is drawn
 * epsilon-greedily from Q(s', .) with the PIM-side LCG: the random
 * stream is part of the algorithm's definition here, so CPU and PIM
 * runs stay comparable.
 */
template <typename Ops>
inline void
sarsaUpdateFp32(Ops &ops, float *q, ActionId num_actions, StateId s,
                ActionId a, float r, StateId s2, bool terminal,
                float alpha, float gamma, std::int32_t epsilon_milli)
{
    ops.aluOps(2);
    float *row_s = q + static_cast<std::size_t>(s) *
                           static_cast<std::size_t>(num_actions);
    const float *row_n = q + static_cast<std::size_t>(s2) *
                                 static_cast<std::size_t>(num_actions);

    float bootstrap = 0.0f;
    ops.branch();
    if (!terminal) {
        // Epsilon-greedy next action via the custom LCG rand().
        ActionId a2;
        const auto draw = ops.lcgNextBounded(1000);
        ops.branch();
        if (static_cast<std::int32_t>(draw) < epsilon_milli) {
            a2 = static_cast<ActionId>(ops.lcgNextBounded(
                static_cast<std::uint32_t>(num_actions)));
        } else {
            a2 = argmaxFp32(ops, row_n, num_actions);
        }
        bootstrap =
            ops.wramLoadF32(row_n[static_cast<std::size_t>(a2)]);
    }

    stepFp32(ops, row_s[static_cast<std::size_t>(a)], r, bootstrap,
             alpha, gamma);
}

// --- INT32 fixed-point rules -------------------------------------------

/**
 * The INT32 rules' step: the two products (gamma * bootstrap and
 * alpha * delta) widen to 64 bits and rescale with truncating
 * division. Shared like stepFp32.
 */
template <typename Ops>
inline void
stepInt32(Ops &ops, std::int32_t &slot, std::int32_t r_scaled,
          std::int32_t bootstrap, const ScaledHyper &scaled)
{
    const std::int32_t discounted = ops.rescale(
        ops.imul32(scaled.gammaScaled, bootstrap), scaled.scale);
    const std::int32_t target = ops.iadd(r_scaled, discounted);
    const std::int32_t old_q = ops.wramLoadI32(slot);
    const std::int32_t delta = ops.isub(target, old_q);
    const std::int32_t step = ops.rescale(
        ops.imul32(scaled.alphaScaled, delta), scaled.scale);
    ops.wramStoreI32(slot, ops.iadd(old_q, step));
}

/** max_a over a raw fixed-point row with native integer compares. */
template <typename Ops>
inline std::int32_t
maxQInt32(Ops &ops, const std::int32_t *row, ActionId num_actions)
{
    std::int32_t best = ops.wramLoadI32(row[0]);
    for (ActionId a = 1; a < num_actions; ++a) {
        const std::int32_t v =
            ops.wramLoadI32(row[static_cast<std::size_t>(a)]);
        if (ops.igt(v, best))
            best = v;
        ops.branch();
    }
    return best;
}

/** argmax_a over a raw fixed-point row, ties to the lowest index. */
template <typename Ops>
inline ActionId
argmaxInt32(Ops &ops, const std::int32_t *row, ActionId num_actions)
{
    ActionId best = 0;
    std::int32_t best_v = ops.wramLoadI32(row[0]);
    for (ActionId a = 1; a < num_actions; ++a) {
        const std::int32_t v =
            ops.wramLoadI32(row[static_cast<std::size_t>(a)]);
        if (ops.igt(v, best_v)) {
            best_v = v;
            best = a;
        }
        ops.branch();
    }
    return best;
}

/**
 * One Q-learning update in the paper's INT32 fixed-point arithmetic:
 * every operand lives pre-scaled by `scaled.scale`; the two products
 * (gamma * bootstrap and alpha * delta) widen to 64 bits and rescale
 * with truncating division.
 *
 * @param q row-major raw fixed-point Q-table.
 * @param r_scaled reward already scaled up on the host.
 */
template <typename Ops>
inline void
qlearningUpdateInt32(Ops &ops, std::int32_t *q, ActionId num_actions,
                     StateId s, ActionId a, std::int32_t r_scaled,
                     StateId s2, bool terminal,
                     const ScaledHyper &scaled)
{
    ops.aluOps(2);
    std::int32_t *row_s = q + static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(num_actions);
    const std::int32_t *row_n =
        q + static_cast<std::size_t>(s2) *
                static_cast<std::size_t>(num_actions);

    std::int32_t bootstrap = 0;
    ops.branch();
    if (!terminal)
        bootstrap = maxQInt32(ops, row_n, num_actions);

    stepInt32(ops, row_s[static_cast<std::size_t>(a)], r_scaled,
              bootstrap, scaled);
}

/** One SARSA update in INT32 fixed point (see FP32 variant). */
template <typename Ops>
inline void
sarsaUpdateInt32(Ops &ops, std::int32_t *q, ActionId num_actions,
                 StateId s, ActionId a, std::int32_t r_scaled,
                 StateId s2, bool terminal, const ScaledHyper &scaled)
{
    ops.aluOps(2);
    std::int32_t *row_s = q + static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(num_actions);
    const std::int32_t *row_n =
        q + static_cast<std::size_t>(s2) *
                static_cast<std::size_t>(num_actions);

    std::int32_t bootstrap = 0;
    ops.branch();
    if (!terminal) {
        ActionId a2;
        const auto draw = ops.lcgNextBounded(1000);
        ops.branch();
        if (static_cast<std::int32_t>(draw) < scaled.epsilonMilli) {
            a2 = static_cast<ActionId>(ops.lcgNextBounded(
                static_cast<std::uint32_t>(num_actions)));
        } else {
            a2 = argmaxInt32(ops, row_n, num_actions);
        }
        bootstrap =
            ops.wramLoadI32(row_n[static_cast<std::size_t>(a2)]);
    }

    stepInt32(ops, row_s[static_cast<std::size_t>(a)], r_scaled,
              bootstrap, scaled);
}

// --- INT8 custom-multiply rules (Sec. 3.2.1 optional optimisation) ----

/**
 * The INT8 rules' step: narrow multiplies, rescale by an arithmetic
 * shift. Shared like stepFp32.
 */
template <typename Ops>
inline void
stepInt8(Ops &ops, std::int32_t &slot, std::int32_t r_scaled,
         std::int32_t bootstrap, const ScaledHyperPow2 &scaled)
{
    const std::int32_t discounted = ops.rescaleShift(
        ops.imulSmall(bootstrap, scaled.gammaScaled), scaled.shift);
    const std::int32_t target = ops.iadd(r_scaled, discounted);
    const std::int32_t old_q = ops.wramLoadI32(slot);
    const std::int32_t delta = ops.isub(target, old_q);
    const std::int32_t step = ops.rescaleShift(
        ops.imulSmall(delta, scaled.alphaScaled), scaled.shift);
    ops.wramStoreI32(slot, ops.iadd(old_q, step));
}

/**
 * Q-learning update with the 8-bit-multiplier path: same fixed-point
 * structure as the INT32 rule, but the two products use the narrow
 * multiply (native 8-bit hardware) and the rescale is a single
 * arithmetic shift (power-of-two scale). Floor division in the shift
 * replaces the INT32 rule's truncation toward zero — an accepted
 * quantisation difference of the optimisation.
 */
template <typename Ops>
inline void
qlearningUpdateInt8(Ops &ops, std::int32_t *q, ActionId num_actions,
                    StateId s, ActionId a, std::int32_t r_scaled,
                    StateId s2, bool terminal,
                    const ScaledHyperPow2 &scaled)
{
    ops.aluOps(2);
    std::int32_t *row_s = q + static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(num_actions);
    const std::int32_t *row_n =
        q + static_cast<std::size_t>(s2) *
                static_cast<std::size_t>(num_actions);

    std::int32_t bootstrap = 0;
    ops.branch();
    if (!terminal)
        bootstrap = maxQInt32(ops, row_n, num_actions);

    stepInt8(ops, row_s[static_cast<std::size_t>(a)], r_scaled,
             bootstrap, scaled);
}

/** SARSA update with the 8-bit-multiplier path. */
template <typename Ops>
inline void
sarsaUpdateInt8(Ops &ops, std::int32_t *q, ActionId num_actions,
                StateId s, ActionId a, std::int32_t r_scaled,
                StateId s2, bool terminal,
                const ScaledHyperPow2 &scaled)
{
    ops.aluOps(2);
    std::int32_t *row_s = q + static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(num_actions);
    const std::int32_t *row_n =
        q + static_cast<std::size_t>(s2) *
                static_cast<std::size_t>(num_actions);

    std::int32_t bootstrap = 0;
    ops.branch();
    if (!terminal) {
        ActionId a2;
        const auto draw = ops.lcgNextBounded(1000);
        ops.branch();
        if (static_cast<std::int32_t>(draw) < scaled.epsilonMilli) {
            a2 = static_cast<ActionId>(ops.lcgNextBounded(
                static_cast<std::uint32_t>(num_actions)));
        } else {
            a2 = argmaxInt32(ops, row_n, num_actions);
        }
        bootstrap =
            ops.wramLoadI32(row_n[static_cast<std::size_t>(a2)]);
    }

    stepInt8(ops, row_s[static_cast<std::size_t>(a)], r_scaled,
             bootstrap, scaled);
}

} // namespace swiftrl::rlcore

#endif // SWIFTRL_RLCORE_UPDATE_RULES_HH
