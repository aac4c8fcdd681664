/**
 * @file
 * Core value types shared by every RL component: experience tuples,
 * hyper-parameters, sampling strategies, and numeric formats.
 */

#ifndef SWIFTRL_RLCORE_TYPES_HH
#define SWIFTRL_RLCORE_TYPES_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/fixed_point.hh"
#include "rlenv/environment.hh"

namespace swiftrl::rlcore {

using rlenv::ActionId;
using rlenv::StateId;

/**
 * One experience tuple D_i = (s_i, a_i, r_i, s'_i), the unit of
 * offline RL training data (SwiftRL Sec. 2.1).
 */
struct Transition
{
    StateId state = 0;
    ActionId action = 0;
    float reward = 0.0f;
    StateId nextState = 0;

    /**
     * True when s' is terminal, i.e. no bootstrapped future value.
     * Stored alongside the tuple so the learners can zero the
     * bootstrap term for terminal transitions.
     */
    bool terminal = false;

    bool operator==(const Transition &) const = default;
};

/** How the learner walks its chunk of experiences (SwiftRL Sec. 3.2). */
enum class Sampling
{
    Seq, ///< sequential pass over the chunk
    Ran, ///< uniform random draws (exploration-heavy replay)
    Str, ///< stride-based walk at a fixed interval
};

/** Numeric format of the Q-update arithmetic. */
enum class NumericFormat
{
    Fp32,  ///< 32-bit floating point (emulated on the modelled PIM)
    Int32, ///< 32-bit fixed point with the paper's scaling optimisation
    /**
     * Fixed point with a power-of-two scale small enough that the
     * multiplier operands fit the DPU's *native 8-bit multiplier*
     * (the optional UPMEM-specific optimisation of Sec. 3.2.1:
     * "replacing the compiler-generated ... multiplications with
     * custom 8-bit built-in multiplications"). Applies only to
     * environments whose value range fits the narrow operands; the
     * trainer checks and refuses otherwise.
     */
    Int8,
};

/** Short tag ("SEQ"/"RAN"/"STR") for reports. */
const char *samplingName(Sampling s);

/** Parse "seq"/"ran"/"str" (case-insensitive); nullopt otherwise. */
std::optional<Sampling> parseSampling(std::string_view name);

/** Short tag ("FP32"/"INT32") for reports. */
const char *numericFormatName(NumericFormat f);

/** Parse "fp32"/"int32"/"int8" (case-insensitive); nullopt
 *  otherwise. */
std::optional<NumericFormat> parseNumericFormat(std::string_view name);

/** Training hyper-parameters (paper defaults, Sec. 4.1). */
struct Hyper
{
    /** Learning rate alpha. */
    float alpha = 0.1f;

    /** Discount factor gamma. */
    float gamma = 0.95f;

    /** Training episodes (one sweep of the chunk per episode). */
    int episodes = 2000;

    /**
     * Epsilon for SARSA's epsilon-greedy next-action selection. The
     * paper does not report its value; 0.05 reproduces its SARSA
     * training-quality band on the slippery frozen lake (Sec. 4.2),
     * where 0.1 noticeably degrades the greedy policy.
     */
    float epsilon = 0.05f;

    /** Stride for Sampling::Str (paper: 4). */
    int stride = 4;

    /** Fixed-point scale factor for NumericFormat::Int32. */
    std::int32_t scale = common::kDefaultScale;

    /**
     * Power-of-two scale exponent for NumericFormat::Int8: the scale
     * is 1 << int8Shift (default 128 — the largest whose scaled alpha
     * and gamma still fit 8-bit multiplier operands). The coarse
     * 1/128 step caps the resolvable value gaps: deterministic
     * environments train at full quality, the slippery lake loses
     * some (see bench/ext_int8_multiply).
     */
    int int8Shift = 7;

    /** Seed for all stochastic components of a training run. */
    std::uint64_t seed = 42;
};

} // namespace swiftrl::rlcore

#endif // SWIFTRL_RLCORE_TYPES_HH
