/**
 * @file
 * Fixed-point arithmetic used by the INT32 PIM kernels.
 *
 * SwiftRL (Sec. 3.2.1) sidesteps the cost of runtime-emulated FP32 on
 * UPMEM DPUs by scaling the reward, learning rate, and discount factor
 * with a constant scale factor of 10,000, computing the Q-update in
 * 32-bit integers, and descaling before results leave the PIM core.
 * Fixed32 reproduces that arithmetic bit-for-bit on the host so the
 * simulated kernels and the CPU reference implementations share one
 * definition of the quantised update.
 */

#ifndef SWIFTRL_COMMON_FIXED_POINT_HH
#define SWIFTRL_COMMON_FIXED_POINT_HH

#include <cstdint>
#include <limits>

namespace swiftrl::common {

/** The paper's constant scale factor for INT32 training. */
inline constexpr std::int32_t kDefaultScale = 10000;

/**
 * A 32-bit fixed-point value with a compile-time decimal scale.
 *
 * The representation of a real value x is round(x * Scale) stored in an
 * int32_t. Multiplication widens to 64 bits for the intermediate
 * product, divides by Scale, and saturates on overflow — mirroring the
 * shift-and-add emulation path the UPMEM runtime uses for 32-bit
 * multiplies (which our cost model charges separately).
 */
template <std::int32_t Scale = kDefaultScale>
class Fixed
{
  public:
    static_assert(Scale > 0, "scale factor must be positive");

    /** Scale factor exposed for kernels that descale manually. */
    static constexpr std::int32_t scale = Scale;

    constexpr Fixed() = default;

    /** Construct from a raw, already-scaled integer representation. */
    static constexpr Fixed
    fromRaw(std::int32_t raw)
    {
        Fixed f;
        f._raw = raw;
        return f;
    }

    /** Quantise a real value (rounds to nearest, ties away from 0). */
    static constexpr Fixed
    fromReal(double value)
    {
        const double scaled = value * static_cast<double>(Scale);
        const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
        return fromRaw(saturateToInt32(rounded));
    }

    /** Raw scaled integer representation. */
    constexpr std::int32_t raw() const { return _raw; }

    /** Convert back to a real value (the "descale" step). */
    constexpr double
    toReal() const
    {
        return static_cast<double>(_raw) / static_cast<double>(Scale);
    }

    /** Convert to float, matching the PIM-side descale-to-FP32 path. */
    constexpr float
    toFloat() const
    {
        return static_cast<float>(_raw) / static_cast<float>(Scale);
    }

    constexpr Fixed
    operator+(Fixed other) const
    {
        return fromRaw(saturatingAdd(_raw, other._raw));
    }

    constexpr Fixed
    operator-(Fixed other) const
    {
        return fromRaw(saturatingAdd(_raw, negate(other._raw)));
    }

    /**
     * Fixed-point multiply: widen, multiply, rescale with rounding.
     * Matches (a * b) / Scale computed in 64-bit then saturated.
     */
    constexpr Fixed
    operator*(Fixed other) const
    {
        const std::int64_t prod =
            static_cast<std::int64_t>(_raw) *
            static_cast<std::int64_t>(other._raw);
        const std::int64_t half = Scale / 2;
        const std::int64_t rescaled =
            prod >= 0 ? (prod + half) / Scale : (prod - half) / Scale;
        return fromRaw(saturateToInt32Wide(rescaled));
    }

    constexpr Fixed
    operator-() const
    {
        return fromRaw(negate(_raw));
    }

    constexpr bool operator==(const Fixed &) const = default;

    constexpr bool operator<(Fixed other) const { return _raw < other._raw; }
    constexpr bool operator>(Fixed other) const { return _raw > other._raw; }
    constexpr bool operator<=(Fixed o) const { return _raw <= o._raw; }
    constexpr bool operator>=(Fixed o) const { return _raw >= o._raw; }

  private:
    static constexpr std::int32_t
    saturateToInt32(double v)
    {
        constexpr double lo = std::numeric_limits<std::int32_t>::min();
        constexpr double hi = std::numeric_limits<std::int32_t>::max();
        if (v <= lo)
            return std::numeric_limits<std::int32_t>::min();
        if (v >= hi)
            return std::numeric_limits<std::int32_t>::max();
        return static_cast<std::int32_t>(v);
    }

    static constexpr std::int32_t
    saturateToInt32Wide(std::int64_t v)
    {
        constexpr std::int64_t lo = std::numeric_limits<std::int32_t>::min();
        constexpr std::int64_t hi = std::numeric_limits<std::int32_t>::max();
        if (v < lo)
            return std::numeric_limits<std::int32_t>::min();
        if (v > hi)
            return std::numeric_limits<std::int32_t>::max();
        return static_cast<std::int32_t>(v);
    }

    static constexpr std::int32_t
    saturatingAdd(std::int32_t a, std::int32_t b)
    {
        return saturateToInt32Wide(static_cast<std::int64_t>(a) +
                                   static_cast<std::int64_t>(b));
    }

    static constexpr std::int32_t
    negate(std::int32_t a)
    {
        if (a == std::numeric_limits<std::int32_t>::min())
            return std::numeric_limits<std::int32_t>::max();
        return -a;
    }

    std::int32_t _raw = 0;
};

/** The paper's configuration: 32-bit fixed point, scale 10,000. */
using Fixed32 = Fixed<kDefaultScale>;

/**
 * Maximum absolute real value representable at a given scale before an
 * int32 overflows. Useful for asserting the environment's reward range
 * stays inside the safe region (the paper chose 10,000 "to prevent
 * overflow and underflow errors").
 */
double fixedPointRange(std::int32_t scale_factor);

/** Quantisation step (smallest representable increment) at a scale. */
double fixedPointResolution(std::int32_t scale_factor);

/**
 * Non-power-of-two scales whose reciprocal descale is proven to match
 * the division for every int32: `float(double(raw) * (1.0 / scale))`
 * has the same bits as `float(double(raw) / scale)` for all 2^32 raw
 * values. test_fixed_point_exhaustive sweeps every int32 for each
 * entry; add a scale here only together with that sweep passing.
 */
inline constexpr std::int32_t kReciprocalDescaleScales[] = {kDefaultScale};

/**
 * Whether the descale of @p scale may multiply by the reciprocal: a
 * power of two (the product is exact, as is the quotient) or one of
 * kReciprocalDescaleScales.
 */
constexpr bool
descaleByReciprocal(std::int32_t scale)
{
    if (scale > 0 && (scale & (scale - 1)) == 0)
        return true;
    for (const std::int32_t proven : kReciprocalDescaleScales)
        if (proven == scale)
            return true;
    return false;
}

/**
 * The host's descale of raw fixed point to FP32, resolved once per
 * scale: calls fn(descale), where descale(raw) is
 * `float(double(raw) / double(scale))` bit for bit — the correctly
 * rounded quotient, exact for every int32 — but computed as a multiply
 * by the reciprocal where descaleByReciprocal(scale) proves the bits
 * equal, since a divide costs several multiplies. The choice is made
 * outside fn, so a loop in fn runs without a per-value branch.
 * @return what fn returns.
 */
template <typename Fn>
decltype(auto)
withDescaleToFloat(std::int32_t scale, Fn &&fn)
{
    const double s = static_cast<double>(scale);
    if (descaleByReciprocal(scale)) {
        const double inv = 1.0 / s;
        return fn([inv](std::int32_t raw) {
            return static_cast<float>(static_cast<double>(raw) * inv);
        });
    }
    return fn([s](std::int32_t raw) {
        return static_cast<float>(static_cast<double>(raw) / s);
    });
}

} // namespace swiftrl::common

#endif // SWIFTRL_COMMON_FIXED_POINT_HH
