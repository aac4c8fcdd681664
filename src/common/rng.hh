/**
 * @file
 * Random number generators.
 *
 * Two families are provided:
 *  - Lcg32: the linear congruential generator SwiftRL implements as a
 *    custom PIM routine, because the C standard library's rand() is not
 *    available on UPMEM DPUs (Sec. 3.2.1). Kernels running inside the
 *    simulated PIM cores must use this generator so the simulation
 *    exercises the same arithmetic the paper's DPU code does.
 *  - SplitMix64 / XorShift128: fast host-side generators used for
 *    dataset collection, environment dynamics, and evaluation rollouts.
 *
 * All generators are deterministic given a seed; every experiment in
 * this repository reports its seeds.
 */

#ifndef SWIFTRL_COMMON_RNG_HH
#define SWIFTRL_COMMON_RNG_HH

#include <cstdint>

#include "common/logging.hh"

namespace swiftrl::common {

/**
 * 32-bit linear congruential generator with the Numerical Recipes
 * constants, replicating the custom rand() routine SwiftRL runs on the
 * PIM cores. One multiply + one add per draw — cheap even on hardware
 * that emulates 32-bit multiplication.
 */
class Lcg32
{
  public:
    explicit Lcg32(std::uint32_t seed = 1u) : _state(seed) {}

    /** Next raw 32-bit draw. */
    std::uint32_t
    next()
    {
        _state = _state * 1664525u + 1013904223u;
        return _state;
    }

    /**
     * Uniform draw in [0, bound) using the high bits (the low bits of
     * an LCG have short periods).
     *
     * @param bound exclusive upper bound; must be > 0.
     */
    std::uint32_t
    nextBounded(std::uint32_t bound)
    {
        const std::uint64_t wide =
            static_cast<std::uint64_t>(next()) * bound;
        return static_cast<std::uint32_t>(wide >> 32);
    }

    /** Uniform real draw in [0, 1). */
    double
    nextReal()
    {
        return static_cast<double>(next()) * (1.0 / 4294967296.0);
    }

    /** Current internal state (for checkpointing / tests). */
    std::uint32_t state() const { return _state; }

    /** Reseed the generator. */
    void seed(std::uint32_t s) { _state = s; }

  private:
    std::uint32_t _state;
};

/**
 * SplitMix64: robust seeding/stream-splitting generator. Used to derive
 * independent per-core and per-agent seeds from one experiment seed.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : _state(seed)
    {}

    /** Next 64-bit draw. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t _state;
};

/**
 * xorshift128+ host generator: fast, good-quality stream for Monte
 * Carlo environment dynamics and sampling.
 */
class XorShift128
{
  public:
    /** Seed via SplitMix64 so any 64-bit seed yields a good state. */
    explicit XorShift128(std::uint64_t seed = 0xdeadbeefcafef00dull);

    /** Next 64-bit draw. */
    std::uint64_t
    next()
    {
        std::uint64_t x = _s0;
        const std::uint64_t y = _s1;
        _s0 = y;
        x ^= x << 23;
        _s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        return _s1 + y;
    }

    /**
     * Uniform draw in [0, bound) with Lemire rejection (unbiased), in
     * the "nearly divisionless" form: the rejection threshold
     * (2^64 - bound) % bound is below bound, so a draw whose low
     * product word is at least bound is accepted without computing
     * it. Draws consumed and values returned are those of always
     * computing the threshold first.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        SWIFTRL_ASSERT(bound > 0, "nextBounded requires a positive bound");
        unsigned __int128 wide =
            static_cast<unsigned __int128>(next()) * bound;
        if (static_cast<std::uint64_t>(wide) < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (static_cast<std::uint64_t>(wide) < threshold)
                wide = static_cast<unsigned __int128>(next()) * bound;
        }
        return static_cast<std::uint64_t>(wide >> 64);
    }

    /** Uniform real draw in [0, 1): 53 random mantissa bits. */
    double
    nextReal()
    {
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** Derive an independent child generator (for per-worker streams). */
    XorShift128 split();

  private:
    std::uint64_t _s0;
    std::uint64_t _s1;
};

} // namespace swiftrl::common

#endif // SWIFTRL_COMMON_RNG_HH
