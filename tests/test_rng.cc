/**
 * @file
 * Tests for the random number generators, in particular the LCG that
 * stands in for rand() on the PIM cores.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "common/rng.hh"

namespace {

using swiftrl::common::Lcg32;
using swiftrl::common::SplitMix64;
using swiftrl::common::XorShift128;

TEST(Lcg32, MatchesNumericalRecipesConstants)
{
    Lcg32 lcg(0);
    // state = 0 * 1664525 + 1013904223
    EXPECT_EQ(lcg.next(), 1013904223u);
    // next step from that state
    EXPECT_EQ(lcg.next(), 1013904223u * 1664525u + 1013904223u);
}

TEST(Lcg32, DeterministicAcrossInstances)
{
    Lcg32 a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Lcg32, SeedResetsTheStream)
{
    Lcg32 a(7);
    const auto first = a.next();
    a.next();
    a.seed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Lcg32, StateExposesTheStream)
{
    Lcg32 a(99);
    a.next();
    const auto s = a.state();
    Lcg32 b(s);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Lcg32, BoundedStaysInBounds)
{
    Lcg32 lcg(42);
    for (int i = 0; i < 10000; ++i) {
        const auto v = lcg.nextBounded(6);
        ASSERT_LT(v, 6u);
    }
}

TEST(Lcg32, BoundedCoversTheRange)
{
    Lcg32 lcg(42);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(lcg.nextBounded(4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Lcg32, BoundedIsRoughlyUniform)
{
    Lcg32 lcg(7);
    std::array<int, 8> histogram{};
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++histogram[lcg.nextBounded(8)];
    for (const int count : histogram) {
        EXPECT_GT(count, draws / 8 * 0.9);
        EXPECT_LT(count, draws / 8 * 1.1);
    }
}

TEST(Lcg32, RealsAreInUnitInterval)
{
    Lcg32 lcg(3);
    for (int i = 0; i < 10000; ++i) {
        const double v = lcg.nextReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(SplitMix64, KnownFirstOutput)
{
    // Reference value for seed 0 from the published SplitMix64.
    SplitMix64 mix(0);
    EXPECT_EQ(mix.next(), 0xe220a8397b1dcdafull);
}

TEST(XorShift128, Deterministic)
{
    XorShift128 a(5), b(5);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(XorShift128, DifferentSeedsDiverge)
{
    XorShift128 a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(XorShift128, BoundedIsUnbiased)
{
    XorShift128 rng(11);
    std::array<int, 3> histogram{};
    const int draws = 90000;
    for (int i = 0; i < draws; ++i)
        ++histogram[rng.nextBounded(3)];
    for (const int count : histogram) {
        EXPECT_GT(count, draws / 3 * 0.95);
        EXPECT_LT(count, draws / 3 * 1.05);
    }
}

TEST(XorShift128, RealsCoverUnitInterval)
{
    XorShift128 rng(13);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(XorShift128, SplitYieldsIndependentStream)
{
    XorShift128 parent(17);
    XorShift128 child = parent.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += parent.next() == child.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

/**
 * The always-modulo form of Lemire's bounded draw: the threshold is
 * computed before every draw. nextBounded skips that modulo unless
 * the low product word is below the bound, and must consume the same
 * draws and return the same values.
 */
std::uint64_t
boundedAlwaysModulo(XorShift128 &rng, std::uint64_t bound)
{
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
        const unsigned __int128 wide =
            static_cast<unsigned __int128>(rng.next()) * bound;
        if (static_cast<std::uint64_t>(wide) >= threshold)
            return static_cast<std::uint64_t>(wide >> 64);
    }
}

/** Raw draws taken to get from @p before to @p after (-1: > 64). */
int
drawsBetween(XorShift128 before, const XorShift128 &after)
{
    for (int k = 0; k <= 64; ++k) {
        XorShift128 a = before, b = after;
        if (a.next() == b.next() && a.next() == b.next())
            return k;
        before.next();
    }
    return -1;
}

TEST(XorShift128, BoundedMatchesAlwaysModuloForm)
{
    // Small bounds, the 32-bit edges, and 2^63 + 1, whose threshold
    // rejects close to half of all draws.
    const std::uint64_t bounds[] = {
        1, 2, 3, 4, 6, 500,
        0xffffffffull,         // 2^32 - 1
        0x100000001ull,        // 2^32 + 1
        0x8000000000000001ull, // 2^63 + 1
        0xffffffffffffffffull, // 2^64 - 1
    };
    std::uint64_t rejections = 0;
    for (const std::uint64_t seed : {1ull, 7ull, 42ull, 0xdeadbeefull}) {
        for (const std::uint64_t bound : bounds) {
            XorShift128 fast(seed), reference(seed);
            for (int i = 0; i < 4000; ++i) {
                const XorShift128 before = reference;
                ASSERT_EQ(fast.nextBounded(bound),
                          boundedAlwaysModulo(reference, bound))
                    << "seed " << seed << " bound " << bound
                    << " draw " << i;
                // Same stream position: the next raw draw agrees.
                XorShift128 fast_next = fast, reference_next = reference;
                ASSERT_EQ(fast_next.next(), reference_next.next())
                    << "seed " << seed << " bound " << bound
                    << " draw " << i;
                if (drawsBetween(before, reference) > 1)
                    ++rejections;
            }
        }
    }
    // The large bounds must actually have exercised the rejection
    // loop (a draw that consumed more than one raw value).
    EXPECT_GT(rejections, 0u);
}

/** Property: bounded draws stay below every bound in a sweep. */
class BoundedSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BoundedSweep, LcgAndXorShiftRespectBound)
{
    const std::uint32_t bound = GetParam();
    Lcg32 lcg(1);
    XorShift128 xs(1);
    for (int i = 0; i < 2000; ++i) {
        ASSERT_LT(lcg.nextBounded(bound), bound);
        ASSERT_LT(xs.nextBounded(bound), bound);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoundedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 16u,
                                           500u, 1000u, 1000000u));

} // namespace
