/**
 * @file
 * Unit and property tests for the fixed-point arithmetic that backs
 * the INT32 training path.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/fixed_point.hh"

namespace {

using swiftrl::common::Fixed;
using swiftrl::common::Fixed32;
using swiftrl::common::fixedPointRange;
using swiftrl::common::fixedPointResolution;
using swiftrl::common::descaleByReciprocal;
using swiftrl::common::kDefaultScale;
using swiftrl::common::withDescaleToFloat;

TEST(FixedPoint, DefaultIsZero)
{
    Fixed32 f;
    EXPECT_EQ(f.raw(), 0);
    EXPECT_EQ(f.toReal(), 0.0);
}

TEST(FixedPoint, ScaleMatchesPaper)
{
    EXPECT_EQ(kDefaultScale, 10000);
    EXPECT_EQ(Fixed32::scale, 10000);
}

TEST(FixedPoint, QuantisesKnownValues)
{
    EXPECT_EQ(Fixed32::fromReal(0.1).raw(), 1000);
    EXPECT_EQ(Fixed32::fromReal(0.95).raw(), 9500);
    EXPECT_EQ(Fixed32::fromReal(1.0).raw(), 10000);
    EXPECT_EQ(Fixed32::fromReal(-1.0).raw(), -10000);
    EXPECT_EQ(Fixed32::fromReal(20.0).raw(), 200000);
}

TEST(FixedPoint, RoundsToNearest)
{
    // 0.00004999 * 10000 = 0.4999 -> 0; 0.00005 -> 1.
    EXPECT_EQ(Fixed32::fromReal(0.00004999).raw(), 0);
    EXPECT_EQ(Fixed32::fromReal(0.00005).raw(), 1);
    EXPECT_EQ(Fixed32::fromReal(-0.00005).raw(), -1);
}

TEST(FixedPoint, AdditionIsExact)
{
    const auto a = Fixed32::fromReal(0.25);
    const auto b = Fixed32::fromReal(0.5);
    EXPECT_EQ((a + b).raw(), Fixed32::fromReal(0.75).raw());
}

TEST(FixedPoint, SubtractionIsExact)
{
    const auto a = Fixed32::fromReal(1.0);
    const auto b = Fixed32::fromReal(0.3);
    EXPECT_EQ((a - b).raw(), Fixed32::fromReal(0.7).raw());
}

TEST(FixedPoint, MultiplicationRescales)
{
    // 0.1 * 0.95 = 0.095 exactly representable at scale 10000.
    const auto a = Fixed32::fromReal(0.1);
    const auto b = Fixed32::fromReal(0.95);
    EXPECT_EQ((a * b).raw(), 950);
}

TEST(FixedPoint, MultiplicationOfNegatives)
{
    const auto a = Fixed32::fromReal(-0.5);
    const auto b = Fixed32::fromReal(0.5);
    EXPECT_EQ((a * b).raw(), -2500);
    EXPECT_EQ((a * a).raw(), 2500);
}

TEST(FixedPoint, AdditionSaturatesInsteadOfWrapping)
{
    const auto big =
        Fixed32::fromRaw(std::numeric_limits<std::int32_t>::max());
    const auto sum = big + Fixed32::fromRaw(1);
    EXPECT_EQ(sum.raw(), std::numeric_limits<std::int32_t>::max());

    const auto small =
        Fixed32::fromRaw(std::numeric_limits<std::int32_t>::min());
    const auto diff = small - Fixed32::fromRaw(1);
    EXPECT_EQ(diff.raw(), std::numeric_limits<std::int32_t>::min());
}

TEST(FixedPoint, MultiplicationSaturates)
{
    const auto big =
        Fixed32::fromRaw(std::numeric_limits<std::int32_t>::max());
    const auto prod = big * Fixed32::fromReal(2.0);
    EXPECT_EQ(prod.raw(), std::numeric_limits<std::int32_t>::max());
}

TEST(FixedPoint, NegationHandlesIntMin)
{
    const auto m =
        Fixed32::fromRaw(std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ((-m).raw(), std::numeric_limits<std::int32_t>::max());
}

TEST(FixedPoint, ComparisonOperators)
{
    const auto a = Fixed32::fromReal(0.1);
    const auto b = Fixed32::fromReal(0.2);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(b > a);
    EXPECT_TRUE(a <= a);
    EXPECT_TRUE(a >= a);
    EXPECT_TRUE(a == Fixed32::fromReal(0.1));
}

TEST(FixedPoint, RangeAndResolution)
{
    EXPECT_NEAR(fixedPointRange(10000), 214748.3647, 1e-3);
    EXPECT_DOUBLE_EQ(fixedPointResolution(10000), 1e-4);
    // The paper's environments fit comfortably: |Q| <= r_max/(1-gamma)
    // = 20/(0.05) = 400 for taxi, far below the range.
    EXPECT_GT(fixedPointRange(10000), 400.0);
}

TEST(FixedPoint, AlternativeScalesWork)
{
    using Fixed100 = Fixed<100>;
    EXPECT_EQ(Fixed100::fromReal(0.25).raw(), 25);
    EXPECT_EQ((Fixed100::fromReal(0.5) * Fixed100::fromReal(0.5)).raw(),
              25);
}

/** Property: quantisation error is bounded by half a resolution. */
class FixedRoundtrip : public ::testing::TestWithParam<double>
{
};

TEST_P(FixedRoundtrip, ErrorBounded)
{
    const double v = GetParam();
    const auto f = Fixed32::fromReal(v);
    EXPECT_NEAR(f.toReal(), v, 0.5 / 10000.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FixedRoundtrip,
    ::testing::Values(0.0, 1e-4, -1e-4, 0.1, 0.95, -0.33333, 1.0,
                      -19.99, 20.0, 123.4567, -123.4567, 400.0,
                      -400.0, 1000.123));

/** Property: a + b then - b returns a when no saturation occurs. */
class FixedAddInverse
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(FixedAddInverse, AddThenSubtract)
{
    const auto [x, y] = GetParam();
    const auto a = Fixed32::fromReal(x);
    const auto b = Fixed32::fromReal(y);
    EXPECT_EQ(((a + b) - b).raw(), a.raw());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FixedAddInverse,
    ::testing::Values(std::pair{0.1, 0.95}, std::pair{-5.0, 3.25},
                      std::pair{100.0, -99.5}, std::pair{0.0, 0.0},
                      std::pair{20.0, 20.0}, std::pair{-0.3, -0.7}));

TEST(Descale, ReciprocalOnlyWhereProven)
{
    for (int shift = 0; shift <= 30; ++shift)
        EXPECT_TRUE(descaleByReciprocal(std::int32_t{1} << shift)) << shift;
    EXPECT_TRUE(descaleByReciprocal(kDefaultScale));
    for (const std::int32_t scale : {3, 7, 1000, 9999, 10001, 100000})
        EXPECT_FALSE(descaleByReciprocal(scale)) << scale;
    EXPECT_FALSE(descaleByReciprocal(0));
    EXPECT_FALSE(descaleByReciprocal(-4));
}

TEST(Descale, EqualsTheDivisionAtEveryScale)
{
    // A strided sweep of the int32 range, both ends included; every
    // scale, proven or not, must give the correctly rounded quotient.
    // (test_fixed_point_exhaustive sweeps every int32 for the proven
    // non-power-of-two scales.)
    const auto check = [](std::int32_t scale) {
        withDescaleToFloat(scale, [&](auto descale) {
            std::int64_t mismatches = 0;
            const auto probe = [&](std::int32_t raw) {
                const float want = static_cast<float>(
                    static_cast<double>(raw) / static_cast<double>(scale));
                mismatches += std::bit_cast<std::uint32_t>(descale(raw)) !=
                              std::bit_cast<std::uint32_t>(want);
            };
            for (std::int64_t raw = std::numeric_limits<std::int32_t>::min();
                 raw <= std::numeric_limits<std::int32_t>::max();
                 raw += 65'537)
                probe(static_cast<std::int32_t>(raw));
            probe(std::numeric_limits<std::int32_t>::max());
            for (std::int32_t raw = -100'000; raw <= 100'000; ++raw)
                probe(raw);
            EXPECT_EQ(mismatches, 0) << "scale " << scale;
        });
    };
    for (const std::int32_t scale :
         {1, 2, 128, 1 << 20, 3, 7, 1000, kDefaultScale, 100000})
        check(scale);
}

} // namespace
