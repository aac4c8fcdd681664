/**
 * @file
 * Tests for the Q-table container and aggregation helpers.
 */

#include <gtest/gtest.h>

#include "rlcore/qtable.hh"
#include "rlcore/trainers.hh"

namespace {

using swiftrl::rlcore::QTable;

TEST(QTable, ZeroInitialised)
{
    QTable q(16, 4);
    EXPECT_EQ(q.numStates(), 16);
    EXPECT_EQ(q.numActions(), 4);
    EXPECT_EQ(q.entryCount(), 64u);
    EXPECT_EQ(q.byteSize(), 256u);
    for (int s = 0; s < 16; ++s)
        for (int a = 0; a < 4; ++a)
            ASSERT_EQ(q.at(s, a), 0.0f);
}

TEST(QTable, SetAndGet)
{
    QTable q(4, 3);
    q.at(2, 1) = 0.5f;
    EXPECT_FLOAT_EQ(q.at(2, 1), 0.5f);
    EXPECT_FLOAT_EQ(q.at(1, 2), 0.0f);
}

TEST(QTable, RowMajorLayout)
{
    QTable q(3, 2);
    q.at(1, 0) = 7.0f;
    EXPECT_FLOAT_EQ(q.values()[2], 7.0f);
}

TEST(QTable, MaxValue)
{
    QTable q(2, 4);
    q.at(0, 0) = -1.0f;
    q.at(0, 1) = 3.0f;
    q.at(0, 2) = 2.0f;
    q.at(0, 3) = -5.0f;
    EXPECT_FLOAT_EQ(q.maxValue(0), 3.0f);
    EXPECT_FLOAT_EQ(q.maxValue(1), 0.0f);
}

TEST(QTable, GreedyActionBreaksTiesLow)
{
    QTable q(1, 4);
    EXPECT_EQ(q.greedyAction(0), 0); // all zero: lowest index
    q.at(0, 2) = 1.0f;
    q.at(0, 3) = 1.0f;
    EXPECT_EQ(q.greedyAction(0), 2);
}

TEST(QTable, InitArbitraryIsSmallAndReproducible)
{
    QTable a(8, 4), b(8, 4);
    a.initArbitrary(5);
    b.initArbitrary(5);
    bool any_nonzero = false;
    for (std::size_t i = 0; i < a.entryCount(); ++i) {
        ASSERT_EQ(a.values()[i], b.values()[i]);
        ASSERT_GE(a.values()[i], 0.0f);
        ASSERT_LT(a.values()[i], 0.01f);
        any_nonzero |= a.values()[i] != 0.0f;
    }
    EXPECT_TRUE(any_nonzero);
}

TEST(QTable, SetZeroClears)
{
    QTable q(2, 2);
    q.initArbitrary(1);
    q.setZero();
    for (const float v : q.values())
        ASSERT_EQ(v, 0.0f);
}

TEST(QTable, FixedPointRoundtripIsExactForRepresentables)
{
    QTable q(2, 2);
    q.at(0, 0) = 0.5f;
    q.at(0, 1) = -8.6f;
    q.at(1, 0) = 20.0f;
    q.at(1, 1) = 0.0001f;
    std::vector<std::int32_t> raw;
    for (const float v : q.values())
        raw.push_back(swiftrl::rlcore::quantizeReward(v, 10000));
    const auto back = QTable::fromFixed(2, 2, raw, 10000);
    EXPECT_FLOAT_EQ(back.at(0, 0), 0.5f);
    EXPECT_NEAR(back.at(0, 1), -8.6f, 1e-4);
    EXPECT_FLOAT_EQ(back.at(1, 0), 20.0f);
    EXPECT_FLOAT_EQ(back.at(1, 1), 0.0001f);
}

TEST(QTable, AverageOfIdenticalTablesIsNearIdentity)
{
    QTable q(4, 4);
    q.initArbitrary(9);
    // sum-then-scale averaging of n identical values reproduces the
    // value up to one float rounding step.
    const auto avg = QTable::average({q, q, q});
    EXPECT_LT(QTable::maxAbsDifference(avg, q), 1e-7f);
}

TEST(QTable, AverageIsElementwiseMean)
{
    QTable a(1, 2), b(1, 2);
    a.at(0, 0) = 2.0f;
    a.at(0, 1) = -4.0f;
    b.at(0, 0) = 4.0f;
    b.at(0, 1) = 4.0f;
    const auto avg = QTable::average({a, b});
    EXPECT_FLOAT_EQ(avg.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(avg.at(0, 1), 0.0f);
}

TEST(QTable, AverageOfSingleIsExact)
{
    QTable q(3, 3);
    q.initArbitrary(2);
    const auto avg = QTable::average({q});
    for (std::size_t i = 0; i < q.entryCount(); ++i)
        ASSERT_EQ(avg.values()[i], q.values()[i]);
}

TEST(QTable, MaxAbsValueAndDifference)
{
    QTable a(1, 3), b(1, 3);
    a.at(0, 0) = -7.0f;
    a.at(0, 2) = 5.0f;
    EXPECT_FLOAT_EQ(a.maxAbsValue(), 7.0f);
    b.at(0, 0) = -6.0f;
    EXPECT_FLOAT_EQ(QTable::maxAbsDifference(a, b), 5.0f);
}

TEST(QTable, FromFloatsCopies)
{
    const std::vector<float> vals{1, 2, 3, 4, 5, 6};
    const auto q = QTable::fromFloats(2, 3, vals);
    EXPECT_FLOAT_EQ(q.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(q.at(1, 2), 6.0f);
}

TEST(QTableDeath, OutOfRangeAccessPanics)
{
    QTable q(2, 2);
    EXPECT_DEATH((void)q.at(2, 0), "out of range");
    EXPECT_DEATH((void)q.at(0, 2), "out of range");
    EXPECT_DEATH((void)q.at(-1, 0), "out of range");
}

TEST(QTableDeath, ShapeMismatchInAveragePanics)
{
    QTable a(2, 2), b(2, 3);
    EXPECT_DEATH((void)QTable::average({a, b}), "shape mismatch");
}

} // namespace
