/**
 * @file
 * Tests for offline dataset collection and the packed MRAM layouts.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "rlcore/dataset.hh"
#include "rlcore/trainers.hh"
#include "rlenv/frozen_lake.hh"
#include "rlenv/registry.hh"
#include "rlenv/taxi.hh"

namespace {

using swiftrl::rlcore::collectRandomDataset;
using swiftrl::rlcore::Dataset;
using swiftrl::rlcore::PackedTransition;
using swiftrl::rlcore::quantizeReward;
using swiftrl::rlcore::Transition;

TEST(Dataset, AppendAndGetRoundtrip)
{
    Dataset d;
    Transition t;
    t.state = 3;
    t.action = 1;
    t.reward = -0.5f;
    t.nextState = 7;
    t.terminal = true;
    d.append(t);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d.get(0), t);
}

TEST(Dataset, CollectProducesExactCount)
{
    swiftrl::rlenv::FrozenLake env;
    const auto data = collectRandomDataset(env, 5000, 42);
    EXPECT_EQ(data.size(), 5000u);
}

TEST(Dataset, CollectIsDeterministicPerSeed)
{
    swiftrl::rlenv::FrozenLake env_a, env_b;
    const auto a = collectRandomDataset(env_a, 1000, 7);
    const auto b = collectRandomDataset(env_b, 1000, 7);
    for (std::size_t i = 0; i < 1000; ++i)
        ASSERT_EQ(a.get(i), b.get(i));
}

TEST(Dataset, CollectDiffersAcrossSeeds)
{
    swiftrl::rlenv::FrozenLake env_a, env_b;
    const auto a = collectRandomDataset(env_a, 1000, 7);
    const auto b = collectRandomDataset(env_b, 1000, 8);
    int differing = 0;
    for (std::size_t i = 0; i < 1000; ++i)
        differing += a.get(i) == b.get(i) ? 0 : 1;
    EXPECT_GT(differing, 100);
}

TEST(Dataset, TrajectoriesChainUntilTerminal)
{
    swiftrl::rlenv::FrozenLake env;
    const auto data = collectRandomDataset(env, 2000, 3);
    for (std::size_t i = 0; i + 1 < data.size(); ++i) {
        const auto cur = data.get(i);
        const auto nxt = data.get(i + 1);
        if (!cur.terminal && nxt.state != cur.nextState) {
            // A non-terminal break can only be a time-limit
            // truncation restart; FrozenLake restarts at state 0.
            EXPECT_EQ(nxt.state, 0);
        }
        if (cur.terminal) {
            // After termination the next episode starts at 0.
            EXPECT_EQ(nxt.state, 0);
        }
    }
}

TEST(Dataset, CollectCoversStateSpace)
{
    swiftrl::rlenv::FrozenLake env;
    const auto data = collectRandomDataset(env, 20000, 1);
    std::set<swiftrl::rlcore::StateId> visited;
    for (std::size_t i = 0; i < data.size(); ++i)
        visited.insert(data.get(i).state);
    // Random walks reach most reachable tiles (holes/goal are only
    // next-states, never sources).
    EXPECT_GE(visited.size(), 10u);
}

/** Pack [first, first+count) into a fresh buffer. */
std::vector<std::uint8_t>
packFp32(const Dataset &d, std::size_t first, std::size_t count)
{
    std::vector<std::uint8_t> bytes(count * sizeof(PackedTransition));
    d.packFp32(first, count, bytes);
    return bytes;
}

TEST(Dataset, PackFp32Roundtrip)
{
    Dataset d;
    Transition t;
    t.state = 12;
    t.action = 3;
    t.reward = 1.0f;
    t.nextState = 15;
    t.terminal = true;
    d.append(t);

    const auto bytes = packFp32(d, 0, 1);
    ASSERT_EQ(bytes.size(), sizeof(PackedTransition));
    PackedTransition p;
    std::memcpy(&p, bytes.data(), sizeof(p));
    EXPECT_EQ(Dataset::unpackFp32(p), t);
}

TEST(Dataset, PackInt32QuantisesReward)
{
    Dataset d;
    Transition t;
    t.state = 1;
    t.action = 2;
    t.reward = -8.6f;
    t.nextState = 3;
    t.terminal = false;
    d.append(t);

    std::vector<std::uint8_t> bytes(sizeof(PackedTransition));
    d.packInt32(0, 1, 10000, bytes);
    PackedTransition p;
    std::memcpy(&p, bytes.data(), sizeof(p));
    EXPECT_EQ(p.rewardBits, -86000);
    const auto back = Dataset::unpackInt32(p, 10000);
    EXPECT_NEAR(back.reward, -8.6f, 1e-4f);
    EXPECT_EQ(back.state, t.state);
    EXPECT_EQ(back.nextState, t.nextState);
    EXPECT_FALSE(back.terminal);
}

TEST(Dataset, TerminalBitDoesNotCorruptState)
{
    Dataset d;
    Transition t;
    t.state = 0;
    t.action = 0;
    t.reward = 0.0f;
    t.nextState = 499; // taxi's largest state id
    t.terminal = true;
    d.append(t);
    const auto bytes = packFp32(d, 0, 1);
    PackedTransition p;
    std::memcpy(&p, bytes.data(), sizeof(p));
    EXPECT_TRUE(p.nextStateBits & PackedTransition::kTerminalBit);
    EXPECT_EQ(Dataset::unpackFp32(p).nextState, 499);
}

TEST(Dataset, PackRangeSelectsSubsets)
{
    Dataset d;
    for (int i = 0; i < 10; ++i) {
        Transition t;
        t.state = i;
        d.append(t);
    }
    const auto bytes = packFp32(d, 4, 3);
    ASSERT_EQ(bytes.size(), 3 * sizeof(PackedTransition));
    for (int i = 0; i < 3; ++i) {
        PackedTransition p;
        std::memcpy(&p, bytes.data() + static_cast<std::size_t>(i) *
                            sizeof(PackedTransition),
                    sizeof(p));
        EXPECT_EQ(p.state, 4 + i);
    }
}

TEST(Dataset, QuantizeRewardRounds)
{
    EXPECT_EQ(quantizeReward(1.0f, 10000), 10000);
    EXPECT_EQ(quantizeReward(-1.0f, 10000), -10000);
    EXPECT_EQ(quantizeReward(0.00004f, 10000), 0);
    EXPECT_EQ(quantizeReward(0.00006f, 10000), 1);
    EXPECT_EQ(quantizeReward(-0.00006f, 10000), -1);
    EXPECT_EQ(quantizeReward(20.0f, 10000), 200000);
    EXPECT_EQ(quantizeReward(-10.0f, 10000), -100000);
}

TEST(Dataset, TaxiCollectionHasPaperRewardStructure)
{
    swiftrl::rlenv::Taxi env;
    const auto data = collectRandomDataset(env, 20000, 5);
    bool saw_step = false, saw_illegal = false;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const float r = data.get(i).reward;
        ASSERT_TRUE(r == -1.0f || r == -10.0f || r == 20.0f)
            << "unexpected reward " << r;
        saw_step |= r == -1.0f;
        saw_illegal |= r == -10.0f;
    }
    EXPECT_TRUE(saw_step);
    EXPECT_TRUE(saw_illegal);
}

TEST(Dataset, MisfitNamesTheFirstRecordOutsideTheTable)
{
    swiftrl::rlenv::Taxi taxi;
    const auto data = collectRandomDataset(taxi, 2000, 4);
    EXPECT_EQ(swiftrl::rlcore::datasetMisfit(data, 500, 6), "");

    // Taxi's ids do not fit FrozenLake's 16 x 4 table.
    const std::string lake = swiftrl::rlcore::datasetMisfit(data, 16, 4);
    EXPECT_NE(lake.find("-state x 4-action Q-table"), std::string::npos)
        << lake;

    // Each column is checked, negative ids too, and the first bad
    // record is the one named.
    const struct
    {
        Transition bad;
        const char *what;
    } cases[] = {
        {{16, 0, 0.0f, 1, false}, "state 16"},
        {{-1, 0, 0.0f, 1, false}, "state -1"},
        {{0, 4, 0.0f, 1, false}, "action 4"},
        {{0, -2, 0.0f, 1, false}, "action -2"},
        {{0, 0, 0.0f, 16, false}, "next state 16"},
        {{0, 0, 0.0f, 99, true}, "next state 99"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        Dataset d;
        d.append(Transition{1, 1, 0.0f, 2, false});
        d.append(c.bad);
        d.append(Transition{2, 5, 0.0f, 3, false});
        const std::string why = swiftrl::rlcore::datasetMisfit(d, 16, 4);
        EXPECT_EQ(why.rfind("record 1 ", 0), 0u) << why;
        EXPECT_NE(why.find(c.what), std::string::npos) << why;
        // A record range (a scatter lane's chunk) checks only itself,
        // and names records by their index in the whole dataset.
        EXPECT_EQ(swiftrl::rlcore::datasetMisfit(d, 16, 4, 0, 1), "");
        EXPECT_EQ(swiftrl::rlcore::datasetMisfit(d, 16, 4, 1, 1), why);
        EXPECT_EQ(
            swiftrl::rlcore::datasetMisfit(d, 16, 4, 2, 1).rfind(
                "record 2 (state 2, action 5", 0),
            0u);
    }
}

TEST(DatasetDeath, PackOutOfRangePanics)
{
    Dataset d;
    d.append(Transition{});
    std::vector<std::uint8_t> bytes(2 * sizeof(PackedTransition));
    EXPECT_DEATH(d.packFp32(0, 2, bytes), "out of bounds");
}

TEST(DatasetDeath, PackIntoWrongSizedBufferPanics)
{
    Dataset d;
    d.append(Transition{});
    d.append(Transition{});
    std::vector<std::uint8_t> bytes(sizeof(PackedTransition));
    EXPECT_DEATH(d.packFp32(0, 2, bytes), "not 2 records");
    EXPECT_DEATH(d.packInt32(0, 2, 10000, bytes), "not 2 records");
}

TEST(DatasetDeath, GetOutOfRangePanics)
{
    Dataset d;
    EXPECT_DEATH((void)d.get(0), "out of range");
}

} // namespace
