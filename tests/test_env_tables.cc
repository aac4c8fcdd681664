/**
 * @file
 * The compiled dynamics tables of Taxi, FrozenLake and CliffWalking
 * against the computed step rules they replaced (tests/oracle): every
 * (state, move) entry, every FrozenLake slip draw, the named map
 * cases, and seeded walks through step() itself.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hh"
#include "oracle/env_steps.hh"
#include "rlenv/cliff_walking.hh"
#include "rlenv/frozen_lake.hh"
#include "rlenv/taxi.hh"

namespace {

using swiftrl::common::XorShift128;
using swiftrl::rlenv::ActionId;
using swiftrl::rlenv::CliffWalking;
using swiftrl::rlenv::FrozenLake;
using swiftrl::rlenv::Outcome;
using swiftrl::rlenv::StateId;
using swiftrl::rlenv::StepResult;
using swiftrl::rlenv::Taxi;
namespace oracle = swiftrl::oracle;

void
expectSame(const Outcome &table, const Outcome &rule)
{
    EXPECT_EQ(table.nextState, rule.nextState);
    EXPECT_EQ(table.reward, rule.reward);
    EXPECT_EQ(table.terminated, rule.terminated);
}

TEST(EnvTables, EveryTaxiEntryMatchesTheRule)
{
    for (StateId s = 0; s < Taxi::kStates; ++s) {
        for (ActionId a = 0; a < Taxi::kActions; ++a) {
            SCOPED_TRACE(testing::Message() << "state " << s << " action "
                                            << a);
            expectSame(Taxi::outcome(s, a), oracle::taxiStep(s, a));
        }
    }
}

TEST(EnvTables, EveryFrozenLakeEntryMatchesTheRuleForEverySlipDraw)
{
    for (StateId s = 0; s < FrozenLake::kStates; ++s) {
        for (ActionId a = 0; a < FrozenLake::kActions; ++a) {
            SCOPED_TRACE(testing::Message() << "state " << s << " action "
                                            << a);
            expectSame(FrozenLake::outcome(s, a),
                       oracle::frozenLakeStep(s, a, false, 0));
            for (int pick = 0; pick < 3; ++pick) {
                SCOPED_TRACE(testing::Message() << "slip draw " << pick);
                expectSame(FrozenLake::outcome(s, FrozenLake::slide(a, pick)),
                           oracle::frozenLakeStep(s, a, true, pick));
            }
        }
    }
}

TEST(EnvTables, EveryCliffWalkingEntryMatchesTheRule)
{
    for (StateId s = 0; s < CliffWalking::kStates; ++s) {
        for (ActionId a = 0; a < CliffWalking::kActions; ++a) {
            SCOPED_TRACE(testing::Message() << "state " << s << " action "
                                            << a);
            expectSame(CliffWalking::outcome(s, a),
                       oracle::cliffWalkingStep(s, a));
        }
    }
}

TEST(EnvTables, TaxiWallsPickupsAndDropoffs)
{
    // East out of (0, 1) hits the wall right of R's column; West out
    // of (0, 2) hits it from the other side; both stay put.
    const StateId r0c1 = Taxi::encode(0, 1, 2, 3);
    expectSame(Taxi::outcome(r0c1, Taxi::East), {r0c1, -1.0f, false});
    const StateId r0c2 = Taxi::encode(0, 2, 2, 3);
    expectSame(Taxi::outcome(r0c2, Taxi::West), {r0c2, -1.0f, false});
    // Pickup at the passenger's landmark (Y) boards them; elsewhere
    // it is illegal.
    expectSame(Taxi::outcome(Taxi::encode(4, 0, 2, 3), Taxi::Pickup),
               {Taxi::encode(4, 0, Taxi::kInTaxi, 3), -1.0f, false});
    const StateId away = Taxi::encode(2, 2, 2, 3);
    expectSame(Taxi::outcome(away, Taxi::Pickup), {away, -10.0f, false});
    // Dropoff at the destination (B) ends the episode with +20; at
    // another landmark (G) it strands the passenger there; off any
    // landmark it is illegal.
    const StateId atB = Taxi::encode(4, 3, Taxi::kInTaxi, 3);
    expectSame(Taxi::outcome(atB, Taxi::Dropoff),
               {Taxi::encode(4, 3, 3, 3), 20.0f, true});
    const StateId atG = Taxi::encode(0, 4, Taxi::kInTaxi, 3);
    expectSame(Taxi::outcome(atG, Taxi::Dropoff),
               {Taxi::encode(0, 4, 1, 3), -1.0f, false});
    const StateId aboard = Taxi::encode(2, 2, Taxi::kInTaxi, 3);
    expectSame(Taxi::outcome(aboard, Taxi::Dropoff),
               {aboard, -10.0f, false});
}

TEST(EnvTables, FrozenLakeHolesGoalAndBorders)
{
    // Down from 1 falls into the hole at 5; Right from 14 reaches the
    // goal; Left from the start bumps the border.
    expectSame(FrozenLake::outcome(1, FrozenLake::Down), {5, 0.0f, true});
    expectSame(FrozenLake::outcome(14, FrozenLake::Right),
               {15, 1.0f, true});
    expectSame(FrozenLake::outcome(0, FrozenLake::Left), {0, 0.0f, false});
    // The slip draw picks a-1, a, a+1 (mod 4).
    EXPECT_EQ(FrozenLake::slide(FrozenLake::Left, 0), FrozenLake::Up);
    EXPECT_EQ(FrozenLake::slide(FrozenLake::Left, 1), FrozenLake::Left);
    EXPECT_EQ(FrozenLake::slide(FrozenLake::Left, 2), FrozenLake::Down);
}

TEST(EnvTables, CliffTeleportsAndGoalTerminates)
{
    // Right from the start steps onto the cliff: -100 and back to the
    // start, not terminal. Down from above the goal reaches it.
    expectSame(CliffWalking::outcome(CliffWalking::kStart,
                                     CliffWalking::Right),
               {CliffWalking::kStart, -100.0f, false});
    expectSame(CliffWalking::outcome(CliffWalking::kGoal - 12,
                                     CliffWalking::Down),
               {CliffWalking::kGoal, -1.0f, true});
    expectSame(CliffWalking::outcome(0, CliffWalking::Up), {0, -1.0f, false});
}

/**
 * Walk @p env for @p steps uniform-random actions, checking each
 * step() against @p rule(state, action, draws) — where draws is a
 * copy of the generator taken before the step, from which the rule
 * takes the step's own draws — and that step() consumed exactly those
 * draws and truncated at the limit.
 */
template <typename Env, typename Rule>
void
walkAgainstRule(Env &env, Rule rule, int steps, std::uint64_t seed)
{
    XorShift128 rng(seed);
    StateId state = env.reset(rng);
    int inEpisode = 0;
    for (int i = 0; i < steps; ++i) {
        const auto action = static_cast<ActionId>(
            rng.nextBounded(static_cast<std::uint64_t>(env.numActions())));
        XorShift128 draws = rng;
        const Outcome expected = rule(state, action, draws);
        const StepResult r = env.step(action, rng);
        ++inEpisode;
        ASSERT_EQ(r.nextState, expected.nextState) << "step " << i;
        ASSERT_EQ(r.reward, expected.reward) << "step " << i;
        ASSERT_EQ(r.terminated, expected.terminated) << "step " << i;
        ASSERT_EQ(r.truncated, !expected.terminated &&
                                   inEpisode >= env.maxEpisodeSteps())
            << "step " << i;
        ASSERT_EQ(rng.next(), draws.next())
            << "step " << i << " consumed other draws";
        state = r.nextState;
        if (r.done()) {
            state = env.reset(rng);
            inEpisode = 0;
        }
    }
}

TEST(EnvTables, StepWalksMatchTheRules)
{
    Taxi taxi;
    walkAgainstRule(
        taxi,
        [](StateId s, ActionId a, XorShift128 &) {
            return oracle::taxiStep(s, a);
        },
        50000, 3);
    for (const bool slippery : {true, false}) {
        SCOPED_TRACE(slippery ? "slippery" : "deterministic");
        FrozenLake lake(slippery);
        walkAgainstRule(
            lake,
            [slippery](StateId s, ActionId a, XorShift128 &draws) {
                const int pick =
                    slippery ? static_cast<int>(draws.nextBounded(3)) : 0;
                return oracle::frozenLakeStep(s, a, slippery, pick);
            },
            50000, 5);
    }
    CliffWalking cliff;
    walkAgainstRule(
        cliff,
        [](StateId s, ActionId a, XorShift128 &) {
            return oracle::cliffWalkingStep(s, a);
        },
        50000, 7);
}

} // namespace
