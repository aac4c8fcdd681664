/**
 * @file
 * Test oracle: the computed step rules of the three fixed-map
 * environments (see env_steps.cc). Not part of the library —
 * production steps read each environment's compiled outcome table;
 * the tests compare every entry of it with these rules.
 */

#ifndef SWIFTRL_TESTS_ORACLE_ENV_STEPS_HH
#define SWIFTRL_TESTS_ORACLE_ENV_STEPS_HH

#include "rlenv/environment.hh"

namespace swiftrl::oracle {

/** Taxi-v3: @p action from @p state. */
rlenv::Outcome taxiStep(rlenv::StateId state, rlenv::ActionId action);

/**
 * FrozenLake 4x4: @p action from @p state. On slippery ice @p pick,
 * the step's nextBounded(3) slip draw, picks the direction taken;
 * otherwise it is ignored.
 */
rlenv::Outcome frozenLakeStep(rlenv::StateId state, rlenv::ActionId action,
                              bool slippery, int pick);

/** CliffWalking 4x12: @p action from @p state. */
rlenv::Outcome cliffWalkingStep(rlenv::StateId state,
                                rlenv::ActionId action);

} // namespace swiftrl::oracle

#endif // SWIFTRL_TESTS_ORACLE_ENV_STEPS_HH
