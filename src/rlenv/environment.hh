/**
 * @file
 * Abstract episodic environment interface, mirroring the OpenAI Gym
 * discrete-environment contract (reset/step, Discrete observation and
 * action spaces, termination vs. time-limit truncation).
 */

#ifndef SWIFTRL_RLENV_ENVIRONMENT_HH
#define SWIFTRL_RLENV_ENVIRONMENT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.hh"

namespace swiftrl::rlenv {

/** Discrete state/action index type. */
using StateId = std::int32_t;

/** Discrete action index type. */
using ActionId = std::int32_t;

/** Outcome of one environment step. */
struct StepResult
{
    /** State observed after the transition. */
    StateId nextState = 0;

    /** Reward emitted by the transition. */
    float reward = 0.0f;

    /** Episode ended by reaching a terminal state. */
    bool terminated = false;

    /** Episode ended by hitting the step limit (Gym "truncated"). */
    bool truncated = false;

    /**
     * True when the episode is over for either reason. Both flags are
     * always computed, so this is a bitwise or: the short-circuit form
     * made GCC branch on each flag in the rollout loop and keep one of
     * them on the stack across the reset.
     */
    bool done() const { return terminated | truncated; }
};

/**
 * One (state, move) entry of a fixed-map environment's dynamics
 * table: where the move lands, what it pays, and whether it ends the
 * episode. The tables are compiled from each environment's rules
 * (constexpr), so a step is one load.
 */
struct Outcome
{
    StateId nextState = 0;
    float reward = 0.0f;
    bool terminated = false;
};

/**
 * The result of the @p steps-th step of an episode landing on @p o:
 * truncated (Gym TimeLimit) when it reaches @p limit without
 * terminating.
 */
constexpr StepResult
outcomeStep(const Outcome &o, int steps, int limit)
{
    return {o.nextState, o.reward, o.terminated,
            static_cast<bool>(!o.terminated & (steps >= limit))};
}

/**
 * The dynamics table of a fixed map with @p States states and
 * @p Moves moves: entry state * Moves + move is rule(state, move).
 */
template <StateId States, ActionId Moves, typename Rule>
constexpr std::array<Outcome, static_cast<std::size_t>(States) * Moves>
compileOutcomes(Rule rule)
{
    std::array<Outcome, static_cast<std::size_t>(States) * Moves> table{};
    for (StateId s = 0; s < States; ++s)
        for (ActionId m = 0; m < Moves; ++m)
            table[static_cast<std::size_t>(s) * Moves +
                  static_cast<std::size_t>(m)] = rule(s, m);
    return table;
}

/** A behaviour policy: state (+ rollout RNG) -> action. */
using ActionPolicy =
    std::function<ActionId(StateId, common::XorShift128 &)>;

/**
 * Caller-owned columns a rollout fills: entry i of each is the i-th
 * logged transition (s, a, r, s', terminal).
 */
struct RolloutColumns
{
    StateId *states;
    ActionId *actions;
    float *rewards;
    StateId *nextStates;
    std::uint8_t *terminals;
};

/**
 * An episodic MDP with Discrete(numStates) observations and
 * Discrete(numActions) actions. Stochasticity is injected through the
 * caller-owned RNG so rollouts are reproducible and parallelisable.
 */
class Environment
{
  public:
    virtual ~Environment() = default;

    /** Environment name (registry key). */
    virtual std::string name() const = 0;

    /** Size of the Discrete observation space. */
    virtual StateId numStates() const = 0;

    /** Size of the Discrete action space. */
    virtual ActionId numActions() const = 0;

    /** Gym TimeLimit: steps after which an episode truncates. */
    virtual int maxEpisodeSteps() const = 0;

    /** Begin a new episode; returns the initial state. */
    virtual StateId reset(common::XorShift128 &rng) = 0;

    /**
     * Apply @p action from the current state.
     * Panics if called on a finished episode (call reset first).
     */
    virtual StepResult step(ActionId action,
                            common::XorShift128 &rng) = 0;

    /** State the environment is currently in. */
    virtual StateId currentState() const = 0;

    /**
     * Log @p count transitions into @p out: reset, then per step an
     * action from @p policy (a uniform draw when it is null), the
     * step's dynamics draws, and a reset whenever the episode ends.
     * Every draw comes from @p rng, which is left after the last one.
     * Concrete environments inherit this from RolloutEnvironment.
     */
    virtual void rollout(const ActionPolicy *policy, std::size_t count,
                         common::XorShift128 &rng,
                         const RolloutColumns &out) = 0;
};

/**
 * CRTP base of every concrete environment: implements rollout() once,
 * calling Derived::reset/step non-virtually so one collection costs
 * one virtual call rather than one per step. The loop body lives in
 * rlenv/rollout.hh; each environment's .cc instantiates it next to
 * its own step() so that step inlines into the loop, and its header
 * declares the instantiation extern.
 */
template <typename Derived>
class RolloutEnvironment : public Environment
{
  public:
    void rollout(const ActionPolicy *policy, std::size_t count,
                 common::XorShift128 &rng,
                 const RolloutColumns &out) final;
};

} // namespace swiftrl::rlenv

#endif // SWIFTRL_RLENV_ENVIRONMENT_HH
