/**
 * @file
 * FrozenLake: the 4x4 grid-world from OpenAI Gym used throughout
 * SwiftRL's evaluation. The agent walks from S to G on a frozen lake;
 * holes (H) terminate the episode with zero reward, the goal pays 1.
 * On slippery ice the agent moves in the intended direction with
 * probability 1/3 and slides to each perpendicular direction with
 * probability 1/3 (Gym's is_slippery=True dynamics).
 */

#ifndef SWIFTRL_RLENV_FROZEN_LAKE_HH
#define SWIFTRL_RLENV_FROZEN_LAKE_HH

#include <array>
#include <string>

#include "rlenv/environment.hh"

namespace swiftrl::rlenv {

/** FrozenLake 4x4 (Discrete(16) states, Discrete(4) actions). */
class FrozenLake final : public RolloutEnvironment<FrozenLake>
{
  public:
    /** Action encoding, identical to Gym. */
    enum Action : ActionId { Left = 0, Down = 1, Right = 2, Up = 3 };

    /**
     * @param slippery Gym's is_slippery: when true, motion is
     *        stochastic (1/3 intended, 1/3 each perpendicular).
     */
    explicit FrozenLake(bool slippery = true);

    std::string name() const override;
    StateId numStates() const override { return kStates; }
    ActionId numActions() const override { return kActions; }
    int maxEpisodeSteps() const override { return 100; }

    StateId reset(common::XorShift128 &rng) override;
    StepResult step(ActionId action, common::XorShift128 &rng) override;
    StateId currentState() const override { return _state; }

    /** Tile character ('S','F','H','G') at a state (tests, render). */
    char tileAt(StateId state) const;

    /** True when @p state is a hole or the goal. */
    bool isTerminal(StateId state) const;

    /**
     * Deterministic single-direction move used to build the dynamics:
     * clamps at the grid border (the agent bumps into the wall).
     */
    static StateId moveFrom(StateId state, ActionId direction);

    /** Grid side length. */
    static constexpr StateId kSide = 4;

    /** Number of states. */
    static constexpr StateId kStates = kSide * kSide;

    /** Number of actions. */
    static constexpr ActionId kActions = 4;

  private:
    /** The standard Gym 4x4 map, row-major. */
    static constexpr std::array<char, kStates> kMap = {
        'S', 'F', 'F', 'F',
        'F', 'H', 'F', 'H',
        'F', 'F', 'F', 'H',
        'H', 'F', 'F', 'G',
    };

    bool _slippery;
    StateId _state = 0;
    int _steps = 0;
    bool _episodeDone = true;
};

extern template class RolloutEnvironment<FrozenLake>;

} // namespace swiftrl::rlenv

#endif // SWIFTRL_RLENV_FROZEN_LAKE_HH
