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

#include <algorithm>
#include <array>
#include <string>

#include "common/logging.hh"
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

    /**
     * reset() when @p done, else nothing, without a branch: the
     * rollout's episode restart (rlenv/rollout.hh), possible because
     * this reset draws nothing. Returns the current state.
     */
    StateId restartIf(bool done);

    /** Tile character ('S','F','H','G') at a state (tests, render). */
    static constexpr char
    tileAt(StateId state)
    {
        SWIFTRL_ASSERT(state >= 0 && state < kStates,
                       "state ", state, " out of range");
        return kMap[static_cast<std::size_t>(state)];
    }

    /** True when @p state is a hole or the goal. */
    static constexpr bool
    isTerminal(StateId state)
    {
        const char t = tileAt(state);
        return t == 'H' || t == 'G';
    }

    /**
     * Deterministic single-direction move used to build the dynamics:
     * clamps at the grid border (the agent bumps into the wall).
     */
    static constexpr StateId
    moveFrom(StateId state, ActionId direction)
    {
        SWIFTRL_ASSERT(direction >= 0 && direction < kActions,
                       "invalid FrozenLake action ", direction);
        // Offsets of Left, Down, Right, Up, clamped at the walls.
        constexpr std::array<StateId, kActions> kRowStep = {0, 1, 0, -1};
        constexpr std::array<StateId, kActions> kColStep = {-1, 0, 1, 0};
        const auto d = static_cast<std::size_t>(direction);
        const StateId row = std::clamp<StateId>(
            state / kSide + kRowStep[d], 0, kSide - 1);
        const StateId col = std::clamp<StateId>(
            state % kSide + kColStep[d], 0, kSide - 1);
        return row * kSide + col;
    }

    /**
     * The direction actually taken when @p action slips by slip draw
     * @p pick in [0, 3): Gym slides uniformly among {a-1, a, a+1}
     * (mod 4), the intended direction or either perpendicular.
     */
    static constexpr ActionId
    slide(ActionId action, ActionId pick)
    {
        return (action + (pick - 1) + kActions) % kActions;
    }

    /** Grid side length. */
    static constexpr StateId kSide = 4;

    /** Number of states. */
    static constexpr StateId kStates = kSide * kSide;

    /** Number of actions. */
    static constexpr ActionId kActions = 4;

    /**
     * Entry (@p state, @p direction) of the dynamics table step()
     * reads, by the direction actually taken (after the slip). Both
     * must be in range (unchecked).
     */
    static const Outcome &outcome(StateId state, ActionId direction);

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
