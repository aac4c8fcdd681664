/**
 * @file
 * CliffWalking: the classic 4x12 tabular benchmark (Sutton & Barto
 * Example 6.6; Gym CliffWalking-v0). Not part of SwiftRL's
 * evaluation, but a standard third environment for a tabular-RL
 * library — and the canonical setting where Q-learning's and SARSA's
 * learned policies *differ* (Q-learning walks the cliff edge, SARSA
 * detours), which the integration tests exercise.
 *
 * The agent starts at the bottom-left, the goal is bottom-right, and
 * the cells between them are a cliff: stepping in costs -100 and
 * teleports the agent back to the start (no termination). Every step
 * costs -1; reaching the goal terminates.
 */

#ifndef SWIFTRL_RLENV_CLIFF_WALKING_HH
#define SWIFTRL_RLENV_CLIFF_WALKING_HH

#include <string>

#include "rlenv/environment.hh"

namespace swiftrl::rlenv {

/** CliffWalking (Discrete(48) states, Discrete(4) actions). */
class CliffWalking final : public RolloutEnvironment<CliffWalking>
{
  public:
    /** Action encoding, identical to Gym. */
    enum Action : ActionId { Up = 0, Right = 1, Down = 2, Left = 3 };

    CliffWalking() = default;

    std::string name() const override { return "cliffwalking"; }
    StateId numStates() const override { return kStates; }
    ActionId numActions() const override { return kActions; }
    int maxEpisodeSteps() const override { return 200; }

    StateId reset(common::XorShift128 &rng) override;
    StepResult step(ActionId action, common::XorShift128 &rng) override;
    StateId currentState() const override { return _state; }

    /**
     * reset() when @p done, else nothing, without a branch: the
     * rollout's episode restart (rlenv/rollout.hh), possible because
     * this reset draws nothing. Returns the current state.
     */
    StateId restartIf(bool done);

    /** True when @p state is a cliff cell. */
    static constexpr bool
    isCliff(StateId state)
    {
        const StateId row = state / kCols;
        const StateId col = state % kCols;
        return row == kRows - 1 && col > 0 && col < kCols - 1;
    }

    /** Grid dimensions. */
    static constexpr StateId kRows = 4;
    static constexpr StateId kCols = 12;
    static constexpr StateId kStates = kRows * kCols;
    static constexpr ActionId kActions = 4;

    /** Start and goal cells (bottom row corners). */
    static constexpr StateId kStart = (kRows - 1) * kCols;
    static constexpr StateId kGoal = kRows * kCols - 1;

    /**
     * Entry (@p state, @p action) of the dynamics table step() reads,
     * compiled from Gym's rules. Both must be in range (unchecked).
     */
    static const Outcome &outcome(StateId state, ActionId action);

  private:
    StateId _state = kStart;
    int _steps = 0;
    bool _episodeDone = true;
};

extern template class RolloutEnvironment<CliffWalking>;

} // namespace swiftrl::rlenv

#endif // SWIFTRL_RLENV_CLIFF_WALKING_HH
