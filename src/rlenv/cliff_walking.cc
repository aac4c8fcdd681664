#include "rlenv/cliff_walking.hh"

#include "common/logging.hh"
#include "rlenv/rollout.hh"

namespace swiftrl::rlenv {

namespace {

/** Gym's rule for @p action from @p state. */
constexpr Outcome
cliffRule(StateId state, ActionId action)
{
    constexpr StateId kRows = CliffWalking::kRows;
    constexpr StateId kCols = CliffWalking::kCols;
    StateId row = state / kCols;
    StateId col = state % kCols;
    switch (action) {
      case CliffWalking::Up:
        row = row > 0 ? row - 1 : 0;
        break;
      case CliffWalking::Right:
        col = col < kCols - 1 ? col + 1 : col;
        break;
      case CliffWalking::Down:
        row = row < kRows - 1 ? row + 1 : row;
        break;
      case CliffWalking::Left:
        col = col > 0 ? col - 1 : 0;
        break;
      default:
        SWIFTRL_PANIC("unhandled cliff-walking action ", action);
    }

    Outcome out;
    const StateId landed = row * kCols + col;
    if (CliffWalking::isCliff(landed)) {
        // Falling off costs -100 and teleports back to the start;
        // the episode continues (Gym semantics).
        out.reward = -100.0f;
        out.nextState = CliffWalking::kStart;
    } else {
        out.reward = -1.0f;
        out.nextState = landed;
        out.terminated = landed == CliffWalking::kGoal;
    }
    return out;
}

constexpr auto kOutcomes =
    compileOutcomes<CliffWalking::kStates, CliffWalking::kActions>(
        cliffRule);

} // namespace

const Outcome &
CliffWalking::outcome(StateId state, ActionId action)
{
    return kOutcomes[static_cast<std::size_t>(state * kActions + action)];
}

StateId
CliffWalking::reset(common::XorShift128 &rng)
{
    (void)rng; // fixed start cell
    _state = kStart;
    _steps = 0;
    _episodeDone = false;
    return _state;
}

StateId
CliffWalking::restartIf(bool done)
{
    // Masks, not ?: selects, which GCC turns back into the branch.
    const int keep = static_cast<int>(done) - 1; // 0 when done, else ~0
    _state = (_state & keep) | (kStart & ~keep);
    _steps &= keep;
    _episodeDone = false;
    return _state;
}

StepResult
CliffWalking::step(ActionId action, common::XorShift128 &rng)
{
    (void)rng; // deterministic dynamics
    SWIFTRL_ASSERT(!_episodeDone,
                   "step() on a finished episode; call reset()");
    SWIFTRL_ASSERT(action >= 0 && action < kActions,
                   "invalid action ", action);

    const Outcome &o = outcome(_state, action);
    _state = o.nextState;
    const StepResult result = outcomeStep(o, ++_steps, maxEpisodeSteps());
    _episodeDone = result.done();
    return result;
}

template class RolloutEnvironment<CliffWalking>;

} // namespace swiftrl::rlenv
