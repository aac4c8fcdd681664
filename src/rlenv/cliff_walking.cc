#include "rlenv/cliff_walking.hh"

#include "common/logging.hh"
#include "rlenv/rollout.hh"

namespace swiftrl::rlenv {

bool
CliffWalking::isCliff(StateId state)
{
    const StateId row = state / kCols;
    const StateId col = state % kCols;
    return row == kRows - 1 && col > 0 && col < kCols - 1;
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

StepResult
CliffWalking::step(ActionId action, common::XorShift128 &rng)
{
    (void)rng; // deterministic dynamics
    SWIFTRL_ASSERT(!_episodeDone,
                   "step() on a finished episode; call reset()");
    SWIFTRL_ASSERT(action >= 0 && action < kActions,
                   "invalid action ", action);

    StateId row = _state / kCols;
    StateId col = _state % kCols;
    switch (action) {
      case Up:
        row = row > 0 ? row - 1 : 0;
        break;
      case Right:
        col = col < kCols - 1 ? col + 1 : col;
        break;
      case Down:
        row = row < kRows - 1 ? row + 1 : row;
        break;
      case Left:
        col = col > 0 ? col - 1 : 0;
        break;
      default:
        SWIFTRL_PANIC("unhandled cliff-walking action ", action);
    }

    StepResult result;
    const StateId landed = row * kCols + col;
    if (isCliff(landed)) {
        // Falling off costs -100 and teleports back to the start;
        // the episode continues (Gym semantics).
        result.reward = -100.0f;
        _state = kStart;
    } else {
        result.reward = -1.0f;
        _state = landed;
        result.terminated = landed == kGoal;
    }
    ++_steps;
    result.nextState = _state;
    result.truncated =
        !result.terminated && _steps >= maxEpisodeSteps();
    _episodeDone = result.done();
    return result;
}

template class RolloutEnvironment<CliffWalking>;

} // namespace swiftrl::rlenv
