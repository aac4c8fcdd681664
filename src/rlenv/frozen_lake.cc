#include "rlenv/frozen_lake.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "rlenv/rollout.hh"

namespace swiftrl::rlenv {

FrozenLake::FrozenLake(bool slippery) : _slippery(slippery) {}

std::string
FrozenLake::name() const
{
    return _slippery ? "frozenlake" : "frozenlake-det";
}

char
FrozenLake::tileAt(StateId state) const
{
    SWIFTRL_ASSERT(state >= 0 && state < kStates,
                   "state ", state, " out of range");
    return kMap[static_cast<std::size_t>(state)];
}

bool
FrozenLake::isTerminal(StateId state) const
{
    const char t = tileAt(state);
    return t == 'H' || t == 'G';
}

StateId
FrozenLake::moveFrom(StateId state, ActionId direction)
{
    SWIFTRL_ASSERT(direction >= 0 && direction < kActions,
                   "invalid FrozenLake action ", direction);
    // Offsets of Left, Down, Right, Up, clamped at the walls. Looked
    // up rather than switched on: a random walk's direction is
    // unpredictable, and so would be every branch on it.
    static constexpr std::array<StateId, kActions> kRowStep = {0, 1, 0,
                                                               -1};
    static constexpr std::array<StateId, kActions> kColStep = {-1, 0, 1,
                                                               0};
    const auto d = static_cast<std::size_t>(direction);
    const StateId row =
        std::clamp<StateId>(state / kSide + kRowStep[d], 0, kSide - 1);
    const StateId col =
        std::clamp<StateId>(state % kSide + kColStep[d], 0, kSide - 1);
    return row * kSide + col;
}

StateId
FrozenLake::reset(common::XorShift128 &rng)
{
    (void)rng; // fixed start tile; signature kept uniform
    _state = 0;
    _steps = 0;
    _episodeDone = false;
    return _state;
}

StepResult
FrozenLake::step(ActionId action, common::XorShift128 &rng)
{
    SWIFTRL_ASSERT(!_episodeDone,
                   "step() on a finished episode; call reset()");
    SWIFTRL_ASSERT(action >= 0 && action < kActions,
                   "invalid action ", action);

    ActionId direction = action;
    if (_slippery) {
        // Gym slides uniformly among {a-1, a, a+1} (mod 4): intended
        // direction or either perpendicular, 1/3 each.
        const auto pick = static_cast<ActionId>(rng.nextBounded(3));
        direction = static_cast<ActionId>(
            (action + (pick - 1) + kActions) % kActions);
    }

    _state = moveFrom(_state, direction);
    ++_steps;

    StepResult result;
    result.nextState = _state;
    const char tile = tileAt(_state);
    result.reward = tile == 'G' ? 1.0f : 0.0f;
    result.terminated = tile == 'G' || tile == 'H';
    result.truncated = !result.terminated && _steps >= maxEpisodeSteps();
    _episodeDone = result.done();
    return result;
}

template class RolloutEnvironment<FrozenLake>;

} // namespace swiftrl::rlenv
