#include "rlenv/frozen_lake.hh"

#include "common/logging.hh"
#include "rlenv/rollout.hh"

namespace swiftrl::rlenv {

namespace {

/** Moving in @p direction from @p state on the Gym 4x4 map. */
constexpr Outcome
lakeRule(StateId state, ActionId direction)
{
    Outcome out;
    out.nextState = FrozenLake::moveFrom(state, direction);
    const char tile = FrozenLake::tileAt(out.nextState);
    out.reward = tile == 'G' ? 1.0f : 0.0f;
    out.terminated = tile == 'G' || tile == 'H';
    return out;
}

constexpr auto kOutcomes =
    compileOutcomes<FrozenLake::kStates, FrozenLake::kActions>(lakeRule);

} // namespace

FrozenLake::FrozenLake(bool slippery) : _slippery(slippery) {}

std::string
FrozenLake::name() const
{
    return _slippery ? "frozenlake" : "frozenlake-det";
}

const Outcome &
FrozenLake::outcome(StateId state, ActionId direction)
{
    return kOutcomes[static_cast<std::size_t>(state * kActions +
                                              direction)];
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

StateId
FrozenLake::restartIf(bool done)
{
    // Masks, not ?: selects, which GCC turns back into the branch.
    const int keep = static_cast<int>(done) - 1; // 0 when done, else ~0
    _state &= keep; // the start tile is 0
    _steps &= keep;
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

    const ActionId direction =
        _slippery ? slide(action, static_cast<ActionId>(rng.nextBounded(3)))
                  : action;
    const Outcome &o = outcome(_state, direction);
    _state = o.nextState;
    const StepResult result = outcomeStep(o, ++_steps, maxEpisodeSteps());
    _episodeDone = result.done();
    return result;
}

template class RolloutEnvironment<FrozenLake>;

} // namespace swiftrl::rlenv
