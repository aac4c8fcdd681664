#include "rlenv/taxi.hh"

#include "common/logging.hh"
#include "rlenv/rollout.hh"

namespace swiftrl::rlenv {

namespace {

/** Gym's rule for @p action from @p state. */
constexpr Outcome
taxiRule(StateId state, ActionId action)
{
    int row = 0, col = 0, passenger = 0, destination = 0;
    Taxi::decode(state, row, col, passenger, destination);

    Outcome out;
    out.reward = -1.0f;

    switch (action) {
      case Taxi::South:
        row = row < Taxi::kSide - 1 ? row + 1 : row;
        break;
      case Taxi::North:
        row = row > 0 ? row - 1 : row;
        break;
      case Taxi::East:
        if (!Taxi::eastBlocked(row, col))
            col = col < Taxi::kSide - 1 ? col + 1 : col;
        break;
      case Taxi::West:
        if (col > 0 && !Taxi::eastBlocked(row, col - 1))
            col = col - 1;
        break;
      case Taxi::Pickup:
        if (passenger < Taxi::kInTaxi &&
            Taxi::kLandmarks[static_cast<std::size_t>(passenger)] ==
                std::pair<int, int>{row, col}) {
            passenger = Taxi::kInTaxi;
        } else {
            out.reward = -10.0f;
        }
        break;
      case Taxi::Dropoff: {
        const std::pair<int, int> here{row, col};
        if (passenger == Taxi::kInTaxi &&
            here ==
                Taxi::kLandmarks[static_cast<std::size_t>(destination)]) {
            passenger = destination;
            out.reward = 20.0f;
            out.terminated = true;
        } else if (passenger == Taxi::kInTaxi) {
            // Dropping at a wrong landmark strands the passenger
            // there (regular -1); elsewhere it is illegal (-10).
            bool at_landmark = false;
            for (std::size_t i = 0; i < Taxi::kLandmarks.size(); ++i) {
                if (Taxi::kLandmarks[i] == here) {
                    passenger = static_cast<int>(i);
                    at_landmark = true;
                    break;
                }
            }
            if (!at_landmark)
                out.reward = -10.0f;
        } else {
            out.reward = -10.0f;
        }
        break;
      }
      default:
        SWIFTRL_PANIC("unhandled taxi action ", action);
    }
    out.nextState = Taxi::encode(row, col, passenger, destination);
    return out;
}

constexpr auto kOutcomes =
    compileOutcomes<Taxi::kStates, Taxi::kActions>(taxiRule);

} // namespace

const Outcome &
Taxi::outcome(StateId state, ActionId action)
{
    return kOutcomes[static_cast<std::size_t>(state * kActions + action)];
}

StateId
Taxi::reset(common::XorShift128 &rng)
{
    // Gym: taxi anywhere, passenger at a landmark (never in the taxi),
    // destination a different landmark.
    const int row = static_cast<int>(rng.nextBounded(kSide));
    const int col = static_cast<int>(rng.nextBounded(kSide));
    const int passenger = static_cast<int>(rng.nextBounded(4));
    int destination = static_cast<int>(rng.nextBounded(3));
    if (destination >= passenger)
        ++destination;
    _state = encode(row, col, passenger, destination);
    _steps = 0;
    _episodeDone = false;
    return _state;
}

StepResult
Taxi::step(ActionId action, common::XorShift128 &rng)
{
    (void)rng; // taxi dynamics are deterministic
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

template class RolloutEnvironment<Taxi>;

} // namespace swiftrl::rlenv
