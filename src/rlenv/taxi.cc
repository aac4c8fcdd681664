#include "rlenv/taxi.hh"

#include "common/logging.hh"
#include "rlenv/rollout.hh"

namespace swiftrl::rlenv {

StateId
Taxi::encode(int row, int col, int passenger, int destination)
{
    SWIFTRL_ASSERT(row >= 0 && row < kSide, "row out of range");
    SWIFTRL_ASSERT(col >= 0 && col < kSide, "col out of range");
    SWIFTRL_ASSERT(passenger >= 0 && passenger <= kInTaxi,
                   "passenger index out of range");
    SWIFTRL_ASSERT(destination >= 0 && destination < 4,
                   "destination index out of range");
    return static_cast<StateId>(
        ((row * kSide + col) * 5 + passenger) * 4 + destination);
}

void
Taxi::decode(StateId state, int &row, int &col, int &passenger,
             int &destination)
{
    SWIFTRL_ASSERT(state >= 0 && state < kStates,
                   "state ", state, " out of range");
    destination = state % 4;
    state /= 4;
    passenger = state % 5;
    state /= 5;
    col = state % kSide;
    row = state / kSide;
}

bool
Taxi::eastBlocked(int row, int col)
{
    // Walls of the Gym map:
    //   +---------+
    //   |R: | : :G|
    //   | : | : : |
    //   | : : : : |
    //   | | : | : |
    //   |Y| : |B: |
    //   +---------+
    if ((row == 0 || row == 1) && col == 1)
        return true;
    if ((row == 3 || row == 4) && (col == 0 || col == 2))
        return true;
    return false;
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

    int row, col, passenger, destination;
    decode(_state, row, col, passenger, destination);

    StepResult result;
    result.reward = -1.0f;

    switch (action) {
      case South:
        row = row < kSide - 1 ? row + 1 : row;
        break;
      case North:
        row = row > 0 ? row - 1 : row;
        break;
      case East:
        if (!eastBlocked(row, col))
            col = col < kSide - 1 ? col + 1 : col;
        break;
      case West:
        if (col > 0 && !eastBlocked(row, col - 1))
            col = col - 1;
        break;
      case Pickup:
        if (passenger < kInTaxi &&
            kLandmarks[static_cast<std::size_t>(passenger)] ==
                std::pair<int, int>{row, col}) {
            passenger = kInTaxi;
        } else {
            result.reward = -10.0f;
        }
        break;
      case Dropoff: {
        const std::pair<int, int> here{row, col};
        if (passenger == kInTaxi &&
            here ==
                kLandmarks[static_cast<std::size_t>(destination)]) {
            passenger = destination;
            result.reward = 20.0f;
            result.terminated = true;
        } else if (passenger == kInTaxi) {
            // Dropping at a wrong landmark strands the passenger
            // there (regular -1); elsewhere it is illegal (-10).
            bool at_landmark = false;
            for (std::size_t i = 0; i < kLandmarks.size(); ++i) {
                if (kLandmarks[i] == here) {
                    passenger = static_cast<int>(i);
                    at_landmark = true;
                    break;
                }
            }
            if (!at_landmark)
                result.reward = -10.0f;
        } else {
            result.reward = -10.0f;
        }
        break;
      }
      default:
        SWIFTRL_PANIC("unhandled taxi action ", action);
    }

    _state = encode(row, col, passenger, destination);
    ++_steps;
    result.nextState = _state;
    result.truncated =
        !result.terminated && _steps >= maxEpisodeSteps();
    _episodeDone = result.done();
    return result;
}

template class RolloutEnvironment<Taxi>;

} // namespace swiftrl::rlenv
