/**
 * @file
 * The step rules of Taxi, FrozenLake and CliffWalking as they were
 * computed per step before the environments compiled them into
 * tables: decode, switch on the action, re-encode. Every helper is a
 * private copy, so a change to a production rule shows up as a
 * disagreement with its table.
 */

#include "oracle/env_steps.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "common/logging.hh"

namespace swiftrl::oracle {

using rlenv::ActionId;
using rlenv::Outcome;
using rlenv::StateId;

namespace {

namespace taxi {

enum Action : ActionId
{
    South = 0,
    North = 1,
    East = 2,
    West = 3,
    Pickup = 4,
    Dropoff = 5,
};

constexpr int kSide = 5;
constexpr int kInTaxi = 4;
constexpr StateId kStates = 500;

constexpr std::array<std::pair<int, int>, 4> kLandmarks = {{
    {0, 0}, {0, 4}, {4, 0}, {4, 3},
}};

StateId
encode(int row, int col, int passenger, int destination)
{
    return static_cast<StateId>(
        ((row * kSide + col) * 5 + passenger) * 4 + destination);
}

void
decode(StateId state, int &row, int &col, int &passenger,
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
eastBlocked(int row, int col)
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

} // namespace taxi

namespace lake {

constexpr StateId kSide = 4;
constexpr ActionId kActions = 4;

constexpr std::array<char, kSide * kSide> kMap = {
    'S', 'F', 'F', 'F',
    'F', 'H', 'F', 'H',
    'F', 'F', 'F', 'H',
    'H', 'F', 'F', 'G',
};

StateId
moveFrom(StateId state, ActionId direction)
{
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

} // namespace lake

namespace cliff {

enum Action : ActionId { Up = 0, Right = 1, Down = 2, Left = 3 };

constexpr StateId kRows = 4;
constexpr StateId kCols = 12;
constexpr StateId kStart = (kRows - 1) * kCols;
constexpr StateId kGoal = kRows * kCols - 1;

bool
isCliff(StateId state)
{
    const StateId row = state / kCols;
    const StateId col = state % kCols;
    return row == kRows - 1 && col > 0 && col < kCols - 1;
}

} // namespace cliff

} // namespace

Outcome
taxiStep(StateId state, ActionId action)
{
    using namespace taxi;
    int row, col, passenger, destination;
    decode(state, row, col, passenger, destination);

    Outcome result;
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

    result.nextState = encode(row, col, passenger, destination);
    return result;
}

Outcome
frozenLakeStep(StateId state, ActionId action, bool slippery, int pick)
{
    using namespace lake;
    ActionId direction = action;
    if (slippery) {
        direction = static_cast<ActionId>(
            (action + (pick - 1) + kActions) % kActions);
    }

    Outcome result;
    result.nextState = moveFrom(state, direction);
    const char tile = kMap[static_cast<std::size_t>(result.nextState)];
    result.reward = tile == 'G' ? 1.0f : 0.0f;
    result.terminated = tile == 'G' || tile == 'H';
    return result;
}

Outcome
cliffWalkingStep(StateId state, ActionId action)
{
    using namespace cliff;
    StateId row = state / kCols;
    StateId col = state % kCols;
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

    Outcome result;
    const StateId landed = row * kCols + col;
    if (isCliff(landed)) {
        result.reward = -100.0f;
        result.nextState = kStart;
    } else {
        result.reward = -1.0f;
        result.nextState = landed;
        result.terminated = landed == kGoal;
    }
    return result;
}

} // namespace swiftrl::oracle
