/**
 * @file
 * Taxi: the 5x5 grid-world from OpenAI Gym (Taxi-v3), the larger of
 * SwiftRL's two evaluation environments. The taxi navigates to a
 * passenger at one of four landmarks, picks them up, and drops them at
 * a destination landmark. Discrete(500) states — 25 taxi positions x 5
 * passenger locations (4 landmarks + in-taxi) x 4 destinations — and
 * Discrete(6) actions. Rewards: -1 per step, +20 for a successful
 * dropoff, -10 for illegal pickup/dropoff attempts.
 */

#ifndef SWIFTRL_RLENV_TAXI_HH
#define SWIFTRL_RLENV_TAXI_HH

#include <array>
#include <string>
#include <utility>

#include "rlenv/environment.hh"

namespace swiftrl::rlenv {

/** Taxi-v3 (Discrete(500) states, Discrete(6) actions). */
class Taxi final : public RolloutEnvironment<Taxi>
{
  public:
    /** Action encoding, identical to Gym. */
    enum Action : ActionId
    {
        South = 0,
        North = 1,
        East = 2,
        West = 3,
        Pickup = 4,
        Dropoff = 5,
    };

    Taxi() = default;

    std::string name() const override { return "taxi"; }
    StateId numStates() const override { return kStates; }
    ActionId numActions() const override { return kActions; }
    int maxEpisodeSteps() const override { return 200; }

    StateId reset(common::XorShift128 &rng) override;
    StepResult step(ActionId action, common::XorShift128 &rng) override;
    StateId currentState() const override { return _state; }

    /** Pack (row, col, passenger, destination) into a state id. */
    static StateId encode(int row, int col, int passenger,
                          int destination);

    /** Unpack a state id; inverse of encode. */
    static void decode(StateId state, int &row, int &col,
                       int &passenger, int &destination);

    /** Landmark coordinates: R, G, Y, B. */
    static constexpr std::array<std::pair<int, int>, 4> kLandmarks = {{
        {0, 0}, {0, 4}, {4, 0}, {4, 3},
    }};

    /** True when a wall blocks eastward motion out of (row, col). */
    static bool eastBlocked(int row, int col);

    /** Grid side length. */
    static constexpr int kSide = 5;

    /** Passenger-in-taxi marker for the passenger index. */
    static constexpr int kInTaxi = 4;

    /** Number of states. */
    static constexpr StateId kStates = 500;

    /** Number of actions. */
    static constexpr ActionId kActions = 6;

  private:
    StateId _state = 0;
    int _steps = 0;
    bool _episodeDone = true;
};

extern template class RolloutEnvironment<Taxi>;

} // namespace swiftrl::rlenv

#endif // SWIFTRL_RLENV_TAXI_HH
