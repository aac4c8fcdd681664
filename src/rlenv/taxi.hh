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

#include "common/logging.hh"
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
    static constexpr StateId
    encode(int row, int col, int passenger, int destination)
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

    /** Unpack a state id; inverse of encode. */
    static constexpr void
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

    /** Landmark coordinates: R, G, Y, B. */
    static constexpr std::array<std::pair<int, int>, 4> kLandmarks = {{
        {0, 0}, {0, 4}, {4, 0}, {4, 3},
    }};

    /** True when a wall blocks eastward motion out of (row, col). */
    static constexpr bool
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

    /** Grid side length. */
    static constexpr int kSide = 5;

    /** Passenger-in-taxi marker for the passenger index. */
    static constexpr int kInTaxi = 4;

    /** Number of states. */
    static constexpr StateId kStates = 500;

    /** Number of actions. */
    static constexpr ActionId kActions = 6;

    /**
     * Entry (@p state, @p action) of the dynamics table step() reads,
     * compiled from Gym's rules. Both must be in range (unchecked).
     */
    static const Outcome &outcome(StateId state, ActionId action);

  private:
    StateId _state = 0;
    int _steps = 0;
    bool _episodeDone = true;
};

extern template class RolloutEnvironment<Taxi>;

} // namespace swiftrl::rlenv

#endif // SWIFTRL_RLENV_TAXI_HH
