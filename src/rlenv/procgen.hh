/**
 * @file
 * Procedurally generated environment family for state-space scaling
 * studies. The paper's environments stop at Taxi's 500 states; these
 * two generalise the same mechanics to arbitrary grid sides so the
 * sharded Q-table layer can be driven at 10^6-10^8 states without
 * storing a map — every tile/landmark query is recomputed from a
 * seeded hash, so an environment instance is O(1) memory regardless
 * of state count.
 *
 * Specs (parsed by rlenv::tryMakeEnvironment):
 *   "lake:<side>"            slippery side x side procedural lake
 *   "lake:<side>:det"        deterministic variant
 *   "mptaxi:<side>x<P>"      side x side taxi with P passengers
 */

#ifndef SWIFTRL_RLENV_PROCGEN_HH
#define SWIFTRL_RLENV_PROCGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "rlenv/environment.hh"

namespace swiftrl::rlenv {

/**
 * N x N FrozenLake generalisation. Tiles are drawn from a seeded
 * hash: roughly one cell in eight is a hole, except that the top row
 * and the rightmost column are always frozen — so the path
 * right-along-the-top then down-the-right-edge always exists and
 * every instance is solvable by construction. Start is the top-left
 * corner, goal the bottom-right; holes terminate with zero reward,
 * the goal pays 1. Slippery dynamics are Gym's is_slippery=True
 * (1/3 intended direction, 1/3 each perpendicular).
 */
class ProceduralLake final : public RolloutEnvironment<ProceduralLake>
{
  public:
    /** Action encoding, identical to FrozenLake/Gym. */
    enum Action : ActionId { Left = 0, Down = 1, Right = 2, Up = 3 };

    /**
     * @param side Grid side, in [2, kMaxSide] so side^2 fits StateId.
     * @param slippery Gym's is_slippery.
     * @param seed Map-generation seed (tile layout only; step
     *        stochasticity comes from the caller's RNG).
     */
    explicit ProceduralLake(StateId side, bool slippery = true,
                            std::uint64_t seed = kDefaultMapSeed);

    std::string name() const override;
    StateId numStates() const override { return _side * _side; }
    ActionId numActions() const override { return kActions; }
    int maxEpisodeSteps() const override;

    StateId reset(common::XorShift128 &rng) override;
    StepResult step(ActionId action, common::XorShift128 &rng) override;
    StateId currentState() const override { return _state; }

    /** Tile character ('S','F','H','G') at a state. */
    char tileAt(StateId state) const;

    /** Grid side length. */
    StateId side() const { return _side; }

    /** Largest legal side: floor(sqrt(INT32_MAX)). */
    static constexpr StateId kMaxSide = 46340;

    /** Number of actions. */
    static constexpr ActionId kActions = 4;

    /** Default map seed (spec-addressable maps are reproducible). */
    static constexpr std::uint64_t kDefaultMapSeed = 0x5eed1a4eULL;

  private:
    StateId moveFrom(StateId state, ActionId direction) const;

    StateId _side;
    bool _slippery;
    std::uint64_t _seed;
    StateId _state = 0;
    int _steps = 0;
    bool _episodeDone = true;
};

/**
 * Multi-passenger Taxi generalisation on a side x side grid with P
 * passengers. The four landmarks sit at the grid corners; each
 * passenger's source and (distinct) destination corner are drawn
 * from the map seed. A passenger is in one of three statuses —
 * waiting at its source, in the taxi, or delivered — so the state is
 * taxiCell * 3^P + sum_p status_p * 3^p, and the state count is
 * side^2 * 3^P (validated to fit StateId at construction).
 *
 * Actions are Taxi's six: move (reward -1, deterministic, clamped at
 * walls), Pickup (boards the lowest-indexed waiting passenger at the
 * taxi's cell, else -10), Dropoff (delivers the lowest-indexed
 * carried passenger whose destination is the taxi's cell for +20,
 * else -10). The episode terminates when every passenger is
 * delivered.
 */
class MultiPassengerTaxi final : public RolloutEnvironment<MultiPassengerTaxi>
{
  public:
    enum Action : ActionId {
        Left = 0,
        Down = 1,
        Right = 2,
        Up = 3,
        Pickup = 4,
        Dropoff = 5,
    };

    /** Passenger status trit. */
    enum Status : int { Waiting = 0, InTaxi = 1, Delivered = 2 };

    /**
     * @param side Grid side, >= 2.
     * @param passengers Passenger count P >= 1; side^2 * 3^P must
     *        fit StateId (checked, fatal otherwise — embedder-facing
     *        callers precheck via tryMakeEnvironment).
     * @param seed Landmark-assignment seed.
     */
    MultiPassengerTaxi(StateId side, int passengers,
                       std::uint64_t seed = kDefaultMapSeed);

    std::string name() const override;
    StateId numStates() const override { return _numStates; }
    ActionId numActions() const override { return kActions; }
    int maxEpisodeSteps() const override;

    StateId reset(common::XorShift128 &rng) override;
    StepResult step(ActionId action, common::XorShift128 &rng) override;
    StateId currentState() const override;

    /** Source corner cell of passenger @p p. */
    StateId sourceCell(int p) const;

    /** Destination corner cell of passenger @p p. */
    StateId destinationCell(int p) const;

    int passengers() const { return _passengers; }
    StateId side() const { return _side; }

    /** Number of actions. */
    static constexpr ActionId kActions = 6;

    /** Default map seed. */
    static constexpr std::uint64_t kDefaultMapSeed = 0x7a111c0deULL;

  private:
    StateId encode() const;
    StateId cornerCell(int corner) const;

    StateId _side;
    int _passengers;
    std::uint64_t _seed;
    StateId _numStates;
    std::vector<int> _srcCorner;
    std::vector<int> _dstCorner;

    StateId _taxi = 0;
    std::vector<int> _status;
    int _steps = 0;
    bool _episodeDone = true;
};

extern template class RolloutEnvironment<ProceduralLake>;
extern template class RolloutEnvironment<MultiPassengerTaxi>;

} // namespace swiftrl::rlenv

#endif // SWIFTRL_RLENV_PROCGEN_HH
