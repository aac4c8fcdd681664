#include "rlenv/procgen.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "rlenv/rollout.hh"

namespace swiftrl::rlenv {

namespace {

/**
 * SplitMix64 over (seed, index): the stateless per-cell hash that
 * makes procedural maps O(1) memory. Deterministic across platforms.
 */
std::uint64_t
hashAt(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed ^ (index * 0x9e3779b97f4a7c15ULL);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

// --------------------------------------------------------------------
// ProceduralLake

ProceduralLake::ProceduralLake(StateId side, bool slippery,
                               std::uint64_t seed)
    : _side(side), _slippery(slippery), _seed(seed)
{
    SWIFTRL_ASSERT(side >= 2 && side <= kMaxSide,
                   "lake side ", side, " outside [2, ", kMaxSide, "]");
}

std::string
ProceduralLake::name() const
{
    const std::string base = "lake:" + std::to_string(_side);
    return _slippery ? base : base + ":det";
}

int
ProceduralLake::maxEpisodeSteps() const
{
    // The guaranteed path is 2*(side-1) moves; slipping needs slack.
    return std::max(100, 4 * _side);
}

char
ProceduralLake::tileAt(StateId state) const
{
    SWIFTRL_ASSERT(state >= 0 && state < numStates(),
                   "state ", state, " out of range");
    if (state == 0)
        return 'S';
    if (state == numStates() - 1)
        return 'G';
    const StateId row = state / _side;
    const StateId col = state % _side;
    // Top row and rightmost column are always frozen, so the walk
    // right along the top then down the right edge always reaches G:
    // every generated map is solvable by construction.
    if (row == 0 || col == _side - 1)
        return 'F';
    const bool hole =
        hashAt(_seed, static_cast<std::uint64_t>(state)) % 8 == 0;
    return hole ? 'H' : 'F';
}

StateId
ProceduralLake::moveFrom(StateId state, ActionId direction) const
{
    SWIFTRL_ASSERT(direction >= 0 && direction < kActions,
                   "invalid ProceduralLake action ", direction);
    // Offsets of Left, Down, Right, Up, clamped at the walls; looked
    // up, as FrozenLake::moveFrom does, rather than branched on.
    static constexpr std::array<StateId, kActions> kRowStep = {0, 1, 0,
                                                               -1};
    static constexpr std::array<StateId, kActions> kColStep = {-1, 0, 1,
                                                               0};
    const auto d = static_cast<std::size_t>(direction);
    const StateId row =
        std::clamp<StateId>(state / _side + kRowStep[d], 0, _side - 1);
    const StateId col =
        std::clamp<StateId>(state % _side + kColStep[d], 0, _side - 1);
    return row * _side + col;
}

StateId
ProceduralLake::reset(common::XorShift128 &rng)
{
    (void)rng; // fixed start tile; signature kept uniform
    _state = 0;
    _steps = 0;
    _episodeDone = false;
    return _state;
}

StepResult
ProceduralLake::step(ActionId action, common::XorShift128 &rng)
{
    SWIFTRL_ASSERT(!_episodeDone,
                   "step() on a finished episode; call reset()");
    SWIFTRL_ASSERT(action >= 0 && action < kActions,
                   "invalid action ", action);

    ActionId direction = action;
    if (_slippery) {
        // Gym slides uniformly among {a-1, a, a+1} (mod 4).
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

// --------------------------------------------------------------------
// MultiPassengerTaxi

MultiPassengerTaxi::MultiPassengerTaxi(StateId side, int passengers,
                                       std::uint64_t seed)
    : _side(side), _passengers(passengers), _seed(seed), _numStates(0)
{
    SWIFTRL_ASSERT(side >= 2, "taxi grid side ", side, " too small");
    SWIFTRL_ASSERT(passengers >= 1, "need at least one passenger");
    // side^2 * 3^P must fit StateId; computed in 64-bit with an early
    // bail so the product itself cannot overflow.
    std::int64_t states = static_cast<std::int64_t>(side) * side;
    for (int p = 0; p < passengers; ++p) {
        states *= 3;
        SWIFTRL_ASSERT(states <= INT32_MAX,
                       "mptaxi ", side, "x", passengers,
                       " state space overflows 32-bit state ids");
    }
    _numStates = static_cast<StateId>(states);

    _srcCorner.resize(static_cast<std::size_t>(passengers));
    _dstCorner.resize(static_cast<std::size_t>(passengers));
    _status.assign(static_cast<std::size_t>(passengers), Delivered);
    for (int p = 0; p < passengers; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const std::uint64_t draw =
            hashAt(_seed, 2 * static_cast<std::uint64_t>(p));
        const std::uint64_t skew =
            hashAt(_seed, 2 * static_cast<std::uint64_t>(p) + 1);
        _srcCorner[i] = static_cast<int>(draw % 4);
        // Destination is always a different corner.
        _dstCorner[i] =
            static_cast<int>((draw % 4 + 1 + skew % 3) % 4);
    }
}

std::string
MultiPassengerTaxi::name() const
{
    return "mptaxi:" + std::to_string(_side) + "x" +
           std::to_string(_passengers);
}

int
MultiPassengerTaxi::maxEpisodeSteps() const
{
    // Worst-case ferry: corner to corner (~2*side moves) per
    // passenger, with generous slack for the -10 fumbles a random
    // behaviour policy makes.
    return std::max(200, 8 * _side * _passengers);
}

StateId
MultiPassengerTaxi::cornerCell(int corner) const
{
    const StateId last = _side - 1;
    switch (corner) {
      case 0:
        return 0;
      case 1:
        return last; // top-right
      case 2:
        return last * _side; // bottom-left
      case 3:
        return last * _side + last; // bottom-right
      default:
        SWIFTRL_PANIC("invalid corner ", corner);
    }
}

StateId
MultiPassengerTaxi::sourceCell(int p) const
{
    SWIFTRL_ASSERT(p >= 0 && p < _passengers, "passenger ", p,
                   " out of range");
    return cornerCell(_srcCorner[static_cast<std::size_t>(p)]);
}

StateId
MultiPassengerTaxi::destinationCell(int p) const
{
    SWIFTRL_ASSERT(p >= 0 && p < _passengers, "passenger ", p,
                   " out of range");
    return cornerCell(_dstCorner[static_cast<std::size_t>(p)]);
}

StateId
MultiPassengerTaxi::encode() const
{
    // taxiCell * 3^P + sum_p status_p * 3^p, little-endian trits.
    std::int64_t code = _taxi;
    for (int p = _passengers - 1; p >= 0; --p)
        code = code * 3 + _status[static_cast<std::size_t>(p)];
    SWIFTRL_ASSERT(code >= 0 && code < _numStates,
                   "encoded taxi state out of range");
    return static_cast<StateId>(code);
}

StateId
MultiPassengerTaxi::currentState() const
{
    return encode();
}

StateId
MultiPassengerTaxi::reset(common::XorShift128 &rng)
{
    _taxi = static_cast<StateId>(rng.nextBounded(
        static_cast<std::uint32_t>(_side) *
        static_cast<std::uint32_t>(_side)));
    std::fill(_status.begin(), _status.end(), Waiting);
    _steps = 0;
    _episodeDone = false;
    return encode();
}

StepResult
MultiPassengerTaxi::step(ActionId action, common::XorShift128 &rng)
{
    (void)rng; // deterministic dynamics; signature kept uniform
    SWIFTRL_ASSERT(!_episodeDone,
                   "step() on a finished episode; call reset()");
    SWIFTRL_ASSERT(action >= 0 && action < kActions,
                   "invalid action ", action);

    StepResult result;
    result.reward = -1.0f;

    if (action <= Up) {
        StateId row = _taxi / _side;
        StateId col = _taxi % _side;
        switch (action) {
          case Left:
            col = col > 0 ? col - 1 : 0;
            break;
          case Down:
            row = row < _side - 1 ? row + 1 : _side - 1;
            break;
          case Right:
            col = col < _side - 1 ? col + 1 : _side - 1;
            break;
          case Up:
            row = row > 0 ? row - 1 : 0;
            break;
          default:
            break;
        }
        _taxi = row * _side + col;
    } else if (action == Pickup) {
        int boarded = -1;
        for (int p = 0; p < _passengers; ++p) {
            const auto i = static_cast<std::size_t>(p);
            if (_status[i] == Waiting && sourceCell(p) == _taxi) {
                boarded = p;
                break;
            }
        }
        if (boarded >= 0)
            _status[static_cast<std::size_t>(boarded)] = InTaxi;
        else
            result.reward = -10.0f;
    } else { // Dropoff
        int delivered = -1;
        for (int p = 0; p < _passengers; ++p) {
            const auto i = static_cast<std::size_t>(p);
            if (_status[i] == InTaxi && destinationCell(p) == _taxi) {
                delivered = p;
                break;
            }
        }
        if (delivered >= 0) {
            _status[static_cast<std::size_t>(delivered)] = Delivered;
            result.reward = 20.0f;
        } else {
            result.reward = -10.0f;
        }
    }

    ++_steps;
    result.nextState = encode();
    result.terminated =
        std::all_of(_status.begin(), _status.end(),
                    [](int s) { return s == Delivered; });
    result.truncated = !result.terminated && _steps >= maxEpisodeSteps();
    _episodeDone = result.done();
    return result;
}

template class RolloutEnvironment<ProceduralLake>;
template class RolloutEnvironment<MultiPassengerTaxi>;

} // namespace swiftrl::rlenv
