#include "rlcore/dataset.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "rlcore/trainers.hh"

namespace swiftrl::rlcore {

void
Dataset::append(const Transition &t)
{
    _states.push_back(t.state);
    _actions.push_back(t.action);
    _rewards.push_back(t.reward);
    _nextStates.push_back(t.nextState);
    _terminals.push_back(t.terminal ? 1 : 0);
}

void
Dataset::append(const Dataset &other)
{
    auto tail = [](auto &into, const auto &from) {
        into.insert(into.end(), from.begin(), from.end());
    };
    tail(_states, other._states);
    tail(_actions, other._actions);
    tail(_rewards, other._rewards);
    tail(_nextStates, other._nextStates);
    tail(_terminals, other._terminals);
}

void
Dataset::reserve(std::size_t n)
{
    _states.reserve(n);
    _actions.reserve(n);
    _rewards.reserve(n);
    _nextStates.reserve(n);
    _terminals.reserve(n);
}

rlenv::RolloutColumns
Dataset::resizeColumns(std::size_t n)
{
    _states.resize(n);
    _actions.resize(n);
    _rewards.resize(n);
    _nextStates.resize(n);
    _terminals.resize(n);
    return {_states.data(), _actions.data(), _rewards.data(),
            _nextStates.data(), _terminals.data()};
}

Transition
Dataset::get(std::size_t i) const
{
    SWIFTRL_ASSERT(i < size(), "transition index ", i, " out of range");
    Transition t;
    t.state = _states[i];
    t.action = _actions[i];
    t.reward = _rewards[i];
    t.nextState = _nextStates[i];
    t.terminal = _terminals[i] != 0;
    return t;
}

namespace {

std::uint32_t
packNextState(StateId next_state, bool terminal)
{
    SWIFTRL_ASSERT(next_state >= 0, "negative state id");
    std::uint32_t bits = static_cast<std::uint32_t>(next_state);
    SWIFTRL_ASSERT((bits & PackedTransition::kTerminalBit) == 0,
                   "state id collides with the terminal flag bit");
    if (terminal)
        bits |= PackedTransition::kTerminalBit;
    return bits;
}

/** Shared body of packFp32/packInt32: @p reward_bits encodes one. */
template <typename RewardBits>
void
packRecords(const Dataset &data, std::size_t first, std::size_t count,
            std::span<std::uint8_t> out, RewardBits reward_bits)
{
    SWIFTRL_ASSERT(first + count <= data.size(),
                   "pack range out of bounds");
    SWIFTRL_ASSERT(out.size() == count * sizeof(PackedTransition),
                   "pack buffer holds ", out.size(), " bytes, not ",
                   count, " records");
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k = first + i;
        PackedTransition p;
        p.state = data.states()[k];
        p.action = data.actions()[k];
        p.rewardBits = reward_bits(data.rewards()[k]);
        p.nextStateBits = packNextState(data.nextStates()[k],
                                        data.terminals()[k] != 0);
        std::memcpy(out.data() + i * sizeof(PackedTransition), &p,
                    sizeof(PackedTransition));
    }
}

} // namespace

void
Dataset::packFp32(std::size_t first, std::size_t count,
                  std::span<std::uint8_t> out) const
{
    packRecords(*this, first, count, out, [](float r) {
        return std::bit_cast<std::int32_t>(r);
    });
}

void
Dataset::packInt32(std::size_t first, std::size_t count,
                   std::int32_t scale, std::span<std::uint8_t> out) const
{
    SWIFTRL_ASSERT(scale > 0, "scale factor must be positive");
    packRecords(*this, first, count, out, [scale](float r) {
        return quantizeReward(r, scale);
    });
}

Transition
Dataset::unpackFp32(const PackedTransition &p)
{
    Transition t;
    t.state = p.state;
    t.action = p.action;
    t.reward = std::bit_cast<float>(p.rewardBits);
    t.nextState = static_cast<StateId>(
        p.nextStateBits & ~PackedTransition::kTerminalBit);
    t.terminal = (p.nextStateBits & PackedTransition::kTerminalBit) != 0;
    return t;
}

Transition
Dataset::unpackInt32(const PackedTransition &p, std::int32_t scale)
{
    SWIFTRL_ASSERT(scale > 0, "scale factor must be positive");
    Transition t;
    t.state = p.state;
    t.action = p.action;
    t.reward = static_cast<float>(p.rewardBits) /
               static_cast<float>(scale);
    t.nextState = static_cast<StateId>(
        p.nextStateBits & ~PackedTransition::kTerminalBit);
    t.terminal = (p.nextStateBits & PackedTransition::kTerminalBit) != 0;
    return t;
}

namespace {

/** Index of the first id outside [0, @p bound), or ids.size(). */
std::size_t
firstOutside(std::span<const std::int32_t> ids, std::int32_t bound)
{
    // One branch-free pass (a negative id wraps past any bound) settles
    // the common case, a dataset that fits; only a misfit is searched.
    const auto limit = static_cast<std::uint32_t>(bound);
    std::uint32_t outside = 0;
    for (const std::int32_t id : ids)
        outside |= static_cast<std::uint32_t>(id) >= limit ? 1u : 0u;
    if (outside == 0)
        return ids.size();
    return static_cast<std::size_t>(
        std::ranges::find_if(ids, [limit](std::int32_t id) {
            return static_cast<std::uint32_t>(id) >= limit;
        }) -
        ids.begin());
}

} // namespace

std::string
datasetMisfit(const Dataset &data, StateId num_states,
              ActionId num_actions, std::size_t first, std::size_t count)
{
    first = std::min(first, data.size());
    count = std::min(count, data.size() - first);
    const auto range = [first, count](std::span<const std::int32_t> c) {
        return c.subspan(first, count);
    };
    const std::size_t bad =
        std::min({firstOutside(range(data.states()), num_states),
                  firstOutside(range(data.actions()), num_actions),
                  firstOutside(range(data.nextStates()), num_states)});
    if (bad == count)
        return {};
    const Transition t = data.get(first + bad);
    return common::detail::concat(
        "record ", first + bad, " (state ", t.state, ", action ",
        t.action, ", next state ", t.nextState, ") lies outside the ",
        num_states, "-state x ", num_actions, "-action Q-table");
}

} // namespace swiftrl::rlcore
