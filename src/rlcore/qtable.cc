#include "rlcore/qtable.hh"

#include <algorithm>
#include <cmath>

#include "common/fixed_point.hh"
#include "common/logging.hh"

namespace swiftrl::rlcore {

QTable::QTable(StateId num_states, ActionId num_actions)
    : _numStates(num_states), _numActions(num_actions),
      _values(static_cast<std::size_t>(num_states) *
                  static_cast<std::size_t>(num_actions),
              0.0f)
{
    SWIFTRL_ASSERT(num_states > 0 && num_actions > 0,
                   "Q-table needs a non-empty state-action space");
}

std::size_t
QTable::index(StateId s, ActionId a) const
{
    SWIFTRL_ASSERT(s >= 0 && s < _numStates, "state ", s,
                   " out of range");
    SWIFTRL_ASSERT(a >= 0 && a < _numActions, "action ", a,
                   " out of range");
    return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(_numActions) +
           static_cast<std::size_t>(a);
}

float &
QTable::at(StateId s, ActionId a)
{
    return _values[index(s, a)];
}

float
QTable::at(StateId s, ActionId a) const
{
    return _values[index(s, a)];
}

float
QTable::maxValue(StateId s) const
{
    const std::size_t base = index(s, 0);
    float best = _values[base];
    for (ActionId a = 1; a < _numActions; ++a)
        best = std::max(best, _values[base + static_cast<size_t>(a)]);
    return best;
}

ActionId
QTable::greedyAction(StateId s) const
{
    const std::size_t base = index(s, 0);
    ActionId best = 0;
    float best_value = _values[base];
    for (ActionId a = 1; a < _numActions; ++a) {
        const float v = _values[base + static_cast<std::size_t>(a)];
        if (v > best_value) {
            best_value = v;
            best = a;
        }
    }
    return best;
}

void
QTable::setZero()
{
    std::fill(_values.begin(), _values.end(), 0.0f);
}

void
QTable::initArbitrary(std::uint64_t seed)
{
    common::XorShift128 rng(seed);
    for (auto &v : _values)
        v = static_cast<float>(rng.nextReal() * 0.01);
}

QTable
QTable::fromFixed(StateId num_states, ActionId num_actions,
                  const std::vector<std::int32_t> &raw,
                  std::int32_t scale)
{
    QTable table(num_states, num_actions);
    SWIFTRL_ASSERT(raw.size() == table.entryCount(),
                   "fixed-point buffer size mismatch");
    SWIFTRL_ASSERT(scale > 0, "scale factor must be positive");
    // The correctly rounded quotient; the PIM gather path uses the
    // identical descale, keeping single-core PIM runs bit-equal to the
    // reference.
    common::withDescaleToFloat(scale, [&](auto descale) {
        for (std::size_t i = 0; i < raw.size(); ++i)
            table._values[i] = descale(raw[i]);
    });
    return table;
}

QTable
QTable::fromFloats(StateId num_states, ActionId num_actions,
                   const std::vector<float> &values)
{
    QTable table(num_states, num_actions);
    SWIFTRL_ASSERT(values.size() == table.entryCount(),
                   "float buffer size mismatch");
    table._values = values;
    return table;
}

QTable
QTable::average(const std::vector<QTable> &tables)
{
    SWIFTRL_ASSERT(!tables.empty(), "average of zero Q-tables");
    QTable out(tables.front().numStates(),
               tables.front().numActions());
    for (const auto &t : tables) {
        SWIFTRL_ASSERT(t.numStates() == out.numStates() &&
                           t.numActions() == out.numActions(),
                       "Q-table shape mismatch in aggregation");
        for (std::size_t i = 0; i < out._values.size(); ++i)
            out._values[i] += t._values[i];
    }
    const float inv = 1.0f / static_cast<float>(tables.size());
    for (auto &v : out._values)
        v *= inv;
    return out;
}

float
QTable::maxAbsValue() const
{
    float m = 0.0f;
    for (const float v : _values)
        m = std::max(m, std::fabs(v));
    return m;
}

float
QTable::maxAbsDifference(const QTable &a, const QTable &b)
{
    SWIFTRL_ASSERT(a.entryCount() == b.entryCount(),
                   "Q-table shape mismatch");
    float m = 0.0f;
    for (std::size_t i = 0; i < a._values.size(); ++i)
        m = std::max(m, std::fabs(a._values[i] - b._values[i]));
    return m;
}

} // namespace swiftrl::rlcore
