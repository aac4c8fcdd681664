#include "rlcore/mdp.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "rlenv/frozen_lake.hh"

namespace swiftrl::rlcore {

MdpModel::MdpModel(StateId num_states, ActionId num_actions)
    : _numStates(num_states), _numActions(num_actions),
      _outcomes(static_cast<std::size_t>(num_states) *
                static_cast<std::size_t>(num_actions))
{
    SWIFTRL_ASSERT(num_states > 0 && num_actions > 0,
                   "MDP needs a non-empty state-action space");
}

std::size_t
MdpModel::index(StateId s, ActionId a) const
{
    SWIFTRL_ASSERT(s >= 0 && s < _numStates, "state out of range");
    SWIFTRL_ASSERT(a >= 0 && a < _numActions, "action out of range");
    return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(_numActions) +
           static_cast<std::size_t>(a);
}

const std::vector<Outcome> &
MdpModel::outcomes(StateId s, ActionId a) const
{
    return _outcomes[index(s, a)];
}

void
MdpModel::addOutcome(StateId s, ActionId a, const Outcome &outcome)
{
    SWIFTRL_ASSERT(outcome.probability > 0.0 &&
                       outcome.probability <= 1.0,
                   "outcome probability out of (0, 1]");
    _outcomes[index(s, a)].push_back(outcome);
}

double
MdpModel::probabilityMass(StateId s, ActionId a) const
{
    double mass = 0.0;
    for (const auto &o : outcomes(s, a))
        mass += o.probability;
    return mass;
}

double
MdpModel::coverage() const
{
    std::size_t covered = 0;
    for (const auto &cell : _outcomes)
        covered += cell.empty() ? 0 : 1;
    return static_cast<double>(covered) /
           static_cast<double>(_outcomes.size());
}

MdpModel
exactFrozenLakeModel(bool slippery)
{
    using rlenv::FrozenLake;
    MdpModel model(FrozenLake::kStates, FrozenLake::kActions);

    for (StateId s = 0; s < FrozenLake::kStates; ++s) {
        if (FrozenLake::isTerminal(s))
            continue; // terminal states have no outgoing actions
        for (ActionId a = 0; a < FrozenLake::kActions; ++a) {
            // The environment's own table, one entry per slip draw.
            // Aggregate duplicate landing states (border clamping
            // can map two slip directions to one cell).
            std::map<StateId, Outcome> merged;
            const auto land = [&](ActionId direction, double p) {
                const rlenv::Outcome &step =
                    FrozenLake::outcome(s, direction);
                Outcome &o = merged[step.nextState];
                o.probability += p;
                o.nextState = step.nextState;
                o.reward = step.reward;
                o.terminal = step.terminated;
            };
            if (slippery) {
                for (ActionId pick = 0; pick < 3; ++pick)
                    land(FrozenLake::slide(a, pick), 1.0 / 3.0);
            } else {
                land(a, 1.0);
            }
            for (const auto &[next, o] : merged)
                model.addOutcome(s, a, o);
        }
    }
    return model;
}

MdpModel
empiricalModel(const Dataset &data, StateId num_states,
               ActionId num_actions)
{
    SWIFTRL_ASSERT(!data.empty(), "empirical model of an empty "
                                  "dataset");
    struct Cell
    {
        std::size_t count = 0;
        double rewardSum = 0.0;
        std::size_t terminalCount = 0;
    };
    // (s, a) -> next -> statistics
    std::map<std::pair<StateId, ActionId>, std::map<StateId, Cell>>
        counts;
    std::map<std::pair<StateId, ActionId>, std::size_t> totals;

    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto t = data.get(i);
        auto &cell = counts[{t.state, t.action}][t.nextState];
        ++cell.count;
        cell.rewardSum += static_cast<double>(t.reward);
        cell.terminalCount += t.terminal ? 1 : 0;
        ++totals[{t.state, t.action}];
    }

    MdpModel model(num_states, num_actions);
    for (const auto &[sa, nexts] : counts) {
        const auto total = static_cast<double>(totals.at(sa));
        for (const auto &[next, cell] : nexts) {
            Outcome o;
            o.probability = static_cast<double>(cell.count) / total;
            o.nextState = next;
            o.reward = cell.rewardSum /
                       static_cast<double>(cell.count);
            // A (s,a,s') triple is terminal or not deterministically
            // in our environments; majority vote for robustness.
            o.terminal = cell.terminalCount * 2 >= cell.count;
            model.addOutcome(sa.first, sa.second, o);
        }
    }
    return model;
}

ValueIterationResult
valueIteration(const MdpModel &model, double gamma,
               int max_iterations, double tolerance)
{
    SWIFTRL_ASSERT(gamma >= 0.0 && gamma < 1.0,
                   "value iteration needs gamma in [0, 1)");
    SWIFTRL_ASSERT(max_iterations > 0, "need at least one iteration");

    const auto ns = static_cast<std::size_t>(model.numStates());
    const auto na = static_cast<std::size_t>(model.numActions());

    // Iterate in double precision; quantise to the float Q-table
    // only at the end (float iteration would floor the residual at
    // ~3e-8 and never meet tight tolerances).
    std::vector<double> q(ns * na, 0.0);
    std::vector<double> next(ns * na, 0.0);
    auto max_over = [&](const std::vector<double> &table, StateId s) {
        const std::size_t base = static_cast<std::size_t>(s) * na;
        double best = table[base];
        for (std::size_t a = 1; a < na; ++a)
            best = std::max(best, table[base + a]);
        return best;
    };

    ValueIterationResult result;
    for (int it = 0; it < max_iterations; ++it) {
        double residual = 0.0;
        for (StateId s = 0; s < model.numStates(); ++s) {
            for (ActionId a = 0; a < model.numActions(); ++a) {
                const std::size_t at =
                    static_cast<std::size_t>(s) * na +
                    static_cast<std::size_t>(a);
                const auto &outcomes = model.outcomes(s, a);
                if (outcomes.empty()) {
                    next[at] = 0.0;
                    continue;
                }
                double value = 0.0;
                for (const auto &o : outcomes) {
                    const double bootstrap =
                        o.terminal ? 0.0
                                   : max_over(q, o.nextState);
                    value += o.probability *
                             (o.reward + gamma * bootstrap);
                }
                residual =
                    std::max(residual, std::fabs(value - q[at]));
                next[at] = value;
            }
        }
        std::swap(q, next);
        result.iterations = it + 1;
        result.residual = residual;
        if (residual < tolerance)
            break;
    }

    result.q = QTable(model.numStates(), model.numActions());
    for (std::size_t i = 0; i < q.size(); ++i)
        result.q.values()[i] = static_cast<float>(q[i]);
    return result;
}

} // namespace swiftrl::rlcore
