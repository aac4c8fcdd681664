#include "rlcore/trainers.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "rlcore/sampling.hh"
#include "rlcore/seeds.hh"
#include "rlcore/update_rules.hh"

namespace swiftrl::rlcore {

const char *
algorithmName(Algorithm algo)
{
    switch (algo) {
      case Algorithm::QLearning: return "Q";
      case Algorithm::Sarsa: return "SARSA";
    }
    SWIFTRL_PANIC("unknown algorithm");
}

std::optional<Algorithm>
parseAlgorithm(std::string_view name)
{
    std::string n(name);
    std::transform(n.begin(), n.end(), n.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    if (n == "q" || n == "qlearning" || n == "q-learning")
        return Algorithm::QLearning;
    if (n == "sarsa")
        return Algorithm::Sarsa;
    return std::nullopt;
}

std::int32_t
quantizeReward(float reward, std::int32_t scale)
{
    const double scaled =
        static_cast<double>(reward) * static_cast<double>(scale);
    return static_cast<std::int32_t>(
        scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
}

namespace {

/** FP32 training loop shared by both algorithms. */
QTable
trainFp32(Algorithm algo, const Dataset &data, StateId num_states,
          ActionId num_actions, const Hyper &hyper, Sampling sampling,
          std::uint64_t lcg_stream)
{
    HostOps ops;
    ops.lcgSeed(deriveLcgSeed(hyper.seed, lcg_stream));
    SampleWalker walker(data.size(), sampling,
                        static_cast<std::size_t>(hyper.stride));
    const auto epsilon_milli = static_cast<std::int32_t>(
        static_cast<double>(hyper.epsilon) * 1000.0 + 0.5);

    QTable table(num_states, num_actions);
    float *q = table.values().data();

    for (int ep = 0; ep < hyper.episodes; ++ep) {
        walker.startEpisode();
        for (std::size_t k = 0; k < data.size(); ++k) {
            const std::size_t i =
                walker.next([&](std::size_t bound) {
                    return static_cast<std::size_t>(ops.lcgNextBounded(
                        static_cast<std::uint32_t>(bound)));
                });
            const StateId s = data.states()[i];
            const ActionId a = data.actions()[i];
            const float r = data.rewards()[i];
            const StateId s2 = data.nextStates()[i];
            const bool terminal = data.terminals()[i] != 0;

            if (algo == Algorithm::QLearning) {
                qlearningUpdateFp32(ops, q, num_actions, s, a, r, s2,
                                    terminal, hyper.alpha, hyper.gamma);
            } else {
                sarsaUpdateFp32(ops, q, num_actions, s, a, r, s2,
                                terminal, hyper.alpha, hyper.gamma,
                                epsilon_milli);
            }
        }
    }
    return table;
}

/**
 * Fixed-point training loop shared by both algorithms and both
 * fixed-point formats (INT32 scaling optimisation, INT8 custom-
 * multiply optimisation).
 */
QTable
trainInt32(Algorithm algo, const Dataset &data, StateId num_states,
           ActionId num_actions, const Hyper &hyper, Sampling sampling,
           NumericFormat format, std::uint64_t lcg_stream)
{
    HostOps ops;
    ops.lcgSeed(deriveLcgSeed(hyper.seed, lcg_stream));
    SampleWalker walker(data.size(), sampling,
                        static_cast<std::size_t>(hyper.stride));
    const bool int8 = format == NumericFormat::Int8;
    const ScaledHyper scaled = ScaledHyper::fromHyper(hyper);
    const ScaledHyperPow2 pow2 = ScaledHyperPow2::fromHyper(hyper);
    const std::int32_t scale =
        int8 ? pow2.scale() : hyper.scale;

    // Pre-quantise rewards once, as the host does before the CPU-PIM
    // transfer ("we scale up the reward r for each experience").
    std::vector<std::int32_t> r_scaled(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        r_scaled[i] = quantizeReward(data.rewards()[i], scale);

    std::vector<std::int32_t> q(
        static_cast<std::size_t>(num_states) *
            static_cast<std::size_t>(num_actions),
        0);

    for (int ep = 0; ep < hyper.episodes; ++ep) {
        walker.startEpisode();
        for (std::size_t k = 0; k < data.size(); ++k) {
            const std::size_t i =
                walker.next([&](std::size_t bound) {
                    return static_cast<std::size_t>(ops.lcgNextBounded(
                        static_cast<std::uint32_t>(bound)));
                });
            const StateId s = data.states()[i];
            const ActionId a = data.actions()[i];
            const StateId s2 = data.nextStates()[i];
            const bool terminal = data.terminals()[i] != 0;

            if (int8) {
                if (algo == Algorithm::QLearning) {
                    qlearningUpdateInt8(ops, q.data(), num_actions, s,
                                        a, r_scaled[i], s2, terminal,
                                        pow2);
                } else {
                    sarsaUpdateInt8(ops, q.data(), num_actions, s, a,
                                    r_scaled[i], s2, terminal, pow2);
                }
            } else if (algo == Algorithm::QLearning) {
                qlearningUpdateInt32(ops, q.data(), num_actions, s, a,
                                     r_scaled[i], s2, terminal, scaled);
            } else {
                sarsaUpdateInt32(ops, q.data(), num_actions, s, a,
                                 r_scaled[i], s2, terminal, scaled);
            }
        }
    }
    return QTable::fromFixed(num_states, num_actions, q, scale);
}

} // namespace

QTable
trainCpuReference(Algorithm algo, const Dataset &data,
                  StateId num_states, ActionId num_actions,
                  const Hyper &hyper, Sampling sampling,
                  NumericFormat format, std::uint64_t lcg_stream)
{
    SWIFTRL_ASSERT(!data.empty(), "training on an empty dataset");
    if (format == NumericFormat::Fp32) {
        return trainFp32(algo, data, num_states, num_actions, hyper,
                         sampling, lcg_stream);
    }
    return trainInt32(algo, data, num_states, num_actions, hyper,
                      sampling, format, lcg_stream);
}

} // namespace swiftrl::rlcore
