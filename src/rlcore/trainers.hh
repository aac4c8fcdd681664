/**
 * @file
 * CPU reference trainers: single-threaded tabular Q-learning and SARSA
 * over an offline dataset, in both numeric formats and all three
 * sampling strategies. These are the ground truth the PIM kernels are
 * validated against (a single-core PIM run must match bit-for-bit) and
 * the functional substance behind the paper's CPU baselines.
 */

#ifndef SWIFTRL_RLCORE_TRAINERS_HH
#define SWIFTRL_RLCORE_TRAINERS_HH

#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "rlcore/types.hh"

namespace swiftrl::rlcore {

/** The two tabular algorithms SwiftRL accelerates. */
enum class Algorithm
{
    QLearning, ///< off-policy max-bootstrap (Algorithm 1)
    Sarsa,     ///< on-policy with epsilon-greedy next action (Eq. 1)
};

/** Short tag ("Q"/"SARSA") for reports. */
const char *algorithmName(Algorithm algo);

/** Parse "q"/"qlearning"/"q-learning"/"sarsa" (case-insensitive);
 *  nullopt otherwise. */
std::optional<Algorithm> parseAlgorithm(std::string_view name);

/**
 * Train a Q-table on @p data with the reference CPU implementation.
 *
 * One "episode" performs data.size() updates in the order defined by
 * the sampling strategy (SwiftRL Algorithm 1's batched sweep). The
 * random streams (RAN sampling, SARSA's epsilon-greedy) come from the
 * PIM-style LCG seeded from hyper.seed, so this function reproduces a
 * single-chunk PIM kernel exactly.
 *
 * @param lcg_stream stream id for seed derivation (PIM core id when
 *        mirroring a kernel; 0 for standalone reference training).
 */
QTable trainCpuReference(Algorithm algo, const Dataset &data,
                         StateId num_states, ActionId num_actions,
                         const Hyper &hyper, Sampling sampling,
                         NumericFormat format,
                         std::uint64_t lcg_stream = 0);

/**
 * Fixed-point quantisation used by Dataset::packInt32, the sharded
 * chunk pack, the Q wire encoder and the INT32 trainers:
 * round(reward * scale), ties away from zero.
 */
std::int32_t quantizeReward(float reward, std::int32_t scale);

} // namespace swiftrl::rlcore

#endif // SWIFTRL_RLCORE_TRAINERS_HH
