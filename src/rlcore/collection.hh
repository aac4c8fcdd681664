/**
 * @file
 * Offline dataset collection under arbitrary behaviour policies.
 *
 * SwiftRL collects with a uniform-random policy but notes that
 * "other policies such as epsilon greedy and boltzmann can also be
 * used to execute actions on the environment and log the
 * experiences" (Sec. 3.2.1). This module provides that: a behaviour
 * policy is any callable mapping the current state (plus the rollout
 * RNG) to an action, and collection logs exactly `n` transitions with
 * automatic episode resets — the same contract as
 * collectRandomDataset.
 *
 * For the streaming trainer there is additionally a *block-granular*
 * collection API: a request for `n` transitions is split into fixed
 * slices of `block` transitions (the last one shorter when `n` is not
 * divisible), and each block is an independent rollout in a fresh
 * environment under its own derived seed. Because blocks are
 * index-pure, the collected data is bit-identical for any number of
 * actor threads executing them.
 */

#ifndef SWIFTRL_RLCORE_COLLECTION_HH
#define SWIFTRL_RLCORE_COLLECTION_HH

#include <functional>
#include <memory>
#include <vector>

#include "rlcore/dataset.hh"
#include "rlcore/policy.hh"
#include "rlcore/qtable.hh"
#include "rlenv/environment.hh"

namespace swiftrl::rlcore {

/** A behaviour policy: state (+ rollout RNG) -> action. */
using BehaviourPolicy = rlenv::ActionPolicy;

/** Uniform-random behaviour policy (the paper's default). */
BehaviourPolicy makeRandomPolicy(ActionId num_actions);

/**
 * Epsilon-greedy behaviour policy over a (typically partially
 * trained) Q-table. The table is copied so the policy stays valid
 * after the source goes away.
 */
BehaviourPolicy makeEpsilonGreedyPolicy(QTable q, float epsilon);

/** Boltzmann (softmax) behaviour policy at a fixed temperature. */
BehaviourPolicy makeBoltzmannPolicy(QTable q, float temperature);

/**
 * Roll out @p policy in @p env and log exactly @p num_transitions
 * experience tuples.
 */
Dataset collectPolicyDataset(rlenv::Environment &env,
                             const BehaviourPolicy &policy,
                             std::size_t num_transitions,
                             std::uint64_t seed);

/**
 * Factory producing fresh environment instances, so parallel actors
 * can each roll out in their own copy (Environment is stateful).
 * Typically `[] { return rlenv::makeEnvironment("taxi"); }`.
 */
using EnvFactory =
    std::function<std::unique_ptr<rlenv::Environment>()>;

/**
 * Block-granular parallel collection: log exactly @p num_transitions
 * tuples as ceil(n / block) independent blocks of @p block_transitions
 * each (the last block shorter when n is not divisible).
 *
 * Block i is a self-contained rollout: a fresh environment from
 * @p make_env, reset with the block's own seed
 * (deriveHostSeed(seed, i)), episodes resetting automatically inside
 * the block, and the episode in flight truncated by the block edge —
 * exactly collectPolicyDataset's contract applied per block. An
 * episode that terminates exactly on the edge leaves the next block
 * starting from a reset, like any other block.
 *
 * @p actor_threads host threads executing blocks (round-robin by
 * block index; 0 = one per hardware thread). Blocks are index-pure —
 * block i's content depends only on (policy, seed, i) — so the
 * returned blocks are bit-identical for every thread count.
 */
std::vector<Dataset> collectPolicyBlocks(const EnvFactory &make_env,
                                         const BehaviourPolicy &policy,
                                         std::size_t num_transitions,
                                         std::size_t block_transitions,
                                         std::uint64_t seed,
                                         unsigned actor_threads = 1);

/** Concatenate blocks (in index order) into one dataset. */
Dataset concatBlocks(const std::vector<Dataset> &blocks);

} // namespace swiftrl::rlcore

#endif // SWIFTRL_RLCORE_COLLECTION_HH
