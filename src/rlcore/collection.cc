#include "rlcore/collection.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "rlcore/seeds.hh"

namespace swiftrl::rlcore {

BehaviourPolicy
makeRandomPolicy(ActionId num_actions)
{
    SWIFTRL_ASSERT(num_actions > 0, "empty action space");
    return [num_actions](StateId, common::XorShift128 &rng) {
        return randomAction(num_actions, rng);
    };
}

BehaviourPolicy
makeEpsilonGreedyPolicy(QTable q, float epsilon)
{
    SWIFTRL_ASSERT(epsilon >= 0.0f && epsilon <= 1.0f,
                   "epsilon out of [0, 1]");
    return [q = std::move(q), epsilon](StateId s,
                                       common::XorShift128 &rng) {
        return epsilonGreedy(q, s, epsilon, rng);
    };
}

BehaviourPolicy
makeBoltzmannPolicy(QTable q, float temperature)
{
    SWIFTRL_ASSERT(temperature > 0.0f, "temperature must be positive");
    return [q = std::move(q), temperature](StateId s,
                                           common::XorShift128 &rng) {
        return boltzmann(q, s, temperature, rng);
    };
}

namespace {

/** Both collectors: one rollout into pre-sized columns. */
Dataset
collect(rlenv::Environment &env, const BehaviourPolicy *policy,
        std::size_t num_transitions, std::uint64_t seed)
{
    Dataset data;
    common::XorShift128 rng(seed);
    env.rollout(policy, num_transitions, rng,
                data.resizeColumns(num_transitions));
    return data;
}

} // namespace

Dataset
collectRandomDataset(rlenv::Environment &env,
                     std::size_t num_transitions, std::uint64_t seed)
{
    return collect(env, nullptr, num_transitions, seed);
}

Dataset
collectPolicyDataset(rlenv::Environment &env,
                     const BehaviourPolicy &policy,
                     std::size_t num_transitions, std::uint64_t seed)
{
    SWIFTRL_ASSERT(policy, "collection needs a behaviour policy");
    return collect(env, &policy, num_transitions, seed);
}

std::vector<Dataset>
collectPolicyBlocks(const EnvFactory &make_env,
                    const BehaviourPolicy &policy,
                    std::size_t num_transitions,
                    std::size_t block_transitions, std::uint64_t seed,
                    unsigned actor_threads)
{
    SWIFTRL_ASSERT(make_env, "block collection needs an env factory");
    SWIFTRL_ASSERT(policy, "block collection needs a policy");
    SWIFTRL_ASSERT(block_transitions > 0,
                   "collection blocks must hold at least one "
                   "transition");

    const std::size_t blocks =
        (num_transitions + block_transitions - 1) / block_transitions;
    std::vector<Dataset> out(blocks);
    if (blocks == 0)
        return out;

    // Index-pure worker: block i depends only on (policy, seed, i),
    // never on which thread ran it or what ran before it.
    auto run_block = [&](std::size_t i) {
        const std::size_t first = i * block_transitions;
        const std::size_t count =
            std::min(block_transitions, num_transitions - first);
        auto env = make_env();
        out[i] = collectPolicyDataset(*env, policy, count,
                                      deriveHostSeed(seed, i));
    };

    std::size_t threads = actor_threads == 0
                              ? std::thread::hardware_concurrency()
                              : actor_threads;
    threads = std::clamp<std::size_t>(threads, 1, blocks);

    if (threads == 1) {
        for (std::size_t i = 0; i < blocks; ++i)
            run_block(i);
        return out;
    }
    // Round-robin block ownership: actor t runs blocks t, t+T, ... —
    // the same static schedule the modelled actor timing assumes.
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t i = t; i < blocks; i += threads)
                run_block(i);
        });
    }
    for (auto &worker : pool)
        worker.join();
    return out;
}

Dataset
concatBlocks(const std::vector<Dataset> &blocks)
{
    std::size_t total = 0;
    for (const auto &block : blocks)
        total += block.size();
    Dataset all;
    all.reserve(total);
    for (const auto &block : blocks)
        all.append(block);
    return all;
}

} // namespace swiftrl::rlcore
