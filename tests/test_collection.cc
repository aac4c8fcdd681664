/**
 * @file
 * Tests for behaviour-policy dataset collection.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rlcore/collection.hh"
#include "rlcore/evaluate.hh"
#include "rlcore/trainers.hh"
#include "rlenv/frozen_lake.hh"

namespace {

using namespace swiftrl::rlcore;
using swiftrl::rlenv::FrozenLake;

TEST(Collection, RandomPolicyMatchesCollectRandomDataset)
{
    FrozenLake env_a(true), env_b(true);
    const auto via_policy = collectPolicyDataset(
        env_a, makeRandomPolicy(4), 2000, 9);
    const auto direct = collectRandomDataset(env_b, 2000, 9);
    // Same RNG discipline: one action draw then dynamics draws.
    ASSERT_EQ(via_policy.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        ASSERT_EQ(via_policy.get(i), direct.get(i));
}

TEST(Collection, ExactCount)
{
    FrozenLake env(true);
    const auto data = collectPolicyDataset(
        env, makeRandomPolicy(4), 777, 1);
    EXPECT_EQ(data.size(), 777u);
}

TEST(Collection, GreedyPolicyCollectsOnPolicyData)
{
    // A purely greedy policy over a trained table logs (mostly) its
    // own trajectory: action diversity collapses per state.
    FrozenLake env(false);
    const auto random_data = collectRandomDataset(env, 20000, 1);
    Hyper h;
    h.episodes = 50;
    const auto q = trainCpuReference(Algorithm::QLearning,
                                     random_data, 16, 4, h,
                                     Sampling::Seq,
                                     NumericFormat::Fp32);

    FrozenLake env2(false);
    const auto greedy_data = collectPolicyDataset(
        env2, makeEpsilonGreedyPolicy(q, 0.0f), 600, 2);
    for (std::size_t i = 0; i < greedy_data.size(); ++i) {
        const auto t = greedy_data.get(i);
        ASSERT_EQ(t.action, q.greedyAction(t.state));
    }
}

TEST(Collection, EpsilonControlsCoverage)
{
    FrozenLake env_greedy(true), env_explore(true);
    QTable q(16, 4); // zero table: greedy always picks action 0
    const auto greedy = collectPolicyDataset(
        env_greedy, makeEpsilonGreedyPolicy(q, 0.0f), 3000, 3);
    const auto exploring = collectPolicyDataset(
        env_explore, makeEpsilonGreedyPolicy(q, 1.0f), 3000, 3);

    auto distinct_actions = [](const Dataset &d) {
        std::set<ActionId> seen;
        for (std::size_t i = 0; i < d.size(); ++i)
            seen.insert(d.get(i).action);
        return seen.size();
    };
    EXPECT_EQ(distinct_actions(greedy), 1u);
    EXPECT_EQ(distinct_actions(exploring), 4u);
}

TEST(Collection, BoltzmannPolicyCollects)
{
    FrozenLake env(true);
    QTable q(16, 4);
    q.initArbitrary(5);
    const auto data = collectPolicyDataset(
        env, makeBoltzmannPolicy(q, 1.0f), 1000, 4);
    EXPECT_EQ(data.size(), 1000u);
    std::set<ActionId> seen;
    for (std::size_t i = 0; i < data.size(); ++i)
        seen.insert(data.get(i).action);
    EXPECT_EQ(seen.size(), 4u); // high temperature explores
}

// --- block-granular collection (streaming extension) ----------------

std::unique_ptr<swiftrl::rlenv::Environment>
makeSlipperyLake()
{
    return std::make_unique<FrozenLake>(true);
}

void
expectSameData(const Dataset &a, const Dataset &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.get(i), b.get(i)) << "transition " << i;
}

TEST(CollectionBlocks, ExactCountWhenNotDivisible)
{
    // 1000 = 7 full blocks of 128 plus a short tail of 104.
    const auto blocks = collectPolicyBlocks(
        makeSlipperyLake, makeRandomPolicy(4), 1000, 128, 5);
    ASSERT_EQ(blocks.size(), 8u);
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i)
        EXPECT_EQ(blocks[i].size(), 128u) << "block " << i;
    EXPECT_EQ(blocks.back().size(), 104u);
    EXPECT_EQ(concatBlocks(blocks).size(), 1000u);
}

TEST(CollectionBlocks, ThreadCountNeverChangesTheData)
{
    const auto reference = concatBlocks(collectPolicyBlocks(
        makeSlipperyLake, makeRandomPolicy(4), 3000, 256, 6, 1));
    for (const unsigned threads : {3u, 8u}) {
        const auto parallel = concatBlocks(collectPolicyBlocks(
            makeSlipperyLake, makeRandomPolicy(4), 3000, 256, 6,
            threads));
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectSameData(reference, parallel);
    }
}

TEST(CollectionBlocks, BlocksAreIndependentOfEachOther)
{
    // Block i depends only on (policy, seed, i): collecting a single
    // block's worth reproduces block 0 of the full run exactly.
    const auto full = collectPolicyBlocks(
        makeSlipperyLake, makeRandomPolicy(4), 512, 128, 7);
    const auto lone = collectPolicyBlocks(
        makeSlipperyLake, makeRandomPolicy(4), 128, 128, 7);
    ASSERT_EQ(lone.size(), 1u);
    expectSameData(full[0], lone[0]);
}

TEST(CollectionBlocks, ConcatMatchesPerTransitionCopy)
{
    // Blocks of unequal length, an empty one among them: the bulk
    // column append must equal copying one transition at a time.
    auto blocks = collectPolicyBlocks(
        makeSlipperyLake, makeRandomPolicy(4), 1000, 300, 8);
    blocks.insert(blocks.begin() + 1, Dataset{});
    Dataset copied;
    for (const auto &block : blocks) {
        for (std::size_t i = 0; i < block.size(); ++i)
            copied.append(block.get(i));
    }
    const Dataset bulk = concatBlocks(blocks);
    expectSameData(copied, bulk);
    EXPECT_EQ(bulk.terminals(), copied.terminals());
    EXPECT_EQ(concatBlocks({}).size(), 0u);
}

TEST(CollectionBlocks, EpisodeResetExactlyAtBlockEdge)
{
    // On the non-slippery lake this policy walks S->G in exactly 6
    // steps: 0 ->R 1 ->R 2 ->D 6 ->D 10 ->D 14 ->R 15 (goal). With
    // 6-transition blocks every block is one complete episode that
    // terminates exactly on the block edge, and the next block must
    // start from a fresh reset (state 0) like any other block.
    const BehaviourPolicy solver =
        [](StateId s, swiftrl::common::XorShift128 &) -> ActionId {
        switch (s) {
        case 2:
        case 6:
        case 10:
            return 1; // Down
        default:
            return 2; // Right
        }
    };
    const auto blocks = collectPolicyBlocks(
        [] { return std::make_unique<FrozenLake>(false); }, solver,
        24, 6, 9);
    ASSERT_EQ(blocks.size(), 4u);
    const StateId path[6] = {0, 1, 2, 6, 10, 14};
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        ASSERT_EQ(blocks[b].size(), 6u);
        for (std::size_t i = 0; i < 6; ++i) {
            const auto t = blocks[b].get(i);
            EXPECT_EQ(t.state, path[i]);
            EXPECT_EQ(t.terminal, i == 5);
        }
        EXPECT_EQ(blocks[b].get(5).nextState, 15);
        EXPECT_EQ(blocks[b].get(5).reward, 1.0f);
    }
}

TEST(Collection, MixedPolicyDataTrainsBetterThanItsSource)
{
    // The offline-RL improvement property: training on data from a
    // mediocre epsilon-greedy behaviour policy yields a greedy
    // policy at least as good as the behaviour policy's base table.
    FrozenLake env(true);
    const auto seed_data = collectRandomDataset(env, 50000, 1);
    Hyper h;
    h.episodes = 10;
    const auto weak = trainCpuReference(Algorithm::QLearning,
                                        seed_data, 16, 4, h,
                                        Sampling::Seq,
                                        NumericFormat::Fp32);

    FrozenLake env2(true);
    const auto mixed = collectPolicyDataset(
        env2, makeEpsilonGreedyPolicy(weak, 0.4f), 200'000, 2);
    h.episodes = 30;
    const auto improved = trainCpuReference(Algorithm::QLearning,
                                            mixed, 16, 4, h,
                                            Sampling::Seq,
                                            NumericFormat::Fp32);

    FrozenLake eval_a(true), eval_b(true);
    const auto weak_eval = evaluateGreedy(eval_a, weak, 1000, 7);
    const auto improved_eval =
        evaluateGreedy(eval_b, improved, 1000, 7);
    EXPECT_GE(improved_eval.meanReward,
              weak_eval.meanReward - 0.05);
}

} // namespace
