/**
 * @file
 * The sharded Q-table training path end to end: a 1-shard run is
 * bit-identical to the unsharded trainer (the contract that makes
 * sharding a pure layout change), multi-shard runs are deterministic,
 * checkpoint/restore of a sharded run continues bit-identically with
 * the shard count carried in the identity block, and the procedural
 * environments drive multi-shard runs at state counts the fixed maps
 * cannot reach.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "rlcore/collection.hh"
#include "rlenv/registry.hh"
#include "swiftrl/session.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::PimTrainConfig;
using swiftrl::PimTrainer;
using swiftrl::PimTrainResult;
using swiftrl::SessionCheckpoint;
using swiftrl::SessionConfig;
using swiftrl::Workload;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using namespace swiftrl::rlcore;

void
expectBitEq(const QTable &a, const QTable &b)
{
    ASSERT_EQ(a.entryCount(), b.entryCount());
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          a.entryCount() * sizeof(float)),
              0)
        << "Q-tables differ (max |diff| "
        << QTable::maxAbsDifference(a, b) << ")";
}

PimTrainConfig
baseConfig(NumericFormat format)
{
    PimTrainConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq, format};
    cfg.hyper.episodes = 60;
    cfg.tau = 20; // 3 rounds
    return cfg;
}

PimTrainResult
runLake(std::size_t cores, std::size_t shards, NumericFormat format,
        int episodes = 60)
{
    auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
    const Dataset data = collectRandomDataset(*env, 2048, 17);
    PimConfig pim;
    pim.numDpus = cores;
    PimSystem system(pim);
    PimTrainConfig cfg = baseConfig(format);
    cfg.hyper.episodes = episodes;
    cfg.shards = shards;
    return PimTrainer(system, cfg)
        .train(data, env->numStates(), env->numActions());
}

// --- 1-shard equivalence ----------------------------------------------

TEST(ShardedSession, OneShardIsBitIdenticalToUnshardedFp32)
{
    const auto plain = runLake(4, 0, NumericFormat::Fp32);
    const auto sharded = runLake(4, 1, NumericFormat::Fp32);
    expectBitEq(plain.finalQ, sharded.finalQ);
    EXPECT_EQ(plain.commRounds, sharded.commRounds);
    ASSERT_EQ(plain.roundDeltas.size(), sharded.roundDeltas.size());
    for (std::size_t i = 0; i < plain.roundDeltas.size(); ++i)
        EXPECT_EQ(plain.roundDeltas[i], sharded.roundDeltas[i]);
}

TEST(ShardedSession, OneShardIsBitIdenticalToUnshardedInt32)
{
    const auto plain = runLake(4, 0, NumericFormat::Int32);
    const auto sharded = runLake(4, 1, NumericFormat::Int32);
    expectBitEq(plain.finalQ, sharded.finalQ);
}

// --- multi-shard runs -------------------------------------------------

TEST(ShardedSession, MultiShardRunsAreDeterministic)
{
    const auto a = runLake(8, 2, NumericFormat::Fp32);
    const auto b = runLake(8, 2, NumericFormat::Fp32);
    expectBitEq(a.finalQ, b.finalQ);
    EXPECT_EQ(a.commRounds, b.commRounds);
}

TEST(ShardedSession, MultiShardLearnsOnTheLake)
{
    const auto r = runLake(8, 4, NumericFormat::Fp32, 200);
    EXPECT_EQ(r.commRounds, 10);
    // The goal-adjacent state must have picked up value.
    float max_q = 0.0f;
    for (const float v : r.finalQ.values())
        max_q = std::max(max_q, v);
    EXPECT_GT(max_q, 0.0f);
}

TEST(ShardedSession, ProceduralLakeTrainsSharded)
{
    auto env = swiftrl::rlenv::makeEnvironment("lake:16");
    const Dataset data = collectRandomDataset(*env, 8192, 23);
    PimConfig pim;
    pim.numDpus = 8;
    PimSystem system(pim);
    PimTrainConfig cfg = baseConfig(NumericFormat::Fp32);
    cfg.shards = 4;
    const auto r = PimTrainer(system, cfg)
                       .train(data, env->numStates(),
                              env->numActions());
    EXPECT_EQ(r.finalQ.entryCount(),
              std::size_t(env->numStates()) *
                  std::size_t(env->numActions()));
    for (const float v : r.finalQ.values())
        ASSERT_TRUE(std::isfinite(v));
}

// --- checkpoint / restore ---------------------------------------------

TEST(ShardedSession, PauseResumeContinuesBitIdentically)
{
    auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
    const Dataset data = collectRandomDataset(*env, 2048, 17);
    PimConfig pim;
    pim.numDpus = 8;
    PimTrainConfig cfg = baseConfig(NumericFormat::Fp32);
    cfg.shards = 2;

    PimTrainResult full;
    {
        PimSystem system(pim);
        full = PimTrainer(system, cfg).train(data, 16, 4);
    }

    const std::string path =
        ::testing::TempDir() + "swiftrl_sharded.ck";
    {
        PimSystem system(pim);
        const auto ck = PimTrainer(system, cfg)
                            .trainUntilRound(data, 16, 4, 2);
        EXPECT_EQ(ck.shards, 2u);
        swiftrl::saveCheckpoint(ck, path);
    }
    const auto loaded = swiftrl::loadCheckpoint(path);
    EXPECT_EQ(loaded.shards, 2u);

    PimSystem system(pim);
    const auto resumed =
        PimTrainer(system, cfg).resume(data, 16, 4, loaded);
    expectBitEq(full.finalQ, resumed.finalQ);
    EXPECT_EQ(full.commRounds, resumed.commRounds);
    EXPECT_EQ(full.time.kernel, resumed.time.kernel);
    EXPECT_EQ(full.time.interCore, resumed.time.interCore);
}

TEST(ShardedSession, CheckpointShardCountIsIdentity)
{
    auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
    const Dataset data = collectRandomDataset(*env, 2048, 17);
    PimConfig pim;
    pim.numDpus = 8;
    PimTrainConfig cfg = baseConfig(NumericFormat::Fp32);
    cfg.shards = 2;
    PimSystem system(pim);
    const auto ck =
        PimTrainer(system, cfg).trainUntilRound(data, 16, 4, 1);

    SessionConfig session;
    session.workload = cfg.workload;
    session.hyper = cfg.hyper;
    session.tau = cfg.tau;
    session.shards = 2;
    EXPECT_EQ(swiftrl::checkpointMismatch(session, 8, ck), "");
    session.shards = 4;
    EXPECT_NE(swiftrl::checkpointMismatch(session, 8, ck), "");
    session.shards = 0;
    EXPECT_NE(swiftrl::checkpointMismatch(session, 8, ck), "");
}

// --- config guards ----------------------------------------------------

TEST(ShardedSessionDeath, RefusesWeightedAggregation)
{
    PimConfig pim;
    pim.numDpus = 4;
    PimSystem system(pim);
    PimTrainConfig cfg = baseConfig(NumericFormat::Fp32);
    cfg.shards = 2;
    cfg.weightedAggregation = true;
    // A config-only rule: refused when the trainer is built.
    EXPECT_EXIT((void)PimTrainer(system, cfg),
                ::testing::ExitedWithCode(1), "visit-weighted");
}

TEST(ShardedSessionDeath, RefusesMoreShardsThanCores)
{
    auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
    const Dataset data = collectRandomDataset(*env, 512, 17);
    PimConfig pim;
    pim.numDpus = 2;
    PimSystem system(pim);
    PimTrainConfig cfg = baseConfig(NumericFormat::Fp32);
    cfg.shards = 4;
    PimTrainer trainer(system, cfg);
    EXPECT_EXIT((void)trainer.train(data, 16, 4),
                ::testing::ExitedWithCode(1), "cannot shard");
}

} // namespace
