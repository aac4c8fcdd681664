/**
 * @file
 * Tests for the PIM system (driven through a CommandStream, its only
 * host API) and the transfer timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "oracle/scalar_kernel.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/pim_system.hh"
#include "pimsim/transfer_model.hh"

namespace {

using swiftrl::pimsim::CommandStream;
using swiftrl::oracle::LedgerOps;
using swiftrl::oracle::perLane;
using swiftrl::pimsim::OpClass;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::pimsim::TransferModel;

PimConfig
smallConfig(std::size_t dpus)
{
    PimConfig cfg;
    cfg.numDpus = dpus;
    cfg.mramBytesPerDpu = 1 << 20;
    return cfg;
}

TEST(TransferModel, RankParallelism)
{
    TransferModel m;
    // 64 DPUs fill one rank; 128 DPUs = two ranks in parallel: same
    // per-rank payload, same time.
    const double one_rank = m.cpuToPimSeconds(1024, 64);
    const double two_ranks = m.cpuToPimSeconds(1024, 128);
    EXPECT_DOUBLE_EQ(one_rank, two_ranks);
    // Fewer DPUs than a rank: less serialised traffic, faster.
    EXPECT_LT(m.cpuToPimSeconds(1024, 8), one_rank);
}

TEST(TransferModel, ReadbackSlowerThanPush)
{
    TransferModel m;
    EXPECT_GT(m.pimToCpuSeconds(4096, 64),
              m.cpuToPimSeconds(4096, 64));
}

TEST(TransferModel, ZeroBytesIsFree)
{
    TransferModel m;
    EXPECT_DOUBLE_EQ(m.cpuToPimSeconds(0, 64), 0.0);
    EXPECT_DOUBLE_EQ(m.pimToCpuSeconds(0, 64), 0.0);
    EXPECT_DOUBLE_EQ(m.broadcastSeconds(0, 64), 0.0);
}

TEST(TransferModel, ScatterAddsPerDpuOverhead)
{
    TransferModel m;
    const double batched = m.cpuToPimSeconds(1024, 100);
    const double scattered = m.scatterSeconds(1024, 100);
    EXPECT_NEAR(scattered - batched, 100 * m.scatterPerDpuSec, 1e-12);
}

TEST(PimSystem, ConstructsWithPaperScale)
{
    PimSystem sys(smallConfig(125));
    EXPECT_EQ(sys.numDpus(), 125u);
    EXPECT_EQ(sys.dpu(0).id(), 0u);
    EXPECT_EQ(sys.dpu(124).id(), 124u);
}

/** Scatter one payload per core, copied in by the core's lane. */
double
scatterPayloads(CommandStream &stream, std::size_t offset,
                const std::vector<std::vector<std::uint8_t>> &payloads)
{
    return stream.scatter(
        offset, [&](std::size_t i) { return payloads[i].size(); },
        [&](std::size_t i, std::span<std::uint8_t> out) {
            std::ranges::copy(payloads[i], out.begin());
        });
}

TEST(PimSystem, ScatterDeliversDistinctPayloads)
{
    PimSystem sys(smallConfig(4));
    std::vector<std::vector<std::uint8_t>> payloads(4);
    for (std::size_t i = 0; i < 4; ++i)
        payloads[i].assign(16, static_cast<std::uint8_t>(i + 1));
    CommandStream stream(sys);
    const double t = scatterPayloads(stream, 0, payloads);
    EXPECT_GT(t, 0.0);

    for (std::size_t i = 0; i < 4; ++i) {
        std::uint8_t out = 0;
        sys.dpu(i).mramRead(3, &out, 1);
        EXPECT_EQ(out, static_cast<std::uint8_t>(i + 1));
    }
}

TEST(PimSystem, BroadcastReplicates)
{
    PimSystem sys(smallConfig(3));
    const std::vector<std::uint8_t> payload{0xaa, 0xbb};
    CommandStream(sys).pushBroadcast(8, payload);
    for (std::size_t i = 0; i < 3; ++i) {
        std::vector<std::uint8_t> out(2);
        sys.dpu(i).mramRead(8, out.data(), 2);
        EXPECT_EQ(out, payload);
    }
}

TEST(PimSystem, GatherRoundtripsPush)
{
    PimSystem sys(smallConfig(3));
    std::vector<std::vector<std::uint8_t>> payloads(3);
    for (std::size_t i = 0; i < 3; ++i)
        payloads[i].assign(8, static_cast<std::uint8_t>(0x10 * i));
    CommandStream stream(sys);
    scatterPayloads(stream, 0, payloads);

    std::vector<std::span<const std::uint8_t>> out;
    const auto status = stream.gather(0, 8, out);
    ASSERT_TRUE(status.ok());
    EXPECT_GT(status.seconds, 0.0);
    ASSERT_EQ(out.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(std::equal(out[i].begin(), out[i].end(),
                               payloads[i].begin(), payloads[i].end()));
    }
}

TEST(PimSystem, LaunchRunsKernelOnEveryCore)
{
    PimSystem sys(smallConfig(5));
    std::vector<int> visited(5, 0);
    ASSERT_TRUE(CommandStream(sys)
                    .launchBatch(perLane([&](LedgerOps &ctx) {
                        visited[ctx.dpuId()] += 1;
                    }))
                    .ok());
    for (const int v : visited)
        EXPECT_EQ(v, 1);
}

TEST(PimSystem, LaunchTimeFollowsSlowestCore)
{
    PimSystem sys(smallConfig(4));
    // Core 3 does 1000 fp multiplies; others do one int add.
    const auto status =
        CommandStream(sys).launchBatch(perLane([](LedgerOps &ctx) {
            if (ctx.dpuId() == 3) {
                for (int i = 0; i < 1000; ++i)
                    ctx.fmul(1.0f, 1.0f);
            } else {
                ctx.iadd(1, 1);
            }
        }));
    ASSERT_TRUE(status.ok());
    const double t = status.seconds;
    const auto &model = sys.config().costModel;
    const double expected =
        sys.config().launchOverheadSec +
        model.seconds(1000 * model.cyclesFor(OpClass::Fp32Mul));
    EXPECT_DOUBLE_EQ(t, expected);
    EXPECT_EQ(sys.maxCycles(),
              1000 * model.cyclesFor(OpClass::Fp32Mul));
}

TEST(PimSystem, TotalCyclesSumsCores)
{
    PimSystem sys(smallConfig(3));
    ASSERT_TRUE(CommandStream(sys)
                    .launchBatch(
                        perLane([](LedgerOps &ctx) { ctx.iadd(1, 1); }))
                    .ok());
    const auto &model = sys.config().costModel;
    EXPECT_EQ(sys.totalCycles(),
              3 * model.cyclesFor(OpClass::IntAlu));
}

TEST(PimSystem, ResetStatsClearsClocks)
{
    PimSystem sys(smallConfig(2));
    ASSERT_TRUE(CommandStream(sys)
                    .launchBatch(
                        perLane([](LedgerOps &ctx) { ctx.fadd(1, 1); }))
                    .ok());
    EXPECT_GT(sys.maxCycles(), 0u);
    sys.resetStats();
    EXPECT_EQ(sys.maxCycles(), 0u);
    EXPECT_EQ(sys.totalCycles(), 0u);
}

TEST(PimSystemDeath, ZeroCoresIsFatal)
{
    PimConfig cfg;
    cfg.numDpus = 0;
    EXPECT_EXIT(PimSystem sys(cfg), ::testing::ExitedWithCode(1),
                "at least one core");
}

TEST(PimSystemDeath, ChunkPastTheBankIsFatal)
{
    // The bank is reserved on the enqueue thread before any lane
    // runs, so the overrun is caught there.
    PimSystem sys(smallConfig(2));
    CommandStream stream(sys);
    const std::size_t bank = sys.config().mramBytesPerDpu;
    EXPECT_EXIT((void)stream.scatter(
                    bank - 4, [](std::size_t) { return 8u; },
                    [](std::size_t, std::span<std::uint8_t>) {}),
                ::testing::ExitedWithCode(1), "exceeds the");
}

} // namespace
