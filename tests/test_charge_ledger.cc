/**
 * @file
 * Charge-ledger parity: the batched ledger (pimsim::KernelContext)
 * must be observationally identical to the oracle's write-through
 * sink (every charge committed to the Dpu as it is made) on real
 * training kernels — same cycles, same per-class op counts, same DMA
 * bytes, same functional results (Q-table MRAM bytes, LCG states).
 * This is the test that pins the hot-path batching to per-op charging
 * bit for bit, across every algorithm x sampling x format variant.
 */

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "oracle/scalar_kernel.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/dpu.hh"
#include "pimsim/kernel_context.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlcore/seeds.hh"
#include "rlenv/registry.hh"
#include "swiftrl/pim_kernels.hh"
#include "swiftrl/workload.hh"

namespace {

using swiftrl::KernelParams;
using swiftrl::Workload;
using swiftrl::pimsim::Cycles;
using swiftrl::pimsim::Dpu;
using swiftrl::pimsim::DpuCostModel;
using swiftrl::oracle::CoreOps;
using swiftrl::oracle::LedgerOps;
using swiftrl::oracle::WriteThroughSink;
using swiftrl::pimsim::KernelContext;
using swiftrl::pimsim::kNumOpClasses;
using swiftrl::pimsim::OpClass;
using swiftrl::rlcore::NumericFormat;

/** Everything observable about one kernel run on one core. */
struct RunResult
{
    Cycles cycles = 0;
    std::array<std::uint64_t, kNumOpClasses> opCounts{};
    std::uint64_t dmaBytes = 0;
    std::vector<std::uint8_t> qBytes;
    std::vector<std::uint8_t> visitBytes;
    std::vector<std::uint32_t> lcg;
};

constexpr std::size_t kDataOffset = 64 * 1024;
constexpr std::size_t kVisitsOffset = 256 * 1024;

/** Run one training launch charging through the given sink type. */
template <typename Sink>
RunResult
runVariant(const Workload &w, const swiftrl::rlcore::Dataset &data,
           swiftrl::rlcore::StateId num_states,
           swiftrl::rlcore::ActionId num_actions,
           unsigned tasklets = 1, bool track_visits = false)
{
    Dpu dpu(0, 8u << 20);
    const DpuCostModel model;

    swiftrl::rlcore::Hyper hyper;
    hyper.episodes = 3;
    const std::int32_t scale = w.format == NumericFormat::Int8
                                   ? (1 << hyper.int8Shift)
                                   : hyper.scale;
    std::vector<std::uint8_t> payload(
        data.size() * sizeof(swiftrl::rlcore::PackedTransition));
    if (w.format == NumericFormat::Fp32)
        data.packFp32(0, data.size(), payload);
    else
        data.packInt32(0, data.size(), scale, payload);
    dpu.mramWrite(kDataOffset, payload.data(), payload.size());

    std::vector<std::size_t> counts{data.size()};
    std::vector<std::uint32_t> lcg(tasklets);
    for (unsigned t = 0; t < tasklets; ++t)
        lcg[t] = swiftrl::rlcore::deriveLcgSeed(hyper.seed, t);

    KernelParams p;
    p.workload = w;
    p.hyper = hyper;
    p.numStates = num_states;
    p.numActions = num_actions;
    p.qOffset = 0;
    p.dataOffset = kDataOffset;
    p.episodes = hyper.episodes;
    p.chunkCounts = &counts;
    p.lcgStates = &lcg;
    p.tasklets = tasklets;
    p.trackVisits = track_visits;
    p.visitsOffset = kVisitsOffset;

    RunResult r;
    {
        Sink sink(dpu, model, 64 * 1024);
        CoreOps<Sink> ops(sink, dpu);
        swiftrl::oracle::runTrainingKernel(ops, p);
        sink.flush();
        r.cycles = sink.cycles();
    }
    r.opCounts = dpu.opCounts();
    r.dmaBytes = dpu.dmaBytes();
    const std::size_t q_bytes = static_cast<std::size_t>(num_states) *
                                static_cast<std::size_t>(num_actions) *
                                4;
    r.qBytes.resize(q_bytes);
    dpu.mramRead(0, r.qBytes.data(), q_bytes);
    if (track_visits) {
        r.visitBytes.resize(q_bytes);
        dpu.mramRead(kVisitsOffset, r.visitBytes.data(), q_bytes);
    }
    r.lcg = lcg;
    return r;
}

void
expectIdentical(const RunResult &batched, const RunResult &reference)
{
    EXPECT_EQ(batched.cycles, reference.cycles);
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
        EXPECT_EQ(batched.opCounts[i], reference.opCounts[i])
            << "op class " << i;
    }
    EXPECT_EQ(batched.dmaBytes, reference.dmaBytes);
    EXPECT_EQ(batched.qBytes, reference.qBytes);
    EXPECT_EQ(batched.visitBytes, reference.visitBytes);
    EXPECT_EQ(batched.lcg, reference.lcg);
}

class ChargeLedger : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _env = swiftrl::rlenv::makeEnvironment("frozenlake");
        _data = swiftrl::rlcore::collectRandomDataset(*_env, 600, 7);
    }

    std::unique_ptr<swiftrl::rlenv::Environment> _env;
    swiftrl::rlcore::Dataset _data;
};

TEST_F(ChargeLedger, MatchesReferenceOnEveryWorkloadVariant)
{
    // All 18 variants: {QL, SARSA} x {SEQ, RAN, STR} x
    // {FP32, INT32, INT8} (frozen lake fits the INT8 range caveat).
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        SCOPED_TRACE(w.name());
        const auto batched = runVariant<KernelContext>(
            w, _data, _env->numStates(), _env->numActions());
        const auto reference = runVariant<WriteThroughSink>(
            w, _data, _env->numStates(), _env->numActions());
        expectIdentical(batched, reference);
        // The run must have charged real work for parity to mean
        // anything.
        EXPECT_GT(batched.cycles, 0u);
        EXPECT_GT(batched.dmaBytes, 0u);
    }
}

TEST_F(ChargeLedger, MatchesReferenceWithMultipleTasklets)
{
    for (const auto sampling :
         {swiftrl::rlcore::Sampling::Seq,
          swiftrl::rlcore::Sampling::Ran}) {
        Workload w;
        w.sampling = sampling;
        SCOPED_TRACE(w.name());
        const auto batched = runVariant<KernelContext>(
            w, _data, _env->numStates(), _env->numActions(), 3);
        const auto reference = runVariant<WriteThroughSink>(
            w, _data, _env->numStates(), _env->numActions(), 3);
        expectIdentical(batched, reference);
    }
}

TEST_F(ChargeLedger, MatchesReferenceWithVisitTracking)
{
    Workload w;
    const auto batched = runVariant<KernelContext>(
        w, _data, _env->numStates(), _env->numActions(), 1, true);
    const auto reference = runVariant<WriteThroughSink>(
        w, _data, _env->numStates(), _env->numActions(), 1, true);
    expectIdentical(batched, reference);
    EXPECT_FALSE(batched.visitBytes.empty());
}

TEST(ChargeLedgerUnit, CyclesReadableMidKernelWithoutFlush)
{
    Dpu batched_dpu(0, 1 << 20), reference_dpu(0, 1 << 20);
    const DpuCostModel model;
    KernelContext ledger(batched_dpu, model, 64 * 1024);
    WriteThroughSink through(reference_dpu, model, 64 * 1024);
    LedgerOps batched(ledger, batched_dpu);
    CoreOps<WriteThroughSink> reference(through, reference_dpu);

    // Interleave priced ops and pending-state reads: cycles() folds
    // the ledger in without committing it.
    for (int i = 0; i < 5; ++i) {
        batched.fadd(1.0f, 2.0f);
        reference.fadd(1.0f, 2.0f);
        batched.imul32(3, 4);
        reference.imul32(3, 4);
        EXPECT_EQ(ledger.cycles(), through.cycles());
    }
    // Nothing has been committed to the batched Dpu yet...
    EXPECT_EQ(batched_dpu.opCounts(),
              (std::array<std::uint64_t, kNumOpClasses>{}));
    // ...until flush, which is idempotent.
    ledger.flush();
    ledger.flush();
    EXPECT_EQ(batched_dpu.opCounts(), reference_dpu.opCounts());
    EXPECT_EQ(ledger.cycles(), through.cycles());
}

TEST(ChargeLedgerUnit, RebindResetsPerKernelState)
{
    // Every launch hands each lane a fresh ledger: the per-kernel
    // state of one launch (cycles, WRAM accounting, LCG) never
    // carries into the next, while its charges stay committed to the
    // core.
    swiftrl::pimsim::PimConfig cfg;
    cfg.numDpus = 2;
    cfg.mramBytesPerDpu = 1 << 20;
    swiftrl::pimsim::PimSystem system(cfg);
    swiftrl::pimsim::CommandStream stream(system);
    ASSERT_TRUE(stream
                    .launchBatch(swiftrl::oracle::perLane(
                        [](LedgerOps &ctx) {
                            ctx.fadd(1.0f, 2.0f);
                            ctx.lcgSeed(99);
                            ctx.wramAlloc(128);
                        }))
                    .ok());

    std::vector<Cycles> cycles(2, 1);
    std::vector<std::size_t> wram(2, 1), runs(2, 0);
    std::vector<std::uint32_t> lcg(2, 0);
    ASSERT_TRUE(stream
                    .launchBatch(swiftrl::oracle::perLane(
                        [&](LedgerOps &ctx) {
                            cycles[ctx.dpuId()] = ctx.sink().cycles();
                            wram[ctx.dpuId()] = ctx.sink().wramUsed();
                            lcg[ctx.dpuId()] = ctx.lcgState();
                            ++runs[ctx.dpuId()];
                            ctx.iadd(1, 1);
                        }))
                    .ok());

    // The first launch's charges were committed to each core; the
    // second launch's lanes started clean on their own cores.
    const swiftrl::common::Lcg32 fresh;
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &ops = system.dpu(i).opCounts();
        EXPECT_GT(ops[static_cast<std::size_t>(OpClass::Fp32Add)], 0u);
        EXPECT_EQ(cycles[i], 0u);
        EXPECT_EQ(wram[i], 0u);
        EXPECT_EQ(lcg[i], fresh.state());
        // One seed in the first launch, one add in the second.
        EXPECT_EQ(ops[static_cast<std::size_t>(OpClass::IntAlu)], 2u);
    }
    EXPECT_EQ(runs, (std::vector<std::size_t>{1, 1}));
}

} // namespace
