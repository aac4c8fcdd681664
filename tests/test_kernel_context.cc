/**
 * @file
 * Tests for a kernel's priced ops over a lane's charge ledger: exact
 * cycle charging (swiftrl::PricedOps over pimsim::KernelContext), DMA
 * splitting, WRAM accounting, and the PIM-side LCG (the oracle's
 * per-core ops on top).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "oracle/scalar_kernel.hh"
#include "pimsim/dpu.hh"
#include "pimsim/kernel_context.hh"

namespace {

using swiftrl::common::Lcg32;
using swiftrl::pimsim::Cycles;
using swiftrl::pimsim::Dpu;
using swiftrl::pimsim::DpuCostModel;
using swiftrl::pimsim::KernelContext;
using swiftrl::pimsim::OpClass;

struct Fixture
{
    Dpu dpu{0, 1 << 20};
    DpuCostModel model;
    KernelContext ledger{dpu, model, 64 * 1024};
    swiftrl::oracle::LedgerOps ctx{ledger, dpu};
};

TEST(KernelContext, ArithmeticComputesCorrectValues)
{
    Fixture f;
    EXPECT_FLOAT_EQ(f.ctx.fadd(1.5f, 2.25f), 3.75f);
    EXPECT_FLOAT_EQ(f.ctx.fsub(1.0f, 0.25f), 0.75f);
    EXPECT_FLOAT_EQ(f.ctx.fmul(3.0f, 0.5f), 1.5f);
    EXPECT_FLOAT_EQ(f.ctx.fdiv(1.0f, 4.0f), 0.25f);
    EXPECT_TRUE(f.ctx.fgt(2.0f, 1.0f));
    EXPECT_FALSE(f.ctx.fgt(1.0f, 2.0f));
    EXPECT_EQ(f.ctx.iadd(40, 2), 42);
    EXPECT_EQ(f.ctx.isub(40, 2), 38);
    EXPECT_EQ(f.ctx.imul32(100000, 100000), 10000000000ll);
    EXPECT_EQ(f.ctx.idiv32(7, 2), 3);
    EXPECT_EQ(f.ctx.idiv32(-7, 2), -3); // truncating, like C
    EXPECT_EQ(f.ctx.imul8(-3, 5), -15);
    EXPECT_TRUE(f.ctx.igt(2, 1));
}

TEST(KernelContext, RescaleTruncatesTowardZero)
{
    Fixture f;
    EXPECT_EQ(f.ctx.rescale(95000000ll, 10000), 9500);
    EXPECT_EQ(f.ctx.rescale(-95000001ll, 10000), -9500);
    EXPECT_EQ(f.ctx.rescale(9999ll, 10000), 0);
}

TEST(KernelContext, ImulSmallComputesAndCharges)
{
    Fixture f;
    const Cycles before = f.ledger.cycles();
    EXPECT_EQ(f.ctx.imulSmall(2560, 122), 312320ll);
    EXPECT_EQ(f.ctx.imulSmall(-100, 13), -1300ll);
    const Cycles per_call = (f.ledger.cycles() - before) / 2;
    EXPECT_EQ(per_call, 2 * f.model.cyclesFor(OpClass::Int8Mul) +
                            2 * f.model.cyclesFor(OpClass::IntAlu));
}

TEST(KernelContext, RescaleShiftIsFloorDivision)
{
    Fixture f;
    EXPECT_EQ(f.ctx.rescaleShift(1280, 7), 10);
    EXPECT_EQ(f.ctx.rescaleShift(1281, 7), 10);
    // Arithmetic shift floors: -1 >> 7 == -1, unlike /-truncation.
    EXPECT_EQ(f.ctx.rescaleShift(-1, 7), -1);
    EXPECT_EQ(f.ctx.rescaleShift(-128, 7), -1);
}

TEST(KernelContextDeath, ImulSmallRejectsWideOperands)
{
    Fixture f;
    // 16-bit wide-operand limit: the INT8 optimisation's
    // applicability condition (taxi's value range violates it).
    EXPECT_DEATH((void)f.ctx.imulSmall(40000, 13),
                 "does not fit the INT8");
    EXPECT_DEATH((void)f.ctx.imulSmall(100, 200), "exceeds 8 bits");
}

TEST(KernelContext, ChargesMatchTheCostModel)
{
    Fixture f;
    const Cycles before = f.ledger.cycles();
    f.ctx.fmul(1.0f, 2.0f);
    EXPECT_EQ(f.ledger.cycles() - before,
              f.model.cyclesFor(OpClass::Fp32Mul));

    const Cycles mid = f.ledger.cycles();
    f.ctx.iadd(1, 2);
    EXPECT_EQ(f.ledger.cycles() - mid,
              f.model.cyclesFor(OpClass::IntAlu));
}

TEST(KernelContext, Fp32CostsDwarfIntCosts)
{
    // The core architectural premise of the INT32 optimisation.
    Fixture f;
    f.ctx.iadd(1, 1);
    const Cycles int_cost = f.ledger.cycles();
    f.ctx.fmul(1.0f, 1.0f);
    const Cycles fp_cost = f.ledger.cycles() - int_cost;
    EXPECT_GT(fp_cost, 10 * int_cost);
}

TEST(KernelContext, OpCountsRecordedOnDpu)
{
    Fixture f;
    f.ctx.fadd(1, 2);
    f.ctx.fadd(3, 4);
    f.ctx.branch(5);
    // The ledger batches op counts; Dpu counters update on flush
    // (the command stream flushes at kernel return).
    f.ledger.flush();
    EXPECT_EQ(f.dpu.opCounts()[static_cast<std::size_t>(
                  OpClass::Fp32Add)],
              2u);
    EXPECT_EQ(f.dpu.opCounts()[static_cast<std::size_t>(
                  OpClass::Branch)],
              5u);
}

TEST(KernelContext, DmaMovesDataAndChargesFixedPlusStreaming)
{
    Fixture f;
    const std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8};
    f.dpu.mramWrite(64, data.data(), data.size());

    std::vector<std::uint8_t> out(8);
    const Cycles before = f.ledger.cycles();
    f.ctx.mramToWram(64, out.data(), 8);
    EXPECT_EQ(out, data);
    EXPECT_EQ(f.ledger.cycles() - before, f.model.dmaCycles(8));
}

TEST(KernelContext, DmaPadsUnalignedTail)
{
    Fixture f;
    std::vector<std::uint8_t> out(5);
    const Cycles before = f.ledger.cycles();
    f.ctx.mramToWram(0, out.data(), 5);
    // 5 bytes pad to one 8-byte transfer.
    EXPECT_EQ(f.ledger.cycles() - before, f.model.dmaCycles(8));
    f.ledger.flush();
    EXPECT_EQ(f.dpu.dmaBytes(), 8u);
}

TEST(KernelContext, DmaSplitsAtHardwareLimit)
{
    Fixture f;
    std::vector<std::uint8_t> out(5000);
    const Cycles before = f.ledger.cycles();
    f.ctx.mramToWram(0, out.data(), 5000);
    // 2048 + 2048 + 904(->904 padded to 904? 904 % 8 == 0).
    const Cycles expected = f.model.dmaCycles(2048) +
                            f.model.dmaCycles(2048) +
                            f.model.dmaCycles(904);
    EXPECT_EQ(f.ledger.cycles() - before, expected);
}

TEST(KernelContext, WramToMramWritesBack)
{
    Fixture f;
    const std::vector<std::uint8_t> data{9, 8, 7, 6, 5, 4, 3, 2};
    f.ctx.wramToMram(128, data.data(), data.size());
    std::vector<std::uint8_t> out(8);
    f.dpu.mramRead(128, out.data(), 8);
    EXPECT_EQ(out, data);
}

TEST(KernelContext, WramAccountingAccumulates)
{
    Fixture f;
    f.ctx.wramAlloc(1000);
    f.ctx.wramAlloc(2000);
    EXPECT_EQ(f.ledger.wramUsed(), 3000u);
}

TEST(KernelContextDeath, WramOverflowIsFatal)
{
    Fixture f;
    f.ctx.wramAlloc(60 * 1024);
    EXPECT_EXIT(f.ctx.wramAlloc(8 * 1024),
                ::testing::ExitedWithCode(1), "scratchpad");
}

TEST(KernelContext, LcgMatchesReferenceGenerator)
{
    Fixture f;
    Lcg32 reference(777);
    f.ctx.lcgSeed(777);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(f.ctx.lcgNext(), reference.next());
}

TEST(KernelContext, LcgBoundedMatchesReference)
{
    Fixture f;
    Lcg32 reference(31);
    f.ctx.lcgSeed(31);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(f.ctx.lcgNextBounded(500),
                  reference.nextBounded(500));
}

TEST(KernelContext, LcgStateReadBack)
{
    Fixture f;
    f.ctx.lcgSeed(5);
    f.ctx.lcgNext();
    f.ctx.lcgNext();
    Lcg32 reference(5);
    reference.next();
    reference.next();
    EXPECT_EQ(f.ctx.lcgState(), reference.state());
}

TEST(KernelContext, LcgDrawsCostEmulatedMultiplies)
{
    Fixture f;
    f.ctx.lcgSeed(1);
    const Cycles before = f.ledger.cycles();
    f.ctx.lcgNext();
    EXPECT_EQ(f.ledger.cycles() - before,
              f.model.cyclesFor(OpClass::Int32Mul) +
                  f.model.cyclesFor(OpClass::IntAlu));
}

} // namespace
