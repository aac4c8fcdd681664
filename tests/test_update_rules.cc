/**
 * @file
 * Tests for the shared update-rule templates: closed-form arithmetic
 * checks, FP32/INT32/INT8 agreement, and exact cycle charging when
 * instantiated with the priced ops over a lane's charge ledger.
 */

#include <gtest/gtest.h>

#include <vector>

#include "pimsim/dpu.hh"
#include "pimsim/kernel_context.hh"
#include "rlcore/update_rules.hh"
#include "swiftrl/priced_ops.hh"

namespace {

using namespace swiftrl::rlcore;
using swiftrl::pimsim::Dpu;
using swiftrl::pimsim::DpuCostModel;
using swiftrl::pimsim::KernelContext;
using LedgerOps = swiftrl::PricedOps<KernelContext>;

Hyper
defaultHyper()
{
    Hyper h; // alpha 0.1, gamma 0.95
    return h;
}

TEST(UpdateRules, Fp32QLearningClosedForm)
{
    HostOps ops;
    // 2 states x 2 actions; Q(s'=1,.) = {0.4, 0.6}.
    std::vector<float> q{0.0f, 0.0f, 0.4f, 0.6f};
    qlearningUpdateFp32(ops, q.data(), 2, /*s=*/0, /*a=*/0,
                        /*r=*/1.0f, /*s2=*/1, /*terminal=*/false,
                        0.1f, 0.95f);
    // target = 1 + 0.95*0.6 = 1.57; Q += 0.1 * 1.57 = 0.157.
    EXPECT_NEAR(q[0], 0.157f, 1e-6f);
    EXPECT_FLOAT_EQ(q[1], 0.0f); // untouched
}

TEST(UpdateRules, Fp32TerminalSkipsBootstrap)
{
    HostOps ops;
    std::vector<float> q{0.5f, 0.0f, 9.0f, 9.0f};
    qlearningUpdateFp32(ops, q.data(), 2, 0, 0, 1.0f, 1,
                        /*terminal=*/true, 0.1f, 0.95f);
    // target = r = 1; Q = 0.5 + 0.1*(1 - 0.5) = 0.55.
    EXPECT_NEAR(q[0], 0.55f, 1e-6f);
}

TEST(UpdateRules, Int32QLearningClosedForm)
{
    HostOps ops;
    const auto scaled = ScaledHyper::fromHyper(defaultHyper());
    // Q(s'=1,.) = {4000, 6000} (0.4, 0.6 at scale 10000).
    std::vector<std::int32_t> q{0, 0, 4000, 6000};
    qlearningUpdateInt32(ops, q.data(), 2, 0, 0,
                         /*r_scaled=*/10000, 1, false, scaled);
    // discounted = 9500*6000/10000 = 5700; target = 15700;
    // step = 1000*15700/10000 = 1570.
    EXPECT_EQ(q[0], 1570);
}

TEST(UpdateRules, Int32MatchesFp32WithinOneStep)
{
    HostOps a, b;
    std::vector<float> qf{0.2f, -0.3f, 0.4f, 0.6f};
    std::vector<std::int32_t> qi{2000, -3000, 4000, 6000};
    const auto scaled = ScaledHyper::fromHyper(defaultHyper());

    qlearningUpdateFp32(a, qf.data(), 2, 0, 1, -1.0f, 1, false, 0.1f,
                        0.95f);
    qlearningUpdateInt32(b, qi.data(), 2, 0, 1, -10000, 1, false,
                         scaled);
    EXPECT_NEAR(static_cast<double>(qi[1]) / 10000.0,
                static_cast<double>(qf[1]), 2e-4);
}

TEST(UpdateRules, Int8QLearningClosedForm)
{
    HostOps ops;
    Hyper h = defaultHyper(); // int8Shift = 7 -> scale 128
    const auto pow2 = ScaledHyperPow2::fromHyper(h);
    EXPECT_EQ(pow2.scale(), 128);
    EXPECT_EQ(pow2.alphaScaled, 13);  // round(0.1*128)
    EXPECT_EQ(pow2.gammaScaled, 122); // round(0.95*128)

    std::vector<std::int32_t> q{0, 0, 51, 77}; // 0.4, 0.6 at 128
    qlearningUpdateInt8(ops, q.data(), 2, 0, 0, /*r=*/128, 1, false,
                        pow2);
    // discounted = (77*122)>>7 = 9394>>7 = 73; target = 201;
    // step = (201*13)>>7 = 2613>>7 = 20.
    EXPECT_EQ(q[0], 20);
}

TEST(UpdateRules, SarsaGreedyPathUsesChosenAction)
{
    HostOps ops;
    ops.lcgSeed(1);
    // epsilon 0 -> always greedy: bootstrap from max action.
    std::vector<float> q{0.0f, 0.0f, 0.2f, 0.9f};
    sarsaUpdateFp32(ops, q.data(), 2, 0, 0, 0.0f, 1, false, 0.1f,
                    0.95f, /*epsilon_milli=*/0);
    EXPECT_NEAR(q[0], 0.1f * 0.95f * 0.9f, 1e-6f);
}

TEST(UpdateRules, SarsaEpsilonOneExploresViaLcg)
{
    // epsilon 1000/1000 -> always random: the bootstrap action is
    // the LCG's bounded draw, reproducible across providers.
    HostOps a, b;
    a.lcgSeed(7);
    b.lcgSeed(7);
    std::vector<float> qa{0.0f, 0.0f, 0.2f, 0.9f};
    std::vector<float> qb = qa;
    sarsaUpdateFp32(a, qa.data(), 2, 0, 0, 0.0f, 1, false, 0.1f,
                    0.95f, 1000);
    sarsaUpdateFp32(b, qb.data(), 2, 0, 0, 0.0f, 1, false, 0.1f,
                    0.95f, 1000);
    EXPECT_EQ(qa[0], qb[0]);
    // The chosen bootstrap was one of the two actions' values.
    const float with_a0 = 0.1f * 0.95f * 0.2f;
    const float with_a1 = 0.1f * 0.95f * 0.9f;
    EXPECT_TRUE(std::abs(qa[0] - with_a0) < 1e-6f ||
                std::abs(qa[0] - with_a1) < 1e-6f);
}

TEST(UpdateRules, MaxAndArgmaxAgree)
{
    HostOps ops;
    const std::vector<float> row{0.1f, 0.9f, 0.9f, -0.5f};
    EXPECT_FLOAT_EQ(maxQFp32(ops, row.data(), 4), 0.9f);
    EXPECT_EQ(argmaxFp32(ops, row.data(), 4), 1); // first of the tie

    const std::vector<std::int32_t> irow{-5, 7, 7, 0};
    EXPECT_EQ(maxQInt32(ops, irow.data(), 4), 7);
    EXPECT_EQ(argmaxInt32(ops, irow.data(), 4), 1);
}

TEST(UpdateRules, KernelContextProducesIdenticalValues)
{
    // The central equivalence property, at the single-update level.
    HostOps host;
    host.lcgSeed(3);
    Dpu dpu(0, 1 << 16);
    DpuCostModel model;
    KernelContext ledger(dpu, model, 64 * 1024);
    LedgerOps ctx(ledger);
    ctx.lcgSeed(3);

    std::vector<float> qh{0.3f, -0.2f, 0.7f, 0.1f};
    std::vector<float> qk = qh;
    for (int i = 0; i < 50; ++i) {
        sarsaUpdateFp32(host, qh.data(), 2, i % 2, i % 2, 0.25f,
                        (i + 1) % 2, i % 7 == 0, 0.1f, 0.95f, 100);
        sarsaUpdateFp32(ctx, qk.data(), 2, i % 2, i % 2, 0.25f,
                        (i + 1) % 2, i % 7 == 0, 0.1f, 0.95f, 100);
    }
    EXPECT_EQ(qh, qk);
    EXPECT_GT(ledger.cycles(), 0u);
}

TEST(UpdateRules, KernelContextChargesQLearningExactly)
{
    Dpu dpu(0, 1 << 16);
    DpuCostModel model;
    KernelContext ledger(dpu, model, 64 * 1024);
    LedgerOps ctx(ledger);
    std::vector<float> q(8, 0.0f);

    const auto before = ledger.cycles();
    qlearningUpdateFp32(ctx, q.data(), 4, 0, 0, 1.0f, 1, false, 0.1f,
                        0.95f);
    const auto cost = ledger.cycles() - before;

    // Expected op mix: 2 alu (addressing), 1 branch (terminal test),
    // maxQ over 4 actions (4 wram loads, 3 fp cmp, 3 branch),
    // fmul+fadd (target), wram load, fsub, fmul, fadd, wram store.
    using swiftrl::pimsim::OpClass;
    const auto expected =
        2 * model.cyclesFor(OpClass::IntAlu) +
        4 * model.cyclesFor(OpClass::Branch) +
        6 * model.cyclesFor(OpClass::WramAccess) +
        3 * model.cyclesFor(OpClass::Fp32Cmp) +
        2 * model.cyclesFor(OpClass::Fp32Mul) +
        3 * model.cyclesFor(OpClass::Fp32Add);
    EXPECT_EQ(cost, expected);
}

TEST(UpdateRules, ScaledHyperQuantisesPaperConstants)
{
    const auto s = ScaledHyper::fromHyper(defaultHyper());
    EXPECT_EQ(s.scale, 10000);
    EXPECT_EQ(s.alphaScaled, 1000);
    EXPECT_EQ(s.gammaScaled, 9500);
}

TEST(UpdateRulesDeath, Int8ShiftTooLargeIsRejected)
{
    Hyper h;
    h.int8Shift = 8; // gamma*256 = 243 > 127
    EXPECT_DEATH((void)ScaledHyperPow2::fromHyper(h),
                 "8 bits|8 ");
}

} // namespace
