/**
 * @file
 * Tests for the device statistics report.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "pimsim/stats_report.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::pimsim::KernelContext;
using swiftrl::pimsim::OpClass;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::pimsim::StatsReport;

PimSystem
smallSystem(std::size_t dpus)
{
    PimConfig cfg;
    cfg.numDpus = dpus;
    cfg.mramBytesPerDpu = 1 << 20;
    return PimSystem(cfg);
}

/** Run @p kernel once on every core of @p system. */
void
launch(PimSystem &system, const swiftrl::pimsim::KernelFn &kernel)
{
    ASSERT_TRUE(
        swiftrl::pimsim::CommandStream(system).launch(kernel).ok());
}

TEST(StatsReport, EmptySystemIsAllZero)
{
    auto system = smallSystem(4);
    const auto r = StatsReport::fromSystem(system);
    EXPECT_EQ(r.numDpus, 4u);
    EXPECT_EQ(r.totalOps, 0u);
    EXPECT_EQ(r.maxCycles, 0u);
    EXPECT_EQ(r.dmaBytes, 0u);
    EXPECT_EQ(r.energyJoules, 0.0);
}

TEST(StatsReport, CountsRetiredOpsExactly)
{
    auto system = smallSystem(2);
    launch(system, [](KernelContext &ctx) {
        ctx.fmul(1.0f, 2.0f);
        ctx.fmul(1.0f, 2.0f);
        ctx.iadd(1, 2);
    });
    const auto r = StatsReport::fromSystem(system);
    EXPECT_EQ(r.opCounts[static_cast<std::size_t>(OpClass::Fp32Mul)],
              4u); // 2 ops x 2 cores
    EXPECT_EQ(r.opCounts[static_cast<std::size_t>(OpClass::IntAlu)],
              2u);
    EXPECT_EQ(r.totalOps, 6u);
}

TEST(StatsReport, CycleSharesSumToOne)
{
    auto system = smallSystem(1);
    launch(system, [](KernelContext &ctx) {
        ctx.fadd(1, 2);
        ctx.fmul(1, 2);
        ctx.iadd(1, 2);
        ctx.branch(3);
    });
    const auto r = StatsReport::fromSystem(system);
    double total = 0.0;
    for (std::size_t c = 0; c < swiftrl::pimsim::kNumOpClasses; ++c)
        total += r.cycleFraction(static_cast<OpClass>(c));
    EXPECT_NEAR(total, 1.0, 1e-12);
    // Softfloat dominates this mix.
    EXPECT_GT(r.cycleFraction(OpClass::Fp32Mul), 0.4);
}

TEST(StatsReport, ImbalanceDetectsSkewedLoad)
{
    auto system = smallSystem(2);
    launch(system, [](KernelContext &ctx) {
        const int reps = ctx.dpuId() == 0 ? 30 : 10;
        for (int i = 0; i < reps; ++i)
            ctx.iadd(1, 1);
    });
    const auto r = StatsReport::fromSystem(system);
    // max = 30 units, mean = 20 units -> 1.5.
    EXPECT_NEAR(r.imbalance, 1.5, 1e-9);
}

TEST(StatsReport, DmaBytesAndIntensity)
{
    auto system = smallSystem(1);
    launch(system, [](KernelContext &ctx) {
        std::uint8_t buf[64];
        ctx.mramToWram(0, buf, 64);
        for (int i = 0; i < 128; ++i)
            ctx.iadd(1, 1);
    });
    const auto r = StatsReport::fromSystem(system);
    EXPECT_EQ(r.dmaBytes, 64u);
    EXPECT_NEAR(r.arithmeticIntensity, 128.0 / 64.0, 1e-12);
}

TEST(StatsReport, Fp32KernelDominatedBySoftfloat)
{
    // The report must surface the paper's core cost observation.
    auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
    const auto data =
        swiftrl::rlcore::collectRandomDataset(*env, 500, 1);
    auto system = smallSystem(2);
    swiftrl::PimTrainConfig cfg;
    cfg.workload = swiftrl::Workload{
        swiftrl::rlcore::Algorithm::QLearning,
        swiftrl::rlcore::Sampling::Seq,
        swiftrl::rlcore::NumericFormat::Fp32};
    cfg.hyper.episodes = 2;
    cfg.tau = 2;
    swiftrl::PimTrainer trainer(system, cfg);
    trainer.train(data, 16, 4);

    const auto r = StatsReport::fromSystem(system);
    const double softfloat = r.cycleFraction(OpClass::Fp32Add) +
                             r.cycleFraction(OpClass::Fp32Mul) +
                             r.cycleFraction(OpClass::Fp32Cmp);
    EXPECT_GT(softfloat, 0.8);
    EXPECT_GT(r.energyJoules, 0.0);
    EXPECT_GE(r.imbalance, 1.0);
}

TEST(StatsReport, PrintRendersAllSections)
{
    auto system = smallSystem(1);
    launch(system, [](KernelContext &ctx) { ctx.fadd(1, 2); });
    const auto r = StatsReport::fromSystem(system);
    std::ostringstream oss;
    r.print(oss, "Test report");
    const auto out = oss.str();
    EXPECT_NE(out.find("Test report"), std::string::npos);
    EXPECT_NE(out.find("fp32_add"), std::string::npos);
    EXPECT_NE(out.find("energy estimate"), std::string::npos);
}

} // namespace
