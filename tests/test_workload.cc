/**
 * @file
 * Tests for workload descriptors and name parsing helpers.
 */

#include <gtest/gtest.h>

#include <set>

#include "rlcore/types.hh"
#include "swiftrl/workload.hh"

namespace {

using swiftrl::allWorkloads;
using swiftrl::Workload;
using swiftrl::workloadsFor;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::parseAlgorithm;
using swiftrl::rlcore::parseNumericFormat;
using swiftrl::rlcore::parseSampling;
using swiftrl::rlcore::Sampling;

TEST(Workload, TwelveVariants)
{
    const auto all = allWorkloads();
    EXPECT_EQ(all.size(), 12u);
    std::set<std::string> names;
    for (const auto &w : all)
        names.insert(w.name());
    EXPECT_EQ(names.size(), 12u);
}

TEST(Workload, PaperNames)
{
    const Workload q_seq_fp{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    EXPECT_EQ(q_seq_fp.name(), "Q-learner-SEQ-FP32");

    const Workload sarsa_ran_int{Algorithm::Sarsa, Sampling::Ran,
                                 NumericFormat::Int32};
    EXPECT_EQ(sarsa_ran_int.name(), "SARSA-RAN-INT32");
}

TEST(Workload, PerAlgorithmSubsets)
{
    const auto q = workloadsFor(Algorithm::QLearning);
    EXPECT_EQ(q.size(), 6u);
    for (const auto &w : q)
        EXPECT_EQ(w.algo, Algorithm::QLearning);
}

TEST(Workload, ExtendedAddsSixInt8Variants)
{
    const auto ext = swiftrl::extendedWorkloads();
    EXPECT_EQ(ext.size(), 18u);
    std::size_t int8_count = 0;
    for (const auto &w : ext)
        int8_count += w.format == NumericFormat::Int8 ? 1 : 0;
    EXPECT_EQ(int8_count, 6u);
    EXPECT_EQ(ext.back().name(), "SARSA-STR-INT8");
}

TEST(Workload, ParseInt8Format)
{
    EXPECT_EQ(parseNumericFormat("int8"), NumericFormat::Int8);
}

TEST(Workload, ParseSampling)
{
    EXPECT_EQ(parseSampling("seq"), Sampling::Seq);
    EXPECT_EQ(parseSampling("RAN"), Sampling::Ran);
    EXPECT_EQ(parseSampling("Str"), Sampling::Str);
}

TEST(Workload, ParseNumericFormat)
{
    EXPECT_EQ(parseNumericFormat("fp32"), NumericFormat::Fp32);
    EXPECT_EQ(parseNumericFormat("INT32"), NumericFormat::Int32);
}

TEST(Workload, ParseAlgorithm)
{
    EXPECT_EQ(parseAlgorithm("qlearning"), Algorithm::QLearning);
    EXPECT_EQ(parseAlgorithm("Q"), Algorithm::QLearning);
    EXPECT_EQ(parseAlgorithm("sarsa"), Algorithm::Sarsa);
}

TEST(Workload, UnknownNamesParseToNothing)
{
    EXPECT_EQ(parseSampling("zigzag"), std::nullopt);
    EXPECT_EQ(parseNumericFormat("fp64"), std::nullopt);
    EXPECT_EQ(parseAlgorithm("dqn"), std::nullopt);
}

} // namespace
