/**
 * @file
 * Tests for the run-spec table, its reader and its validator
 * (swiftrl/run_spec): the defaults, the seed rule, the tau clamp,
 * checked reads, the CLI's flag adapter, and hostile C-ABI
 * params_json documents (truncations and bit flips).
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "swiftrl/run_spec.hh"

namespace {

using swiftrl::FrontEnd;
using swiftrl::KeySpelling;
using swiftrl::RunSpec;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::Sampling;

/** Read @p json_text (a JSON object) with every table key. */
std::string
readAll(const std::string &json_text, RunSpec &spec)
{
    const auto doc = swiftrl::json::parseJson(json_text);
    EXPECT_TRUE(doc.has_value()) << json_text;
    return swiftrl::readRunSpec(*doc, swiftrl::runSpecKeys(FrontEnd::CApi),
                                spec);
}

swiftrl::common::CliFlags
flagsOf(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "swiftrl_cli");
    std::vector<std::string> known;
    for (const auto key : swiftrl::runSpecKeys(FrontEnd::Cli))
        known.push_back(swiftrl::flagName(key));
    return swiftrl::common::CliFlags(static_cast<int>(argv.size()),
                                     const_cast<char **>(argv.data()),
                                     std::move(known));
}

RunSpec
specFromFlags(std::vector<const char *> argv)
{
    return swiftrl::runSpecFromFlags(flagsOf(std::move(argv)),
                                     swiftrl::runSpecKeys(FrontEnd::Cli));
}

TEST(RunSpec, DefaultsAreTheTableDefaults)
{
    const RunSpec spec;
    EXPECT_EQ(spec.env, "frozenlake");
    EXPECT_EQ(spec.cores, 256u);
    EXPECT_EQ(spec.hostThreads, 0u);
    EXPECT_EQ(spec.transitions, 100'000u);
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_EQ(spec.session.workload.algo, Algorithm::QLearning);
    EXPECT_EQ(spec.session.workload.sampling, Sampling::Seq);
    EXPECT_EQ(spec.session.workload.format, NumericFormat::Int32);
    EXPECT_EQ(spec.session.hyper.episodes, 100);
    // Keys whose table default matches the library default.
    const swiftrl::SessionConfig lib;
    EXPECT_EQ(spec.session.hyper.alpha, lib.hyper.alpha);
    EXPECT_EQ(spec.session.hyper.gamma, lib.hyper.gamma);
    EXPECT_EQ(spec.session.hyper.epsilon, lib.hyper.epsilon);
    EXPECT_EQ(spec.session.hyper.stride, lib.hyper.stride);
    EXPECT_EQ(spec.session.tau, lib.tau);
    EXPECT_EQ(spec.session.blockTransitions, lib.blockTransitions);
    EXPECT_EQ(spec.session.tasklets, lib.tasklets);
    EXPECT_EQ(spec.session.weightedAggregation, lib.weightedAggregation);
    EXPECT_EQ(spec.session.epsilonDecay, lib.epsilonDecay);
    EXPECT_EQ(spec.session.shards, lib.shards);
    EXPECT_EQ(swiftrl::runSpecInvalidReason(spec), "");
}

TEST(RunSpec, EveryRowIsDeclaredOnce)
{
    std::vector<std::string_view> names;
    for (const auto &row : swiftrl::runParams()) {
        EXPECT_EQ(std::count(names.begin(), names.end(), row.name), 0)
            << row.name;
        names.push_back(row.name);
        EXPECT_FALSE(row.doc.empty()) << row.name;
        EXPECT_NE(row.frontEnds, 0u) << row.name;
    }
    EXPECT_EQ(names.size(), 19u);
}

TEST(RunSpec, OneSeedRule)
{
    RunSpec spec;
    spec.seed = 7;
    EXPECT_EQ(spec.collectSeed(), 7u);
    EXPECT_EQ(spec.trainSeed(), 48u);
    EXPECT_EQ(spec.streamingCollectSeed(), 984u);
    EXPECT_EQ(spec.toSessionConfig().hyper.seed, 48u);
    const auto streaming = spec.toStreamingConfig(4);
    EXPECT_EQ(streaming.hyper.seed, 48u);
    EXPECT_EQ(streaming.collectSeed, 984u);
}

TEST(RunSpec, TauIsClampedToTheEpisodeBudget)
{
    RunSpec spec;
    spec.session.hyper.episodes = 10;
    spec.session.tau = 50;
    EXPECT_EQ(spec.toSessionConfig().tau, 10);
    EXPECT_EQ(spec.session.tau, 50); // the read value is kept

    // Streaming clamps to the per-generation budget after the split.
    spec.session.hyper.episodes = 100;
    spec.transitions = 100'000;
    const auto cfg = spec.toStreamingConfig(8);
    EXPECT_EQ(cfg.generations, 8);
    EXPECT_EQ(cfg.hyper.episodes, 12);
    EXPECT_EQ(cfg.tau, 12);
    EXPECT_EQ(cfg.transitionsPerGeneration, 12'500u);
}

TEST(RunSpec, StreamingConfigIsASessionConfig)
{
    static_assert(std::is_base_of_v<swiftrl::SessionConfig,
                                    swiftrl::StreamingConfig>);
    RunSpec spec;
    spec.session.traceParent = 99;
    EXPECT_EQ(spec.toStreamingConfig(2).traceParent, 99u);
}

TEST(RunSpec, ReaderFillsEveryKey)
{
    RunSpec spec;
    ASSERT_EQ(readAll(R"({"env": "taxi", "cores": 8, "host_threads": 2,
        "transitions": 4096, "seed": 3, "algo": "SARSA",
        "sampling": "str", "format": "int8", "alpha": 0.25,
        "gamma": 0.5, "epsilon": 0.125, "episodes": 30, "stride": 3,
        "tau": 6, "block_transitions": 64, "tasklets": 4,
        "weighted": true, "epsilon_decay": 0.5, "shards": 0})",
                      spec),
              "");
    EXPECT_EQ(spec.env, "taxi");
    EXPECT_EQ(spec.cores, 8u);
    EXPECT_EQ(spec.hostThreads, 2u);
    EXPECT_EQ(spec.transitions, 4096u);
    EXPECT_EQ(spec.seed, 3u);
    EXPECT_EQ(spec.session.workload.algo, Algorithm::Sarsa);
    EXPECT_EQ(spec.session.workload.sampling, Sampling::Str);
    EXPECT_EQ(spec.session.workload.format, NumericFormat::Int8);
    EXPECT_EQ(spec.session.hyper.alpha, 0.25f);
    EXPECT_EQ(spec.session.hyper.gamma, 0.5f);
    EXPECT_EQ(spec.session.hyper.epsilon, 0.125f);
    EXPECT_EQ(spec.session.hyper.episodes, 30);
    EXPECT_EQ(spec.session.hyper.stride, 3);
    EXPECT_EQ(spec.session.tau, 6);
    EXPECT_EQ(spec.session.blockTransitions, 64u);
    EXPECT_EQ(spec.session.tasklets, 4u);
    EXPECT_TRUE(spec.session.weightedAggregation);
    EXPECT_EQ(spec.session.epsilonDecay, 0.5f);
}

TEST(RunSpec, ReaderReadsOnlyItsKeys)
{
    const auto doc = swiftrl::json::parseJson(
        R"({"cores": 8, "episodes": 5, "id": "x"})");
    ASSERT_TRUE(doc.has_value());
    RunSpec spec;
    // The fleet list has no "cores": the member is not read.
    EXPECT_EQ(swiftrl::readRunSpec(*doc,
                                   swiftrl::runSpecKeys(FrontEnd::Fleet),
                                   spec),
              "");
    EXPECT_EQ(spec.cores, 256u);
    EXPECT_EQ(spec.session.hyper.episodes, 5);
}

TEST(RunSpec, ReaderChecksEveryValue)
{
    const struct
    {
        const char *json;
        const char *reason;
    } cases[] = {
        {R"({"episodes": 2.5})", "episodes must be an integer in ["},
        {R"({"episodes": 4294967297})", "episodes must be an integer"},
        {R"({"cores": -1})",
         "cores must be an integer in [1, 9007199254740992]"},
        // Past 2^53 a JSON number is no longer exact.
        {R"({"seed": 9007199254740994})",
         "seed must be an integer in [0, 9007199254740992]"},
        {R"({"cores": 0})", "cores must be an integer in [1, "},
        {R"({"transitions": 0})", "transitions must be an integer"},
        {R"({"tau": "50"})", "tau must be an integer"},
        {R"({"seed": -1})", "seed must be an integer in [0, "},
        {R"({"alpha": 1e300})", "alpha must be a number"},
        {R"({"gamma": null})", "gamma must be a number"},
        {R"({"weighted": 1})", "weighted must be true or false"},
        {R"({"env": 5})", "env must be a string"},
        {R"({"algo": "dqn"})", "algo must be qlearning or sarsa"},
        {R"({"sampling": "zigzag"})", "sampling must be seq, ran, or str"},
        {R"({"format": "fp64"})", "format must be fp32, int32, or int8"},
    };
    for (const auto &c : cases) {
        RunSpec spec;
        const std::string why = readAll(c.json, spec);
        EXPECT_EQ(why.rfind(c.reason, 0), 0u)
            << c.json << " -> \"" << why << "\"";
    }
}

TEST(RunSpec, HostThreadsAreBoundedByTheReader)
{
    // 5000 would start 4999 pool threads when a machine is built; the
    // reader refuses it before any exists.
    RunSpec spec;
    EXPECT_EQ(readAll(R"({"cores": 5000, "host_threads": 5000})", spec),
              "host_threads must be an integer in [0, 1024]");
    EXPECT_EQ(readAll(R"({"host_threads": 1024})", spec), "");
    EXPECT_EQ(spec.hostThreads, 1024u);
}

TEST(RunSpec, ValidatorHoldsEveryRule)
{
    const auto reasonFor = [](const std::string &json) {
        RunSpec spec;
        const std::string why = readAll(json, spec);
        return why.empty() ? swiftrl::runSpecInvalidReason(spec) : why;
    };
    EXPECT_EQ(reasonFor(R"({"env": "frozenlak"})")
                  .rfind("env: unknown environment 'frozenlak'", 0),
              0u);
    EXPECT_EQ(reasonFor(R"({"env": "lake:62", "cores": 4})"), "");
    // An unsharded kernel holds the whole table in WRAM: lake:64's
    // 64 KB of Q words plus a staging block overflow the scratchpad,
    // which the first launch would die of; sharding is the way out.
    EXPECT_EQ(reasonFor(R"({"env": "lake:64", "cores": 4})"),
              "the kernel needs 67584 bytes of WRAM per core but the "
              "scratchpad holds 65536; split the Q-table with shards");
    EXPECT_EQ(reasonFor(R"({"env": "lake:64", "cores": 4,
                          "shards": 2})"),
              "");
    // Visit counters double the table; every tasklet stages a block.
    EXPECT_NE(reasonFor(R"({"env": "lake:46", "weighted": true})")
                  .find("bytes of WRAM"),
              std::string::npos);
    EXPECT_EQ(reasonFor(R"({"env": "lake:46"})"), "");
    EXPECT_NE(reasonFor(R"({"env": "taxi", "tasklets": 24,
                          "block_transitions": 256})")
                  .find("bytes of WRAM"),
              std::string::npos);
    EXPECT_EQ(reasonFor(R"({"env": "taxi", "tasklets": 8,
                          "block_transitions": 256})"),
              "");
    EXPECT_EQ(reasonFor(R"({"gamma": 2})").rfind("hyper.gamma", 0), 0u);
    EXPECT_EQ(reasonFor(R"({"tau": 0})").rfind("tau:", 0), 0u);
    EXPECT_EQ(reasonFor(R"({"tasklets": 25})").rfind("tasklets:", 0),
              0u);
    EXPECT_EQ(reasonFor(R"({"shards": 2, "weighted": true})")
                  .rfind("shards:", 0),
              0u);
    // The shard plan needs the machine size and the env's states.
    EXPECT_EQ(reasonFor(R"({"shards": 8, "cores": 4})")
                  .rfind("shards: ", 0),
              0u);
    EXPECT_EQ(reasonFor(R"({"shards": 17, "cores": 32})")
                  .rfind("shards: ", 0),
              0u);
    EXPECT_NE(reasonFor(R"({"env": "lake:256", "shards": 1,
                          "cores": 4, "transitions": 100000000})")
                  .find("sharded layout needs"),
              std::string::npos);

    // Ranges hold for specs built in code as well as read ones.
    RunSpec spec;
    spec.cores = 0;
    EXPECT_EQ(swiftrl::runSpecInvalidReason(spec)
                  .rfind("cores must be an integer in [1, ", 0),
              0u);
    spec.cores = 4;
    spec.hostThreads = 2000;
    EXPECT_EQ(swiftrl::runSpecInvalidReason(spec, KeySpelling::Flag)
                  .rfind("--host-threads must be", 0),
              0u);
}

TEST(RunSpec, FlagsReadThroughTheTable)
{
    const RunSpec spec = specFromFlags(
        {"--env", "taxi", "--cores", "16", "--host-threads", "3",
         "--algo", "SARSA", "--alpha", "0.25", "--weighted", "--seed",
         "5", "--episodes", "8", "--tau", "50"});
    EXPECT_EQ(spec.env, "taxi");
    EXPECT_EQ(spec.cores, 16u);
    EXPECT_EQ(spec.hostThreads, 3u);
    EXPECT_EQ(spec.session.workload.algo, Algorithm::Sarsa);
    EXPECT_EQ(spec.session.hyper.alpha, 0.25f);
    EXPECT_TRUE(spec.session.weightedAggregation);
    EXPECT_EQ(spec.toSessionConfig().hyper.seed, 46u);
    EXPECT_EQ(spec.toSessionConfig().tau, 8);
}

TEST(RunSpecDeath, BadFlagsAreUsageErrorsNamingTheFlag)
{
    EXPECT_EXIT((void)specFromFlags({"--cores", "-1"}),
                ::testing::ExitedWithCode(1),
                "--cores must be an integer in \\[1, ");
    EXPECT_EXIT((void)specFromFlags({"--transitions", "0"}),
                ::testing::ExitedWithCode(1),
                "--transitions must be an integer in \\[1, ");
    EXPECT_EXIT((void)specFromFlags({"--host-threads", "5000"}),
                ::testing::ExitedWithCode(1),
                "--host-threads must be an integer in \\[0, 1024\\]");
    EXPECT_EXIT((void)specFromFlags({"--env", "frozenlak"}),
                ::testing::ExitedWithCode(1),
                "--env: unknown environment");
    EXPECT_EXIT((void)specFromFlags({"--format", "fp64"}),
                ::testing::ExitedWithCode(1), "--format must be");
    EXPECT_EXIT((void)specFromFlags({"--seed", "9007199254740993"}),
                ::testing::ExitedWithCode(1),
                "--seed must be an integer in \\[0, 9007199254740992\\]");
    EXPECT_EXIT((void)specFromFlags({"--shards", "8", "--cores", "4"}),
                ::testing::ExitedWithCode(1), "--shards: ");
    EXPECT_EXIT((void)specFromFlags({"--env", "lake:64", "--cores", "256",
                                     "--transitions", "400000",
                                     "--format", "fp32"}),
                ::testing::ExitedWithCode(1),
                "67584 bytes of WRAM .* split the Q-table with --shards");
}

/**
 * What swiftrl_session_create checks before it builds a machine:
 * parse @p text, read every C-ABI key, validate. "" or the reason.
 */
std::string
cApiParamsReason(const std::string &text)
{
    std::string error;
    const auto doc = swiftrl::json::parseJson(text, &error);
    if (!doc) {
        EXPECT_FALSE(error.empty());
        return "parse: " + error;
    }
    if (!doc->isObject())
        return "not an object";
    RunSpec spec;
    const std::string why = swiftrl::readRunSpec(
        *doc, swiftrl::runSpecKeys(FrontEnd::CApi), spec);
    return why.empty() ? swiftrl::runSpecInvalidReason(spec) : why;
}

TEST(RunSpecMutations, ParamsJsonTruncationsAndBitFlips)
{
    // Hostile params_json: every truncation and 256 seeded single-bit
    // flips of a valid document naming every kind of value. Each must
    // come back as a reason or as a spec that passes validation; none
    // may crash or abort.
    const std::string valid =
        R"({"env": "taxi", "cores": 8, "host_threads": 2,)"
        R"( "transitions": 4000, "seed": 7, "algo": "sarsa",)"
        R"( "sampling": "str", "format": "fp32", "alpha": 0.25,)"
        R"( "gamma": 0.9, "epsilon": 0.1, "episodes": 20, "stride": 3,)"
        R"( "tau": 5, "block_transitions": 64, "tasklets": 2,)"
        R"( "weighted": true, "epsilon_decay": 0.99, "shards": 0})";
    ASSERT_EQ(cApiParamsReason(valid), "");
    std::size_t refused = 0;
    for (std::size_t length = 0; length < valid.size(); ++length) {
        SCOPED_TRACE(testing::Message() << "truncated to " << length);
        refused += !cApiParamsReason(valid.substr(0, length)).empty();
    }
    // A JSON object has no valid proper prefix.
    EXPECT_EQ(refused, valid.size());
    swiftrl::common::XorShift128 rng(31);
    for (int k = 0; k < 256; ++k) {
        const auto bit = rng.nextBounded(valid.size() * 8);
        SCOPED_TRACE(testing::Message() << "bit " << bit << " flipped");
        std::string mutant = valid;
        mutant[bit / 8] =
            static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
        (void)cApiParamsReason(mutant);
    }
}

} // namespace
