/**
 * @file
 * Tests for the command-line flag parser, and for the integer flags of
 * swiftrl_cli and the taxi fleet example: each out-of-range value is a
 * usage error naming the flag, raised before any work starts.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hh"

namespace {

using swiftrl::common::CliFlags;

CliFlags
parse(std::vector<const char *> argv, std::vector<std::string> known)
{
    argv.insert(argv.begin(), "prog");
    return CliFlags(static_cast<int>(argv.size()),
                    const_cast<char **>(argv.data()), std::move(known));
}

TEST(Cli, EmptyCommandLine)
{
    const auto flags = parse({}, {"episodes"});
    EXPECT_FALSE(flags.has("episodes"));
    EXPECT_EQ(flags.getInt("episodes", 7), 7);
}

TEST(Cli, EqualsSyntax)
{
    const auto flags = parse({"--episodes=42"}, {"episodes"});
    EXPECT_TRUE(flags.has("episodes"));
    EXPECT_EQ(flags.getInt("episodes", 0), 42);
}

TEST(Cli, SpaceSyntax)
{
    const auto flags = parse({"--env", "taxi"}, {"env"});
    EXPECT_EQ(flags.getString("env", ""), "taxi");
}

TEST(Cli, BareFlagIsTrue)
{
    const auto flags = parse({"--full"}, {"full"});
    EXPECT_TRUE(flags.getBool("full", false));
}

TEST(Cli, BooleanSpellings)
{
    EXPECT_TRUE(parse({"--x=yes"}, {"x"}).getBool("x", false));
    EXPECT_TRUE(parse({"--x=1"}, {"x"}).getBool("x", false));
    EXPECT_FALSE(parse({"--x=no"}, {"x"}).getBool("x", true));
    EXPECT_FALSE(parse({"--x=0"}, {"x"}).getBool("x", true));
}

TEST(Cli, DoubleParsing)
{
    const auto flags = parse({"--alpha=0.25"}, {"alpha"});
    EXPECT_DOUBLE_EQ(flags.getDouble("alpha", 0.0), 0.25);
}

TEST(Cli, NegativeNumbers)
{
    const auto flags = parse({"--reward=-8.6"}, {"reward"});
    EXPECT_DOUBLE_EQ(flags.getDouble("reward", 0.0), -8.6);
}

TEST(Cli, PositionalArguments)
{
    const auto flags = parse({"one", "--x=1", "two"}, {"x"});
    ASSERT_EQ(flags.positional().size(), 2u);
    EXPECT_EQ(flags.positional()[0], "one");
    EXPECT_EQ(flags.positional()[1], "two");
}

TEST(CliDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(parse({"--bogus=1"}, {"env"}), ::testing::ExitedWithCode(1),
                "unknown flag");
}

TEST(CliDeath, NonIntegerIsFatal)
{
    const auto flags = parse({"--n=abc"}, {"n"});
    EXPECT_EXIT((void)flags.getInt("n", 0), ::testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(CliDeath, NonBooleanIsFatal)
{
    const auto flags = parse({"--b=maybe"}, {"b"});
    EXPECT_EXIT((void)flags.getBool("b", false),
                ::testing::ExitedWithCode(1), "expects a boolean");
}

TEST(CliDeath, IntegerOverflowIsFatal)
{
    // strtoll clamps 2^64-scale input to INT64_MAX with ERANGE; the
    // parser must reject it instead of silently training with the
    // clamped extreme.
    const auto flags =
        parse({"--episodes=99999999999999999999"}, {"episodes"});
    EXPECT_EXIT((void)flags.getInt("episodes", 0),
                ::testing::ExitedWithCode(1),
                "out of range for a 64-bit integer");
}

TEST(CliDeath, DoubleOverflowIsFatal)
{
    const auto flags = parse({"--alpha=1e999"}, {"alpha"});
    EXPECT_EXIT((void)flags.getDouble("alpha", 0.0),
                ::testing::ExitedWithCode(1),
                "out of range for a double");
}

TEST(Cli, DenormalUnderflowIsAccepted)
{
    // Underflow also raises ERANGE but yields a usable denormal; only
    // overflow to +/-HUGE_VAL is rejected.
    const auto flags = parse({"--alpha=1e-320"}, {"alpha"});
    EXPECT_GT(flags.getDouble("alpha", 1.0), 0.0);
    EXPECT_LT(flags.getDouble("alpha", 1.0), 1e-300);
}

TEST(CliDeath, DuplicateFlagIsFatal)
{
    EXPECT_EXIT(parse({"--seed=1", "--seed=2"}, {"seed"}),
                ::testing::ExitedWithCode(1), "duplicate flag --seed");
}

TEST(CliDeath, BareFlagRejectedByTypedGetters)
{
    // "--seed --trace=t.json": the seed's value was forgotten, so the
    // next flag swallowed the slot. The typed getter must name the
    // flag that is missing its value.
    const auto flags =
        parse({"--seed", "--trace=t.json"}, {"seed", "trace"});
    EXPECT_EXIT((void)flags.getInt("seed", 0),
                ::testing::ExitedWithCode(1),
                "flag --seed expects a value");
    EXPECT_EXIT((void)flags.getDouble("seed", 0.0),
                ::testing::ExitedWithCode(1),
                "flag --seed expects a value");
    // getBool alone may read a bare flag as true.
    EXPECT_TRUE(flags.getBool("seed", false));
}

TEST(Cli, GetIntInNarrowsInRange)
{
    const auto flags = parse({"--a=5", "--b=-3"}, {"a", "b", "c"});
    EXPECT_EQ(flags.getIntIn("a", 1u, 1u, 1024u), 5u);
    EXPECT_EQ(flags.getIntIn<std::int8_t>("b", 0), -3);
    EXPECT_EQ(flags.getIntIn("c", 7, 1, 2), 7); // absent: the fallback
}

TEST(CliDeath, GetIntInOutOfRangeNamesTheFlag)
{
    const auto flags =
        parse({"--actors=5000", "--gens=4294967297", "--seed=-1"},
              {"actors", "gens", "seed"});
    EXPECT_EXIT((void)flags.getIntIn("actors", 1u, 1u, 1024u),
                ::testing::ExitedWithCode(1),
                "--actors: must be an integer in \\[1, 1024\\], got 5000");
    EXPECT_EXIT((void)flags.getIntIn("gens", 8),
                ::testing::ExitedWithCode(1), "--gens: must be an integer");
    EXPECT_EXIT((void)flags.getIntIn<std::uint64_t>("seed", 1),
                ::testing::ExitedWithCode(1), "--seed: must be an integer");
}

/** Run @p binary with @p args; its exit status, output in @p out. */
int
runBinary(const std::string &binary, const std::string &args,
          std::string &out)
{
    const std::string cmd = binary + " " + args + " 2>&1";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    out.clear();
    char buf[512];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        out += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Run swiftrl_cli with @p args; its exit status, output in @p out. */
int
runCli(const std::string &args, std::string &out)
{
    return runBinary(SWIFTRL_CLI_PATH, args, out);
}

TEST(SwiftrlCli, ToolIntegerFlagsAreUsageErrors)
{
    // A tiny streaming run: one collection block, so even a CLI that
    // let --actors through would start a single actor thread.
    const std::string tiny = "--cores 1 --episodes 1 --transitions 64 ";
    const struct
    {
        std::string args;
        std::string flag;
    } cases[] = {
        {"--streaming --generations 1 --actors 5000", "--actors"},
        {"--streaming --generations 1 --actors 0", "--actors"},
        {"--streaming --generations 1 --actors -1", "--actors"},
        {"--eval-episodes 0", "--eval-episodes"},
        {"--eval-episodes -5", "--eval-episodes"},
        {"--streaming --generations 4294967297", "--generations"},
        {"--fault-seed -1", "--fault-seed"},
        {"--retry-limit 4294967296", "--retry-limit"},
        {"--refresh-period -4294967296", "--refresh-period"},
        {"--pause-round 0", "--pause-round"},
        {"--serve -1", "--serve"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.args);
        std::string out;
        EXPECT_EQ(runCli(tiny + c.args, out), 1) << out;
        EXPECT_NE(out.find(c.flag + ": must be an integer in"),
                  std::string::npos)
            << out;
        // Refused before any work: nothing was collected or trained.
        EXPECT_EQ(out.find("training"), std::string::npos) << out;
        EXPECT_EQ(out.find("streaming "), std::string::npos) << out;
        // A usage error prints its reason, not a crash dump.
        EXPECT_EQ(out.find("flight recorder"), std::string::npos) << out;
    }
}

TEST(SwiftrlCli, KernelThatCannotFitWramIsAUsageError)
{
    // lake:64's whole table is the 64-KB scratchpad on its own: the
    // run must be refused before any collection, with the way out
    // named, instead of dying inside the first launch.
    std::string out;
    EXPECT_EQ(runCli("--env lake:64 --cores 256 --transitions 400000 "
                     "--format fp32",
                     out),
              1)
        << out;
    EXPECT_NE(out.find("67584 bytes of WRAM per core but the scratchpad "
                       "holds 65536; split the Q-table with --shards"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("exceeds the"), std::string::npos) << out;
    EXPECT_EQ(out.find("training"), std::string::npos) << out;
    EXPECT_EQ(out.find("flight recorder"), std::string::npos) << out;
}

TEST(SwiftrlCli, DatasetOfAnotherEnvironmentIsAUsageError)
{
    // Taxi's 500 states do not fit FrozenLake's 16: loaded for
    // --env frozenlake, the dataset must be refused by name before
    // training, not index past the lanes' Q regions.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("swiftrl_test_cli_taxi_" + std::to_string(::getpid()) + ".ds"))
            .string();
    std::string out;
    ASSERT_EQ(runCli("--env taxi --cores 4 --episodes 1 --transitions 2000 "
                     "--save-dataset " + path,
                     out),
              0)
        << out;
    const int status =
        runCli("--env frozenlake --cores 4 --episodes 1 --load-dataset " +
                   path,
               out);
    std::remove(path.c_str());
    EXPECT_EQ(status, 1) << out;
    EXPECT_NE(out.find("--load-dataset '" + path + "'"), std::string::npos)
        << out;
    EXPECT_NE(out.find("lies outside the 16-state x 4-action"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("training"), std::string::npos) << out;
    EXPECT_EQ(out.find("flight recorder"), std::string::npos) << out;
}

TEST(SwiftrlCli, FleetSpecMistakesAreUsageErrors)
{
    // An unreadable spec and a spec with an out-of-range value are
    // operator mistakes: one line naming the problem, exit 1, no crash
    // dump.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("swiftrl_test_cli_fleet_" + std::to_string(::getpid()) +
          ".json"))
            .string();
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(R"({"fleet": {"ranks": 0},
                       "jobs": [{"id": "a", "tenant": "t"}]})",
                   f);
        std::fclose(f);
    }
    const struct
    {
        std::string args;
        std::string reason;
    } cases[] = {
        {"--fleet /nonexistent.json",
         "cannot open fleet spec /nonexistent.json"},
        {"--fleet " + path, "fleet.ranks must be positive, got 0"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.args);
        std::string out;
        EXPECT_EQ(runCli(c.args, out), 1) << out;
        EXPECT_NE(out.find(c.reason), std::string::npos) << out;
        EXPECT_EQ(out.find("flight recorder"), std::string::npos) << out;
    }
    std::remove(path.c_str());
}

TEST(SwiftrlCli, CorruptDatasetFileIsAUsageError)
{
    // A dataset file whose last byte is gone fails its load with the
    // loader's reason, as a usage error, before training.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("swiftrl_test_cli_short_" + std::to_string(::getpid()) + ".ds"))
            .string();
    std::string out;
    ASSERT_EQ(runCli("--env frozenlake --cores 4 --episodes 1 "
                     "--transitions 500 --save-dataset " + path,
                     out),
              0)
        << out;
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 1);
    const int status =
        runCli("--env frozenlake --cores 4 --episodes 1 --load-dataset " +
                   path,
               out);
    std::remove(path.c_str());
    EXPECT_EQ(status, 1) << out;
    EXPECT_NE(out.find("--load-dataset: '" + path + "' declares 500 "
                       "records"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("training"), std::string::npos) << out;
    EXPECT_EQ(out.find("flight recorder"), std::string::npos) << out;
}

TEST(TaxiFleetExample, NegativeAgentCountIsAUsageError)
{
    // -1 agents must be refused by name, not wrapped to SIZE_MAX.
    std::string out;
    EXPECT_EQ(runBinary(SWIFTRL_FLEET_EXAMPLE_PATH, "--agents -1", out), 1)
        << out;
    EXPECT_NE(out.find("--agents: must be an integer in [1, "),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("taxi fleet:"), std::string::npos) << out;
    EXPECT_EQ(out.find("flight recorder"), std::string::npos) << out;
}

} // namespace
