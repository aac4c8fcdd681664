/**
 * @file
 * Tests for the logging/error-reporting helpers (gem5-style fatal vs.
 * panic semantics), the level-name parsing surface (CLI-overrides-env
 * precedence, warn-once fallback on unknown names), the timestamped
 * line format, and the fatal path's flight-recorder dump.
 */

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "common/logging.hh"
#include "telemetry/tracing.hh"

namespace {

using swiftrl::common::LogLevel;
using swiftrl::common::logLevel;
using swiftrl::common::parseLogLevel;
using swiftrl::common::setLogLevel;
using swiftrl::common::setLogLevelFromName;

TEST(Logging, LevelRoundtrip)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(before);
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    SWIFTRL_WARN("warning message ", 1);
    SWIFTRL_INFORM("status message ", 2.5);
    SWIFTRL_DEBUG("debug message");
    SUCCEED();
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    SWIFTRL_ASSERT(1 + 1 == 2, "arithmetic works");
    SUCCEED();
}

TEST(Logging, LinesCarryLevelTagAndMonotonicTimestamp)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Inform);
    ::testing::internal::CaptureStderr();
    SWIFTRL_WARN("formatted line check");
    SWIFTRL_INFORM("second line");
    const std::string output =
        ::testing::internal::GetCapturedStderr();
    setLogLevel(before);

    // "[<seconds>.<6 digits>] <level>: <message>"
    const std::regex line_format(
        R"(\[[0-9]+\.[0-9]{6}\] warn: formatted line check\n)"
        R"(\[[0-9]+\.[0-9]{6}\] inform: second line\n)");
    EXPECT_TRUE(std::regex_match(output, line_format)) << output;

    // The two timestamps never run backwards.
    const std::regex stamp(R"(\[([0-9]+\.[0-9]{6})\])");
    auto it = std::sregex_iterator(output.begin(), output.end(),
                                   stamp);
    ASSERT_NE(it, std::sregex_iterator());
    const double first = std::stod((*it)[1].str());
    ++it;
    ASSERT_NE(it, std::sregex_iterator());
    EXPECT_GE(std::stod((*it)[1].str()), first);
}

TEST(Logging, NamedLevelOverridesCurrentLevel)
{
    // The CLI path: whatever SWIFTRL_LOG (or anything else) set
    // before, an explicit --log-level wins.
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    setLogLevelFromName("debug", "--log-level");
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevelFromName("warn", "--log-level");
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(before);
}

TEST(Logging, UnknownLevelNameWarnsOnceAndFallsBackToInform)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);

    ::testing::internal::CaptureStderr();
    setLogLevelFromName("bogus", "--log-level");
    setLogLevelFromName("also-bogus", "SWIFTRL_LOG");
    const std::string output =
        ::testing::internal::GetCapturedStderr();

    // Both bad names fall back to the inform default...
    EXPECT_EQ(logLevel(), LogLevel::Inform);
    // ...but only the first one warned (warn-once).
    std::size_t warnings = 0;
    for (std::size_t pos = output.find("is not a log level");
         pos != std::string::npos;
         pos = output.find("is not a log level", pos + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << output;
    EXPECT_NE(output.find("bogus"), std::string::npos);

    setLogLevel(before);
}

TEST(Logging, ParseLogLevelStillRejectsUnknownNames)
{
    EXPECT_FALSE(parseLogLevel("nonsense").has_value());
    ASSERT_TRUE(parseLogLevel("debug").has_value());
    EXPECT_EQ(*parseLogLevel("debug"), LogLevel::Debug);
}

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(SWIFTRL_FATAL("user error: ", 42),
                ::testing::ExitedWithCode(1), "user error: 42");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(SWIFTRL_PANIC("internal bug"), "internal bug");
}

TEST(LoggingDeath, AssertAbortsOnFalse)
{
    EXPECT_DEATH(SWIFTRL_ASSERT(false, "must hold"),
                 "assertion failed");
}

TEST(LoggingDeath, FatalDumpsTheFlightRecorder)
{
    // A breadcrumb noted before the crash must appear in the
    // flight-recorder dump SWIFTRL_FATAL writes to stderr on the way
    // out — the always-on post-mortem trail.
    swiftrl::telemetry::tracer().note(
        "breadcrumb before the failure");
    EXPECT_EXIT(SWIFTRL_FATAL("fatal with flight record"),
                ::testing::ExitedWithCode(1),
                "flight recorder(.|\n)*breadcrumb before the "
                "failure");
}

TEST(LoggingDeath, UsageErrorPrintsOnlyTheReason)
{
    // A usage error has no run to explain: one line, no flight
    // recorder dump, even with a breadcrumb in the ring.
    swiftrl::telemetry::tracer().note("usage breadcrumb");
    EXPECT_EXIT(SWIFTRL_USAGE_ERROR("--flag: bad value ", 7),
                ::testing::ExitedWithCode(1),
                "^\\[[0-9.]+\\] fatal: --flag: bad value 7\n$");
}

TEST(LoggingDeath, PanicDumpsTheFlightRecorder)
{
    swiftrl::telemetry::tracer().note("panic breadcrumb");
    EXPECT_DEATH(SWIFTRL_PANIC("panic with flight record"),
                 "flight recorder(.|\n)*panic breadcrumb");
}

} // namespace
