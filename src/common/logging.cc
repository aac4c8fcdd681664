#include "common/logging.hh"

#include <atomic>
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>

namespace swiftrl::common {

namespace {

/**
 * One mutex over every message write. Trainer progress lines and
 * warnings can originate from host-pool workers and actor threads
 * concurrently; serialising the stream insert keeps lines intact.
 * fatal/panic take it too (released before exit/abort) so a dying
 * thread's last message doesn't interleave with a live one's.
 * Function-local static so it is constructed before any caller —
 * including the SWIFTRL_LOG warning emitted during static init.
 */
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::chrono::steady_clock::time_point
processStart()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

std::atomic<LogEventHook> g_logEventHook{nullptr};
std::atomic<CrashDumpHook> g_crashDumpHook{nullptr};

/** One-time latch for the unknown-level-name warning (env or CLI). */
std::atomic<bool> g_levelNameWarned{false};

/**
 * Emit one log line: "[<monotonic seconds>] <level>: <msg>". The
 * timestamp attributes interleaved actor/fleet/serving output to a
 * moment; the level tag keeps `grep '] warn:'` working.
 */
void
writeLine(const char *level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    if (const LogEventHook hook =
            g_logEventHook.load(std::memory_order_acquire))
        hook(level, msg.c_str());
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "[%.6f] ", monotonicSeconds());
    std::cerr << stamp << level << ": " << msg << "\n";
}

void
warnUnknownLevelName(std::string_view name, std::string_view source)
{
    if (g_levelNameWarned.exchange(true, std::memory_order_relaxed))
        return;
    writeLine("warn",
              detail::concat(source, "=", name,
                             " is not a log level "
                             "(quiet|warn|inform|debug); using 'inform'"));
}

/**
 * Resolve the initial level once, honouring the SWIFTRL_LOG
 * environment variable ("quiet" | "warn" | "inform" | "debug"); an
 * unset value keeps the Inform default, and an unrecognised value
 * warns once and falls back to Inform — silently ignoring a typo
 * would look like a broken flag.
 */
LogLevel
initialLevel()
{
    const char *env = std::getenv("SWIFTRL_LOG");
    if (!env || !*env)
        return LogLevel::Inform;
    const auto parsed = parseLogLevel(env);
    if (!parsed) {
        warnUnknownLevelName(env, "SWIFTRL_LOG");
        return LogLevel::Inform;
    }
    return *parsed;
}

std::atomic<LogLevel> g_level{initialLevel()};

} // namespace

std::optional<LogLevel>
parseLogLevel(std::string_view name)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    if (lower == "quiet")
        return LogLevel::Quiet;
    if (lower == "warn")
        return LogLevel::Warn;
    if (lower == "inform" || lower == "info")
        return LogLevel::Inform;
    if (lower == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

void
setLogLevelFromName(std::string_view name, std::string_view source)
{
    const auto parsed = parseLogLevel(name);
    if (!parsed) {
        warnUnknownLevelName(name, source);
        setLogLevel(LogLevel::Inform);
        return;
    }
    setLogLevel(*parsed);
}

double
monotonicSeconds()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         processStart())
        .count();
}

void
setLogEventHook(LogEventHook hook)
{
    g_logEventHook.store(hook, std::memory_order_release);
}

void
setCrashDumpHook(CrashDumpHook hook)
{
    g_crashDumpHook.store(hook, std::memory_order_release);
}

namespace detail {

namespace {

void
runCrashDumpHook()
{
    if (const CrashDumpHook hook =
            g_crashDumpHook.load(std::memory_order_acquire))
        hook();
}

} // namespace

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    writeLine("fatal", concat(msg, " (", file, ":", line, ")"));
    runCrashDumpHook();
    std::exit(1);
}

void
usageErrorImpl(const std::string &msg)
{
    writeLine("fatal", msg);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine("panic", concat(msg, " (", file, ":", line, ")"));
    runCrashDumpHook();
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        writeLine("warn", msg);
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Inform)
        writeLine("inform", msg);
}

void
debugImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Debug)
        writeLine("debug", msg);
}

} // namespace detail

} // namespace swiftrl::common
