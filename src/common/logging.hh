/**
 * @file
 * Status and error reporting helpers, following the gem5 convention:
 * fatal() for user errors that make continuing impossible, panic() for
 * internal invariant violations (bugs), warn()/inform() for advisory
 * messages that never stop execution.
 */

#ifndef SWIFTRL_COMMON_LOGGING_HH
#define SWIFTRL_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace swiftrl::common {

/** Verbosity levels for the message stream. */
enum class LogLevel { Quiet, Warn, Inform, Debug };

/**
 * Global log verbosity; messages above this level are suppressed.
 * Initialised from the SWIFTRL_LOG environment variable
 * (quiet|warn|inform|debug) when set; Inform otherwise. Message
 * writes are serialised, so concurrent log lines never interleave.
 */
LogLevel logLevel();

/** Set the global log verbosity (overrides SWIFTRL_LOG). */
void setLogLevel(LogLevel level);

/**
 * Parse a level name ("quiet", "warn", "inform"/"info", "debug"),
 * case-insensitive; nullopt when unrecognised. Shared by the
 * SWIFTRL_LOG environment hook and the --log-level CLI flag.
 */
std::optional<LogLevel> parseLogLevel(std::string_view name);

/**
 * Set the level from a user-supplied name. An unrecognised name warns
 * once per process (naming @p source, e.g. "--log-level" or
 * "SWIFTRL_LOG") and falls back to Inform — a typo should degrade to
 * the default verbosity, not silently change behaviour or kill the
 * run.
 */
void setLogLevelFromName(std::string_view name, std::string_view source);

/** Monotonic wall-clock seconds since process start. */
double monotonicSeconds();

/**
 * Observer hook called (under the log mutex) with every emitted log
 * line's level tag and message body. Installed by the telemetry
 * tracing layer to feed the flight recorder; pass nullptr to clear.
 * The hook must not log.
 */
using LogEventHook = void (*)(const char *level, const char *message);
void setLogEventHook(LogEventHook hook);

/**
 * Hook called by fatal()/panic() after the failure message is
 * printed, immediately before exit/abort — the flight recorder's
 * chance to dump a causal trail. Runs outside the log mutex (it is
 * expected to write to stderr itself); pass nullptr to clear.
 */
using CrashDumpHook = void (*)();
void setCrashDumpHook(CrashDumpHook hook);

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void usageErrorImpl(const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/**
 * The failure path of SWIFTRL_ASSERT, out of line and cold: the message
 * is built only here, so a call site costs one predicted-not-taken
 * branch and a call, and small asserting functions stay cheap enough
 * to inline.
 */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char *file, int line, const Args &...args)
{
    panicImpl(file, line, concat(args...));
}

} // namespace detail

/**
 * Terminate because of a condition that is the user's fault (bad
 * configuration, invalid arguments). Exits with status 1.
 */
#define SWIFTRL_FATAL(...) \
    ::swiftrl::common::detail::fatalImpl( \
        __FILE__, __LINE__, ::swiftrl::common::detail::concat(__VA_ARGS__))

/**
 * Terminate because the command line is wrong (a bad flag value, flags
 * that cannot combine, a run spec that cannot run). Prints the
 * one-line reason and exits with status 1, without the crash-dump
 * hook: a flight-recorder trail explains a failure inside a run, and a
 * usage error happens before there is one.
 */
#define SWIFTRL_USAGE_ERROR(...) \
    ::swiftrl::common::detail::usageErrorImpl( \
        ::swiftrl::common::detail::concat(__VA_ARGS__))

/**
 * Terminate because of a condition that should never happen regardless
 * of user input — an internal bug. Aborts (may dump core).
 */
#define SWIFTRL_PANIC(...) \
    ::swiftrl::common::detail::panicImpl( \
        __FILE__, __LINE__, ::swiftrl::common::detail::concat(__VA_ARGS__))

/** Panic unless an internal invariant holds. */
#define SWIFTRL_ASSERT(cond, ...) \
    do { \
        if (__builtin_expect(!(cond), 0)) { \
            ::swiftrl::common::detail::assertFailed( \
                __FILE__, __LINE__, \
                "assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

/** Advisory: something may not behave as the user expects. */
#define SWIFTRL_WARN(...) \
    ::swiftrl::common::detail::warnImpl( \
        ::swiftrl::common::detail::concat(__VA_ARGS__))

/** Normal operating status message. */
#define SWIFTRL_INFORM(...) \
    ::swiftrl::common::detail::informImpl( \
        ::swiftrl::common::detail::concat(__VA_ARGS__))

/** Developer-facing trace message. */
#define SWIFTRL_DEBUG(...) \
    ::swiftrl::common::detail::debugImpl( \
        ::swiftrl::common::detail::concat(__VA_ARGS__))

} // namespace swiftrl::common

#endif // SWIFTRL_COMMON_LOGGING_HH
