/**
 * @file
 * Minimal command-line flag parser shared by bench and example
 * binaries. Flags take the form --name=value or --name value; bare
 * --name sets a boolean flag to true.
 */

#ifndef SWIFTRL_COMMON_CLI_HH
#define SWIFTRL_COMMON_CLI_HH

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace swiftrl::common {

/**
 * Parsed command line. Unknown flags are fatal (catching typos in
 * experiment parameters beats silently running the wrong sweep).
 */
class CliFlags
{
  public:
    /**
     * Parse argv.
     *
     * @param known the set of accepted flag names (without "--").
     */
    CliFlags(int argc, char **argv, std::vector<std::string> known);

    /** True when the flag was passed on the command line. */
    bool has(const std::string &name) const;

    /** String value, or @p fallback when absent. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /** Integer value, or @p fallback when absent. */
    std::int64_t getInt(const std::string &name,
                        std::int64_t fallback) const;

    /**
     * Integer value narrowed to T, or @p fallback when absent. A value
     * outside [@p lo, @p hi] — by default T's whole range — is a usage
     * error naming the flag, so nothing is wrapped or truncated.
     */
    template <std::integral T>
    T
    getIntIn(const std::string &name, T fallback,
             T lo = std::numeric_limits<T>::min(),
             T hi = std::numeric_limits<T>::max()) const
    {
        if (!has(name))
            return fallback;
        const std::int64_t v = getInt(name, 0);
        if (std::cmp_less(v, lo) || std::cmp_greater(v, hi))
            outOfRange(name, v, std::to_string(lo), std::to_string(hi));
        return static_cast<T>(v);
    }

    /** Floating-point value, or @p fallback when absent. */
    double getDouble(const std::string &name, double fallback) const;

    /** Boolean value; bare flag means true. */
    bool getBool(const std::string &name, bool fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return _positional;
    }

  private:
    /** The usage error of getIntIn. */
    [[noreturn]] void outOfRange(const std::string &name, std::int64_t v,
                                 const std::string &lo,
                                 const std::string &hi) const;

    std::map<std::string, std::string> _values;

    /**
     * Flags passed bare (no value token followed). Only getBool may
     * read these as "true"; the typed getters reject them with an
     * "expects a value" diagnostic, which catches --seed --trace
     * (value swallowed by the next flag) at the right flag instead of
     * as a confusing type error downstream.
     */
    std::set<std::string> _bare;
    std::vector<std::string> _positional;
};

} // namespace swiftrl::common

#endif // SWIFTRL_COMMON_CLI_HH
