#include "common/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace swiftrl::common {

CliFlags::CliFlags(int argc, char **argv, std::vector<std::string> known)
{
    auto is_known = [&](const std::string &name) {
        return std::find(known.begin(), known.end(), name) != known.end();
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            _positional.push_back(std::move(arg));
            continue;
        }
        arg.erase(0, 2);
        std::string name, value;
        bool bare = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            // --name value (when the next token is not a flag). A
            // bare flag reads as "true", but only getBool accepts
            // that — the typed getters reject it, so a value
            // swallowed by the next flag is caught at this flag.
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            } else {
                value = "true";
                bare = true;
            }
        }
        if (!is_known(name))
            SWIFTRL_USAGE_ERROR("unknown flag --", name);
        // Last-one-wins would silently ignore half of an experiment
        // command line; repeating a flag is always a mistake here.
        if (_values.count(name) > 0)
            SWIFTRL_USAGE_ERROR("duplicate flag --", name);
        _values[name] = value;
        if (bare)
            _bare.insert(name);
    }
}

bool
CliFlags::has(const std::string &name) const
{
    return _values.count(name) > 0;
}

std::string
CliFlags::getString(const std::string &name,
                    const std::string &fallback) const
{
    const auto it = _values.find(name);
    return it == _values.end() ? fallback : it->second;
}

std::int64_t
CliFlags::getInt(const std::string &name, std::int64_t fallback) const
{
    const auto it = _values.find(name);
    if (it == _values.end())
        return fallback;
    if (_bare.count(name) > 0)
        SWIFTRL_USAGE_ERROR("flag --", name, " expects a value");
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        SWIFTRL_USAGE_ERROR("flag --", name, " expects an integer, got '",
                            it->second, "'");
    // strtoll clamps out-of-range input to the extremes and flags it
    // via errno; silently training with INT64_MAX episodes is not an
    // acceptable reading of a typo'd seed.
    if (errno == ERANGE)
        SWIFTRL_USAGE_ERROR("flag --", name, " value '", it->second,
                            "' is out of range for a 64-bit integer");
    return v;
}

void
CliFlags::outOfRange(const std::string &name, std::int64_t v,
                     const std::string &lo, const std::string &hi) const
{
    SWIFTRL_USAGE_ERROR("--", name, ": must be an integer in [", lo, ", ", hi,
                        "], got ", v);
}

double
CliFlags::getDouble(const std::string &name, double fallback) const
{
    const auto it = _values.find(name);
    if (it == _values.end())
        return fallback;
    if (_bare.count(name) > 0)
        SWIFTRL_USAGE_ERROR("flag --", name, " expects a value");
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        SWIFTRL_USAGE_ERROR("flag --", name, " expects a number, got '",
                            it->second, "'");
    // Overflow clamps to +/-HUGE_VAL with ERANGE; reject it loudly.
    // (Underflow to a denormal also raises ERANGE but is a usable
    // value, so it passes.)
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        SWIFTRL_USAGE_ERROR("flag --", name, " value '", it->second,
                            "' is out of range for a double");
    return v;
}

bool
CliFlags::getBool(const std::string &name, bool fallback) const
{
    const auto it = _values.find(name);
    if (it == _values.end())
        return fallback;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    SWIFTRL_USAGE_ERROR("flag --", name, " expects a boolean, got '", v, "'");
}

} // namespace swiftrl::common
