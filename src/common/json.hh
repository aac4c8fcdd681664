/**
 * @file
 * Shared JSON utilities: the one string escaper and number renderer
 * every exporter uses (Chrome traces, metrics JSON, manifests), plus
 * a small recursive-descent parser for configuration documents (the
 * C API's `params_json` strings).
 *
 * Writing rules, fixed across the repo:
 *
 *  - `jsonEscape` escapes `"` and `\` with a backslash and renders
 *    every control character (< 0x20) as a `\uXXXX` escape. No
 *    short escapes (`\n`, `\t`): tools that grep traces for labels
 *    rely on the `\uXXXX` form, and one canonical spelling keeps
 *    exports byte-deterministic across writers.
 *  - `jsonNumber` renders a double as the shortest decimal string
 *    that parses back to the same bits (std::to_chars), so bucket
 *    bounds like 1.1 print as "1.1" while exports stay
 *    byte-deterministic.
 *
 * The parser accepts strict JSON (objects, arrays, strings with the
 * standard escapes, numbers, booleans, null) and reports the byte
 * offset of the first error. It exists for *configuration*, not for
 * data interchange: documents are expected to be small, and the
 * whole value tree is materialised eagerly.
 */

#ifndef SWIFTRL_COMMON_JSON_HH
#define SWIFTRL_COMMON_JSON_HH

#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swiftrl::json {

/** Escape a JSON string body; see file comment for the rules. */
std::string jsonEscape(std::string_view s);

/** Shortest round-trip decimal rendering of @p v. */
std::string jsonNumber(double v);

/**
 * One parsed JSON value. A tagged union in struct clothing: only the
 * member matching `type` is meaningful. Object members preserve
 * source order (duplicate keys keep the last occurrence on lookup,
 * matching common JSON semantics).
 */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> elements;

    bool isNull() const { return type == Type::Null; }
    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isBool() const { return type == Type::Bool; }

    /**
     * Object member lookup (last occurrence wins); nullptr when this
     * is not an object or the key is absent.
     */
    const JsonValue *find(std::string_view key) const;

    /** Member as double, or @p fallback when absent/not a number. */
    double numberOr(std::string_view key, double fallback) const;

    /**
     * Checked integer member read: @p fallback when absent/not a
     * number, the value when it is integral and fits T, and
     * std::nullopt when it is fractional or outside T's range (a
     * plain cast of such a double to an integer is undefined).
     */
    template <std::integral T>
    std::optional<T>
    integerOr(std::string_view key, T fallback) const
    {
        const JsonValue *v = find(key);
        if (!v || !v->isNumber())
            return fallback;
        return v->integer<T>();
    }

    /** This value as a T: std::nullopt unless it is an integral
     *  number within T's range. */
    template <std::integral T>
    std::optional<T>
    integer() const
    {
        // T's range is [min, 2^digits); both bounds are exact doubles.
        const double lo = static_cast<double>(
            std::numeric_limits<T>::min());
        const double hi =
            std::ldexp(1.0, std::numeric_limits<T>::digits);
        if (!isNumber() || !(number >= lo && number < hi) ||
            std::trunc(number) != number)
            return std::nullopt;
        return static_cast<T>(number);
    }

    /** Member as bool, or @p fallback when absent/not a bool. */
    bool boolOr(std::string_view key, bool fallback) const;

    /** Member as string, or @p fallback when absent/not a string. */
    std::string stringOr(std::string_view key,
                         std::string_view fallback) const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected). On failure returns std::nullopt and,
 * when @p error is non-null, stores "offset N: reason".
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

} // namespace swiftrl::json

#endif // SWIFTRL_COMMON_JSON_HH
