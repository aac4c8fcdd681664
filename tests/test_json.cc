// Tests for common/json: the shared escaper/number renderer every
// exporter uses and the configuration parser behind the C API's
// params_json documents.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/json.hh"

namespace {

using swiftrl::json::JsonValue;
using swiftrl::json::jsonEscape;
using swiftrl::json::jsonNumber;
using swiftrl::json::parseJson;

// --- writing ---------------------------------------------------------

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, RendersControlCharactersAsU4Hex)
{
    // One canonical spelling — \u000a, never the short \n — so
    // tools that grep exports for labels see a fixed form.
    EXPECT_EQ(jsonEscape("a\nb"), "a\\u000ab");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\u0009b");
    EXPECT_EQ(jsonEscape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(JsonNumber, ShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(1.1), "1.1");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(-2.5), "-2.5");
    EXPECT_EQ(jsonNumber(1e100), "1e+100");
}

// --- parsing ---------------------------------------------------------

TEST(JsonParse, ScalarsAndNesting)
{
    const auto doc = parseJson(
        R"({"a": 1.5, "b": "two", "c": true, "d": null,
            "e": [1, 2, 3], "f": {"g": -4}})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->numberOr("a", 0.0), 1.5);
    EXPECT_EQ(doc->stringOr("b", ""), "two");
    EXPECT_TRUE(doc->boolOr("c", false));
    ASSERT_NE(doc->find("d"), nullptr);
    EXPECT_TRUE(doc->find("d")->isNull());
    ASSERT_NE(doc->find("e"), nullptr);
    ASSERT_TRUE(doc->find("e")->isArray());
    ASSERT_EQ(doc->find("e")->elements.size(), 3u);
    EXPECT_DOUBLE_EQ(doc->find("e")->elements[1].number, 2.0);
    ASSERT_NE(doc->find("f"), nullptr);
    EXPECT_EQ(doc->find("f")->integerOr<int>("g", 0), -4);
}

TEST(JsonParse, StringEscapes)
{
    const auto doc =
        parseJson(R"({"s": "q\"b\\n\nu\u0041"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->stringOr("s", ""), "q\"b\\n\nuA");
}

TEST(JsonParse, EscaperOutputRoundTrips)
{
    const std::string original = "label \"x\"\n\tpath\\to";
    const auto doc =
        parseJson("{\"s\": \"" + jsonEscape(original) + "\"}");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->stringOr("s", ""), original);
}

TEST(JsonParse, NumberForms)
{
    const auto doc = parseJson(
        R"({"i": 42, "neg": -7, "frac": 0.25, "exp": 2e3})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->integerOr<int>("i", 0), 42);
    EXPECT_EQ(doc->integerOr<long>("neg", 0), -7);
    EXPECT_DOUBLE_EQ(doc->numberOr("frac", 0.0), 0.25);
    EXPECT_DOUBLE_EQ(doc->numberOr("exp", 0.0), 2000.0);
}

TEST(JsonParse, DuplicateKeysLastWins)
{
    const auto doc = parseJson(R"({"k": 1, "k": 2})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->integerOr<int>("k", 0), 2);
    // Source order is preserved for iteration.
    EXPECT_EQ(doc->members.size(), 2u);
}

TEST(JsonParse, IntegerReadsAreChecked)
{
    const auto doc = parseJson(
        R"({"frac": 2.5, "huge": 1e300, "wrap": 4294967297,
            "neg": -1, "exp": 2e3, "top": 2147483647,
            "u64": 18446744073709549568, "past": 18446744073709551616})");
    ASSERT_TRUE(doc.has_value());
    // Integral values that fit are read, in exponent form too.
    EXPECT_EQ(doc->integerOr<int>("exp", 0), 2000);
    EXPECT_EQ(doc->integerOr<int>("top", 0), 2147483647);
    EXPECT_EQ(doc->integerOr<std::uint64_t>("u64", 0),
              18446744073709549568ull);
    // Fractional values and values outside the destination's range
    // are refused instead of truncated or wrapped.
    EXPECT_EQ(doc->integerOr<int>("frac", 0), std::nullopt);
    EXPECT_EQ(doc->integerOr<long>("huge", 0), std::nullopt);
    EXPECT_EQ(doc->integerOr<int>("wrap", 0), std::nullopt);
    EXPECT_EQ(doc->integerOr<long>("wrap", 0), 4294967297L);
    EXPECT_EQ(doc->integerOr<unsigned>("neg", 0), std::nullopt);
    EXPECT_EQ(doc->integerOr<std::uint64_t>("past", 0), std::nullopt);
    // Absent and mistyped members still take the fallback.
    EXPECT_EQ(doc->integerOr<int>("absent", 7), 7);
}

TEST(JsonParse, HelpersFallBackOnMissingOrMistyped)
{
    const auto doc = parseJson(R"({"s": "text", "n": 3})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->numberOr("absent", 1.5), 1.5);
    EXPECT_DOUBLE_EQ(doc->numberOr("s", 1.5), 1.5);
    EXPECT_EQ(doc->stringOr("n", "fb"), "fb");
    EXPECT_TRUE(doc->boolOr("n", true));
    EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonParse, RejectsMalformedDocumentsWithOffset)
{
    std::string error;
    EXPECT_FALSE(parseJson("not json", &error).has_value());
    EXPECT_NE(error.find("offset"), std::string::npos);

    EXPECT_FALSE(parseJson("{\"a\": }", &error).has_value());
    EXPECT_FALSE(parseJson("{\"a\": 1,}", &error).has_value());
    EXPECT_FALSE(parseJson("[1, 2", &error).has_value());
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", &error)
                     .has_value());
    EXPECT_FALSE(parseJson("\"\\q\"", &error).has_value());
    EXPECT_FALSE(parseJson("{\"s\": \"\n\"}", &error).has_value());
    EXPECT_FALSE(parseJson("", &error).has_value());
}

TEST(JsonParse, TopLevelScalarsParse)
{
    const auto num = parseJson("3.5");
    ASSERT_TRUE(num.has_value());
    EXPECT_TRUE(num->isNumber());
    EXPECT_DOUBLE_EQ(num->number, 3.5);

    const auto str = parseJson("\"alone\"");
    ASSERT_TRUE(str.has_value());
    EXPECT_EQ(str->string, "alone");
}

} // namespace
