/**
 * @file
 * Tests for the minimal JSON document model (common/json.hh):
 * construction, serialisation, parsing, and round trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.hh"

namespace pomtlb
{
namespace
{

TEST(Json, KindsAndAccessors)
{
    EXPECT_TRUE(JsonValue().isNull());
    EXPECT_TRUE(JsonValue(true).asBool());
    EXPECT_DOUBLE_EQ(JsonValue(2.5).asNumber(), 2.5);
    EXPECT_EQ(JsonValue("hi").asString(), "hi");
    EXPECT_EQ(JsonValue(std::uint64_t(42)).asUint(), 42u);

    EXPECT_THROW(JsonValue(2.5).asString(), std::logic_error);
    EXPECT_THROW(JsonValue("x").asNumber(), std::logic_error);
    EXPECT_THROW(JsonValue(2.5).asUint(), std::logic_error);
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue object = JsonValue::object();
    object.set("zeta", 1);
    object.set("alpha", 2);
    object.set("mid", 3);
    ASSERT_EQ(object.size(), 3u);
    EXPECT_EQ(object.members()[0].first, "zeta");
    EXPECT_EQ(object.members()[1].first, "alpha");
    EXPECT_EQ(object.members()[2].first, "mid");

    // Overwrite keeps position.
    object.set("alpha", 9);
    EXPECT_EQ(object.members()[1].first, "alpha");
    EXPECT_DOUBLE_EQ(object.at("alpha").asNumber(), 9.0);
    EXPECT_EQ(object.size(), 3u);
}

TEST(Json, CompactAndPrettySerialisation)
{
    JsonValue object = JsonValue::object();
    object.set("a", 1);
    JsonValue list = JsonValue::array();
    list.push("x").push(JsonValue(true)).push(JsonValue());
    object.set("b", std::move(list));

    EXPECT_EQ(object.dump(0), "{\"a\":1,\"b\":[\"x\",true,null]}");
    EXPECT_EQ(object.dump(2),
              "{\n  \"a\": 1,\n  \"b\": [\n    \"x\",\n    true,\n"
              "    null\n  ]\n}");
}

TEST(Json, StringEscapes)
{
    const JsonValue value(std::string("a\"b\\c\nd\te\x01"));
    EXPECT_EQ(value.dump(0), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    // And back again.
    EXPECT_EQ(JsonValue::parse(value.dump(0)).asString(),
              value.asString());
}

TEST(Json, ParsesScalarsAndNesting)
{
    const JsonValue doc = JsonValue::parse(
        " { \"n\": -1.5e2, \"t\": true, \"f\": false, "
        "\"z\": null, \"arr\": [1, 2, [3]] } ");
    EXPECT_DOUBLE_EQ(doc.at("n").asNumber(), -150.0);
    EXPECT_TRUE(doc.at("t").asBool());
    EXPECT_FALSE(doc.at("f").asBool());
    EXPECT_TRUE(doc.at("z").isNull());
    EXPECT_EQ(doc.at("arr").size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("arr").at(2).at(0).asNumber(), 3.0);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("[1,]"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{1: 2}"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("tru"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{} trailing"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("1e"), JsonParseError);
}

TEST(Json, RejectsNonFiniteNumbers)
{
    EXPECT_THROW(
        JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(),
        std::logic_error);
    EXPECT_THROW(
        JsonValue(std::numeric_limits<double>::infinity()).dump(),
        std::logic_error);
}

TEST(Json, AsUintRejectsNumbersOutsideUint64)
{
    // Casting these to uint64_t is undefined behaviour; each must
    // throw the named error instead (it is a std::logic_error too).
    const double bad[] = {1.5e30,
                          18446744073709551616.0, // 2^64
                          -1.0,
                          2.5,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
    for (const double value : bad)
        EXPECT_THROW(JsonValue(value).asUint(), JsonRangeError)
            << value;
    // 2^64 - 1 lexes exactly; one more does not fit in 64 bits.
    EXPECT_EQ(JsonValue::parse("18446744073709551615").asUint(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_THROW(JsonValue::parse("18446744073709551616").asUint(),
                 JsonRangeError);
    EXPECT_THROW(JsonValue::parse("1.5e30").asUint(), JsonRangeError);
    EXPECT_THROW(JsonValue::parse("-1").asUint(), JsonRangeError);
    EXPECT_THROW(JsonValue::parse("2.5").asUint(), JsonRangeError);

    // The largest double below 2^64 still converts exactly.
    EXPECT_EQ(JsonValue(18446744073709549568.0).asUint(),
              std::uint64_t{18446744073709549568u});
    EXPECT_EQ(JsonValue::parse("0").asUint(), 0u);
}

TEST(Json, Uint64RoundTripIsExact)
{
    // Above 2^53 a double cannot hold every integer; uint64 values
    // must still write and parse back digit for digit.
    const std::uint64_t values[] = {
        (std::uint64_t{1} << 53) + 1,
        std::numeric_limits<std::uint64_t>::max()};
    const char *const digits[] = {"9007199254740993",
                                  "18446744073709551615"};
    for (int i = 0; i < 2; ++i) {
        const JsonValue value(values[i]);
        EXPECT_EQ(value.dump(0), digits[i]);
        const JsonValue parsed = JsonValue::parse(value.dump(0));
        EXPECT_EQ(parsed.asUint(), values[i]);
        EXPECT_EQ(parsed, value);
        EXPECT_NE(parsed, JsonValue(values[i] - 1));
    }
}

TEST(Json, ExactIntegersBelow2To53PrintLikeDoubles)
{
    // Exact integers print the bytes a double of the same value
    // prints, so documents and content hashes built from them are
    // unchanged.
    const std::uint64_t values[] = {0,
                                    1,
                                    999999999999999,
                                    1000000000000000,
                                    (std::uint64_t{1} << 53) - 1,
                                    std::uint64_t{1} << 53};
    for (const std::uint64_t v : values) {
        const JsonValue exact(v);
        const JsonValue approx(static_cast<double>(v));
        EXPECT_EQ(exact.dump(0), approx.dump(0)) << v;
        EXPECT_EQ(exact, approx) << v;
        EXPECT_EQ(JsonValue::parse(approx.dump(0)), approx) << v;
    }
}

TEST(Json, DoubleRoundTripIsLossless)
{
    // %.17g preserves every IEEE-754 double exactly.
    const double values[] = {0.1, 1.0 / 3.0, 6.02214076e23,
                             -2.2250738585072014e-308, 123456789.5};
    for (const double v : values) {
        const JsonValue parsed =
            JsonValue::parse(JsonValue(v).dump(0));
        EXPECT_EQ(parsed.asNumber(), v);
    }
}

TEST(Json, DocumentRoundTripPreservesEquality)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", "sweep");
    doc.set("count", 17);
    doc.set("enabled", true);
    JsonValue runs = JsonValue::array();
    for (int i = 0; i < 3; ++i) {
        JsonValue run = JsonValue::object();
        run.set("i", i);
        run.set("rate", 0.25 * i);
        runs.push(std::move(run));
    }
    doc.set("runs", std::move(runs));

    EXPECT_EQ(JsonValue::parse(doc.dump(2)), doc);
    EXPECT_EQ(JsonValue::parse(doc.dump(0)), doc);
}

} // namespace
} // namespace pomtlb
